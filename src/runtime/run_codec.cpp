#include "runtime/run_codec.h"

#include "qasm/printer.h"

namespace qs::runtime {

namespace {

// RunRequest payload discriminator.
constexpr std::uint8_t kPayloadGateText = 0;
constexpr std::uint8_t kPayloadQubo = 1;

constexpr std::uint8_t kKindGate = 0;
constexpr std::uint8_t kKindAnneal = 1;

}  // namespace

void encode_run_request(const RunRequest& m, Encoder* e) {
  e->str(m.tenant);
  e->u64(m.session);
  if (m.qubo) {
    e->u8(kPayloadQubo);
    e->u32(static_cast<std::uint32_t>(m.qubo->size()));
    e->u32(static_cast<std::uint32_t>(m.qubo->terms().size()));
    for (const auto& [ij, w] : m.qubo->terms()) {
      e->u32(static_cast<std::uint32_t>(ij.first));
      e->u32(static_cast<std::uint32_t>(ij.second));
      e->f64(w);
    }
  } else {
    e->u8(kPayloadGateText);
    // A structured program is flattened to cQASM source; the server parses
    // at dispatch, so both submission styles meet on the same bytes.
    e->str(m.program_text ? *m.program_text
                          : (m.program ? qasm::to_cqasm(*m.program)
                                       : std::string()));
  }
  e->u64(m.shots);
  e->u64(m.seed);
  e->i32(m.priority);
  if (m.deadline) {
    e->u8(1);
    e->u64(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(*m.deadline)
            .count()));
  } else {
    e->u8(0);
  }
  e->u64(m.sim_threads);
  e->str(m.tag);
  e->str(m.idempotency_key);  // v3
  e->u8(static_cast<std::uint8_t>(m.precision));  // v4
}

bool decode_run_request(Decoder* d, RunRequest* m) {
  *m = RunRequest{};
  std::uint8_t payload_tag;
  if (!d->str(&m->tenant) || !d->u64(&m->session) || !d->u8(&payload_tag))
    return false;
  if (payload_tag == kPayloadGateText) {
    std::string text;
    if (!d->str(&text)) return false;
    m->program_text = std::move(text);
  } else if (payload_tag == kPayloadQubo) {
    std::uint32_t n, terms;
    if (!d->u32(&n) || !d->u32(&terms)) return false;
    if (n == 0) {
      d->fail("empty qubo");
      return false;
    }
    anneal::Qubo qubo(n);
    for (std::uint32_t t = 0; t < terms; ++t) {
      std::uint32_t i, j;
      double w;
      if (!d->u32(&i) || !d->u32(&j) || !d->f64(&w)) return false;
      if (i >= n || j >= n) {
        d->fail("qubo term index out of range");
        return false;
      }
      qubo.add(i, j, w);
    }
    m->qubo = std::move(qubo);
  } else {
    d->fail("unknown run-request payload tag");
    return false;
  }
  std::uint64_t shots, seed, deadline_us, sim_threads;
  std::uint8_t has_deadline, precision;
  if (!d->u64(&shots) || !d->u64(&seed) || !d->i32(&m->priority) ||
      !d->u8(&has_deadline) ||
      (has_deadline != 0 && !d->u64(&deadline_us)) || !d->u64(&sim_threads) ||
      !d->str(&m->tag) || !d->str(&m->idempotency_key) ||
      !d->u8(&precision) ||  // v4
      !d->finish())
    return false;
  // A count past kMaxDeadline could overflow converting to nanoseconds.
  if (has_deadline > 1 ||
      (has_deadline && deadline_us > std::uint64_t{std::chrono::microseconds(
                                         kMaxDeadline).count()})) {
    d->fail("bad deadline");
    return false;
  }
  if (precision > 1) {
    d->fail("bad precision tier");
    return false;
  }
  m->precision = static_cast<Precision>(precision);
  m->shots = static_cast<std::size_t>(shots);
  m->seed = seed;
  if (has_deadline)
    m->deadline = std::chrono::microseconds(deadline_us);
  m->sim_threads = static_cast<std::size_t>(sim_threads);
  return true;
}

void encode_run_result(const RunResult& m, Encoder* e) {
  e->u64(m.job_id);
  e->u8(m.kind == JobKind::Gate ? kKindGate : kKindAnneal);
  e->str(m.tag);
  encode_status(m.status, e);
  e->histogram(m.histogram);
  e->u32(static_cast<std::uint32_t>(m.best_solution.size()));
  for (int bit : m.best_solution) e->i32(bit);
  e->f64(m.best_energy);
  e->f64(m.stats.queue_wait_us);
  e->f64(m.stats.run_us);
  e->u8(m.stats.compile_cache_hit ? 1 : 0);
  e->u64(m.stats.retries);
  e->u64(m.stats.shards);
  e->u64(m.stats.failovers);
  e->u64(m.stats.shards_resumed);
  e->u64(m.stats.shards_executed);
  e->u64(m.stats.dispatch_seq);
  e->u8(m.stats.sampled ? 1 : 0);
  e->u8(m.stats.final_state_cache_hit ? 1 : 0);
  e->u8(static_cast<std::uint8_t>(m.stats.compile_cache_tier));
  e->u8(static_cast<std::uint8_t>(m.stats.final_state_cache_tier));
  e->u8(m.stats.journal_recovered ? 1 : 0);  // v3
  e->u8(m.stats.idempotent_hit ? 1 : 0);     // v3
  e->u8(static_cast<std::uint8_t>(m.stats.precision));  // v4
  e->u64(m.stats.fused_gates);                          // v4
  e->u64(m.stats.fused_ops);                            // v4
  e->u64(m.stats.fused_max_run);                        // v4
}

bool decode_run_result(Decoder* d, RunResult* m) {
  *m = RunResult{};
  std::uint8_t kind;
  if (!d->u64(&m->job_id) || !d->u8(&kind) || !d->str(&m->tag) ||
      !decode_status(d, &m->status) || !d->histogram(&m->histogram))
    return false;
  if (kind != kKindGate && kind != kKindAnneal) {
    d->fail("unknown job kind");
    return false;
  }
  m->kind = kind == kKindGate ? JobKind::Gate : JobKind::Anneal;
  std::uint32_t bits;
  if (!d->u32(&bits)) return false;
  for (std::uint32_t i = 0; i < bits; ++i) {
    std::int32_t bit;
    if (!d->i32(&bit)) return false;
    m->best_solution.push_back(bit);
  }
  std::uint64_t retries, shards, failovers, resumed, executed, dispatch_seq;
  std::uint64_t fused_gates, fused_ops, fused_max_run;
  std::uint8_t cache_hit, sampled, fsc_hit, compile_tier, final_tier;
  std::uint8_t recovered, idem_hit, precision;
  if (!d->f64(&m->best_energy) || !d->f64(&m->stats.queue_wait_us) ||
      !d->f64(&m->stats.run_us) || !d->u8(&cache_hit) || !d->u64(&retries) ||
      !d->u64(&shards) || !d->u64(&failovers) || !d->u64(&resumed) ||
      !d->u64(&executed) || !d->u64(&dispatch_seq) || !d->u8(&sampled) ||
      !d->u8(&fsc_hit) || !d->u8(&compile_tier) || !d->u8(&final_tier) ||
      !d->u8(&recovered) || !d->u8(&idem_hit) ||
      !d->u8(&precision) || !d->u64(&fused_gates) ||  // v4
      !d->u64(&fused_ops) || !d->u64(&fused_max_run) || !d->finish())
    return false;
  if (compile_tier > 2 || final_tier > 2) {
    d->fail("bad store tier");
    return false;
  }
  if (precision > 1) {
    d->fail("bad precision tier");
    return false;
  }
  m->stats.precision = static_cast<Precision>(precision);
  m->stats.fused_gates = static_cast<std::size_t>(fused_gates);
  m->stats.fused_ops = static_cast<std::size_t>(fused_ops);
  m->stats.fused_max_run = static_cast<std::size_t>(fused_max_run);
  m->stats.compile_cache_tier = static_cast<CacheTier>(compile_tier);
  m->stats.final_state_cache_tier = static_cast<CacheTier>(final_tier);
  m->stats.compile_cache_hit = cache_hit != 0;
  m->stats.retries = static_cast<std::size_t>(retries);
  m->stats.shards = static_cast<std::size_t>(shards);
  m->stats.failovers = static_cast<std::size_t>(failovers);
  m->stats.shards_resumed = static_cast<std::size_t>(resumed);
  m->stats.shards_executed = static_cast<std::size_t>(executed);
  m->stats.dispatch_seq = dispatch_seq;
  m->stats.sampled = sampled != 0;
  m->stats.final_state_cache_hit = fsc_hit != 0;
  m->stats.journal_recovered = recovered != 0;
  m->stats.idempotent_hit = idem_hit != 0;
  return true;
}

}  // namespace qs::runtime
