#include "fuzz/differential.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/hash.h"
#include "common/rng.h"
#include "compiler/platform.h"
#include "fuzz/shrink.h"
#include "gateway/client.h"
#include "gateway/server.h"
#include "qasm/printer.h"
#include "runtime/accelerator.h"
#include "service/backend_pool.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "sim/trajectory_analysis.h"
#include "store/artifact_store.h"

namespace qs::fuzz {

namespace {

using runtime::FaultPlan;
using runtime::GateAccelerator;
using runtime::RunRequest;
using runtime::RunResult;

using runtime::CrashPoint;

/// Indices into DifferentialHarness::Impl::services.
enum ServiceIndex : int {
  kSvcW1 = 0,        ///< 1 worker, sampling on (service-class reference)
  kSvcW4 = 1,        ///< 4 workers, sampling on
  kSvcPool = 2,      ///< 2 workers, sampling on, 2-backend pool (faults)
  kSvcOffW1 = 3,     ///< 1 worker, sampling off (trajectory-class ref)
  kSvcOffW2 = 4,     ///< 2 workers, sampling off
  kSvcResume = 5,    ///< 1 worker, sampling on, checkpoint store
  kSvcStore = 6,     ///< 1 worker, sampling on, disk-backed artifact store
  kServiceCount = 7,
};

}  // namespace

std::string first_histogram_diff(const Histogram& ref, const Histogram& got) {
  if (ref.counts() == got.counts()) return "";
  for (const auto& [key, count] : ref.counts()) {
    const std::size_t other = got.count(key);
    if (other != count)
      return "key \"" + key + "\": reference " + std::to_string(count) +
             ", variant " + std::to_string(other);
  }
  for (const auto& [key, count] : got.counts()) {
    if (ref.count(key) == 0)
      return "key \"" + key + "\": reference 0, variant " +
             std::to_string(count);
  }
  return "histograms differ";
}

std::string Divergence::to_string() const {
  std::ostringstream os;
  os << "=== determinism divergence ===\n";
  os << "generator seed : " << generator_seed
     << (generator_seed == 0 ? " (hand-built program)" : "") << '\n';
  os << "shots / seed   : " << shots << " / " << run_seed << '\n';
  os << "reference      : " << reference.name << " (total "
     << reference_histogram.total() << ")\n";
  os << "variant        : " << variant.name << " (total "
     << variant_histogram.total() << ")\n";
  os << "first diff     : " << detail << '\n';
  os << "--- minimal cQASM repro (seed " << run_seed << ", " << shots
     << " shots, configs above) ---\n";
  os << qasm::to_cqasm(program);
  return os.str();
}

struct DifferentialHarness::Impl {
  GateAccelerator compile_authority;
  std::vector<std::unique_ptr<service::QuantumService>> services;

  /// Disk-backed artifact store for the kSvcStore service; the directory
  /// is private to this harness instance and removed on teardown.
  std::shared_ptr<store::ArtifactStore> store;
  std::filesystem::path store_dir;

  std::unique_ptr<service::QuantumService> gateway_service;
  std::unique_ptr<gateway::GatewayServer> gateway;
  gateway::GatewayClient client;

  /// One-slot compile memo: within check() and within a shrink predicate
  /// the same program is executed under many configs back to back.
  std::string memo_text;
  compiler::CompileResult memo_compiled;

  /// Monotonic tag making each kill-restart run's scratch directory
  /// unique within this harness (the pointer value separates harnesses).
  std::uint64_t kill_restart_runs = 0;

  explicit Impl(const Options& opts)
      : compile_authority(compiler::Platform::perfect(opts.platform_qubits)) {}

  const compiler::CompileResult& compiled_for(const qasm::Program& program,
                                              const std::string& text) {
    if (text != memo_text) {
      memo_compiled = compile_authority.compile_const(program);
      memo_text = text;
    }
    return memo_compiled;
  }
};

DifferentialHarness::DifferentialHarness() : DifferentialHarness(Options{}) {}

DifferentialHarness::DifferentialHarness(Options options)
    : options_(options), impl_(std::make_unique<Impl>(options)) {
  if (!options_.with_service) return;

  auto make_options = [&](std::size_t workers) {
    service::ServiceOptions so;
    so.workers = workers;
    so.shard_shots = options_.shard_shots;
    so.queue_capacity = 64;
    so.retry_backoff.initial = std::chrono::microseconds(1);
    so.retry_backoff.cap = std::chrono::microseconds(10);
    return so;
  };
  // Sampling off puts every job of the service on per-shot trajectories.
  auto gate = [&](bool sampling = true) {
    GateAccelerator g(compiler::Platform::perfect(options_.platform_qubits));
    sim::SimOptions so = g.sim_options();
    so.sampling = sampling;
    g.set_sim_options(so);
    return g;
  };

  impl_->services.resize(kServiceCount);
  impl_->services[kSvcW1] = std::make_unique<service::QuantumService>(
      gate(), make_options(1));
  impl_->services[kSvcW4] = std::make_unique<service::QuantumService>(
      gate(), make_options(4));

  // Two-backend pool: b1 is the one fault plans crash, so shards re-route
  // to b0. A short breaker cooldown lets b1 walk back through half-open
  // between fuzz iterations, keeping the failover path exercised instead
  // of permanently open after the first program.
  service::BackendPoolOptions pool_opts;
  pool_opts.breaker.open_cooldown = std::chrono::milliseconds(2);
  auto pool = std::make_shared<service::BackendPool>(pool_opts);
  for (const char* name : {"b0", "b1"}) {
    const Status st = pool->register_gate(
        name, std::make_shared<GateAccelerator>(
                  compiler::Platform::perfect(options_.platform_qubits)));
    if (!st.ok())
      throw std::runtime_error("fuzz harness: " + st.to_string());
  }
  impl_->services[kSvcPool] = std::make_unique<service::QuantumService>(
      std::move(pool), make_options(2));

  impl_->services[kSvcOffW1] = std::make_unique<service::QuantumService>(
      gate(/*sampling=*/false), make_options(1));
  impl_->services[kSvcOffW2] = std::make_unique<service::QuantumService>(
      gate(/*sampling=*/false), make_options(2));

  service::ServiceOptions resume_opts = make_options(1);
  resume_opts.checkpoint_store =
      std::make_shared<service::StoreCheckpointStore>(
          std::make_shared<store::ArtifactStore>());
  resume_opts.max_shard_retries = 0;  // the injected kill fails fast
  impl_->services[kSvcResume] = std::make_unique<service::QuantumService>(
      gate(), std::move(resume_opts));

  // Disk-backed store service: a per-harness temp directory (the pointer
  // value makes concurrent harnesses in one process collision-free). The
  // shared store handle lets store_reload configs drop the memory tier
  // between submissions, forcing the second run through disk revival.
  {
    std::ostringstream dir;
    dir << "qs-fuzz-store-" << std::hex
        << reinterpret_cast<std::uintptr_t>(impl_.get());
    impl_->store_dir = std::filesystem::temp_directory_path() / dir.str();
    service::ServiceOptions store_opts = make_options(1);
    store_opts.store_dir = impl_->store_dir.string();
    // The kill-restart config owns journal/durability coverage with its
    // own per-program directories; keep the warm-disk path free of WAL
    // records and fsyncs so thousands of programs stay fast.
    store_opts.journal_enabled = false;
    store_opts.sync_writes = false;
    impl_->services[kSvcStore] = std::make_unique<service::QuantumService>(
        gate(), std::move(store_opts));
    impl_->store = impl_->services[kSvcStore]->store_ptr();
  }

  if (!options_.with_gateway) return;
  impl_->gateway_service = std::make_unique<service::QuantumService>(
      gate(), make_options(2));
  impl_->gateway = std::make_unique<gateway::GatewayServer>(
      *impl_->gateway_service, gateway::GatewayOptions{});
  Status st = impl_->gateway->start();
  if (!st.ok()) throw std::runtime_error("fuzz harness: " + st.to_string());
  st = impl_->client.connect("127.0.0.1", impl_->gateway->port(),
                             "fuzz-harness");
  if (!st.ok()) throw std::runtime_error("fuzz harness: " + st.to_string());
}

DifferentialHarness::~DifferentialHarness() {
  if (impl_->client.connected()) impl_->client.close();
  if (impl_->gateway) impl_->gateway->shutdown();
  if (!impl_->store_dir.empty()) {
    // Shut the store-backed service down before deleting its directory.
    impl_->services[kSvcStore].reset();
    std::error_code ec;
    std::filesystem::remove_all(impl_->store_dir, ec);
  }
}

bool DifferentialHarness::samplable(const qasm::Program& program) const {
  // Analyze the compiled flatten, exactly as the simulator and the
  // service do. Judging the source flatten is wrong: the scheduler can
  // legally move a commuting gate ahead of a measure (turning a
  // mid-circuit measure terminal) and the optimiser can cancel inverse
  // pairs inside iterated circuits, flipping eligibility between source
  // and compiled forms. The harness's first hunt found exactly that.
  const compiler::CompileResult& compiled =
      impl_->compiled_for(program, qasm::to_cqasm(program));
  const auto analysis =
      sim::analyze_trajectory(compiled.program.flatten(),
                              options_.platform_qubits,
                              sim::QubitModel::perfect());
  return analysis.samplable;
}

std::vector<std::vector<ExecConfig>> DifferentialHarness::lattice(
    const qasm::Program& program) const {
  std::vector<std::vector<ExecConfig>> classes;

  auto sim_config = [](std::string name, bool fused, std::size_t threads,
                       bool sampling) {
    ExecConfig c;
    c.name = std::move(name);
    c.level = ExecConfig::Level::kSim;
    c.fused = fused;
    c.threads = threads;
    c.sampling = sampling;
    return c;
  };
  auto svc_config = [](std::string name, int service) {
    ExecConfig c;
    c.name = std::move(name);
    c.level = ExecConfig::Level::kService;
    c.service = service;
    return c;
  };

  auto with_tier = [&sim_config](std::string name, bool fused,
                                 std::size_t threads, bool sampling,
                                 Precision precision, SimdMode simd) {
    ExecConfig c = sim_config(std::move(name), fused, threads, sampling);
    c.precision = precision;
    c.simd = simd;
    return c;
  };

  // Class 0: direct trajectory runs — scalar/fused kernels x thread counts
  // x SIMD backend. The simd-off configs assert the per-tier bit-identity
  // contract: the AVX2 f64 kernels share the scalar kernels' expression
  // trees, so forcing the scalar backend must not change a single byte.
  std::vector<ExecConfig> trajectory = {
      sim_config("sim/scalar/t1/trajectory", false, 1, false),
      sim_config("sim/fused/t1/trajectory", true, 1, false),
      sim_config("sim/scalar/t2/trajectory", false, 2, false),
      sim_config("sim/fused/t4/trajectory", true, 4, false),
      with_tier("sim/simd-off/t1/trajectory", false, 1, false,
                Precision::kF64, SimdMode::kOff),
      with_tier("sim/simd-off/fused/t2/trajectory", true, 2, false,
                Precision::kF64, SimdMode::kOff),
  };
  const bool eligible = samplable(program);
  if (!eligible) {
    // The sampling toggle must be a byte-exact no-op for ineligible
    // circuits (analysis forces the trajectory fallback either way).
    trajectory.push_back(
        sim_config("sim/fused/t1/sampling-noop", true, 1, true));
  }
  classes.push_back(std::move(trajectory));

  // Class 1: direct sampled runs (eligible circuits only).
  if (eligible) {
    classes.push_back({
        sim_config("sim/scalar/t1/sampled", false, 1, true),
        sim_config("sim/fused/t2/sampled", true, 2, true),
        with_tier("sim/simd-off/t1/sampled", false, 1, true,
                  Precision::kF64, SimdMode::kOff),
    });
  }

  // Raw trajectory runs under register embeddings: relabelling the
  // program's qubits onto scattered positions of a wider register may only
  // change which amplitudes are exact zeros, so the projected histogram is
  // the narrow one byte for byte. This pins live-register compaction from
  // the outside: a wrong physical-to-compact map, a dead qubit drawing RNG
  // or a bit landing on the wrong key position all break the class.
  {
    auto raw = [&sim_config](std::string name, bool fused,
                             std::size_t threads, std::size_t width) {
      ExecConfig c = sim_config(std::move(name), fused, threads, false);
      c.fuse_sequences = false;
      c.embed_width = width;
      return c;
    };
    const std::size_t n = options_.platform_qubits;
    classes.push_back({
        raw("sim/raw/t1/trajectory", false, 1, 0),
        raw("sim/raw/embed" + std::to_string(2 * n) + "/t1/trajectory",
            false, 1, 2 * n),
        raw("sim/raw/embed" + std::to_string(n + 14) +
                "/fused/t2/trajectory",
            true, 2, n + 14),
    });
  }

  // f32 tier: its own equivalence classes (per sampling mode). Internally
  // the tier must be byte-identical across kernels/threads/SIMD backend;
  // against f64 it only has to agree statistically — check() runs a
  // chi-square test between each f32 class reference and the matching f64
  // reference histogram.
  {
    std::vector<ExecConfig> f32 = {
        with_tier("sim/f32/t1/trajectory", false, 1, false,
                  Precision::kF32, SimdMode::kAuto),
        with_tier("sim/f32/simd-off/t1/trajectory", false, 1, false,
                  Precision::kF32, SimdMode::kOff),
        with_tier("sim/f32/fused/t2/trajectory", true, 2, false,
                  Precision::kF32, SimdMode::kAuto),
    };
    if (!eligible) {
      f32.push_back(with_tier("sim/f32/t1/sampling-noop", true, 1, true,
                              Precision::kF32, SimdMode::kAuto));
    }
    classes.push_back(std::move(f32));
    if (eligible) {
      classes.push_back({
          with_tier("sim/f32/t1/sampled", false, 1, true, Precision::kF32,
                    SimdMode::kAuto),
          with_tier("sim/f32/simd-off/t2/sampled", false, 2, true,
                    Precision::kF32, SimdMode::kOff),
      });
    }
  }

  if (!options_.with_service) return classes;

  // Class 2: service runs, sampling mode on — worker counts, cache hits,
  // retries, failovers, checkpoint-resume and the gateway wire.
  std::vector<ExecConfig> svc = {
      svc_config("svc/w1", kSvcW1),
      svc_config("svc/w4", kSvcW4),
  };
  {
    ExecConfig c = svc_config("svc/w1/resubmit", kSvcW1);
    c.resubmit = true;
    svc.push_back(std::move(c));
    c = svc_config("svc/pool/retry", kSvcPool);
    c.retry_fault = true;
    svc.push_back(std::move(c));
    c = svc_config("svc/pool/crash-failover", kSvcPool);
    c.crash_fault = true;
    svc.push_back(std::move(c));
    c = svc_config("svc/resume", kSvcResume);
    c.resume = true;
    svc.push_back(std::move(c));
    c = svc_config("svc/store/warm-disk", kSvcStore);
    c.store_reload = true;
    svc.push_back(std::move(c));
    c = svc_config("svc/kill-restart", -1);  // builds its own services
    c.kill_restart = true;
    svc.push_back(std::move(c));
    if (options_.with_gateway) {
      c = svc_config("gateway/wire", -1);
      c.level = ExecConfig::Level::kGateway;
      svc.push_back(std::move(c));
    }
  }
  classes.push_back(std::move(svc));

  // Class 3: service runs, sampling off (per-shot trajectory sharding).
  classes.push_back({
      svc_config("svc-off/w1", kSvcOffW1),
      svc_config("svc-off/w2", kSvcOffW2),
  });

  return classes;
}

namespace {

/// Body of the kill-restart config: a disposable journal-enabled service
/// that "dies" at an injected crash point (its destructor is the simulated
/// kill — only on-disk state survives), then a successor constructed over
/// the same directory that must replay the journal and finish the job
/// exactly once. `dir` is created by the victim's store and removed here.
Histogram run_kill_restart(const DifferentialHarness::Options& opts,
                           const std::filesystem::path& dir,
                           const qasm::Program& program, std::size_t shots,
                           std::uint64_t run_seed, std::string* error) {
  static constexpr CrashPoint kPoints[] = {
      CrashPoint::kAdmit, CrashPoint::kDispatch, CrashPoint::kMidShard,
      CrashPoint::kPreComplete};
  const CrashPoint point = kPoints[run_seed % 4];

  auto make_opts = [&] {
    service::ServiceOptions so;
    so.workers = 1;
    so.shard_shots = opts.shard_shots;
    so.queue_capacity = 64;
    so.retry_backoff.initial = std::chrono::microseconds(1);
    so.retry_backoff.cap = std::chrono::microseconds(10);
    so.store_dir = dir.string();
    // The crash is simulated in-process, so page-cache durability is
    // enough; skipping fsync keeps the config fast over thousands of
    // programs (the fsync path itself is covered by JournalTest).
    so.sync_writes = false;
    return so;
  };
  auto gate = [&] {
    return GateAccelerator(
        compiler::Platform::perfect(opts.platform_qubits));
  };

  Histogram out;
  {
    RunRequest doomed = RunRequest::gate(program, shots, run_seed);
    doomed.idempotency_key = "fuzz-kill-restart";
    auto plan = std::make_shared<FaultPlan>();
    plan->crash_point = point;
    doomed.faults = plan;
    service::QuantumService victim(gate(), make_opts());
    const RunResult killed = victim.submit(std::move(doomed)).get();
    if (killed.status.ok())
      *error = std::string("kill-restart: injected crash at ") +
               runtime::to_string(point) + " did not abandon the job";
  }
  if (error->empty()) {
    service::QuantumService successor(gate(), make_opts());
    RunRequest dup = RunRequest::gate(program, shots, run_seed);
    dup.idempotency_key = "fuzz-kill-restart";
    const RunResult result = successor.submit(std::move(dup)).get();
    if (!result.status.ok()) {
      *error = std::string("kill-restart (") + runtime::to_string(point) +
               "): recovery failed: " + result.status.to_string();
    } else if (!result.stats.journal_recovered &&
               !result.stats.idempotent_hit) {
      *error = std::string("kill-restart (") + runtime::to_string(point) +
               "): resubmission ran fresh instead of attaching to the "
               "recovered job";
    } else {
      out = result.histogram;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return out;
}

/// `n` distinct qubits of a `width`-qubit register, ascending (so the
/// relabelling preserves qubit order), all below the compaction guard's
/// chunk boundary; a pure function of `seed`.
std::vector<QubitIndex> scattered_positions(std::size_t n, std::size_t width,
                                            std::uint64_t seed) {
  const std::size_t limit =
      std::min<std::size_t>(width, sim::StateVector::kReduceChunkBits);
  if (n > limit)
    throw std::invalid_argument("embedding: register too narrow");
  std::vector<QubitIndex> pool(limit);
  std::iota(pool.begin(), pool.end(), QubitIndex{0});
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i)
    std::swap(pool[i], pool[i + rng.uniform_int(limit - i)]);
  pool.resize(n);
  std::sort(pool.begin(), pool.end());
  return pool;
}

/// Body of an embedding config: `compiled` (for `platform`) relabelled
/// onto scattered qubits of a `width`-qubit register, run with the narrow
/// run's seed, model and durations, keys projected back. A key with a bit
/// set outside the embedded qubits comes back unprojected, behind a
/// marker, so the class comparison reports it.
Histogram run_embedded(const compiler::Platform& platform,
                       const qasm::Program& compiled, std::size_t width,
                       std::size_t shots, std::uint64_t run_seed,
                       const sim::SimOptions& so) {
  using qasm::GateKind;
  const std::size_t narrow = platform.qubit_count;
  const std::vector<QubitIndex> pos =
      scattered_positions(narrow, width, run_seed ^ width);
  qasm::Program wide(compiled.name(), width);
  qasm::Circuit& circuit = wide.add_circuit("embedded");
  for (const qasm::Instruction& instr : compiled.flatten()) {
    std::vector<BitIndex> conditions;
    for (BitIndex b : instr.conditions()) conditions.push_back(pos.at(b));
    if (instr.kind() == GateKind::Display) continue;  // logging only
    // measure_all and a bare wait span the narrow register: spell them
    // out on its embedded qubits, in the same (ascending) order.
    if (instr.kind() == GateKind::MeasureAll) {
      if (!conditions.empty())
        throw std::invalid_argument("embedding: conditional measure_all");
      for (QubitIndex q : pos)
        circuit.add(qasm::Instruction(GateKind::Measure, {q}));
      continue;
    }
    std::vector<QubitIndex> qubits;
    for (QubitIndex q : instr.qubits()) qubits.push_back(pos.at(q));
    if (instr.kind() == GateKind::Wait && qubits.empty()) qubits = pos;
    qasm::Instruction mapped(instr.kind(), std::move(qubits), instr.angle(),
                             instr.param_k());
    mapped.set_conditions(std::move(conditions));
    circuit.add(std::move(mapped));
  }

  sim::Simulator simulator(width, platform.qubit_model, run_seed,
                           platform.durations, so);
  const Histogram raw = simulator.run(wide, shots).histogram;
  Histogram projected;
  for (const auto& [key, count] : raw.counts()) {
    std::string narrow_key(narrow, '0');
    for (std::size_t i = 0; i < narrow; ++i) narrow_key[i] = key[pos[i]];
    const bool stray = std::count(key.begin(), key.end(), '1') !=
                       std::count(narrow_key.begin(), narrow_key.end(), '1');
    projected.add(stray ? "dead-qubit-bit-set:" + key : narrow_key, count);
  }
  return projected;
}

/// Two-sample chi-square statistic over the union of keys:
/// sum over keys of (a - b)^2 / (a + b). Zero iff the histograms agree
/// exactly; distributed ~chi-square(keys - 1) when both are drawn from
/// the same distribution. The f32 and f64 tiers additionally share the
/// per-shot RNG stream (seeding ignores precision), so in practice the
/// statistic sits near zero and only a genuinely wrong distribution —
/// a broken kernel, not rounding — can cross the generous threshold.
double chi_square_statistic(const Histogram& a, const Histogram& b,
                            std::size_t* keys) {
  double stat = 0.0;
  std::size_t n = 0;
  for (const auto& [key, count] : a.counts()) {
    const double x = static_cast<double>(count);
    const double y = static_cast<double>(b.count(key));
    stat += (x - y) * (x - y) / (x + y);
    ++n;
  }
  for (const auto& [key, count] : b.counts()) {
    if (a.count(key) != 0) continue;  // union: already visited above
    stat += static_cast<double>(count);  // (0 - y)^2 / (0 + y) == y
    ++n;
  }
  *keys = n;
  return stat;
}

}  // namespace

Histogram DifferentialHarness::run_config(const ExecConfig& config,
                                          const qasm::Program& program,
                                          std::size_t shots,
                                          std::uint64_t run_seed,
                                          std::string* error) {
  error->clear();
  const std::string text = qasm::to_cqasm(program);
  try {
    switch (config.level) {
      case ExecConfig::Level::kSim: {
        sim::SimOptions so;
        so.threads = config.threads;
        so.fused_kernels = config.fused;
        so.sampling = config.sampling;
        so.min_parallel_qubits = config.min_parallel_qubits;
        so.precision = config.precision;
        so.simd = config.simd;
        so.fuse_sequences = config.fuse_sequences;
        const compiler::CompileResult& compiled =
            impl_->compiled_for(program, text);
        if (config.embed_width > 0)
          return run_embedded(impl_->compile_authority.platform(),
                              compiled.program, config.embed_width, shots,
                              run_seed, so);
        return impl_->compile_authority.run_compiled(compiled, shots,
                                                     run_seed, so);
      }

      case ExecConfig::Level::kService: {
        if (config.kill_restart) {
          std::ostringstream dir;
          dir << "qs-fuzz-kill-" << std::hex
              << reinterpret_cast<std::uintptr_t>(impl_.get()) << '-'
              << std::dec << ++impl_->kill_restart_runs;
          return run_kill_restart(
              options_, std::filesystem::temp_directory_path() / dir.str(),
              program, shots, run_seed, error);
        }
        service::QuantumService& svc = *impl_->services.at(config.service);
        RunRequest request = RunRequest::gate(program, shots, run_seed);
        auto plan = std::make_shared<FaultPlan>();
        if (config.retry_fault)
          plan->shard_faults.push_back({/*shard_index=*/0, /*failures=*/1});
        if (config.crash_fault)
          plan->backend_faults.push_back(
              {"b1", runtime::BackendFaultKind::kCrash});
        if (config.retry_fault || config.crash_fault) request.faults = plan;

        if (config.resume) {
          // Kill the job on its last shard (a terminal failure, which
          // saves every other merged shard), then resubmit on the same
          // key: the resumed run must reproduce the clean histogram.
          const std::size_t shards =
              (shots + options_.shard_shots - 1) / options_.shard_shots;
          const std::string key =
              "fuzz-" + std::to_string(hash_combine(fnv1a64(text),
                                                    run_seed ^ shots));
          RunRequest failing = request;
          failing.checkpoint_key = key;
          auto kill = std::make_shared<FaultPlan>();
          kill->shard_faults.push_back(
              {/*shard_index=*/shards - 1, /*failures=*/1000});
          failing.faults = kill;
          const RunResult killed = svc.submit(std::move(failing)).get();
          if (killed.status.ok()) {
            *error = "resume: injected kill did not fail the job";
            return {};
          }
          request.checkpoint_key = key;
        }

        if (config.resubmit) {
          const RunResult warm = svc.submit(request).get();
          if (!warm.status.ok()) {
            *error = "resubmit warm-up failed: " + warm.status.to_string();
            return {};
          }
        }

        if (config.store_reload) {
          // Warm the disk tier, then drop the memory tier: the kept run
          // must revive the compiled program and final distribution from
          // verified disk entries and still match the class reference.
          const RunResult warm = svc.submit(request).get();
          if (!warm.status.ok()) {
            *error = "store warm-up failed: " + warm.status.to_string();
            return {};
          }
          impl_->store->clear_memory();
        }

        const RunResult result = svc.submit(std::move(request)).get();
        if (!result.status.ok()) {
          *error = result.status.to_string();
          return {};
        }
        return result.histogram;
      }

      case ExecConfig::Level::kGateway: {
        RunRequest request = RunRequest::gate_source(text, shots, run_seed);
        const auto id = impl_->client.submit(request);
        if (!id.ok()) {
          *error = "gateway submit: " + id.status().to_string();
          return {};
        }
        const auto result = impl_->client.wait(*id);
        if (!result.ok()) {
          *error = "gateway wait: " + result.status().to_string();
          return {};
        }
        if (!result->status.ok()) {
          *error = "gateway job: " + result->status.to_string();
          return {};
        }
        return result->histogram;
      }
    }
  } catch (const std::exception& e) {
    *error = std::string("exception: ") + e.what();
    return {};
  }
  *error = "unknown config level";
  return {};
}

std::vector<Divergence> DifferentialHarness::check(
    const qasm::Program& program, std::size_t shots, std::uint64_t run_seed,
    std::uint64_t generator_seed) {
  std::vector<Divergence> divergences;

  auto report = [&](const ExecConfig& ref, const ExecConfig& var,
                    Histogram ref_hist, Histogram var_hist,
                    std::string detail) {
    Divergence d;
    d.generator_seed = generator_seed;
    d.shots = shots;
    d.run_seed = run_seed;
    d.reference = ref;
    d.variant = var;
    d.reference_histogram = std::move(ref_hist);
    d.variant_histogram = std::move(var_hist);
    d.detail = std::move(detail);
    d.program = program;
    divergences.push_back(std::move(d));
  };

  // f64 reference histograms per sampling mode, kept for the cross-tier
  // chi-square check against the f32 classes.
  Histogram f64_ref[2];
  ExecConfig f64_ref_config[2];
  bool have_f64_ref[2] = {false, false};

  for (const auto& cls : lattice(program)) {
    std::string error;
    const Histogram reference =
        run_config(cls.front(), program, shots, run_seed, &error);
    if (!error.empty()) {
      report(cls.front(), cls.front(), {}, {},
             "reference execution failed: " + error);
      continue;
    }
    if (reference.total() != shots)
      report(cls.front(), cls.front(), reference, reference,
             "reference total " + std::to_string(reference.total()) +
                 " != shots " + std::to_string(shots));

    if (cls.front().level == ExecConfig::Level::kSim) {
      const std::size_t mode = cls.front().sampling ? 1 : 0;
      if (cls.front().precision == Precision::kF64) {
        f64_ref[mode] = reference;
        f64_ref_config[mode] = cls.front();
        have_f64_ref[mode] = true;
      } else if (have_f64_ref[mode]) {
        // Cross-tier agreement: the f32 class reference must reproduce
        // the f64 distribution up to sampling noise. Byte-identity is
        // impossible by design (different rounding), so this is the one
        // statistical — rather than exact — edge in the lattice. The
        // threshold is far above any chi-square critical value: both
        // tiers consume the same RNG stream, so healthy runs differ by
        // at most a few boundary-flipped shots.
        std::size_t keys = 0;
        const double stat = chi_square_statistic(f64_ref[mode], reference,
                                                 &keys);
        const double threshold = 10.0 * static_cast<double>(keys) + 25.0;
        if (stat > threshold) {
          std::ostringstream os;
          os << "f32/f64 chi-square statistic " << stat << " over " << keys
             << " keys exceeds threshold " << threshold;
          report(f64_ref_config[mode], cls.front(), f64_ref[mode], reference,
                 os.str());
        }
      }
    }

    for (std::size_t i = 1; i < cls.size(); ++i) {
      const Histogram got =
          run_config(cls[i], program, shots, run_seed, &error);
      if (!error.empty()) {
        report(cls.front(), cls[i], reference, got,
               "variant execution failed: " + error);
        continue;
      }
      if (const std::string diff = first_histogram_diff(reference, got);
          !diff.empty())
        report(cls.front(), cls[i], reference, got, diff);
    }
  }
  return divergences;
}

Divergence DifferentialHarness::minimize(const Divergence& divergence) {
  const std::size_t shots = divergence.shots;
  const std::uint64_t seed = divergence.run_seed;

  // The lattice forks on sampling eligibility (sampled class vs the
  // sampling-noop config), so whether the original config pair is even
  // comparable depends on the program's eligibility. A shrink step that
  // flips eligibility can turn a real divergence into a by-design
  // difference (sampled vs trajectory draws) — the shrinker would then
  // happily "minimise" toward the wrong failure. Pin eligibility to the
  // original program's.
  const bool original_eligible = samplable(divergence.program);

  auto still_diverges = [&](const qasm::Program& candidate) {
    if (samplable(candidate) != original_eligible) return false;
    std::string ref_error, var_error;
    const Histogram ref =
        run_config(divergence.reference, candidate, shots, seed, &ref_error);
    const Histogram var =
        run_config(divergence.variant, candidate, shots, seed, &var_error);
    // A failure of either side still counts as the divergence reproducing
    // only when the original failure was an execution failure too;
    // otherwise insist on a histogram mismatch so shrinking cannot drift
    // to a different (easier) failure mode.
    if (!ref_error.empty() || !var_error.empty())
      return divergence.detail.find("execution failed") != std::string::npos;
    return ref.counts() != var.counts();
  };

  Divergence minimal = divergence;
  ShrinkStats stats;
  minimal.program = shrink_program(divergence.program, still_diverges, &stats);

  // Re-run the minimal program to attach fresh histograms and detail.
  std::string error;
  minimal.reference_histogram = run_config(divergence.reference,
                                           minimal.program, shots, seed,
                                           &error);
  if (!error.empty()) minimal.detail = "reference execution failed: " + error;
  minimal.variant_histogram =
      run_config(divergence.variant, minimal.program, shots, seed, &error);
  if (!error.empty()) {
    minimal.detail = "variant execution failed: " + error;
  } else if (minimal.detail.find("execution failed") == std::string::npos) {
    minimal.detail = first_histogram_diff(minimal.reference_histogram,
                                          minimal.variant_histogram);
  }
  return minimal;
}

}  // namespace qs::fuzz
