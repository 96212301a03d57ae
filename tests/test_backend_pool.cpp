// Backend supervision tests: circuit-breaker state machine, backend
// registration invariants, Bell-probe quarantine and recovery, shard
// failover for gate and anneal jobs (crash, corrupt histogram, stuck shard
// + watchdog) with byte-identical merged results, and checkpoint/resume
// across service restarts. Everything is deterministic; the fault
// scenarios run through runtime::FaultPlan, never real infrastructure
// failures.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "anneal/annealer.h"
#include "anneal/qubo.h"
#include "common/cancellation.h"
#include "common/codec.h"
#include "common/rng.h"
#include "compiler/algorithms.h"
#include "compiler/kernel.h"
#include "microarch/eqasm_parser.h"
#include "qasm/parser.h"
#include "runtime/accelerator.h"
#include "service/backend_pool.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "store/artifact_store.h"

namespace qs {
namespace {

using namespace std::chrono_literals;
using runtime::BackendFaultKind;
using runtime::FaultPlan;
using runtime::GateAccelerator;
using runtime::GatePath;
using runtime::JobKind;
using runtime::RunRequest;
using runtime::RunResult;
using service::BackendPool;
using service::BackendPoolOptions;
using service::BreakerOptions;
using service::BreakerState;
using service::CircuitBreaker;

qasm::Program ghz_program(std::size_t n) {
  compiler::Program p("ghz", n);
  p.add_kernel("main").ghz(n).measure_all();
  return p.to_qasm();
}

std::shared_ptr<GateAccelerator> make_gate(std::size_t qubits,
                                           GatePath path = GatePath::Direct) {
  return std::make_shared<GateAccelerator>(compiler::Platform::perfect(qubits),
                                           compiler::CompileOptions{}, path);
}

/// Pool of `n` equivalent gate backends ("b0", "b1", ...) with a long
/// breaker cooldown so an opened breaker stays observably open.
std::shared_ptr<BackendPool> make_gate_pool(std::size_t n,
                                            std::size_t qubits) {
  BackendPoolOptions opts;
  opts.breaker.open_cooldown = 10s;
  auto pool = std::make_shared<BackendPool>(opts);
  for (std::size_t i = 0; i < n; ++i) {
    Status st = pool->register_gate("b" + std::to_string(i), make_gate(qubits));
    EXPECT_TRUE(st.ok()) << st.to_string();
  }
  return pool;
}

// ------------------------------------------------------ circuit breaker ----

TEST(CircuitBreaker, OpensAfterConsecutiveFailuresAndBlocksTraffic) {
  CircuitBreaker breaker({/*failure_threshold=*/3, /*open_cooldown=*/10s,
                          /*half_open_successes=*/2});
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
  EXPECT_TRUE(breaker.allow());
  breaker.record_failure();  // third consecutive: trip
  EXPECT_EQ(breaker.state(), BreakerState::Open);
  EXPECT_FALSE(breaker.allow());
}

TEST(CircuitBreaker, SuccessResetsTheFailureStreak) {
  CircuitBreaker breaker({3, 10s, 2});
  breaker.record_failure();
  breaker.record_failure();
  breaker.record_success();  // streak broken
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
}

TEST(CircuitBreaker, CooldownMovesOpenToHalfOpenThenSuccessesClose) {
  // Zero cooldown: the next observation of an open breaker is a trial.
  CircuitBreaker breaker({1, /*open_cooldown=*/0us, /*half_open_successes=*/2});
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
  EXPECT_TRUE(breaker.allow());
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);  // one of two
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
}

TEST(CircuitBreaker, HalfOpenFailureReopens) {
  CircuitBreaker breaker({1, 0us, 2});
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
  breaker.record_failure();  // trial failed
  // Zero cooldown means the reopened breaker immediately reads half-open
  // again, but the trial-success count restarted from zero.
  breaker.record_success();
  EXPECT_NE(breaker.state(), BreakerState::Closed);
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
}

TEST(CircuitBreaker, TripQuarantinesRegardlessOfCounters) {
  CircuitBreaker breaker({100, 10s, 2});
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
  breaker.trip();
  EXPECT_EQ(breaker.state(), BreakerState::Open);
  EXPECT_FALSE(breaker.allow());
}

// --------------------------------------------------------- registration ----

TEST(BackendPool, RefusesDuplicateNamesAndMismatchedPlatforms) {
  BackendPool pool;
  ASSERT_TRUE(pool.register_gate("a", make_gate(4)).ok());
  EXPECT_EQ(pool.register_gate("a", make_gate(4)).code(),
            StatusCode::kInvalidArgument);
  // Different platform fingerprint: failover could not preserve the
  // merged histogram, so registration is refused.
  EXPECT_EQ(pool.register_gate("b", make_gate(5)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(pool.register_gate("", nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(BackendPool, AcquireRoundRobinsAndSkipsOpenBreakers) {
  auto pool = make_gate_pool(3, 2);
  EXPECT_EQ(pool->healthy_count(JobKind::Gate), 3u);

  auto bad = pool->find("b1");
  ASSERT_NE(bad, nullptr);
  pool->quarantine(*bad);
  EXPECT_EQ(pool->breaker_state("b1"), BreakerState::Open);
  EXPECT_EQ(pool->healthy_count(JobKind::Gate), 2u);

  for (int i = 0; i < 12; ++i) {
    auto acquired = pool->acquire(JobKind::Gate);
    ASSERT_NE(acquired, nullptr);
    EXPECT_NE(acquired->name, "b1");
  }
}

TEST(BackendPool, AcquireFallsBackToExcludedWhenItIsTheOnlyOneLeft) {
  auto pool = make_gate_pool(1, 2);
  auto only = pool->acquire(JobKind::Gate, /*exclude=*/"b0");
  ASSERT_NE(only, nullptr);  // retrying the same backend beats failing
  EXPECT_EQ(only->name, "b0");

  pool->quarantine(*only);
  EXPECT_EQ(pool->acquire(JobKind::Gate), nullptr);
}

// --------------------------------------------------------------- probes ----

TEST(BackendPool, BellProbePassesHealthyBackendsOfBothKinds) {
  BackendPoolOptions opts;
  opts.breaker.open_cooldown = 10s;
  BackendPool pool(opts);
  ASSERT_TRUE(pool.register_gate("gate", make_gate(2)).ok());
  ASSERT_TRUE(pool
                  .register_anneal("anneal",
                                   std::make_shared<runtime::AnnealAccelerator>(
                                       /*capacity=*/4))
                  .ok());
  EXPECT_EQ(pool.run_probes(), 0u);
  EXPECT_EQ(pool.breaker_state("gate"), BreakerState::Closed);
  EXPECT_EQ(pool.breaker_state("anneal"), BreakerState::Closed);
}

TEST(BackendPool, ProbeFailureQuarantinesAndCountsMetrics) {
  service::MetricsRegistry metrics;
  auto pool = make_gate_pool(2, 2);
  pool->attach_metrics(&metrics);

  pool->find("b0")->inject_probe_failure = true;
  EXPECT_EQ(pool->run_probes(), 1u);
  EXPECT_EQ(pool->breaker_state("b0"), BreakerState::Open);
  EXPECT_EQ(pool->breaker_state("b1"), BreakerState::Closed);
  EXPECT_EQ(metrics.counter("qs_backend_probe_failures_total").value(), 1u);
  EXPECT_EQ(metrics.counter("qs_backend_quarantines_total").value(), 1u);
  EXPECT_EQ(metrics.gauge("qs_backend_breaker_state_b0").value(), 2);
  EXPECT_EQ(metrics.gauge("qs_backend_breaker_state_b1").value(), 0);

  const auto status = pool->status();
  ASSERT_EQ(status.size(), 2u);
  EXPECT_EQ(status[0].probes_failed, 1u);
  EXPECT_EQ(status[1].probes_failed, 0u);
}

TEST(BackendPool, RecoveredBackendWalksBackToClosedThroughProbes) {
  BackendPoolOptions opts;
  opts.breaker.open_cooldown = 0us;  // quarantine lifts at the next probe
  opts.breaker.half_open_successes = 2;
  BackendPool pool(opts);
  ASSERT_TRUE(pool.register_gate("g", make_gate(2)).ok());

  pool.find("g")->inject_probe_failure = true;
  EXPECT_EQ(pool.run_probes(), 1u);
  pool.find("g")->inject_probe_failure = false;  // backend recovers

  EXPECT_EQ(pool.run_probes(), 0u);  // first half-open trial success
  EXPECT_EQ(pool.run_probes(), 0u);  // second: breaker closes
  EXPECT_EQ(pool.breaker_state("g"), BreakerState::Closed);
}

TEST(BackendPool, ProbeFailsGateBackendTooSmallForBellCircuit) {
  BackendPool pool;
  ASSERT_TRUE(pool.register_gate("tiny", make_gate(1)).ok());
  EXPECT_EQ(pool.run_probes(), 1u);
  EXPECT_EQ(pool.breaker_state("tiny"), BreakerState::Open);
}

// ----------------------------------------------------- shard failover ----

service::ServiceOptions small_shard_options() {
  service::ServiceOptions opts;
  opts.workers = 4;
  opts.shard_shots = 256;
  opts.retry_backoff.initial = std::chrono::microseconds(1);
  return opts;
}

/// Fault-free single-backend reference run for byte-identity comparisons.
Histogram reference_histogram(std::size_t qubits, std::size_t shots,
                              std::uint64_t seed,
                              const service::ServiceOptions& opts) {
  service::QuantumService svc(
      GateAccelerator(compiler::Platform::perfect(qubits)), opts);
  const RunResult r =
      svc.submit(RunRequest::gate(ghz_program(qubits), shots, seed)).get();
  EXPECT_TRUE(r.ok()) << r.status.to_string();
  return r.histogram;
}

TEST(BackendFailover, CrashLoopingBackendFailsOverByteIdentically) {
  // Acceptance scenario: a 3-backend pool with one backend crash-looping
  // completes a 10k-shot job with a histogram byte-identical to a
  // fault-free single-backend run; the faulty breaker reports open and
  // failovers were counted.
  const std::size_t kShots = 10'000;
  const std::uint64_t kSeed = 77;
  const service::ServiceOptions opts = small_shard_options();
  const Histogram clean = reference_histogram(4, kShots, kSeed, opts);

  service::QuantumService svc(make_gate_pool(3, 4), opts);
  auto plan = std::make_shared<FaultPlan>();
  plan->backend_faults = {{"b1", BackendFaultKind::kCrash}};
  RunRequest req = RunRequest::gate(ghz_program(4), kShots, kSeed);
  req.faults = plan;
  const RunResult r = svc.submit(std::move(req)).get();

  ASSERT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_EQ(r.histogram.total(), kShots);
  EXPECT_EQ(r.histogram.counts(), clean.counts());
  EXPECT_GT(r.stats.failovers, 0u);
  EXPECT_GT(svc.metrics().counter("qs_backend_failovers_total").value(), 0u);
  EXPECT_EQ(svc.backends().breaker_state("b1"), BreakerState::Open);
  EXPECT_EQ(svc.backends().breaker_state("b0"), BreakerState::Closed);
  EXPECT_EQ(svc.backends().breaker_state("b2"), BreakerState::Closed);
}

TEST(BackendFailover, CorruptHistogramQuarantinesAndReroutes) {
  const std::size_t kShots = 2'048;
  const std::uint64_t kSeed = 5;
  const service::ServiceOptions opts = small_shard_options();
  const Histogram clean = reference_histogram(3, kShots, kSeed, opts);

  service::QuantumService svc(make_gate_pool(3, 3), opts);
  auto plan = std::make_shared<FaultPlan>();
  plan->backend_faults = {{"b2", BackendFaultKind::kCorruptHistogram}};
  RunRequest req = RunRequest::gate(ghz_program(3), kShots, kSeed);
  req.faults = plan;
  const RunResult r = svc.submit(std::move(req)).get();

  ASSERT_TRUE(r.ok()) << r.status.to_string();
  // The corrupted shard result never reached the merge: the merged
  // histogram is byte-identical to the fault-free run.
  EXPECT_EQ(r.histogram.counts(), clean.counts());
  EXPECT_GT(r.stats.failovers, 0u);
  // Silent corruption quarantines immediately (trip, not threshold).
  EXPECT_EQ(svc.backends().breaker_state("b2"), BreakerState::Open);
  EXPECT_GT(svc.metrics().counter("qs_backend_quarantines_total").value(),
            0u);
}

TEST(BackendFailover, WatchdogRescuesStuckShards) {
  const std::size_t kShots = 512;
  const std::uint64_t kSeed = 11;
  service::ServiceOptions opts = small_shard_options();
  opts.shard_time_budget = 20ms;  // watchdog: cancel and re-route
  const Histogram clean = reference_histogram(3, kShots, kSeed, opts);

  service::QuantumService svc(make_gate_pool(3, 3), opts);
  auto plan = std::make_shared<FaultPlan>();
  plan->backend_faults = {{"b0", BackendFaultKind::kStuckShard}};
  RunRequest req = RunRequest::gate(ghz_program(3), kShots, kSeed);
  req.faults = plan;
  const RunResult r = svc.submit(std::move(req)).get();

  ASSERT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_EQ(r.histogram.counts(), clean.counts());
  EXPECT_GT(r.stats.failovers, 0u);
  // The job itself had no deadline: the watchdog, not kDeadlineExceeded,
  // recovered the stuck shards.
  EXPECT_EQ(r.status.code(), StatusCode::kOk);
}

TEST(BackendFailover, AllBackendsCrashLoopingFailsWithUnavailable) {
  service::ServiceOptions opts = small_shard_options();
  opts.max_shard_failovers = 2;
  service::QuantumService svc(make_gate_pool(2, 3), opts);
  auto plan = std::make_shared<FaultPlan>();
  plan->backend_faults = {{"b0", BackendFaultKind::kCrash},
                          {"b1", BackendFaultKind::kCrash}};
  RunRequest req = RunRequest::gate(ghz_program(3), 256, /*seed=*/3);
  req.faults = plan;
  const RunResult r = svc.submit(std::move(req)).get();
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
}

TEST(BackendFailover, MixedDirectAndMicroArchPoolStaysByteIdentical) {
  // Kernel bit-identity makes the execution route output-invisible, so a
  // pool mixing Direct and MicroArch backends is a valid failover set.
  const std::size_t kShots = 1'024;
  const std::uint64_t kSeed = 9;
  const service::ServiceOptions opts = small_shard_options();
  const Histogram clean = reference_histogram(3, kShots, kSeed, opts);

  BackendPoolOptions pool_opts;
  pool_opts.breaker.open_cooldown = 10s;
  auto pool = std::make_shared<BackendPool>(pool_opts);
  ASSERT_TRUE(pool->register_gate("direct", make_gate(3)).ok());
  ASSERT_TRUE(
      pool->register_gate("uarch", make_gate(3, GatePath::MicroArch)).ok());
  service::QuantumService svc(pool, opts);
  const RunResult r =
      svc.submit(RunRequest::gate(ghz_program(3), kShots, kSeed)).get();
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_EQ(r.histogram.counts(), clean.counts());
}

// ------------------------------------------------ anneal shard failover ----
//
// The same four supervision scenarios, for QUBO jobs on a pool of two
// equivalent annealers. Per-read seeding makes the route invisible, so the
// histogram and the best-of-N solution must match a fault-free run.

anneal::Qubo failover_qubo() {
  anneal::Qubo qubo(4);
  qubo.add(0, 0, -2.0);
  qubo.add(1, 1, 1.0);
  qubo.add(2, 2, -2.0);
  qubo.add(3, 3, 0.5);
  qubo.add(0, 1, 1.5);
  qubo.add(1, 2, 1.5);
  qubo.add(2, 3, -1.0);
  return qubo;
}

service::ServiceOptions anneal_shard_options() {
  service::ServiceOptions opts = small_shard_options();
  opts.shard_shots = 8;
  return opts;
}

/// One gate backend (the service needs a compile authority) plus two
/// equivalent annealers, "a0" and "a1".
std::shared_ptr<BackendPool> make_anneal_pool() {
  BackendPoolOptions opts;
  opts.breaker.open_cooldown = 10s;
  auto pool = std::make_shared<BackendPool>(opts);
  EXPECT_TRUE(pool->register_gate("gate", make_gate(2)).ok());
  for (const char* name : {"a0", "a1"}) {
    Status st = pool->register_anneal(
        name, std::make_shared<runtime::AnnealAccelerator>(/*capacity=*/8));
    EXPECT_TRUE(st.ok()) << st.to_string();
  }
  return pool;
}

/// Fault-free single-annealer reference run.
RunResult reference_anneal(std::size_t reads, std::uint64_t seed,
                           const service::ServiceOptions& opts) {
  service::QuantumService svc(GateAccelerator(compiler::Platform::perfect(2)),
                              runtime::AnnealAccelerator(/*capacity=*/8),
                              opts);
  RunResult r =
      svc.submit(RunRequest::anneal(failover_qubo(), reads, seed)).get();
  EXPECT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_EQ(r.stats.failovers, 0u);
  return r;
}

RunResult run_faulted_anneal(service::QuantumService& svc, std::size_t reads,
                             std::uint64_t seed,
                             std::vector<FaultPlan::BackendFault> faults) {
  auto plan = std::make_shared<FaultPlan>();
  plan->backend_faults = std::move(faults);
  RunRequest req = RunRequest::anneal(failover_qubo(), reads, seed);
  req.faults = plan;
  return svc.submit(std::move(req)).get();
}

void expect_same_anneal_result(const RunResult& r, const RunResult& clean,
                               service::QuantumService& svc) {
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_EQ(r.histogram.counts(), clean.histogram.counts());
  EXPECT_EQ(r.best_solution, clean.best_solution);
  EXPECT_DOUBLE_EQ(r.best_energy, clean.best_energy);
  EXPECT_GT(r.stats.failovers, 0u);
  EXPECT_EQ(svc.metrics().counter("qs_backend_failovers_total").value(),
            r.stats.failovers);
}

TEST(BackendFailover, AnnealCrashLoopingBackendFailsOverIdentically) {
  const service::ServiceOptions opts = anneal_shard_options();
  const RunResult clean = reference_anneal(96, /*seed=*/77, opts);

  service::QuantumService svc(make_anneal_pool(), opts);
  const RunResult r = run_faulted_anneal(svc, 96, 77,
                                         {{"a1", BackendFaultKind::kCrash}});
  expect_same_anneal_result(r, clean, svc);
  EXPECT_EQ(svc.backends().breaker_state("a1"), BreakerState::Open);
  EXPECT_EQ(svc.backends().breaker_state("a0"), BreakerState::Closed);
}

TEST(BackendFailover, AnnealCorruptHistogramQuarantinesAndReroutes) {
  const service::ServiceOptions opts = anneal_shard_options();
  const RunResult clean = reference_anneal(64, /*seed=*/5, opts);

  service::QuantumService svc(make_anneal_pool(), opts);
  const RunResult r = run_faulted_anneal(
      svc, 64, 5, {{"a1", BackendFaultKind::kCorruptHistogram}});
  expect_same_anneal_result(r, clean, svc);
  EXPECT_EQ(svc.backends().breaker_state("a1"), BreakerState::Open);
  EXPECT_GT(svc.metrics().counter("qs_backend_quarantines_total").value(),
            0u);
}

TEST(BackendFailover, OversizedQuboLeavesTheAnnealBreakerClosed) {
  // One tenant's too-large problem is its own fault: it is refused at
  // dispatch and never reaches a shard, so it cannot open the breaker
  // that every tenant's anneal jobs route through.
  BackendPoolOptions pool_opts;
  pool_opts.breaker.open_cooldown = 10s;
  auto pool = std::make_shared<BackendPool>(pool_opts);
  ASSERT_TRUE(pool->register_gate("gate", make_gate(2)).ok());
  ASSERT_TRUE(pool->register_anneal(
                      "a", std::make_shared<runtime::AnnealAccelerator>(
                               /*capacity=*/4))
                  .ok());
  service::ServiceOptions opts;
  opts.workers = 4;
  opts.shard_shots = 1;
  service::QuantumService svc(pool, opts);

  const RunResult oversized =
      svc.submit(RunRequest::anneal(anneal::Qubo(5), 8)).get();
  EXPECT_EQ(oversized.status.code(), StatusCode::kInvalidArgument)
      << oversized.status.to_string();

  anneal::Qubo fits(4);
  fits.add(0, 1, -1.0);
  fits.add(2, 3, 0.5);
  const RunResult valid = svc.submit(RunRequest::anneal(fits, 8)).get();
  EXPECT_TRUE(valid.ok()) << valid.status.to_string();
  EXPECT_EQ(svc.backends().breaker_state("a"), BreakerState::Closed);
  EXPECT_EQ(svc.metrics().gauge("qs_backend_breaker_state_a").value(), 0);
}

TEST(BackendFailover, AnnealWatchdogRescuesStuckShards) {
  service::ServiceOptions opts = anneal_shard_options();
  opts.shard_shots = 2;
  const RunResult clean = reference_anneal(16, /*seed=*/11, opts);
  // Long next to a healthy 2-read shard, so only the stuck backend trips
  // the watchdog, even under a sanitizer on a loaded host.
  opts.shard_time_budget = 250ms;

  service::QuantumService svc(make_anneal_pool(), opts);
  const RunResult r = run_faulted_anneal(
      svc, 16, 11, {{"a0", BackendFaultKind::kStuckShard}});
  expect_same_anneal_result(r, clean, svc);
  EXPECT_EQ(r.status.code(), StatusCode::kOk);
}

TEST(BackendFailover, AnnealAllBackendsCrashLoopingFailsWithUnavailable) {
  service::ServiceOptions opts = anneal_shard_options();
  opts.max_shard_failovers = 2;
  service::QuantumService svc(make_anneal_pool(), opts);
  const RunResult r = run_faulted_anneal(
      svc, 16, 3,
      {{"a0", BackendFaultKind::kCrash}, {"a1", BackendFaultKind::kCrash}});
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
}

// --------------------------------------------------- checkpoint/resume ----

TEST(Checkpoint, SerializeDeserializeRoundTrips) {
  service::JobCheckpoint cp;
  cp.fingerprint = 0xDEADBEEFULL;
  cp.shards = 4;
  cp.shard_done = {1, 0, 1, 0};
  cp.merged.add("010", 7);
  cp.merged.add("111", 3);
  cp.has_best = true;
  cp.best_energy = -2.625;
  cp.best_read = 12;
  cp.best_solution = {0, 1, 1};

  const StatusOr<service::JobCheckpoint> back =
      service::JobCheckpoint::deserialize(cp.serialize());
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->fingerprint, cp.fingerprint);
  EXPECT_EQ(back->shards, cp.shards);
  EXPECT_EQ(back->shard_done, cp.shard_done);
  EXPECT_EQ(back->merged.counts(), cp.merged.counts());
  EXPECT_TRUE(back->has_best);
  EXPECT_DOUBLE_EQ(back->best_energy, cp.best_energy);
  EXPECT_EQ(back->best_read, cp.best_read);
  EXPECT_EQ(back->best_solution, cp.best_solution);
  EXPECT_EQ(back->completed(), 2u);
}

TEST(Checkpoint, DeserializeRefusesTornOrMalformedSnapshots) {
  service::JobCheckpoint cp;
  cp.fingerprint = 1;
  cp.shards = 2;
  cp.shard_done = {1, 0};
  cp.merged.add("01", 3);
  const std::string bytes = cp.serialize();
  const auto code = [](std::string_view b) {
    return service::JobCheckpoint::deserialize(b).status().code();
  };

  // Torn write: every strict prefix is refused (exact consumption is the
  // completeness proof), and so is trailing garbage.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut)
    EXPECT_EQ(code(bytes.substr(0, cut)), StatusCode::kInvalidArgument)
        << "prefix " << cut;
  EXPECT_EQ(code(bytes + "x"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code(""), StatusCode::kInvalidArgument);
  // The old line-text format is not a checkpoint.
  EXPECT_EQ(code("qs-checkpoint v1\nbogus 1\n"), StatusCode::kInvalidArgument);

  const auto snapshot = [](std::uint32_t shards, std::uint32_t done_index,
                           std::uint8_t best_flag, const std::string& bits,
                           std::uint64_t count) {
    Encoder e;
    e.u64(1);           // fingerprint
    e.u32(shards);
    e.u32(1);           // one done index
    e.u32(done_index);
    e.u8(best_flag);
    if (best_flag == 1) {
      e.f64(-1.0);
      e.u64(0);
      e.str(bits);
    }
    e.u32(1);           // one histogram entry
    e.str("01");
    e.u64(count);
    return e.take();
  };
  EXPECT_EQ(code(snapshot(2, 1, 1, "01", 3)), StatusCode::kOk);
  // done index out of range.
  EXPECT_EQ(code(snapshot(2, 5, 0, "", 3)), StatusCode::kInvalidArgument);
  // A shard count beyond service::kMaxShards is refused before anything is
  // sized from it.
  EXPECT_EQ(code(snapshot(0xffffffffu, 0, 0, "", 3)),
            StatusCode::kInvalidArgument);
  // Non-binary best bits, a bad best flag, a zero histogram count.
  EXPECT_EQ(code(snapshot(2, 1, 1, "0x", 3)), StatusCode::kInvalidArgument);
  EXPECT_EQ(code(snapshot(2, 1, 2, "", 3)), StatusCode::kInvalidArgument);
  EXPECT_EQ(code(snapshot(2, 1, 0, "", 0)), StatusCode::kInvalidArgument);
}

TEST(Checkpoint, FileStoreRoundTripsAndRefusesTornFiles) {
  const std::string dir = "qs_ckpt_test_dir";
  store::StoreOptions disk;
  disk.directory = dir;
  service::StoreCheckpointStore checkpoints(
      std::make_shared<store::ArtifactStore>(disk));
  const auto path_for = [&](const std::string& key) {
    return checkpoints.store().path_for(store::ArtifactKey::checkpoint(key));
  };

  service::JobCheckpoint cp;
  cp.fingerprint = 42;
  cp.shards = 1;
  cp.shard_done = {1};
  cp.merged.add("00", 8);
  ASSERT_TRUE(checkpoints.save("job/alpha", cp).ok());

  const auto loaded = checkpoints.load("job/alpha");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->fingerprint, 42u);
  EXPECT_EQ(loaded->merged.counts(), cp.merged.counts());
  EXPECT_FALSE(checkpoints.load("job/other").has_value());

  // A torn file on disk is refused, not half-applied.
  {
    std::ofstream torn(path_for("job/alpha"),
                       std::ios::binary | std::ios::trunc);
    torn << "qs-checkpoint v1\nfingerprint 42\nshards 1\n";
  }
  EXPECT_FALSE(checkpoints.load("job/alpha").has_value());

  checkpoints.remove("job/alpha");
  EXPECT_FALSE(std::filesystem::exists(path_for("job/alpha")));
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, RestartResumesOnlyUnfinishedShardsByteIdentically) {
  // Acceptance scenario: kill a job mid-run (terminal shard failure after
  // four shards completed), restart the service on the same store, and
  // the resubmission re-runs only the unfinished shard — asserted through
  // the shard-execution counters — with the histogram of an uninterrupted
  // run.
  const std::size_t kShots = 320;
  const std::uint64_t kSeed = 21;
  service::ServiceOptions opts;
  opts.workers = 1;  // sequential shards: shards 0..3 finish, 4 fails
  opts.shard_shots = 64;
  opts.max_shard_retries = 1;
  opts.retry_backoff.initial = std::chrono::microseconds(1);
  const Histogram clean = reference_histogram(3, kShots, kSeed, opts);

  auto artifacts = std::make_shared<store::ArtifactStore>();
  opts.checkpoint_store =
      std::make_shared<service::StoreCheckpointStore>(artifacts);

  {
    service::QuantumService svc(
        GateAccelerator(compiler::Platform::perfect(3)), opts);
    auto plan = std::make_shared<FaultPlan>();
    plan->shard_faults = {{/*shard_index=*/4, /*failures=*/10}};
    RunRequest req = RunRequest::gate(ghz_program(3), kShots, kSeed);
    req.checkpoint_key = "resume-test";
    req.faults = plan;
    const RunResult r = svc.submit(std::move(req)).get();
    EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(r.stats.shards_executed, 4u);  // shard 4 never succeeded
  }  // service dies with the job checkpointed

  // The failed job kept its snapshot.
  EXPECT_EQ(artifacts->memory_entries(store::ArtifactKind::kCheckpoint), 1u);

  service::QuantumService svc(
      GateAccelerator(compiler::Platform::perfect(3)), opts);
  RunRequest req = RunRequest::gate(ghz_program(3), kShots, kSeed);
  req.checkpoint_key = "resume-test";
  const RunResult r = svc.submit(std::move(req)).get();
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_EQ(r.stats.shards, 5u);
  EXPECT_EQ(r.stats.shards_resumed, 4u);
  EXPECT_EQ(r.stats.shards_executed, 1u);  // only the unfinished shard ran
  EXPECT_EQ(r.histogram.counts(), clean.counts());
  EXPECT_EQ(svc.metrics().counter("qs_shards_resumed_total").value(), 4u);
  // The completed job removed its snapshot.
  EXPECT_EQ(artifacts->memory_entries(store::ArtifactKind::kCheckpoint), 0u);
}

TEST(Checkpoint, FingerprintMismatchStartsFresh) {
  service::ServiceOptions opts;
  opts.workers = 1;
  opts.shard_shots = 64;
  opts.max_shard_retries = 0;
  opts.retry_backoff.initial = std::chrono::microseconds(1);
  auto artifacts = std::make_shared<store::ArtifactStore>();
  opts.checkpoint_store =
      std::make_shared<service::StoreCheckpointStore>(artifacts);

  service::QuantumService svc(
      GateAccelerator(compiler::Platform::perfect(3)), opts);

  auto plan = std::make_shared<FaultPlan>();
  plan->shard_faults = {{2, 10}};
  RunRequest failing = RunRequest::gate(ghz_program(3), 192, /*seed=*/1);
  failing.checkpoint_key = "fp-test";
  failing.faults = plan;
  EXPECT_FALSE(svc.submit(std::move(failing)).get().ok());
  EXPECT_EQ(artifacts->memory_entries(store::ArtifactKind::kCheckpoint), 1u);

  // Same key, different seed: the snapshot's fingerprint no longer
  // matches, so nothing may be resumed from it.
  RunRequest changed = RunRequest::gate(ghz_program(3), 192, /*seed=*/2);
  changed.checkpoint_key = "fp-test";
  const RunResult r = svc.submit(std::move(changed)).get();
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_EQ(r.stats.shards_resumed, 0u);
  EXPECT_EQ(r.stats.shards_executed, 3u);
}

TEST(Checkpoint, AnnealJobsResumeBestSolutionState) {
  anneal::Qubo qubo(3);
  qubo.add(0, 0, -2.0);
  qubo.add(1, 1, 1.0);
  qubo.add(2, 2, -2.0);
  qubo.add(0, 1, 1.5);
  qubo.add(1, 2, 1.5);

  service::ServiceOptions opts;
  opts.workers = 1;
  opts.shard_shots = 8;
  opts.max_shard_retries = 0;
  opts.retry_backoff.initial = std::chrono::microseconds(1);

  // Uninterrupted reference.
  RunResult clean;
  {
    service::QuantumService svc(
        GateAccelerator(compiler::Platform::perfect(2)),
        runtime::AnnealAccelerator(/*capacity=*/8), opts);
    clean = svc.submit(RunRequest::anneal(qubo, /*reads=*/32, /*seed=*/4))
                .get();
    ASSERT_TRUE(clean.ok());
  }

  auto artifacts = std::make_shared<store::ArtifactStore>();
  opts.checkpoint_store =
      std::make_shared<service::StoreCheckpointStore>(artifacts);
  {
    service::QuantumService svc(
        GateAccelerator(compiler::Platform::perfect(2)),
        runtime::AnnealAccelerator(/*capacity=*/8), opts);
    auto plan = std::make_shared<FaultPlan>();
    plan->shard_faults = {{3, 10}};
    RunRequest req = RunRequest::anneal(qubo, 32, /*seed=*/4);
    req.checkpoint_key = "anneal-resume";
    req.faults = plan;
    EXPECT_FALSE(svc.submit(std::move(req)).get().ok());
  }

  service::QuantumService svc(
      GateAccelerator(compiler::Platform::perfect(2)),
      runtime::AnnealAccelerator(/*capacity=*/8), opts);
  RunRequest req = RunRequest::anneal(qubo, 32, /*seed=*/4);
  req.checkpoint_key = "anneal-resume";
  const RunResult r = svc.submit(std::move(req)).get();
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_EQ(r.stats.shards_resumed, 3u);
  EXPECT_EQ(r.histogram.counts(), clean.histogram.counts());
  EXPECT_EQ(r.best_solution, clean.best_solution);
  EXPECT_DOUBLE_EQ(r.best_energy, clean.best_energy);
}

TEST(Checkpoint, FingerprintValuesArePinned) {
  // Snapshots already on disk resume only while the fingerprint function
  // stays bit-identical, so one gate and one anneal value are pinned here.
  auto artifacts = std::make_shared<store::ArtifactStore>();
  auto checkpoints = std::make_shared<service::StoreCheckpointStore>(artifacts);
  service::ServiceOptions opts;
  opts.workers = 1;  // sequential shards: shard 0 merges, shard 1 fails
  opts.shard_shots = 8;
  opts.max_shard_retries = 0;
  opts.retry_backoff.initial = std::chrono::microseconds(1);
  opts.checkpoint_store = checkpoints;
  service::QuantumService svc(GateAccelerator(compiler::Platform::perfect(3)),
                              runtime::AnnealAccelerator(/*capacity=*/8),
                              opts);
  auto plan = std::make_shared<FaultPlan>();
  plan->shard_faults = {{/*shard_index=*/1, /*failures=*/10}};

  RunRequest gate = RunRequest::gate(ghz_program(3), 32, /*seed=*/17);
  gate.checkpoint_key = "pin-gate";
  gate.faults = plan;
  RunRequest qubo = RunRequest::anneal(failover_qubo(), 32, /*seed=*/17);
  qubo.checkpoint_key = "pin-anneal";
  qubo.faults = plan;
  EXPECT_EQ(svc.submit(std::move(gate)).get().status.code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(svc.submit(std::move(qubo)).get().status.code(),
            StatusCode::kUnavailable);

  const auto gate_cp = checkpoints->load("pin-gate");
  ASSERT_TRUE(gate_cp.has_value());
  EXPECT_EQ(gate_cp->completed(), 1u);
  EXPECT_EQ(gate_cp->fingerprint, 13891282772604876242ull);
  const auto anneal_cp = checkpoints->load("pin-anneal");
  ASSERT_TRUE(anneal_cp.has_value());
  EXPECT_EQ(anneal_cp->completed(), 1u);
  EXPECT_EQ(anneal_cp->fingerprint, 3782814004523815501ull);
}

// ----------------------------------------- annealer cancel / deadline ----

TEST(AnnealCancel, SweepLoopObservesCancelledToken) {
  anneal::Qubo qubo(6);
  for (std::size_t i = 0; i < 6; ++i) qubo.add(i, i, i % 2 ? 1.0 : -1.0);
  const anneal::IsingModel ising = qubo.to_ising();
  Rng rng(7);

  CancelSource source;
  source.request_cancel();
  EXPECT_THROW(anneal::SimulatedAnnealer().solve(ising, rng, {},
                                                 source.token()),
               CancelledError);
  EXPECT_THROW(anneal::SimulatedQuantumAnnealer().solve(ising, rng, {},
                                                        source.token()),
               CancelledError);
  EXPECT_THROW(
      anneal::SimulatedAnnealer().solve_qubo(qubo, rng, source.token()),
      CancelledError);
}

TEST(AnnealCancel, SweepLoopObservesExpiredDeadline) {
  anneal::Qubo qubo(4);
  qubo.add(0, 1, -1.0);
  qubo.add(2, 3, -1.0);
  Rng rng(3);
  CancelSource source;
  const CancelToken expired =
      source.token(std::chrono::steady_clock::now() - 1ms);
  try {
    anneal::SimulatedQuantumAnnealer().solve_qubo(qubo, rng, expired);
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_TRUE(e.deadline_expired());
  }
}

TEST(AnnealCancel, AcceleratorThreadsTokenThroughEmbeddingPath) {
  runtime::AnnealAccelerator acc(/*capacity=*/8);
  anneal::Qubo qubo(4);
  qubo.add(0, 1, -2.0);
  Rng rng(5);
  CancelSource source;
  source.request_cancel();
  EXPECT_THROW(acc.solve(qubo, rng, source.token()), CancelledError);
}

TEST(AnnealCancel, QuboJobHonoursDeadlineMidRun) {
  service::ServiceOptions opts;
  opts.workers = 2;
  opts.shard_shots = 8;
  service::QuantumService svc(
      GateAccelerator(compiler::Platform::perfect(2)),
      runtime::AnnealAccelerator(/*capacity=*/16), opts);

  anneal::Qubo qubo(8);
  for (std::size_t i = 0; i + 1 < 8; ++i) qubo.add(i, i + 1, -1.0);
  auto plan = std::make_shared<FaultPlan>();
  plan->shard_latency = std::chrono::microseconds(30'000);
  RunRequest req = RunRequest::anneal(qubo, /*reads=*/64, /*seed=*/2);
  req.deadline = 10ms;  // expires while shards stall
  req.faults = plan;
  const RunResult r = svc.submit(std::move(req)).get();
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
}

// ------------------------------------------------- parser hardening ----

TEST(ParserHardening, MalformedCqasmReturnsInvalidArgument) {
  const StatusOr<qasm::Program> bad =
      qasm::Parser::parse_or_status("this is not cqasm at all");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("cQASM"), std::string::npos);

  const StatusOr<qasm::Program> good = qasm::Parser::parse_or_status(
      "version 1.0\nqubits 2\nh q[0]\ncnot q[0], q[1]\nmeasure q[0]\n");
  ASSERT_TRUE(good.ok()) << good.status().to_string();
  EXPECT_EQ(good->qubit_count(), 2u);
}

TEST(ParserHardening, MalformedEqasmReturnsInvalidArgument) {
  const StatusOr<microarch::EqProgram> bad =
      microarch::parse_eqasm_or_status("definitely_not_an_opcode r0, r1");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("eQASM"), std::string::npos);
}

TEST(ParserHardening, RawSourceJobMapsParseFailureIntoResult) {
  service::ServiceOptions opts;
  opts.workers = 1;
  service::QuantumService svc(
      GateAccelerator(compiler::Platform::perfect(2)), opts);

  const RunResult bad =
      svc.submit(RunRequest::gate_source("qubits banana", 16)).get();
  EXPECT_EQ(bad.status.code(), StatusCode::kInvalidArgument);

  const RunResult good =
      svc.submit(RunRequest::gate_source(
                     "version 1.0\nqubits 2\nh q[0]\ncnot q[0], q[1]\n"
                     "measure q[0]\nmeasure q[1]\n",
                     64, /*seed=*/13))
          .get();
  ASSERT_TRUE(good.ok()) << good.status.to_string();
  EXPECT_EQ(good.histogram.total(), 64u);
}

TEST(ParserHardening, AcceleratorRunParsesRawSource) {
  const GateAccelerator acc(compiler::Platform::perfect(2));
  const RunResult bad = acc.run(RunRequest::gate_source("h q[0", 8));
  EXPECT_EQ(bad.status.code(), StatusCode::kInvalidArgument);

  const RunResult good = acc.run(RunRequest::gate_source(
      "version 1.0\nqubits 2\nh q[0]\ncnot q[0], q[1]\n"
      "measure q[0]\nmeasure q[1]\n",
      32, /*seed=*/6));
  ASSERT_TRUE(good.ok()) << good.status.to_string();
  EXPECT_EQ(good.histogram.total(), 32u);
}

}  // namespace
}  // namespace qs
