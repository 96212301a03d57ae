// Tests for the execution service: queue ordering (FIFO within priority),
// shot-sharded determinism across worker counts, compiled-program cache
// accounting, metrics exposition, the thread-safety of qs::Log, and the
// robustness layer — deadlines, cooperative cancellation, shard retry with
// deterministic seeds, and fault injection — behind the RunRequest/
// RunResult/JobHandle front door.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "anneal/qubo.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "compiler/algorithms.h"
#include "compiler/kernel.h"
#include "service/cache.h"
#include "service/job.h"
#include "service/metrics.h"
#include "service/queue.h"
#include "service/service.h"
#include "service/worker_pool.h"

namespace qs::service {
namespace {

using namespace std::chrono_literals;

qasm::Program ghz_program(std::size_t n) {
  compiler::Program p("ghz", n);
  p.add_kernel("main").ghz(n).measure_all();
  return p.to_qasm();
}

runtime::GateAccelerator perfect_gate(std::size_t qubits) {
  return runtime::GateAccelerator(compiler::Platform::perfect(qubits));
}

/// Spin until the dispatcher has actually sharded a job (bounded wait).
void wait_for_dispatch(QuantumService& svc, std::uint64_t count = 1) {
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  while (svc.metrics().counter("qs_jobs_dispatched_total").value() < count) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "job never dispatched";
    std::this_thread::sleep_for(1ms);
  }
}

// ------------------------------------------------------------- Queue ----

TEST(BoundedPriorityQueue, PopsHigherPriorityFirst) {
  BoundedPriorityQueue<int> q(8);
  ASSERT_TRUE(q.try_push(1, /*priority=*/0));
  ASSERT_TRUE(q.try_push(2, /*priority=*/5));
  ASSERT_TRUE(q.try_push(3, /*priority=*/-1));
  ASSERT_TRUE(q.try_push(4, /*priority=*/5));
  EXPECT_EQ(q.pop(), 2);  // priority 5, first in
  EXPECT_EQ(q.pop(), 4);  // priority 5, second in
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 3);
}

TEST(BoundedPriorityQueue, FifoWithinEqualPriority) {
  BoundedPriorityQueue<int> q(32);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(q.try_push(i, 7));
  for (int i = 0; i < 20; ++i) EXPECT_EQ(q.pop(), i);
}

TEST(BoundedPriorityQueue, TryPushRejectsWhenFull) {
  BoundedPriorityQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1, 0));
  EXPECT_TRUE(q.try_push(2, 0));
  EXPECT_FALSE(q.try_push(3, 0));
  q.pop();
  EXPECT_TRUE(q.try_push(3, 0));
}

TEST(BoundedPriorityQueue, CloseDrainsThenReturnsNullopt) {
  BoundedPriorityQueue<int> q(4);
  q.try_push(1, 0);
  q.close();
  EXPECT_FALSE(q.try_push(2, 0));
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), std::nullopt);
}

// ------------------------------------------------------- RNG streams ----

TEST(DeriveStreamSeed, DistinctConsecutiveStreams) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 100; ++i)
    seeds.push_back(derive_stream_seed(42, i));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(DeriveStreamSeed, PureFunctionOfInputs) {
  EXPECT_EQ(derive_stream_seed(7, 3), derive_stream_seed(7, 3));
  EXPECT_NE(derive_stream_seed(7, 3), derive_stream_seed(8, 3));
  EXPECT_NE(derive_stream_seed(7, 3), derive_stream_seed(7, 4));
}

// --------------------------------------------------------------- Log ----

TEST(Log, ConcurrentWritersProduceWholeLines) {
  Log::set_capture(true);
  Log::set_level(LogLevel::Info);
  constexpr int kThreads = 4;
  constexpr int kLines = 100;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([t] {
      for (int i = 0; i < kLines; ++i)
        QS_LOG(LogLevel::Info, "t" + std::to_string(t), "line " << i);
    });
  for (auto& w : writers) w.join();
  const std::string captured = Log::drain_capture();
  Log::set_capture(false);
  Log::set_level(LogLevel::Warn);

  const auto newlines =
      std::count(captured.begin(), captured.end(), '\n');
  EXPECT_EQ(newlines, kThreads * kLines);
  // Every line is intact: starts with the level tag, no interleaving.
  std::size_t pos = 0;
  while (pos < captured.size()) {
    EXPECT_EQ(captured.compare(pos, 6, "[INFO]"), 0)
        << "corrupt line at offset " << pos;
    pos = captured.find('\n', pos) + 1;
  }
}

// ------------------------------------------------------------- Cache ----

TEST(CompiledProgramCache, HitMissAndEvictionAccounting) {
  // Byte-budgeted view over a memory-only ArtifactStore: two empty
  // entries fit the budget exactly, a third evicts the least recent.
  const std::size_t unit = compiled_entry_bytes(CompiledEntry{});
  CompiledProgramCache cache(2 * unit);
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  cache.insert(1, std::make_shared<CompiledEntry>());
  cache.insert(2, std::make_shared<CompiledEntry>());
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.hits(), 1u);

  // 1 is now most recent, so inserting 3 evicts 2.
  cache.insert(3, std::make_shared<CompiledEntry>());
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
  EXPECT_NEAR(cache.hit_rate(), 3.0 / 5.0, 1e-12);
}

TEST(CompiledProgramCache, KeyDependsOnProgramPlatformAndOptions) {
  const auto p1 = compiler::Platform::perfect(4);
  const auto p2 = compiler::Platform::perfect(5);
  compiler::CompileOptions o1;
  compiler::CompileOptions o2;
  o2.optimize = false;
  const std::uint64_t base = compiled_program_key(
      "qubits 4", compiler::fingerprint(p1), compiler::fingerprint(o1));
  EXPECT_NE(base,
            compiled_program_key("qubits 5", compiler::fingerprint(p1),
                                 compiler::fingerprint(o1)));
  EXPECT_NE(base,
            compiled_program_key("qubits 4", compiler::fingerprint(p2),
                                 compiler::fingerprint(o1)));
  EXPECT_NE(base,
            compiled_program_key("qubits 4", compiler::fingerprint(p1),
                                 compiler::fingerprint(o2)));
  EXPECT_EQ(base,
            compiled_program_key("qubits 4", compiler::fingerprint(p1),
                                 compiler::fingerprint(o1)));
}

// ----------------------------------------------------------- Metrics ----

TEST(MetricsRegistry, CountersGaugesAndHistogramsRender) {
  MetricsRegistry reg;
  reg.counter("jobs_total").inc(3);
  reg.gauge("depth").set(-2);
  auto& h = reg.histogram("wait_us");
  h.observe(5.0);
  h.observe(50.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_NEAR(h.mean(), 27.5, 1e-9);

  const std::string text = reg.render();
  EXPECT_NE(text.find("jobs_total 3"), std::string::npos);
  EXPECT_NE(text.find("depth -2"), std::string::npos);
  EXPECT_NE(text.find("wait_us_count 2"), std::string::npos);
  EXPECT_NE(text.find("wait_us_p50"), std::string::npos);
}

TEST(MetricsRegistry, SameNameReturnsSameMetric) {
  MetricsRegistry reg;
  reg.counter("c").inc();
  reg.counter("c").inc();
  EXPECT_EQ(reg.counter("c").value(), 2u);
}

// -------------------------------------------------------- WorkerPool ----

TEST(WorkerPool, ExecutesAllTasksAndWaitsIdle) {
  WorkerPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i)
    pool.submit([&done] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 64);
}

// --------------------------------------------- Service: RunRequest API ----

TEST(QuantumService, InvalidRequestsResolveWithStatusNotExceptions) {
  ServiceOptions opts;
  opts.workers = 1;
  QuantumService svc(perfect_gate(3), opts);

  // Neither payload set.
  RunResult empty = svc.submit(RunRequest{}).get();
  EXPECT_EQ(empty.status.code(), StatusCode::kInvalidArgument);

  // Both payloads set.
  RunRequest both = RunRequest::gate(ghz_program(3), 16);
  both.qubo = anneal::Qubo(2);
  EXPECT_EQ(svc.submit(both).get().status.code(),
            StatusCode::kInvalidArgument);

  // Zero shots.
  EXPECT_EQ(svc.submit(RunRequest::gate(ghz_program(3), 0)).get()
                .status.code(),
            StatusCode::kInvalidArgument);

  // Anneal job without an annealer attached.
  EXPECT_EQ(svc.submit(RunRequest::anneal(anneal::Qubo(2), 8)).get()
                .status.code(),
            StatusCode::kFailedPrecondition);

  EXPECT_EQ(svc.metrics().counter("qs_jobs_rejected_total").value(), 4u);
  EXPECT_EQ(svc.metrics().counter("qs_jobs_submitted_total").value(), 0u);
}

TEST(QuantumService, HugeShotCountsAreRejectedAndServingContinues) {
  // shard_count stays exact where shots + shard_shots - 1 would wrap.
  EXPECT_EQ(shard_count(SIZE_MAX, 256), SIZE_MAX / 256 + 1);
  EXPECT_EQ(shard_count(kMaxShards * 256, 256), kMaxShards);

  ServiceOptions opts;
  opts.workers = 1;
  QuantumService svc(perfect_gate(3), runtime::AnnealAccelerator(4), opts);
  anneal::Qubo qubo(2);
  qubo.add(0, 1, -1.0);
  for (const std::size_t shots : {std::size_t{1} << 62, SIZE_MAX}) {
    EXPECT_EQ(svc.submit(RunRequest::gate(ghz_program(3), shots))
                  .get()
                  .status.code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(svc.try_submit(RunRequest::anneal(qubo, shots)).get()
                  .status.code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(svc.metrics().counter("qs_jobs_rejected_total").value(), 4u);

  const RunResult next = svc.submit(RunRequest::gate(ghz_program(3), 64)).get();
  ASSERT_TRUE(next.ok()) << next.status.to_string();
  EXPECT_EQ(next.histogram.total(), 64u);
}

TEST(QuantumService, GateJobMergesAllShots) {
  ServiceOptions opts;
  opts.workers = 2;
  opts.shard_shots = 64;
  QuantumService svc(perfect_gate(4), opts);
  JobHandle h = svc.submit(RunRequest::gate(ghz_program(4), 1000, /*seed=*/9));
  EXPECT_GT(h.id(), 0u);
  const RunResult r = h.get();
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_EQ(r.histogram.total(), 1000u);
  EXPECT_EQ(r.stats.shards, shard_count(1000, 64));
  EXPECT_EQ(r.stats.retries, 0u);
  EXPECT_EQ(r.kind, JobKind::Gate);
  // GHZ: only the all-zeros and all-ones bitstrings occur.
  for (const auto& [bits, n] : r.histogram.counts()) {
    EXPECT_TRUE(bits == "0000" || bits == "1111") << bits << " x" << n;
  }
}

// The headline determinism contract: same seed => byte-identical merged
// histogram for 1, 2, and 8 workers, because shard boundaries and shard
// seeds are worker-count independent.
TEST(QuantumService, MergedHistogramIdenticalAcrossWorkerCounts) {
  std::vector<std::map<std::string, std::size_t>> results;
  for (std::size_t workers : {1u, 2u, 8u}) {
    ServiceOptions opts;
    opts.workers = workers;
    opts.shard_shots = 32;
    QuantumService svc(perfect_gate(6), opts);
    JobHandle h =
        svc.submit(RunRequest::gate(ghz_program(6), 777, /*seed=*/12345));
    results.push_back(h.get().histogram.counts());
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(QuantumService, RepeatSubmissionsHitTheCompiledProgramCache) {
  ServiceOptions opts;
  opts.workers = 2;
  QuantumService svc(perfect_gate(4), opts);
  const qasm::Program prog = ghz_program(4);

  bool first_hit = true;
  std::size_t hits = 0;
  for (int i = 0; i < 10; ++i) {
    const RunResult r =
        svc.submit(RunRequest::gate(prog, 64, /*seed=*/i + 1)).get();
    if (i == 0) first_hit = r.stats.compile_cache_hit;
    hits += r.stats.compile_cache_hit ? 1 : 0;
  }
  EXPECT_FALSE(first_hit);
  EXPECT_EQ(hits, 9u);
  EXPECT_EQ(svc.cache().misses(), 1u);
  EXPECT_EQ(svc.cache().hits(), 9u);
  EXPECT_GT(svc.cache().hit_rate(), 0.89);
  EXPECT_EQ(svc.metrics().counter("qs_cache_hits_total").value(), 9u);
}

TEST(QuantumService, CacheDisabledNeverReportsHits) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.cache_enabled = false;
  QuantumService svc(perfect_gate(3), opts);
  const qasm::Program prog = ghz_program(3);
  for (int i = 0; i < 3; ++i) {
    const RunResult r = svc.submit(RunRequest::gate(prog, 32)).get();
    EXPECT_FALSE(r.stats.compile_cache_hit);
  }
  EXPECT_EQ(svc.cache().hits(), 0u);
  EXPECT_EQ(svc.cache().misses(), 0u);
}

TEST(QuantumService, CachedAndUncachedResultsAgree) {
  // The cache must be semantically invisible: same seed, same histogram,
  // whether the compiled program was fresh or cached.
  ServiceOptions opts;
  opts.workers = 2;
  opts.shard_shots = 50;
  QuantumService svc(perfect_gate(5), opts);
  const qasm::Program prog = ghz_program(5);
  const RunResult fresh =
      svc.submit(RunRequest::gate(prog, 300, /*seed=*/555)).get();
  const RunResult cached =
      svc.submit(RunRequest::gate(prog, 300, /*seed=*/555)).get();
  EXPECT_FALSE(fresh.stats.compile_cache_hit);
  EXPECT_TRUE(cached.stats.compile_cache_hit);
  EXPECT_EQ(fresh.histogram.counts(), cached.histogram.counts());
}

TEST(QuantumService, DispatchOrderIsPriorityThenFifo) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.start_paused = true;
  QuantumService svc(perfect_gate(3), opts);
  const qasm::Program prog = ghz_program(3);

  JobHandle a = svc.submit(RunRequest::gate(prog, 16, 1, /*priority=*/0));
  JobHandle b = svc.submit(RunRequest::gate(prog, 16, 1, /*priority=*/5));
  JobHandle c = svc.submit(RunRequest::gate(prog, 16, 1, /*priority=*/0));
  JobHandle d = svc.submit(RunRequest::gate(prog, 16, 1, /*priority=*/5));
  EXPECT_EQ(svc.queue_depth(), 4u);
  svc.resume();

  EXPECT_EQ(b.get().stats.dispatch_seq, 1u);
  EXPECT_EQ(d.get().stats.dispatch_seq, 2u);
  EXPECT_EQ(a.get().stats.dispatch_seq, 3u);
  EXPECT_EQ(c.get().stats.dispatch_seq, 4u);
}

TEST(QuantumService, TrySubmitRejectsWithResourceExhaustedWhenFull) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  opts.start_paused = true;
  QuantumService svc(perfect_gate(3), opts);
  const qasm::Program prog = ghz_program(3);

  JobHandle a = svc.try_submit(RunRequest::gate(prog, 16));
  JobHandle b = svc.try_submit(RunRequest::gate(prog, 16));
  JobHandle rejected = svc.try_submit(RunRequest::gate(prog, 16));

  // The rejection is immediate, typed, and names the queue depth.
  ASSERT_EQ(rejected.wait_for(0s), std::future_status::ready);
  const RunResult rr = rejected.get();
  EXPECT_EQ(rr.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rr.status.message().find("depth 2/2"), std::string::npos)
      << rr.status.message();
  EXPECT_EQ(svc.metrics().counter("qs_jobs_rejected_total").value(), 1u);

  svc.resume();
  EXPECT_EQ(a.get().histogram.total(), 16u);
  EXPECT_EQ(b.get().histogram.total(), 16u);
}

TEST(QuantumService, MicroArchPathServesFromAssembledCache) {
  ServiceOptions opts;
  opts.workers = 2;
  opts.shard_shots = 16;
  runtime::GateAccelerator gate(compiler::Platform::perfect(3), {},
                                runtime::GatePath::MicroArch);
  QuantumService svc(std::move(gate), opts);
  const qasm::Program prog = ghz_program(3);
  const RunResult r1 = svc.submit(RunRequest::gate(prog, 48, 7)).get();
  const RunResult r2 = svc.submit(RunRequest::gate(prog, 48, 7)).get();
  EXPECT_EQ(r1.histogram.total(), 48u);
  EXPECT_TRUE(r2.stats.compile_cache_hit);
  EXPECT_EQ(r1.histogram.counts(), r2.histogram.counts());
}

TEST(QuantumService, AnnealJobFindsMinimumAndIsWorkerCountInvariant) {
  // x0 XOR-like QUBO with known minimum at (1, 0, 1): brute-force checked.
  anneal::Qubo qubo(3);
  qubo.add(0, 0, -2.0);
  qubo.add(1, 1, 1.0);
  qubo.add(2, 2, -2.0);
  qubo.add(0, 1, 1.5);
  qubo.add(1, 2, 1.5);

  std::vector<RunResult> results;
  for (std::size_t workers : {1u, 2u, 8u}) {
    ServiceOptions opts;
    opts.workers = workers;
    opts.shard_shots = 8;
    QuantumService svc(perfect_gate(2),
                       runtime::AnnealAccelerator(/*capacity=*/8), opts);
    JobHandle h =
        svc.submit(RunRequest::anneal(qubo, /*reads=*/40, /*seed=*/3));
    results.push_back(h.get());
  }
  EXPECT_EQ(results[0].best_solution, (std::vector<int>{1, 0, 1}));
  EXPECT_DOUBLE_EQ(results[0].best_energy, -4.0);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0].histogram.counts(), results[i].histogram.counts());
    EXPECT_EQ(results[0].best_solution, results[i].best_solution);
    EXPECT_DOUBLE_EQ(results[0].best_energy, results[i].best_energy);
  }
}

TEST(QuantumService, DrainWaitsForAllSubmittedJobs) {
  ServiceOptions opts;
  opts.workers = 2;
  QuantumService svc(perfect_gate(4), opts);
  std::vector<JobHandle> handles;
  for (int i = 0; i < 6; ++i)
    handles.push_back(
        svc.submit(RunRequest::gate(ghz_program(4), 128, i + 1)));
  svc.drain();
  for (JobHandle& h : handles) {
    ASSERT_EQ(h.wait_for(0s), std::future_status::ready);
    EXPECT_EQ(h.get().histogram.total(), 128u);
  }
  EXPECT_EQ(svc.metrics().counter("qs_jobs_completed_total").value(), 6u);
  EXPECT_EQ(svc.metrics().counter("qs_gate_shots_total").value(), 6u * 128u);
}

TEST(QuantumService, SubmitAfterShutdownResolvesUnavailable) {
  ServiceOptions opts;
  opts.workers = 1;
  QuantumService svc(perfect_gate(3), opts);
  svc.shutdown();
  const RunResult r = svc.submit(RunRequest::gate(ghz_program(3), 16)).get();
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(svc.try_submit(RunRequest::gate(ghz_program(3), 16))
                .get()
                .status.code(),
            StatusCode::kUnavailable);
}

TEST(QuantumService, FailedJobCarriesInternalStatus) {
  ServiceOptions opts;
  opts.workers = 1;
  // A 3-variable clique cannot be minor-embedded into a 3-qubit path: the
  // problem fits the capacity, so it passes dispatch, and solve throws
  // inside the shard; the exception is mapped to a Status at the service
  // boundary.
  anneal::HardwareGraph path;
  path.adjacency = {{1}, {0, 2}, {1}};
  QuantumService svc(perfect_gate(2), runtime::AnnealAccelerator(path), opts);
  anneal::Qubo clique(3);
  clique.add(0, 1, 1.0);
  clique.add(1, 2, 1.0);
  clique.add(0, 2, 1.0);
  const RunResult r = svc.submit(RunRequest::anneal(clique, 8)).get();
  EXPECT_EQ(r.status.code(), StatusCode::kInternal);
  EXPECT_NE(r.status.message().find("embedding"), std::string::npos)
      << r.status.message();
  EXPECT_EQ(svc.metrics().counter("qs_jobs_failed_total").value(), 1u);
}

TEST(QuantumService, DeadlineBeyondKMaxDeadlineIsInvalidArgument) {
  // submit time + duration::max() would overflow the clock (and wrap into
  // the past, expiring the job before it runs), so it is refused.
  QuantumService svc(perfect_gate(2));
  RunRequest req = RunRequest::gate(ghz_program(2), 16);
  req.deadline = std::chrono::steady_clock::duration::max();
  EXPECT_EQ(svc.submit(req).get().status.code(),
            StatusCode::kInvalidArgument);
  req.deadline = runtime::kMaxDeadline;
  const RunResult r = svc.submit(req).get();
  EXPECT_TRUE(r.ok()) << r.status.to_string();
}

TEST(QuantumService, OversizedQuboIsInvalidArgumentAtDispatch) {
  ServiceOptions opts;
  opts.workers = 1;
  // Annealer capacity 2 < QUBO size 4: the request's fault, refused before
  // any shard runs (the gate-width check's anneal twin).
  QuantumService svc(perfect_gate(2), runtime::AnnealAccelerator(2), opts);
  const RunResult r = svc.submit(RunRequest::anneal(anneal::Qubo(4), 8)).get();
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status.message().find("capacity"), std::string::npos)
      << r.status.message();
  EXPECT_EQ(r.stats.shards_executed, 0u);
  EXPECT_EQ(svc.metrics().counter("qs_jobs_failed_total").value(), 1u);
}

// ------------------------------------------- Cancellation & deadlines ----

TEST(QuantumService, CancelBeforeDispatchNeverRuns) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.start_paused = true;
  QuantumService svc(perfect_gate(3), opts);
  JobHandle h = svc.submit(RunRequest::gate(ghz_program(3), 64));
  h.cancel();
  EXPECT_TRUE(h.cancel_requested());
  svc.resume();
  const RunResult r = h.get();
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(r.stats.shards, 0u);  // never compiled, never sharded
  EXPECT_EQ(r.histogram.total(), 0u);
  EXPECT_EQ(svc.metrics().counter("qs_jobs_cancelled_total").value(), 1u);
  EXPECT_EQ(svc.metrics().counter("qs_jobs_completed_total").value(), 0u);
}

TEST(QuantumService, CancelMidRunStopsBetweenShards) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.shard_shots = 16;
  QuantumService svc(perfect_gate(3), opts);

  // 8 shards, each held up ~25ms by injected latency: the job takes
  // >= 200ms on one worker, so a cancel sent right after dispatch lands
  // mid-run deterministically.
  auto plan = std::make_shared<FaultPlan>();
  plan->shard_latency = std::chrono::microseconds(25'000);
  RunRequest req = RunRequest::gate(ghz_program(3), 128, /*seed=*/4);
  req.faults = plan;

  JobHandle h = svc.submit(std::move(req));
  wait_for_dispatch(svc);
  h.cancel();

  const RunResult r = h.get();  // must not hang
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(r.stats.shards, 8u);
  EXPECT_LT(r.histogram.total(), 128u);  // partial at best
  EXPECT_EQ(svc.metrics().counter("qs_jobs_cancelled_total").value(), 1u);
}

TEST(QuantumService, CancelAfterCompletionIsANoOp) {
  ServiceOptions opts;
  opts.workers = 1;
  QuantumService svc(perfect_gate(3), opts);
  JobHandle h = svc.submit(RunRequest::gate(ghz_program(3), 16));
  const RunResult r = h.get();
  ASSERT_TRUE(r.ok());
  h.cancel();  // too late, harmless
  EXPECT_TRUE(h.get().ok());
  EXPECT_EQ(svc.metrics().counter("qs_jobs_cancelled_total").value(), 0u);
}

TEST(QuantumService, DeadlineExpiredInQueueIsRejectedOnDequeue) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.start_paused = true;
  QuantumService svc(perfect_gate(3), opts);

  RunRequest req = RunRequest::gate(ghz_program(3), 64);
  req.deadline = 20ms;
  JobHandle h = svc.submit(std::move(req));
  std::this_thread::sleep_for(60ms);  // expire while paused in queue
  svc.resume();

  const RunResult r = h.get();
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(r.status.message().find("in queue"), std::string::npos)
      << r.status.message();
  EXPECT_EQ(r.stats.shards, 0u);  // never dispatched to workers
  EXPECT_EQ(svc.metrics().counter("qs_jobs_timed_out_total").value(), 1u);
  // Queue wait consumed more than the whole deadline budget.
  auto& frac = svc.metrics().histogram("qs_deadline_wait_fraction",
                                       MetricsRegistry::fraction_bounds());
  EXPECT_EQ(frac.count(), 1u);
  EXPECT_GT(frac.sum(), 1.0);
}

TEST(QuantumService, DeadlineExpiredMidRunStopsBetweenShards) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.shard_shots = 16;
  QuantumService svc(perfect_gate(3), opts);

  // 4 shards x ~100ms injected latency on one worker vs a 150ms deadline:
  // shard 0 completes, the deadline expires during shard 1.
  auto plan = std::make_shared<FaultPlan>();
  plan->shard_latency = std::chrono::microseconds(100'000);
  RunRequest req = RunRequest::gate(ghz_program(3), 64, /*seed=*/2);
  req.deadline = 150ms;
  req.faults = plan;

  const RunResult r = svc.submit(std::move(req)).get();  // must not hang
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r.stats.shards, 4u);
  EXPECT_LT(r.histogram.total(), 64u);
  EXPECT_EQ(svc.metrics().counter("qs_jobs_timed_out_total").value(), 1u);
}

// ------------------------------------------------ Retries and faults ----

TEST(QuantumService, RetriedShardsProduceByteIdenticalHistogram) {
  // The reproducibility contract under faults: a job whose shard fails
  // twice and then succeeds yields exactly the histogram of a job that
  // never failed, because the retried shard re-derives the same
  // counter-based RNG stream.
  ServiceOptions opts;
  opts.workers = 2;
  opts.shard_shots = 64;
  opts.max_shard_retries = 2;
  opts.retry_backoff.initial = std::chrono::microseconds(1);

  std::map<std::string, std::size_t> clean;
  {
    QuantumService svc(perfect_gate(5), opts);
    const RunResult r =
        svc.submit(RunRequest::gate(ghz_program(5), 256, /*seed=*/77)).get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.stats.retries, 0u);
    clean = r.histogram.counts();
  }

  QuantumService svc(perfect_gate(5), opts);
  auto plan = std::make_shared<FaultPlan>();
  plan->shard_faults = {{/*shard_index=*/1, /*failures=*/2}};
  RunRequest req = RunRequest::gate(ghz_program(5), 256, /*seed=*/77);
  req.faults = plan;
  const RunResult faulty = svc.submit(std::move(req)).get();

  ASSERT_TRUE(faulty.ok()) << faulty.status.to_string();
  EXPECT_EQ(faulty.stats.retries, 2u);
  EXPECT_EQ(svc.metrics().counter("qs_shard_retries_total").value(), 2u);
  EXPECT_EQ(faulty.histogram.counts(), clean);  // byte-identical
  EXPECT_EQ(svc.metrics().counter("qs_jobs_completed_total").value(), 1u);
}

TEST(QuantumService, ShardExhaustingRetriesFailsUnavailable) {
  ServiceOptions opts;
  opts.workers = 2;
  opts.shard_shots = 32;
  opts.max_shard_retries = 2;
  opts.retry_backoff.initial = std::chrono::microseconds(1);
  QuantumService svc(perfect_gate(4), opts);

  auto plan = std::make_shared<FaultPlan>();
  plan->shard_faults = {{/*shard_index=*/0, /*failures=*/100}};
  RunRequest req = RunRequest::gate(ghz_program(4), 128);
  req.faults = plan;

  const RunResult r = svc.submit(std::move(req)).get();
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(r.status.message().find("failed after 3 attempts"),
            std::string::npos)
      << r.status.message();
  EXPECT_EQ(svc.metrics().counter("qs_shard_retries_total").value(), 2u);
  EXPECT_EQ(svc.metrics().counter("qs_jobs_failed_total").value(), 1u);
}

TEST(QuantumService, InjectedCompileFailureFailsJob) {
  ServiceOptions opts;
  opts.workers = 1;
  QuantumService svc(perfect_gate(3), opts);

  auto plan = std::make_shared<FaultPlan>();
  plan->fail_compile = true;
  RunRequest req = RunRequest::gate(ghz_program(3), 32);
  req.faults = plan;

  const RunResult r = svc.submit(std::move(req)).get();
  EXPECT_EQ(r.status.code(), StatusCode::kInternal);
  EXPECT_NE(r.status.message().find("injected compile failure"),
            std::string::npos);
  EXPECT_EQ(r.stats.shards, 0u);  // failed before sharding
  EXPECT_EQ(svc.metrics().counter("qs_jobs_failed_total").value(), 1u);
}

TEST(QuantumService, MetricsSnapshotCoversServingSignals) {
  ServiceOptions opts;
  opts.workers = 2;
  QuantumService svc(perfect_gate(4), opts);
  const qasm::Program prog = ghz_program(4);
  for (int i = 0; i < 4; ++i)
    svc.submit(RunRequest::gate(prog, 100, i + 1)).get();

  const std::string snapshot = svc.metrics().render();
  for (const char* key :
       {"qs_jobs_submitted_total 4", "qs_jobs_completed_total 4",
        "qs_jobs_dispatched_total 4", "qs_gate_shots_total 400",
        "qs_cache_hits_total 3", "qs_cache_misses_total 1", "qs_workers 2",
        "qs_job_wait_us_count", "qs_job_run_us_p99",
        // Sampling fast path: all 4 GHZ jobs sampled; the first missed the
        // final-state cache and primed it for the other three.
        "qs_jobs_sampled_total 4", "qs_final_state_cache_misses_total 1",
        "qs_final_state_cache_hits_total 3"}) {
    EXPECT_NE(snapshot.find(key), std::string::npos)
        << "missing '" << key << "' in:\n"
        << snapshot;
  }
}

TEST(QuantumService, SamplingFallbackMetricCarriesReasonLabel) {
  ServiceOptions opts;
  opts.workers = 1;
  compiler::Platform noisy = compiler::Platform::perfect(4);
  noisy.qubit_model = sim::QubitModel::realistic();
  QuantumService svc(runtime::GateAccelerator(noisy), opts);
  ASSERT_TRUE(svc.submit(RunRequest::gate(ghz_program(4), 64, 1)).get().ok());
  EXPECT_EQ(svc.metrics().counter("qs_jobs_sampled_total").value(), 0u);
  EXPECT_EQ(
      svc.metrics()
          .counter("qs_sampling_fallback_total{reason=\"stochastic_model\"}")
          .value(),
      1u);
  EXPECT_NE(svc.metrics().render().find(
                "qs_sampling_fallback_total{reason=\"stochastic_model\"} 1"),
            std::string::npos);
}

TEST(QuantumService, SamplingDisabledCountsDisabledFallback) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.sampling_enabled = false;
  QuantumService svc(perfect_gate(3), opts);
  const runtime::RunResult r =
      svc.submit(RunRequest::gate(ghz_program(3), 64, 1)).get();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.stats.sampled);
  EXPECT_EQ(svc.metrics()
                .counter("qs_sampling_fallback_total{reason=\"disabled\"}")
                .value(),
            1u);
  EXPECT_EQ(svc.final_state_cache().size(), 0u);
}

// -------------------------------- Artifact-store-backed serving stats ----

TEST(QuantumServiceStore, JobStatsReportStoreTiers) {
  ServiceOptions opts;
  opts.workers = 1;
  QuantumService svc(perfect_gate(3), opts);

  const RunResult cold =
      svc.submit(RunRequest::gate(ghz_program(3), 64, /*seed=*/7)).get();
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.stats.compile_cache_hit);
  EXPECT_EQ(cold.stats.compile_cache_tier, runtime::CacheTier::kNone);
  EXPECT_EQ(cold.stats.final_state_cache_tier, runtime::CacheTier::kNone);

  const RunResult warm =
      svc.submit(RunRequest::gate(ghz_program(3), 64, /*seed=*/7)).get();
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.stats.compile_cache_hit);
  EXPECT_EQ(warm.stats.compile_cache_tier, runtime::CacheTier::kMemory);
  EXPECT_TRUE(warm.stats.final_state_cache_hit);
  EXPECT_EQ(warm.stats.final_state_cache_tier, runtime::CacheTier::kMemory);
  EXPECT_EQ(warm.histogram.counts(), cold.histogram.counts());

  // Unified store metrics carry the same story, labelled by tier; the
  // legacy per-cache counters keep emitting for one release.
  auto& m = svc.metrics();
  EXPECT_GE(m.counter("qs_store_hits_total{tier=\"memory\"}").value(), 2u);
  EXPECT_GE(m.counter("qs_store_misses_total{tier=\"memory\"}").value(), 2u);
  EXPECT_EQ(m.counter("qs_store_hits_total{tier=\"disk\"}").value(), 0u);
  EXPECT_GE(m.counter("qs_cache_hits_total").value(), 1u);
  EXPECT_GE(m.counter("qs_final_state_cache_hits_total").value(), 1u);
}

TEST(QuantumServiceStore, ZeroStoreBudgetIsRejectedAtConstruction) {
  ServiceOptions opts;
  opts.store_memory_bytes = 0;
  EXPECT_FALSE(opts.validate().ok());
  EXPECT_THROW(QuantumService(perfect_gate(2), opts), std::invalid_argument);
}

}  // namespace
}  // namespace qs::service
