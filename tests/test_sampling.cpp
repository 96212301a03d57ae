// Terminal-measurement sampling fast path: trajectory analysis verdicts,
// the bit-identical cumulative-distribution build, counter-derived shot
// draws, equivalence with the per-shot trajectory path (exact for
// ineligible circuits, statistical for eligible ones), and the service's
// FinalStateCache. The byte-identity tests here are the reproducibility
// contract of docs/simulator.md extended to the sampled path: fixed seed
// => identical histogram across sim_threads, worker counts, cache hits
// and checkpoint-resumed reruns.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "compiler/kernel.h"
#include "compiler/platform.h"
#include "runtime/accelerator.h"
#include "service/checkpoint.h"
#include "service/final_state_cache.h"
#include "service/service.h"
#include "sim/gates.h"
#include "sim/simulator.h"
#include "sim/statevector.h"
#include "sim/trajectory_analysis.h"
#include "store/artifact_store.h"

namespace qs {
namespace {

using sim::FinalDistribution;
using sim::QubitModel;
using sim::SamplingFallback;
using sim::SimOptions;
using sim::Simulator;
using sim::TrajectoryAnalysis;

qasm::Program ghz_program(std::size_t n) {
  compiler::Program p("ghz", n);
  p.add_kernel("main").ghz(n).measure_all();
  return p.to_qasm();
}

qasm::Program uniform_program(std::size_t n) {
  compiler::Program p("uniform", n);
  auto& k = p.add_kernel("main");
  for (std::size_t q = 0; q < n; ++q) k.h(q);
  k.measure_all();
  return p.to_qasm();
}

TrajectoryAnalysis analyze(const qasm::Program& program, std::size_t qubits,
                           const QubitModel& model = QubitModel::perfect()) {
  return sim::analyze_trajectory(program.flatten(), qubits, model);
}

// ------------------------------------------------ trajectory analysis ----

TEST(TrajectoryAnalysis, GhzMeasureAllIsSamplable) {
  const qasm::Program prog = ghz_program(3);
  const TrajectoryAnalysis a = analyze(prog, 3);
  EXPECT_TRUE(a.samplable);
  EXPECT_EQ(a.fallback, SamplingFallback::kNone);
  EXPECT_EQ(a.measured_mask, StateIndex{0b111});
  // The terminal region is exactly the trailing measure_all.
  EXPECT_EQ(a.terminal_start, prog.flatten().size() - 1);
}

TEST(TrajectoryAnalysis, TerminalPerQubitMeasuresRecordMask) {
  compiler::Program p("partial", 3);
  p.add_kernel("main").x(0).h(1).measure(0).measure(2);
  const TrajectoryAnalysis a = analyze(p.to_qasm(), 3);
  EXPECT_TRUE(a.samplable);
  EXPECT_EQ(a.measured_mask, StateIndex{0b101});
}

TEST(TrajectoryAnalysis, MeasurementFreeProgramIsSamplable) {
  compiler::Program p("nomeas", 2);
  p.add_kernel("main").h(0).cnot(0, 1);
  const TrajectoryAnalysis a = analyze(p.to_qasm(), 2);
  EXPECT_TRUE(a.samplable);
  EXPECT_EQ(a.measured_mask, StateIndex{0});
  EXPECT_EQ(a.terminal_start, p.to_qasm().flatten().size());
}

TEST(TrajectoryAnalysis, LeadingPrepAndInterleavedBarriersAllowed) {
  compiler::Program p("prep", 2);
  p.add_kernel("main")
      .prep_z(0)
      .prep_z(1)
      .h(0)
      .barrier({0, 1})
      .cnot(0, 1)
      .measure(0)
      .barrier({0, 1})
      .measure(1);
  EXPECT_TRUE(analyze(p.to_qasm(), 2).samplable);
}

TEST(TrajectoryAnalysis, WaitIsANoOpUnderPerfectModel) {
  compiler::Program p("wait", 2);
  p.add_kernel("main").h(0).wait({0, 1}, 10).cnot(0, 1).measure_all();
  EXPECT_TRUE(analyze(p.to_qasm(), 2).samplable);
}

TEST(TrajectoryAnalysis, ConditionalGateFallsBack) {
  compiler::Program p("cond", 2);
  auto& k = p.add_kernel("main");
  k.h(0).measure(0);
  k.x(1).controlled_by({0});
  const TrajectoryAnalysis a = analyze(p.to_qasm(), 2);
  EXPECT_FALSE(a.samplable);
  EXPECT_EQ(a.fallback, SamplingFallback::kConditional);
}

TEST(TrajectoryAnalysis, MidCircuitMeasureFallsBack) {
  compiler::Program p("mid", 2);
  p.add_kernel("main").h(0).measure(0).h(1).measure(1);
  const TrajectoryAnalysis a = analyze(p.to_qasm(), 2);
  EXPECT_FALSE(a.samplable);
  EXPECT_EQ(a.fallback, SamplingFallback::kMidCircuitMeasure);
}

TEST(TrajectoryAnalysis, MidCircuitPrepFallsBack) {
  compiler::Program p("midprep", 2);
  p.add_kernel("main").h(0).prep_z(0).measure_all();
  const TrajectoryAnalysis a = analyze(p.to_qasm(), 2);
  EXPECT_FALSE(a.samplable);
  EXPECT_EQ(a.fallback, SamplingFallback::kMidCircuitPrep);
}

TEST(TrajectoryAnalysis, DisplayFallsBack) {
  compiler::Program p("disp", 2);
  p.add_kernel("main").h(0).display().measure_all();
  const TrajectoryAnalysis a = analyze(p.to_qasm(), 2);
  EXPECT_FALSE(a.samplable);
  EXPECT_EQ(a.fallback, SamplingFallback::kDisplay);
}

TEST(TrajectoryAnalysis, RealisticModelFallsBack) {
  const TrajectoryAnalysis a =
      analyze(ghz_program(3), 3, QubitModel::realistic());
  EXPECT_FALSE(a.samplable);
  EXPECT_EQ(a.fallback, SamplingFallback::kStochasticModel);
}

TEST(TrajectoryAnalysis, AmplitudeDampingAloneFallsBack) {
  QubitModel model;  // perfect except T1 decay
  model.kind = sim::QubitKind::Realistic;
  model.t1_ns = 30000.0;
  const TrajectoryAnalysis a = analyze(ghz_program(3), 3, model);
  EXPECT_FALSE(a.samplable);
  EXPECT_EQ(a.fallback, SamplingFallback::kStochasticModel);
}

TEST(TrajectoryAnalysis, AllZeroRealisticModelIsEffectivelyPerfect) {
  // Mirrors make_error_model: a Realistic model with every rate at zero
  // builds a NoErrorModel, so the fast path stays available.
  QubitModel model;
  model.kind = sim::QubitKind::Realistic;
  EXPECT_TRUE(analyze(ghz_program(3), 3, model).samplable);
}

TEST(TrajectoryAnalysis, FallbackReasonLabels) {
  EXPECT_STREQ(sim::to_string(SamplingFallback::kNone), "none");
  EXPECT_STREQ(sim::to_string(SamplingFallback::kStochasticModel),
               "stochastic_model");
  EXPECT_STREQ(sim::to_string(SamplingFallback::kConditional),
               "conditional_gate");
  EXPECT_STREQ(sim::to_string(SamplingFallback::kMidCircuitMeasure),
               "mid_circuit_measure");
  EXPECT_STREQ(sim::to_string(SamplingFallback::kMidCircuitPrep),
               "mid_circuit_prep");
  EXPECT_STREQ(sim::to_string(SamplingFallback::kDisplay), "display");
  EXPECT_STREQ(sim::to_string(SamplingFallback::kDisabled), "disabled");
}

// -------------------------------------- cumulative distribution build ----

TEST(CumulativeDistribution, MatchesSequentialSumBitExactly) {
  // 17 qubits = two reduction chunks, so the parallel 3-pass prefix sum
  // actually exercises the chunk-base pass. Must equal the sequential
  // build bit-for-bit (determinism contract).
  const std::size_t n = 17;
  const Matrix h = sim::hadamard();
  sim::StateVector seq(n);
  for (std::size_t q = 0; q < n; ++q) seq.apply_1q(h, q);
  seq.apply_cnot(0, 1);

  ThreadPool pool(4);
  sim::StateVector par(n);
  par.set_kernel_policy({&pool, /*min_parallel_qubits=*/0});
  for (std::size_t q = 0; q < n; ++q) par.apply_1q(h, q);
  par.apply_cnot(0, 1);

  const std::vector<double> a = seq.cumulative_distribution();
  const std::vector<double> b = par.cumulative_distribution();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a, b);  // exact double equality, not approximate
  EXPECT_NEAR(a.back(), 1.0, 1e-12);
}

TEST(CumulativeDistribution, SmallStatePlainRunningSum) {
  sim::StateVector sv(2);
  sv.apply_1q(sim::hadamard(), 0);
  const std::vector<double> cum = sv.cumulative_distribution();
  ASSERT_EQ(cum.size(), 4u);
  EXPECT_DOUBLE_EQ(cum[0], 0.5);
  EXPECT_DOUBLE_EQ(cum[1], 1.0);
  EXPECT_DOUBLE_EQ(cum[2], 1.0);
  EXPECT_DOUBLE_EQ(cum[3], 1.0);
}

TEST(SampleFromCumulative, BinarySearchSkipsZeroWeightStates) {
  const std::vector<double> cum = {0.0, 0.5, 0.5, 1.0};  // mass on 1 and 3
  EXPECT_EQ(sim::sample_from_cumulative(cum, 0.0), StateIndex{1});
  EXPECT_EQ(sim::sample_from_cumulative(cum, 0.25), StateIndex{1});
  EXPECT_EQ(sim::sample_from_cumulative(cum, 0.5), StateIndex{3});
  EXPECT_EQ(sim::sample_from_cumulative(cum, 0.75), StateIndex{3});
}

TEST(SampleFromCumulative, BoundaryDrawLandsOnLastOccupiedState) {
  // A draw at (or rounded onto) the total mass must map to the last state
  // with non-zero weight, never a trailing zero-weight state.
  const std::vector<double> cum = {0.5, 1.0, 1.0, 1.0};
  EXPECT_EQ(sim::sample_from_cumulative(cum, 1.0), StateIndex{1});
  const std::vector<double> all = {0.25, 0.5, 0.75, 1.0};
  EXPECT_EQ(sim::sample_from_cumulative(all, 1.0), StateIndex{3});
}

TEST(StateVectorSample, GhzStateOnlyReturnsPoles) {
  sim::StateVector sv(3);
  sv.apply_1q(sim::hadamard(), 0);
  sv.apply_cnot(0, 1);
  sv.apply_cnot(1, 2);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const StateIndex s = sv.sample(rng);
    EXPECT_TRUE(s == 0 || s == 7) << s;
  }
}

// ---------------------------------------------- simulator fast path ------

TEST(SamplingFastPath, RunReportsSampledOnlyWhenEligible) {
  Simulator eligible(3);
  EXPECT_TRUE(eligible.run(ghz_program(3), 32).sampled);

  Simulator noisy(3, QubitModel::realistic(), /*seed=*/1);
  EXPECT_FALSE(noisy.run(ghz_program(3), 32).sampled);

  SimOptions off;
  off.sampling = false;
  Simulator disabled(3, QubitModel::perfect(), /*seed=*/1, sim::GateDurations{},
                     off);
  EXPECT_FALSE(disabled.run(ghz_program(3), 32).sampled);
}

TEST(SamplingFastPath, GhzHistogramHasOnlyPoleKeysAndFullShotCount) {
  Simulator sim(4, QubitModel::perfect(), /*seed=*/11);
  const sim::RunResult r = sim.run(ghz_program(4), 1000);
  ASSERT_TRUE(r.sampled);
  std::size_t total = 0;
  for (const auto& [key, count] : r.histogram.counts()) {
    EXPECT_TRUE(key == "0000" || key == "1111") << key;
    total += count;
  }
  EXPECT_EQ(total, 1000u);
}

TEST(SamplingFastPath, UnmeasuredQubitsReportZero) {
  compiler::Program p("partial", 3);
  p.add_kernel("main").x(0).x(2).measure(0);
  Simulator sim(3);
  const sim::RunResult r = sim.run(p.to_qasm(), 64);
  ASSERT_TRUE(r.sampled);
  // q0 measured as 1; q2 is |1> but unmeasured, so its classical bit
  // stays 0 — exactly what the per-shot path reports.
  ASSERT_EQ(r.histogram.counts().size(), 1u);
  EXPECT_EQ(r.histogram.counts().begin()->first, "100");
  EXPECT_EQ(r.histogram.counts().begin()->second, 64u);
}

TEST(SamplingFastPath, MeasurementFreeProgramBinsAllZeros) {
  compiler::Program p("nomeas", 2);
  p.add_kernel("main").h(0).cnot(0, 1);
  Simulator sim(2);
  const sim::RunResult r = sim.run(p.to_qasm(), 50);
  ASSERT_TRUE(r.sampled);
  ASSERT_EQ(r.histogram.counts().size(), 1u);
  EXPECT_EQ(r.histogram.counts().begin()->first, "00");
  EXPECT_EQ(r.histogram.counts().begin()->second, 50u);
}

TEST(SamplingFastPath, FixedSeedByteIdenticalAcrossSimThreads) {
  const qasm::Program prog = uniform_program(6);
  std::map<std::string, std::size_t> reference;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SimOptions opts;
    opts.threads = threads;
    opts.min_parallel_qubits = 0;  // force parallel kernels even at n=6
    Simulator sim(6, QubitModel::perfect(), /*seed=*/42, sim::GateDurations{},
                  opts);
    const sim::RunResult r = sim.run(prog, 2048);
    ASSERT_TRUE(r.sampled);
    if (reference.empty()) {
      reference = r.histogram.counts();
    } else {
      EXPECT_EQ(r.histogram.counts(), reference) << threads << " threads";
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(SamplingFastPath, IneligibleCircuitBitIdenticalToPerShotReference) {
  // The fallback path must be byte-for-byte today's per-shot loop. Rebuild
  // that loop by hand (reset / execute / key) and compare exactly.
  compiler::Program p("mid", 2);
  p.add_kernel("main").h(0).measure(0).h(1).measure(1);
  const qasm::Program prog = p.to_qasm();
  const std::size_t shots = 256;

  Simulator via_run(2, QubitModel::perfect(), /*seed=*/9);
  const sim::RunResult r = via_run.run(prog, shots);
  ASSERT_FALSE(r.sampled);

  Simulator reference(2, QubitModel::perfect(), /*seed=*/9);
  const std::vector<qasm::Instruction> flat = prog.flatten();
  Histogram expected;
  for (std::size_t s = 0; s < shots; ++s) {
    reference.reset();
    for (const auto& instr : flat) reference.execute(instr);
    std::string key(2, '0');
    for (std::size_t q = 0; q < 2; ++q)
      key[q] = reference.bits()[q] ? '1' : '0';
    expected.add(key);
  }
  EXPECT_EQ(r.histogram.counts(), expected.counts());
}

TEST(SamplingFastPath, SampledStatisticsMatchTrajectoryChiSquare) {
  // Uniform superposition over 3 qubits: every key expects shots/8. Both
  // paths must pass a chi-square test against the exact distribution.
  const qasm::Program prog = uniform_program(3);
  const std::size_t shots = 8192;
  const double expected = static_cast<double>(shots) / 8.0;
  // 7 degrees of freedom, alpha ~ 1e-4 => critical value ~ 27.9. Seeds are
  // fixed, so this never flakes.
  const double critical = 27.9;

  for (const bool sampling : {true, false}) {
    SimOptions opts;
    opts.sampling = sampling;
    Simulator sim(3, QubitModel::perfect(), /*seed=*/123, sim::GateDurations{},
                  opts);
    const sim::RunResult r = sim.run(prog, shots);
    EXPECT_EQ(r.sampled, sampling);
    double chi2 = 0.0;
    std::size_t total = 0;
    for (const auto& [key, count] : r.histogram.counts()) {
      const double d = static_cast<double>(count) - expected;
      chi2 += d * d / expected;
      total += count;
    }
    // Keys absent from the histogram contribute their full expectation.
    chi2 += expected * static_cast<double>(8 - r.histogram.counts().size());
    EXPECT_EQ(total, shots);
    EXPECT_LT(chi2, critical) << (sampling ? "sampled" : "trajectory");
  }
}

TEST(SamplingFastPath, GateCountReflectsSingleEvolution) {
  Simulator sim(3);
  const sim::RunResult r = sim.run(ghz_program(3), 100);
  ASSERT_TRUE(r.sampled);
  // GHZ(3) = H + 2 CNOT: one evolution, not 100.
  EXPECT_EQ(r.total_gates, 3u);
}

// -------------------------------------------------- FinalStateCache ------

std::shared_ptr<const FinalDistribution> make_dist(std::size_t doubles) {
  auto d = std::make_shared<FinalDistribution>();
  d->qubit_count = 1;
  d->measured_mask = 1;
  d->cum.assign(doubles, 1.0);
  return d;
}

TEST(FinalStateCache, LookupInsertAndStats) {
  service::FinalStateCache cache(/*capacity_bytes=*/1 << 20);
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  cache.insert(1, make_dist(8));
  const auto hit = cache.lookup(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cum.size(), 8u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FinalStateCache, EvictsLeastRecentlyUsedWithinByteBudget) {
  const std::size_t unit = make_dist(64)->bytes();
  service::FinalStateCache cache(2 * unit);
  cache.insert(1, make_dist(64));
  cache.insert(2, make_dist(64));
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_NE(cache.lookup(1), nullptr);  // refresh 1 => 2 is now LRU
  EXPECT_EQ(cache.insert(3, make_dist(64)), 1u);
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(cache.bytes(), cache.capacity_bytes());
}

TEST(FinalStateCache, OversizedEntryIsNotCached) {
  service::FinalStateCache cache(64);  // smaller than any real entry
  cache.insert(1, make_dist(1024));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  // The rejection is observable, not silent: a fleet whose circuits never
  // fit the budget shows up as a climbing oversized counter instead of a
  // mysterious 0% hit rate.
  EXPECT_EQ(cache.oversized(), 1u);
  cache.insert(2, make_dist(4096));
  EXPECT_EQ(cache.oversized(), 2u);
  cache.insert(3, make_dist(1));  // fits: not an oversized rejection
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.oversized(), 2u);
}


TEST(FinalStateCache, KeySeparatesModelsAndKernelFlavour) {
  const std::uint64_t perfect_fused =
      service::final_state_key(7, QubitModel::perfect(), true);
  EXPECT_EQ(perfect_fused,
            service::final_state_key(7, QubitModel::perfect(), true));
  EXPECT_NE(perfect_fused,
            service::final_state_key(7, QubitModel::perfect(), false));
  EXPECT_NE(perfect_fused,
            service::final_state_key(7, QubitModel::realistic(), true));
  EXPECT_NE(perfect_fused,
            service::final_state_key(8, QubitModel::perfect(), true));
}

// ---------------------------------------------------- service layer ------

runtime::GateAccelerator perfect_gate(std::size_t qubits) {
  return runtime::GateAccelerator(compiler::Platform::perfect(qubits));
}

/// A perfect-model gate backend whose service jobs run per-shot
/// trajectories instead of the sampling fast path.
runtime::GateAccelerator trajectory_gate(std::size_t qubits) {
  runtime::GateAccelerator gate = perfect_gate(qubits);
  sim::SimOptions so;
  so.sampling = false;
  gate.set_sim_options(so);
  return gate;
}

TEST(ServiceSampling, ByteIdenticalAcrossWorkerCountsAndTrajectoryToggle) {
  const qasm::Program prog = uniform_program(4);
  std::map<std::string, std::size_t> sampled_counts;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    service::ServiceOptions opts;
    opts.workers = workers;
    opts.shard_shots = 64;
    service::QuantumService svc(perfect_gate(4), opts);
    const runtime::RunResult r =
        svc.submit(runtime::RunRequest::gate(prog, 512, /*seed=*/5)).get();
    ASSERT_TRUE(r.ok()) << r.status.to_string();
    EXPECT_TRUE(r.stats.sampled);
    if (sampled_counts.empty()) {
      sampled_counts = r.histogram.counts();
    } else {
      EXPECT_EQ(r.histogram.counts(), sampled_counts) << workers << " workers";
    }
  }

  // The same job with sampling disabled runs true per-shot trajectories:
  // statistically equivalent but a different (per-shot RNG) stream.
  service::ServiceOptions opts;
  opts.workers = 2;
  opts.shard_shots = 64;
  service::QuantumService svc(trajectory_gate(4), opts);
  const runtime::RunResult r =
      svc.submit(runtime::RunRequest::gate(prog, 512, /*seed=*/5)).get();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.stats.sampled);
  std::size_t total = 0;
  for (const auto& [key, count] : r.histogram.counts()) total += count;
  EXPECT_EQ(total, 512u);
}

TEST(ServiceSampling, CacheHitSkipsEvolutionAndStaysByteIdentical) {
  service::ServiceOptions opts;
  opts.workers = 2;
  opts.shard_shots = 128;
  service::QuantumService svc(perfect_gate(4), opts);

  const runtime::RunResult first =
      svc.submit(runtime::RunRequest::gate(ghz_program(4), 512, /*seed=*/3))
          .get();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.stats.sampled);
  EXPECT_FALSE(first.stats.final_state_cache_hit);
  EXPECT_EQ(svc.final_state_cache().misses(), 1u);
  EXPECT_EQ(svc.final_state_cache().size(), 1u);

  const runtime::RunResult second =
      svc.submit(runtime::RunRequest::gate(ghz_program(4), 512, /*seed=*/3))
          .get();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.stats.final_state_cache_hit);
  EXPECT_GE(svc.final_state_cache().hits(), 1u);
  EXPECT_EQ(second.histogram.counts(), first.histogram.counts());

  // A different seed over the same cached distribution is a different —
  // but still full — sample.
  const runtime::RunResult reseeded =
      svc.submit(runtime::RunRequest::gate(ghz_program(4), 512, /*seed=*/4))
          .get();
  ASSERT_TRUE(reseeded.ok());
  EXPECT_TRUE(reseeded.stats.final_state_cache_hit);
  std::size_t total = 0;
  for (const auto& [key, count] : reseeded.histogram.counts()) total += count;
  EXPECT_EQ(total, 512u);
}

TEST(ServiceSampling, OversizedDistributionBumpsObservabilityCounter) {
  service::ServiceOptions opts;
  opts.workers = 1;
  // A store budget no 3-qubit distribution fits: every sampled job
  // evolves, samples correctly, and records the rejection.
  opts.store_memory_bytes = 8;
  service::QuantumService svc(perfect_gate(3), opts);
  for (int i = 0; i < 2; ++i) {
    const runtime::RunResult r =
        svc.submit(runtime::RunRequest::gate(ghz_program(3), 64, /*seed=*/1))
            .get();
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.stats.sampled);
    EXPECT_FALSE(r.stats.final_state_cache_hit);
  }
  EXPECT_EQ(svc.final_state_cache().oversized(), 2u);
  // The store's oversized counter also counts the compiled programs, which
  // do not fit either.
  EXPECT_EQ(svc.metrics()
                .counter("qs_store_oversized_total{tier=\"memory\"}")
                .value(),
            svc.final_state_cache().oversized() + svc.cache().oversized());
  EXPECT_EQ(svc.final_state_cache().hits(), 0u);
}

TEST(ServiceSampling, RetriedShardsProduceByteIdenticalHistogram) {
  // Sampled shards keep the full retry machinery: a shard that fails
  // transiently re-derives the same counter-derived draws on retry.
  service::ServiceOptions opts;
  opts.workers = 2;
  opts.shard_shots = 64;
  opts.max_shard_retries = 3;
  opts.retry_backoff.initial = std::chrono::microseconds(1);

  service::QuantumService clean_svc(perfect_gate(3), opts);
  const runtime::RunResult clean =
      clean_svc.submit(runtime::RunRequest::gate(ghz_program(3), 512, 7)).get();
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(clean.stats.sampled);

  service::QuantumService faulty_svc(perfect_gate(3), opts);
  auto plan = std::make_shared<runtime::FaultPlan>();
  plan->shard_faults = {{/*shard_index=*/1, /*failures=*/2}};
  runtime::RunRequest req = runtime::RunRequest::gate(ghz_program(3), 512, 7);
  req.faults = plan;
  const runtime::RunResult faulty = faulty_svc.submit(std::move(req)).get();
  ASSERT_TRUE(faulty.ok());
  EXPECT_TRUE(faulty.stats.sampled);
  EXPECT_GE(faulty.stats.retries, 2u);
  EXPECT_EQ(faulty.histogram.counts(), clean.histogram.counts());
}

TEST(ServiceSampling, CheckpointResumeStaysByteIdentical) {
  service::ServiceOptions opts;
  opts.workers = 1;
  opts.shard_shots = 64;
  opts.max_shard_retries = 0;
  opts.max_shard_failovers = 0;
  opts.retry_backoff.initial = std::chrono::microseconds(1);
  auto artifacts = std::make_shared<store::ArtifactStore>();
  opts.checkpoint_store =
      std::make_shared<service::StoreCheckpointStore>(artifacts);

  service::QuantumService clean_svc(perfect_gate(3), opts);
  const runtime::RunResult clean =
      clean_svc.submit(runtime::RunRequest::gate(ghz_program(3), 512, 7)).get();
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(clean.stats.sampled);

  {
    service::QuantumService svc(perfect_gate(3), opts);
    auto plan = std::make_shared<runtime::FaultPlan>();
    plan->shard_faults = {{/*shard_index=*/7, /*failures=*/10}};
    runtime::RunRequest req = runtime::RunRequest::gate(ghz_program(3), 512, 7);
    req.checkpoint_key = "sampled-resume";
    req.faults = plan;
    EXPECT_FALSE(svc.submit(std::move(req)).get().ok());
  }
  ASSERT_EQ(artifacts->memory_entries(store::ArtifactKind::kCheckpoint), 1u);

  service::QuantumService svc(perfect_gate(3), opts);
  runtime::RunRequest req = runtime::RunRequest::gate(ghz_program(3), 512, 7);
  req.checkpoint_key = "sampled-resume";
  const runtime::RunResult resumed = svc.submit(std::move(req)).get();
  ASSERT_TRUE(resumed.ok()) << resumed.status.to_string();
  EXPECT_TRUE(resumed.stats.sampled);
  EXPECT_GT(resumed.stats.shards_resumed, 0u);
  EXPECT_EQ(resumed.histogram.counts(), clean.histogram.counts());
}

TEST(ServiceSampling, IneligibleJobFallsBackAndCountsReason) {
  compiler::Program p("cond", 2);
  auto& k = p.add_kernel("main");
  k.h(0).measure(0);
  k.x(1).controlled_by({0});
  k.measure(1);

  service::ServiceOptions opts;
  opts.workers = 1;
  service::QuantumService svc(perfect_gate(2), opts);
  const runtime::RunResult r =
      svc.submit(runtime::RunRequest::gate(p.to_qasm(), 128, 1)).get();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.stats.sampled);
  EXPECT_FALSE(r.stats.final_state_cache_hit);
  EXPECT_EQ(svc.metrics()
                .counter("qs_sampling_fallback_total{reason=\"conditional_gate\"}")
                .value(),
            1u);
  EXPECT_EQ(svc.metrics().counter("qs_jobs_sampled_total").value(), 0u);
}

}  // namespace
}  // namespace qs
