// Kernel-layer tests: the fork-join thread pool, the fused fast-path
// gate kernels, and the bit-identity contract — scalar, fused and
// threaded execution must produce byte-identical amplitudes and identical
// measurement streams for a fixed seed.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "sim/gates.h"
#include "sim/simulator.h"
#include "sim/statevector.h"

namespace qs::sim {
namespace {

using qasm::GateKind;
using qasm::Instruction;

// ---------------------------------------------------------- ThreadPool ----

TEST(ThreadPool, SliceCoversRangeDisjointly) {
  for (std::size_t count : {0u, 1u, 7u, 64u, 1000u}) {
    for (std::size_t slices : {1u, 2u, 3u, 4u, 7u}) {
      std::size_t covered = 0;
      std::size_t prev_hi = 0;
      for (std::size_t s = 0; s < slices; ++s) {
        std::size_t lo = 0, hi = 0;
        ThreadPool::slice(0, count, slices, s, &lo, &hi);
        EXPECT_EQ(lo, prev_hi);  // contiguous, in order, no overlap
        EXPECT_LE(hi, count);
        covered += hi - lo;
        prev_hi = hi;
      }
      EXPECT_EQ(covered, count);
      EXPECT_EQ(prev_hi, count);
    }
  }
}

TEST(ThreadPool, SliceIsIndependentOfPoolSize) {
  // The partition is a pure function of (range, slices, index) — this is
  // what makes elementwise kernels thread-count invariant.
  std::size_t lo1 = 0, hi1 = 0, lo2 = 0, hi2 = 0;
  ThreadPool::slice(0, 1 << 20, 4, 2, &lo1, &hi1);
  ThreadPool::slice(0, 1 << 20, 4, 2, &lo2, &hi2);
  EXPECT_EQ(lo1, lo2);
  EXPECT_EQ(hi1, hi2);
}

TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads == 0 ? 1u : threads);
    for (std::size_t chunks : {1u, 2u, 5u, 32u, 257u}) {
      std::vector<std::atomic<int>> hits(chunks);
      for (auto& h : hits) h.store(0);
      pool.run_chunks(chunks, [&](std::size_t c) { hits[c].fetch_add(1); });
      for (std::size_t c = 0; c < chunks; ++c)
        EXPECT_EQ(hits[c].load(), 1) << "chunk " << c;
    }
  }
}

TEST(ThreadPool, BackToBackJobsDoNotInterfere) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.run_chunks(8, [&](std::size_t c) { sum.fetch_add(c + 1); });
    EXPECT_EQ(sum.load(), 36u);
  }
}

TEST(ThreadPool, ReuseStressWithFreshBodies) {
  // Regression for the reuse race: a worker that read job N's body late
  // must never run it on a chunk of job N+1. Every job gets a fresh
  // heap-allocated body that flags any call after its job returned; the
  // last few jobs stay allocated so such a call is counted here, and an
  // older one is a use-after-free under ASan. A stolen chunk also leaves
  // the new job's own sum short. More lanes than cores make a worker
  // likely to be preempted inside the claim window.
  struct Job {
    std::atomic<std::size_t> sum{0};
    std::atomic<bool> returned{false};
    std::function<void(std::size_t)> body;
  };
  ThreadPool pool(8);
  constexpr std::size_t kJobs = 2'000'000;
  constexpr std::size_t kChunks = 3;
  std::array<std::unique_ptr<Job>, 8> recent;
  std::atomic<std::size_t> late_calls{0};
  std::size_t wrong_sums = 0;
  for (std::size_t n = 0; n < kJobs; ++n) {
    auto& slot = recent[n % recent.size()];
    slot = std::make_unique<Job>();
    Job* job = slot.get();
    job->body = [job, n, &late_calls](std::size_t c) {
      if (job->returned.load(std::memory_order_acquire))
        late_calls.fetch_add(1, std::memory_order_relaxed);
      job->sum.fetch_add(n + c, std::memory_order_relaxed);
    };
    pool.run_chunks(kChunks, job->body);
    job->returned.store(true, std::memory_order_release);
    wrong_sums += job->sum.load() != kChunks * n + 3;
  }
  EXPECT_EQ(late_calls.load(), 0u);
  EXPECT_EQ(wrong_sums, 0u);
}

TEST(ThreadPool, ConcurrentCallersAreSerialized) {
  // Two external threads sharing one pool: each call must still run every
  // chunk exactly once (job_mutex_ serializes the fork-join epochs).
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  auto hammer = [&] {
    for (int i = 0; i < 100; ++i)
      pool.run_chunks(5, [&](std::size_t) { total.fetch_add(1); });
  };
  std::thread a(hammer), b(hammer);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2u * 100u * 5u);
}

TEST(SimOptions, ResolveThreads) {
  // Explicit request wins and clamps to [1, 64].
  EXPECT_EQ(resolve_sim_threads(3), 3u);
  EXPECT_EQ(resolve_sim_threads(1000), 64u);
#ifndef _WIN32
  ::setenv("QS_SIM_THREADS", "5", 1);
  EXPECT_EQ(resolve_sim_threads(0), 5u);
  EXPECT_EQ(resolve_sim_threads(2), 2u);  // explicit beats environment
  ::setenv("QS_SIM_THREADS", "garbage", 1);
  EXPECT_EQ(resolve_sim_threads(0), 1u);
  ::unsetenv("QS_SIM_THREADS");
#endif
  EXPECT_EQ(resolve_sim_threads(0), 1u);
}

// ------------------------------------------------- Fused kernel algebra ----

/// Fills a state with a deterministic pseudo-random unit vector.
StateVector random_state(std::size_t qubits, std::uint64_t seed) {
  StateVector s(qubits);
  Rng rng(seed);
  for (StateIndex i = 0; i < s.dimension(); ++i)
    s.set_amplitude(i, cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)));
  s.normalize();
  return s;
}

void expect_states_equal(const StateVector& a, const StateVector& b,
                         double tol = 0.0) {
  ASSERT_EQ(a.dimension(), b.dimension());
  for (StateIndex i = 0; i < a.dimension(); ++i) {
    const cplx da = a.amplitude(i), db = b.amplitude(i);
    if (tol == 0.0) {
      EXPECT_EQ(da.real(), db.real()) << "re idx " << i;
      EXPECT_EQ(da.imag(), db.imag()) << "im idx " << i;
    } else {
      EXPECT_NEAR(da.real(), db.real(), tol) << "re idx " << i;
      EXPECT_NEAR(da.imag(), db.imag(), tol) << "im idx " << i;
    }
  }
}

TEST(FusedKernels, MatchGenericSingleQubit) {
  const cplx kI(0.0, 1.0);
  for (std::size_t q = 0; q < 5; ++q) {
    StateVector fused = random_state(5, 11 + q);
    StateVector generic = fused;

    fused.apply_x(q);
    generic.apply_1q(pauli_x(), q);
    expect_states_equal(fused, generic);

    fused.apply_y(q);
    generic.apply_1q(pauli_y(), q);
    expect_states_equal(fused, generic);

    fused.apply_z(q);
    generic.apply_1q(pauli_z(), q);
    expect_states_equal(fused, generic);

    fused.apply_phase(q, kI);  // S
    generic.apply_1q(phase_s(), q);
    expect_states_equal(fused, generic);

    const double theta = 0.7 + static_cast<double>(q);
    fused.apply_diag(q, std::exp(-kI * (theta / 2.0)),
                     std::exp(kI * (theta / 2.0)));
    generic.apply_1q(rz(theta), q);
    expect_states_equal(fused, generic);
  }
}

TEST(FusedKernels, MatchGenericTwoQubit) {
  const cplx kI(0.0, 1.0);
  const std::size_t n = 5;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      StateVector fused = random_state(n, 101 + a * n + b);
      StateVector generic = fused;

      fused.apply_cnot(a, b);
      generic.apply_2q(gate_matrix_2q(GateKind::CNOT), a, b);
      expect_states_equal(fused, generic);

      fused.apply_cphase(a, b, cplx(-1.0, 0.0));
      generic.apply_2q(gate_matrix_2q(GateKind::CZ), a, b);
      expect_states_equal(fused, generic);

      fused.apply_swap(a, b);
      generic.apply_2q(gate_matrix_2q(GateKind::Swap), a, b);
      expect_states_equal(fused, generic);

      const double theta = 0.3 + static_cast<double>(a + b);
      fused.apply_zz_phase(a, b, std::exp(-kI * (theta / 2.0)),
                           std::exp(kI * (theta / 2.0)));
      generic.apply_2q(gate_matrix_2q(GateKind::RZZ, theta), a, b);
      expect_states_equal(fused, generic);
    }
  }
}

TEST(FusedKernels, DiagWindowMatchesGenericDiagonals) {
  // amp[i] *= table[(i >> shift) & mask] must equal applying the window's
  // diagonal gates one by one through the generic matrix path.
  const cplx kI(0.0, 1.0);
  const std::size_t n = 6;
  for (QubitIndex shift = 0; shift + 2 <= n; ++shift) {
    StateVector windowed = random_state(n, 301 + shift);
    StateVector generic = windowed;

    // Window = RZ(theta) on qubit `shift` then CZ(shift+1, shift).
    const double theta = 0.9 + static_cast<double>(shift);
    const cplx d0 = std::exp(-kI * (theta / 2.0));
    const cplx d1 = std::exp(kI * (theta / 2.0));
    // Table index bit 0 = qubit `shift`, bit 1 = qubit `shift + 1`.
    const cplx table[4] = {d0, d1, d0, -d1};
    windowed.apply_diag_window(shift, 2, table);

    generic.apply_1q(rz(theta), shift);
    generic.apply_2q(gate_matrix_2q(GateKind::CZ), shift + 1, shift);
    expect_states_equal(windowed, generic);
  }

  EXPECT_THROW(StateVector(3).apply_diag_window(2, 2, nullptr),
               std::invalid_argument);
}

// -------------------------------------------- Randomized circuit streams ----

/// Deterministic random circuit over the full fused-eligible gate set plus
/// generic gates (H, Rx, Ry, Toffoli) so the state stays fully generic.
/// Interleaves measurements so RNG-consuming paths are exercised too.
std::vector<Instruction> random_circuit(std::size_t qubits, std::size_t ops,
                                        std::uint64_t seed,
                                        bool with_measure) {
  Rng rng(seed);
  std::vector<Instruction> out;
  out.reserve(ops);
  const std::vector<GateKind> one_q = {
      GateKind::X,  GateKind::Y,    GateKind::Z, GateKind::H,
      GateKind::S,  GateKind::Sdag, GateKind::T, GateKind::Tdag,
      GateKind::Rx, GateKind::Ry,   GateKind::Rz};
  const std::vector<GateKind> two_q = {GateKind::CNOT, GateKind::CZ,
                                       GateKind::Swap, GateKind::CR,
                                       GateKind::CRK,  GateKind::RZZ};
  for (std::size_t i = 0; i < ops; ++i) {
    const double pick = rng.uniform();
    if (with_measure && pick < 0.05) {
      out.emplace_back(GateKind::Measure,
                       std::vector<QubitIndex>{static_cast<QubitIndex>(
                           rng.uniform_int(qubits))});
      continue;
    }
    if (pick < 0.55) {
      const GateKind k = one_q[rng.uniform_int(one_q.size())];
      const double angle = qasm::gate_has_angle(k)
                               ? rng.uniform(-3.14159, 3.14159)
                               : 0.0;
      out.emplace_back(k,
                       std::vector<QubitIndex>{static_cast<QubitIndex>(
                           rng.uniform_int(qubits))},
                       angle);
    } else {
      const GateKind k = two_q[rng.uniform_int(two_q.size())];
      QubitIndex a = static_cast<QubitIndex>(rng.uniform_int(qubits));
      QubitIndex b = static_cast<QubitIndex>(rng.uniform_int(qubits));
      while (b == a) b = static_cast<QubitIndex>(rng.uniform_int(qubits));
      const double angle = qasm::gate_has_angle(k)
                               ? rng.uniform(-3.14159, 3.14159)
                               : 0.0;
      const std::int64_t param_k =
          qasm::gate_has_int_param(k)
              ? static_cast<std::int64_t>(1 + rng.uniform_int(4))
              : 0;
      out.emplace_back(k, std::vector<QubitIndex>{a, b}, angle, param_k);
    }
  }
  return out;
}

/// Runs a circuit under the given options; returns the simulator for
/// inspection (amplitudes, bits).
Simulator run_circuit(const std::vector<Instruction>& circuit,
                      std::size_t qubits, const SimOptions& options,
                      std::vector<int>* measured = nullptr) {
  Simulator sim(qubits, QubitModel::perfect(), /*seed=*/42, GateDurations{},
                options);
  for (const Instruction& instr : circuit) {
    sim.execute(instr);
    if (measured && instr.kind() == GateKind::Measure)
      measured->push_back(sim.bits()[instr.qubits()[0]]);
  }
  return sim;
}

TEST(KernelEquivalence, FusedMatchesScalarAmplitudesExactly) {
  const std::size_t qubits = 6;
  for (std::uint64_t seed : {7u, 19u, 333u}) {
    const auto circuit = random_circuit(qubits, 120, seed, false);
    SimOptions scalar;
    scalar.fused_kernels = false;
    SimOptions fused;
    fused.fused_kernels = true;

    const Simulator a = run_circuit(circuit, qubits, scalar);
    const Simulator b = run_circuit(circuit, qubits, fused);
    expect_states_equal(a.state(), b.state());
  }
}

TEST(KernelEquivalence, ThreadCountDoesNotChangeAmplitudes) {
  const std::size_t qubits = 8;
  const auto circuit = random_circuit(qubits, 150, 91, false);

  SimOptions base;
  base.threads = 1;
  base.min_parallel_qubits = 0;  // force the parallel code path
  const Simulator ref = run_circuit(circuit, qubits, base);

  for (std::size_t threads : {2u, 3u, 4u}) {
    SimOptions opt = base;
    opt.threads = threads;
    const Simulator got = run_circuit(circuit, qubits, opt);
    expect_states_equal(ref.state(), got.state());
  }
}

TEST(KernelEquivalence, MeasurementStreamsIdenticalAcrossConfigs) {
  const std::size_t qubits = 6;
  const auto circuit = random_circuit(qubits, 200, 55, true);

  SimOptions scalar;
  scalar.fused_kernels = false;
  std::vector<int> ref_bits;
  run_circuit(circuit, qubits, scalar, &ref_bits);
  ASSERT_FALSE(ref_bits.empty());  // circuit must actually measure

  for (std::size_t threads : {1u, 2u, 4u}) {
    SimOptions opt;
    opt.fused_kernels = true;
    opt.threads = threads;
    opt.min_parallel_qubits = 0;
    std::vector<int> bits;
    run_circuit(circuit, qubits, opt, &bits);
    EXPECT_EQ(ref_bits, bits) << "threads=" << threads;
  }
}

TEST(KernelEquivalence, ReductionsExactAcrossThreadCounts) {
  // prob_one and norm use fixed-size chunked reductions: the result must
  // be the same double for any pool size, including above the chunk size.
  const std::size_t qubits = 18;  // 2^18 amplitudes = 4 chunks of 2^16
  StateVector ref = random_state(qubits, 2024);

  std::vector<double> ref_probs(qubits);
  for (std::size_t q = 0; q < qubits; ++q) ref_probs[q] = ref.prob_one(q);
  const double ref_norm = ref.norm();

  for (std::size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    StateVector s = ref;
    s.set_kernel_policy({&pool, 0});
    for (std::size_t q = 0; q < qubits; ++q)
      EXPECT_EQ(s.prob_one(q), ref_probs[q]) << "q=" << q
                                             << " threads=" << threads;
    EXPECT_EQ(s.norm(), ref_norm) << "threads=" << threads;
  }
}

TEST(KernelEquivalence, NoisyHistogramIdenticalAcrossThreadCounts) {
  // Full pipeline determinism: stochastic error channels consume RNG via
  // probabilities computed by the (possibly threaded) reduction kernels.
  const std::size_t qubits = 5;
  qasm::Program program("noisy_determinism", qubits);
  qasm::Circuit circuit("bell_chain");
  circuit.add(Instruction(GateKind::H, {0}));
  for (std::size_t q = 0; q + 1 < qubits; ++q)
    circuit.add(Instruction(GateKind::CNOT,
                            {static_cast<QubitIndex>(q),
                             static_cast<QubitIndex>(q + 1)}));
  circuit.add(Instruction(GateKind::MeasureAll, {}));
  program.add_circuit(std::move(circuit));

  QubitModel noisy = QubitModel::realistic(0.02, 0.05, 0.01);
  Histogram ref;
  for (std::size_t threads : {1u, 2u, 4u}) {
    SimOptions opt;
    opt.threads = threads;
    opt.min_parallel_qubits = 0;
    Simulator sim(qubits, noisy, /*seed=*/7, GateDurations{}, opt);
    const RunResult r = sim.run(program, 300);
    if (threads == 1)
      ref = r.histogram;
    else
      EXPECT_EQ(ref.counts(), r.histogram.counts()) << "threads=" << threads;
  }
}

// ------------------------------------------- SIMD backend & precision ----

/// Deterministic pseudo-random unit state at an explicit tier. The same
/// seed fills the same values whatever the precision/backend, so two
/// states built with equal (qubits, seed, precision) start byte-equal.
StateVector random_tier_state(std::size_t qubits, std::uint64_t seed,
                              Precision precision, SimdMode simd) {
  StateVector s(qubits, precision, /*max_state_bytes=*/0, simd);
  Rng rng(seed);
  for (StateIndex i = 0; i < s.dimension(); ++i)
    s.set_amplitude(i, cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)));
  s.normalize();
  return s;
}

bool simd_available() { return simd_compiled() && simd_cpu_supported(); }

/// Drives every kernel entry point — fused fast paths, generic matrix
/// paths, reductions, measurement collapse — through a scalar-backend and
/// a SIMD-backend state in lockstep, asserting byte equality after each
/// step. This is the per-tier bit-identity contract at its sharpest:
/// whatever the element type, the AVX2 build must produce the very bits
/// the scalar build produces.
void expect_backend_parity(Precision precision) {
  const std::size_t n = 6;
  StateVector a = random_tier_state(n, 99, precision, SimdMode::kOff);
  StateVector b = random_tier_state(n, 99, precision, SimdMode::kAuto);
  ASSERT_FALSE(a.simd_active());
  ASSERT_TRUE(b.simd_active());
  auto sync = [&] { expect_states_equal(a, b); };
  sync();

  const cplx kI(0.0, 1.0);
  a.apply_x(1), b.apply_x(1), sync();
  a.apply_y(3), b.apply_y(3), sync();
  a.apply_z(0), b.apply_z(0), sync();
  a.apply_phase(2, kI), b.apply_phase(2, kI), sync();
  a.apply_diag(4, std::exp(-kI * 0.35), std::exp(kI * 0.35)),
      b.apply_diag(4, std::exp(-kI * 0.35), std::exp(kI * 0.35)), sync();
  a.apply_cnot(0, 5), b.apply_cnot(0, 5), sync();
  a.apply_cphase(2, 4, cplx(-1.0, 0.0)),
      b.apply_cphase(2, 4, cplx(-1.0, 0.0)), sync();
  a.apply_zz_phase(1, 3, std::exp(-kI * 0.2), std::exp(kI * 0.2)),
      b.apply_zz_phase(1, 3, std::exp(-kI * 0.2), std::exp(kI * 0.2)), sync();
  a.apply_swap(0, 4), b.apply_swap(0, 4), sync();
  a.apply_1q(hadamard(), 2), b.apply_1q(hadamard(), 2), sync();
  a.apply_2q(gate_matrix_2q(GateKind::CNOT), 4, 1),
      b.apply_2q(gate_matrix_2q(GateKind::CNOT), 4, 1), sync();
  a.apply_controlled_1q(gate_t(), {1, 3}, 0),
      b.apply_controlled_1q(gate_t(), {1, 3}, 0), sync();

  // Reductions: the ordered-accumulation contract makes these exact.
  for (std::size_t q = 0; q < n; ++q)
    EXPECT_EQ(a.prob_one(q), b.prob_one(q)) << "q=" << q;
  EXPECT_EQ(a.norm(), b.norm());
  EXPECT_EQ(a.cumulative_distribution(), b.cumulative_distribution());

  // Measurement consumes RNG through those reductions, then collapses.
  Rng ra(5), rb(5);
  EXPECT_EQ(a.measure(1, ra), b.measure(1, rb));
  sync();
  a.normalize(), b.normalize(), sync();
}

TEST(SimdBackendParity, F64ByteIdentical) {
  if (!simd_available())
    GTEST_SKIP() << "AVX2 backend not compiled in or CPU lacks AVX2";
  expect_backend_parity(Precision::kF64);
}

TEST(SimdBackendParity, F32ByteIdentical) {
  if (!simd_available())
    GTEST_SKIP() << "AVX2 backend not compiled in or CPU lacks AVX2";
  expect_backend_parity(Precision::kF32);
}

TEST(SimdBackendParity, BackendNameReportsSelection) {
  StateVector forced(4, Precision::kF64, 0, SimdMode::kOff);
  EXPECT_FALSE(forced.simd_active());
  EXPECT_STREQ(forced.backend_name(), "scalar");
  StateVector chosen(4);
  EXPECT_EQ(chosen.simd_active(), simd_selected(SimdMode::kAuto));
  EXPECT_STREQ(chosen.backend_name(),
               simd_selected(SimdMode::kAuto) ? "avx2" : "scalar");
}

TEST(SimdEquivalence, FullCircuitIdenticalAcrossBackendsAndThreads) {
  if (!simd_available())
    GTEST_SKIP() << "AVX2 backend not compiled in or CPU lacks AVX2";
  const std::size_t qubits = 6;
  const auto circuit = random_circuit(qubits, 200, 77, true);

  SimOptions ref_opt;
  ref_opt.simd = SimdMode::kOff;
  std::vector<int> ref_bits;
  const Simulator ref = run_circuit(circuit, qubits, ref_opt, &ref_bits);
  ASSERT_FALSE(ref_bits.empty());

  for (std::size_t threads : {1u, 2u, 4u}) {
    SimOptions opt;
    opt.simd = SimdMode::kAuto;
    opt.threads = threads;
    opt.min_parallel_qubits = 0;
    std::vector<int> bits;
    const Simulator got = run_circuit(circuit, qubits, opt, &bits);
    expect_states_equal(ref.state(), got.state());
    EXPECT_EQ(ref_bits, bits) << "threads=" << threads;
  }
}

TEST(PrecisionTier, F32InternallyIdenticalAcrossBackendsAndThreads) {
  // The f32 tier's own byte-identity class: scalar vs SIMD backend and
  // any thread count must agree bit-for-bit (no AVX2 guard needed — with
  // no SIMD backend the configs coincide and the test is trivially true).
  const std::size_t qubits = 6;
  const auto circuit = random_circuit(qubits, 200, 123, true);

  SimOptions ref_opt;
  ref_opt.precision = Precision::kF32;
  ref_opt.simd = SimdMode::kOff;
  std::vector<int> ref_bits;
  const Simulator ref = run_circuit(circuit, qubits, ref_opt, &ref_bits);
  ASSERT_FALSE(ref_bits.empty());

  for (std::size_t threads : {1u, 2u, 4u}) {
    SimOptions opt;
    opt.precision = Precision::kF32;
    opt.simd = SimdMode::kAuto;
    opt.threads = threads;
    opt.min_parallel_qubits = 0;
    std::vector<int> bits;
    const Simulator got = run_circuit(circuit, qubits, opt, &bits);
    expect_states_equal(ref.state(), got.state());
    EXPECT_EQ(ref_bits, bits) << "threads=" << threads;
  }
}

TEST(PrecisionTier, F32TracksF64WithinRounding) {
  // ~1e-7 per-gate rounding accumulates linearly; 120 gates stay orders
  // of magnitude inside 1e-4.
  const std::size_t qubits = 6;
  const auto circuit = random_circuit(qubits, 120, 31, false);
  SimOptions f64;
  SimOptions f32;
  f32.precision = Precision::kF32;
  const Simulator a = run_circuit(circuit, qubits, f64);
  const Simulator b = run_circuit(circuit, qubits, f32);
  expect_states_equal(a.state(), b.state(), 1e-4);
}

TEST(StateBudget, ByteBudgetReplacesQubitCap) {
  const std::size_t kBudget = std::size_t{16} << 20;  // 16 MiB
  // f64: 2^20 amplitudes x 16 bytes fills the budget exactly.
  EXPECT_NO_THROW(StateVector(20, Precision::kF64, kBudget));
  EXPECT_THROW(StateVector(21, Precision::kF64, kBudget),
               std::invalid_argument);
  // f32 buys exactly one more qubit under the same budget.
  EXPECT_NO_THROW(StateVector(21, Precision::kF32, kBudget));
  EXPECT_THROW(StateVector(22, Precision::kF32, kBudget),
               std::invalid_argument);
}

TEST(StateBudget, OverBudgetErrorReportsRequestedVsAllowedBytes) {
  const std::size_t kBudget = std::size_t{16} << 20;
  try {
    StateVector s(21, Precision::kF64, kBudget);
    FAIL() << "21 qubits at f64 must exceed a 16 MiB budget";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("21 qubits"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string((std::size_t{1} << 21) * 16)),
              std::string::npos)
        << msg;  // requested bytes
    EXPECT_NE(msg.find(std::to_string(kBudget)), std::string::npos)
        << msg;  // allowed bytes
  }
}

TEST(StateBudget, DefaultBudgetAdmits28QubitsF64And29QubitsF32) {
  // Shape-only check against the documented default (no allocation):
  // 2^28 x 16 == 2^29 x 8 == 4 GiB == kDefaultMaxStateBytes.
  EXPECT_EQ((std::size_t{1} << 28) * 16, StateVector::kDefaultMaxStateBytes);
  EXPECT_EQ((std::size_t{1} << 29) * 8, StateVector::kDefaultMaxStateBytes);
  EXPECT_THROW(StateVector(29, Precision::kF64, 0), std::invalid_argument);
  EXPECT_THROW(StateVector(30, Precision::kF32, 0), std::invalid_argument);
}

}  // namespace
}  // namespace qs::sim
