// Dense 2^n state-vector engine — the mathematical core of the QX-like
// simulator (paper Section 2.7). Qubit 0 is the least significant bit of
// the basis-state index; bitstrings render with q[0] as the leftmost
// character (cQASM display convention).
//
// Storage is split real/imag (SoA) arrays at one of two precisions:
// f64 (the reference tier) or f32 (half the bytes per amplitude — one
// extra qubit under the same byte budget). Kernels dispatch through a
// per-backend function table (sim/kernels.h): a true-scalar build and an
// AVX2 auto-vectorised build selected at runtime via cpuid, with the
// QS_SIMD CMake option / environment variable as escape hatches.
//
// Kernel layer: every hot operation is written as a partitionable kernel
// over the amplitude arrays. With a KernelPolicy attached (thread pool +
// size threshold) the partitions run on pool threads; the per-amplitude
// arithmetic and — for reductions — the combination order are identical in
// both modes, so results are bit-identical for any thread count. The same
// holds across backends at f64 (docs/simulator.md: scalar-f64 and
// simd-f64 share one determinism class; f32 is its own class).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "sim/kernels.h"

namespace qs::sim {

/// How StateVector kernels execute. The pool is borrowed, not owned
/// (typically the owning Simulator's); nullptr means sequential. States
/// below `min_parallel_qubits` always run sequentially — fork-join
/// overhead beats the arithmetic there.
struct KernelPolicy {
  ThreadPool* pool = nullptr;
  std::size_t min_parallel_qubits = 14;
};

class StateVector {
 public:
  /// Default amplitude-memory budget: 4 GiB — 28 qubits at f64,
  /// 29 qubits at f32.
  static constexpr std::size_t kDefaultMaxStateBytes = std::size_t{4} << 30;

  /// Fixed reduction granularity: 2^16 amplitudes per chunk. Chunk
  /// boundaries depend only on the state size — never on the thread count
  /// — so partial sums combine in the same order however the chunks are
  /// scheduled. States up to 16 qubits are a single chunk, i.e. a plain
  /// left-to-right sum.
  static constexpr QubitIndex kReduceChunkBits = 16;

  /// Initialises |0...0> on `qubit_count` qubits at the given precision.
  /// Throws std::invalid_argument when the state would exceed
  /// `max_state_bytes` (0 = use the default budget); the message reports
  /// requested vs allowed bytes.
  explicit StateVector(std::size_t qubit_count,
                       Precision precision = Precision::kF64,
                       std::size_t max_state_bytes = kDefaultMaxStateBytes,
                       SimdMode simd = SimdMode::kAuto);

  /// Throws exactly what the constructor would for these arguments,
  /// without allocating anything.
  static void check_size(std::size_t qubit_count, Precision precision,
                         std::size_t max_state_bytes);

  std::size_t qubit_count() const { return n_; }
  std::size_t dimension() const { return static_cast<std::size_t>(dim_); }
  Precision precision() const { return prec_; }

  /// True when the AVX2 backend serves this state's kernels.
  bool simd_active() const { return simd_; }
  /// "avx2" or "scalar".
  const char* backend_name() const { return simd_ ? "avx2" : "scalar"; }

  /// Resets to |0...0>.
  void reset();

  /// Attaches (or detaches, with pool = nullptr) the execution policy.
  /// Copies the struct; the pool pointer must outlive this StateVector.
  void set_kernel_policy(KernelPolicy policy) { policy_ = policy; }
  const KernelPolicy& kernel_policy() const { return policy_; }

  cplx amplitude(StateIndex basis) const {
    return prec_ == Precision::kF32
               ? cplx(re32_[basis], im32_[basis])
               : cplx(re_[basis], im_[basis]);
  }
  void set_amplitude(StateIndex basis, cplx value) {
    if (prec_ == Precision::kF32) {
      re32_[basis] = static_cast<float>(value.real());
      im32_[basis] = static_cast<float>(value.imag());
    } else {
      re_[basis] = value.real();
      im_[basis] = value.imag();
    }
  }

  /// Applies a 2x2 unitary to qubit q.
  void apply_1q(const Matrix& u, QubitIndex q);

  /// Applies a 2x2 unitary to the target, conditioned on all controls = 1.
  void apply_controlled_1q(const Matrix& u,
                           const std::vector<QubitIndex>& controls,
                           QubitIndex target);

  /// Applies a full 4x4 unitary to (q1, q0) where q1 indexes the most
  /// significant bit of the matrix ordering.
  void apply_2q(const Matrix& u, QubitIndex q1, QubitIndex q0);

  // ---- Fused fast-path kernels ------------------------------------------
  // Specialized forms of the generic apply paths for the structured gates
  // of the cQASM set: permutations and diagonals touch each amplitude once
  // with no matrix fetch and no zero-term arithmetic. Each is numerically
  // equivalent to the corresponding generic matrix application (identical
  // values; only signs of exact zeros may differ).

  /// Pauli X on q: swaps the two halves of every amplitude pair.
  void apply_x(QubitIndex q);

  /// Pauli Y on q: swap with +/-i phases.
  void apply_y(QubitIndex q);

  /// Pauli Z on q: negates amplitudes with bit q set.
  void apply_z(QubitIndex q);

  /// diag(1, phase) on q — S, Sdag, T, Tdag, and any phase gate.
  void apply_phase(QubitIndex q, cplx phase);

  /// diag(d0, d1) on q — RZ and friends.
  void apply_diag(QubitIndex q, cplx d0, cplx d1);

  /// CNOT: swaps target pairs inside the control=1 subspace.
  void apply_cnot(QubitIndex control, QubitIndex target);

  /// Controlled phase on |11>: CZ (phase = -1), CR, CRK.
  void apply_cphase(QubitIndex a, QubitIndex b, cplx phase);

  /// exp(-i theta/2 Z(x)Z) as diagonal phases by ZZ parity: `same` on
  /// |00>/|11>, `diff` on |01>/|10>.
  void apply_zz_phase(QubitIndex a, QubitIndex b, cplx same, cplx diff);

  /// Swap without matrix arithmetic (pure amplitude permutation).
  void apply_swap(QubitIndex a, QubitIndex b);

  /// Fused diagonal chain: amp[i] *= table[(i >> shift) & (2^width - 1)].
  /// `table` must hold 2^width entries; the window [shift, shift+width)
  /// must lie inside the register. One sweep replaces a whole run of
  /// diagonal gates (sim/fusion.h builds the table).
  void apply_diag_window(QubitIndex shift, QubitIndex width,
                         const cplx* table);

  /// Probability of reading 1 on qubit q.
  double prob_one(QubitIndex q) const;

  /// Projective Z measurement with collapse; returns the outcome bit.
  /// Probability and collapse both run as fused block kernels (no
  /// per-index bit tests).
  int measure(QubitIndex q, Rng& rng);

  /// Forces qubit q into |0> (projective preparation: measure + conditional X).
  void prep_z(QubitIndex q, Rng& rng);

  /// Measures every qubit (in index order) with collapse.
  std::vector<int> measure_all(Rng& rng);

  /// Samples a basis state from |amp|^2 without collapsing. Weights are
  /// normalized by the running total, so a sub-unit state (e.g. after
  /// stochastic error channels) does not bias the tail. One prefix-sum
  /// pass plus an O(n) binary search per draw (shared machinery with the
  /// terminal-measurement sampling fast path).
  StateIndex sample(Rng& rng) const;

  /// Inclusive prefix sums of |amp_i|^2 in basis order: cum[i] =
  /// sum_{j<=i} |amp_j|^2, cum.back() = total norm. Built with the fixed
  /// 2^16-amplitude chunk scheme (per-chunk running sums, chunk bases
  /// accumulated in chunk order), so the doubles are bit-identical for
  /// any thread count; states up to 16 qubits are a single chunk, i.e. a
  /// plain left-to-right sum. The squares are a vectorisable elementwise
  /// pass; the running sums stay ordered in every backend. `cancel` is
  /// observed between chunks (between passes when parallel); throws
  /// CancelledError on stop.
  std::vector<double> cumulative_distribution(
      const CancelToken& cancel = {}) const;

  /// <Z_q> expectation.
  double expectation_z(QubitIndex q) const;

  /// Expectation of a diagonal observable: sum_i |amp_i|^2 * f(i).
  double expectation_diagonal(
      const std::function<double(StateIndex)>& f) const;

  /// Squared norm (should stay 1 within rounding).
  double norm() const;

  /// Rescales amplitudes to unit norm.
  void normalize();

  /// Fidelity |<this|other>|^2 against another state of equal size and
  /// precision.
  double fidelity(const StateVector& other) const;

  /// Renders basis index as bitstring with q[0] leftmost.
  std::string basis_string(StateIndex basis) const;

 private:
  void check_qubit(QubitIndex q) const;

  /// True when kernels should fork onto the pool for this state size.
  bool parallel_active() const {
    return policy_.pool != nullptr && policy_.pool->size() > 1 &&
           n_ >= policy_.min_parallel_qubits;
  }

  /// Runs body(lo, hi) over a disjoint partition of [0, count): one slice
  /// per pool lane when parallel, a single slice otherwise. For kernels
  /// with independent per-element writes only.
  void for_slices(StateIndex count,
                  const std::function<void(StateIndex, StateIndex)>& body) const;

  /// Deterministic reduction: [0, count) in fixed-size chunks (independent
  /// of thread count), per-chunk sums sequential, partials combined in
  /// chunk order. Bit-identical for any pool size.
  double reduce_chunks(
      StateIndex count,
      const std::function<double(StateIndex, StateIndex)>& chunk_sum) const;

  std::size_t n_;
  StateIndex dim_;
  Precision prec_;
  bool simd_;
  const KernelFns<double>* k64_;  ///< active when prec_ == kF64
  const KernelFns<float>* k32_;   ///< active when prec_ == kF32
  std::vector<double> re_, im_;   ///< f64 tier storage
  std::vector<float> re32_, im32_;  ///< f32 tier storage
  KernelPolicy policy_;
};

/// First index i with cum[i] > u (binary search over an inclusive
/// prefix-sum array). Zero-weight basis states are unselectable: their
/// cum entry equals their predecessor's, and upper_bound skips ties.
/// When u lands on or beyond cum.back() (a floating-point boundary draw),
/// returns the last occupied index, mirroring the linear-scan fallback.
StateIndex sample_from_cumulative(const std::vector<double>& cum, double u);

}  // namespace qs::sim
