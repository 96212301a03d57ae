#include "sim/statevector.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qs::sim {

// Dispatches a kernel-table entry to the active precision's storage. The
// table pointer (scalar vs AVX2 backend) was fixed at construction.
#define QS_KERNEL(fn, ...)                                  \
  (prec_ == Precision::kF32                                 \
       ? k32_->fn(re32_.data(), im32_.data(), __VA_ARGS__)  \
       : k64_->fn(re_.data(), im_.data(), __VA_ARGS__))
#define QS_KERNEL_CONST(fn, ...)                            \
  (prec_ == Precision::kF32                                 \
       ? k32_->fn(re32_.data(), im32_.data(), __VA_ARGS__)  \
       : k64_->fn(re_.data(), im_.data(), __VA_ARGS__))

void StateVector::check_size(std::size_t qubit_count, Precision precision,
                             std::size_t max_state_bytes) {
  if (qubit_count == 0)
    throw std::invalid_argument("StateVector: need at least one qubit");
  if (max_state_bytes == 0) max_state_bytes = kDefaultMaxStateBytes;
  const std::size_t bpa = bytes_per_amplitude(precision);
  // 2^58 amplitudes already exceed any addressable budget; guarding here
  // keeps the byte computation below from overflowing.
  const bool over = qubit_count >= 58 ||
                    (std::size_t{1} << qubit_count) * bpa > max_state_bytes;
  if (over) {
    const double requested = std::ldexp(static_cast<double>(bpa),
                                        static_cast<int>(qubit_count));
    throw std::invalid_argument(
        "StateVector: " + std::to_string(qubit_count) + " qubits at " +
        std::string(to_string(precision)) + " needs " +
        std::to_string(static_cast<unsigned long long>(requested)) +
        " bytes, exceeding the " + std::to_string(max_state_bytes) +
        "-byte state budget (raise SimOptions::max_state_bytes or drop to "
        "f32)");
  }
}

StateVector::StateVector(std::size_t qubit_count, Precision precision,
                         std::size_t max_state_bytes, SimdMode simd)
    : n_(qubit_count), prec_(precision), simd_(simd_selected(simd)) {
  check_size(qubit_count, precision, max_state_bytes);
  dim_ = StateIndex{1} << n_;
  if (simd_) {
    k64_ = avx2_kernels_f64();
    k32_ = avx2_kernels_f32();
  } else {
    k64_ = scalar_kernels_f64();
    k32_ = scalar_kernels_f32();
  }
  if (prec_ == Precision::kF32) {
    re32_.assign(dim_, 0.0f);
    im32_.assign(dim_, 0.0f);
    re32_[0] = 1.0f;
  } else {
    re_.assign(dim_, 0.0);
    im_.assign(dim_, 0.0);
    re_[0] = 1.0;
  }
}

void StateVector::reset() {
  if (prec_ == Precision::kF32) {
    std::fill(re32_.begin(), re32_.end(), 0.0f);
    std::fill(im32_.begin(), im32_.end(), 0.0f);
    re32_[0] = 1.0f;
  } else {
    std::fill(re_.begin(), re_.end(), 0.0);
    std::fill(im_.begin(), im_.end(), 0.0);
    re_[0] = 1.0;
  }
}

void StateVector::check_qubit(QubitIndex q) const {
  if (q >= n_)
    throw std::out_of_range("StateVector: qubit index " + std::to_string(q) +
                            " out of range (n=" + std::to_string(n_) + ")");
}

void StateVector::for_slices(
    StateIndex count,
    const std::function<void(StateIndex, StateIndex)>& body) const {
  if (!parallel_active()) {
    body(0, count);
    return;
  }
  ThreadPool& pool = *policy_.pool;
  const std::size_t slices = pool.size();
  pool.run_chunks(slices, [&](std::size_t s) {
    std::size_t lo = 0, hi = 0;
    ThreadPool::slice(0, count, slices, s, &lo, &hi);
    if (lo < hi) body(lo, hi);
  });
}

void StateVector::apply_diag_window(QubitIndex shift, QubitIndex width,
                                    const cplx* table) {
  if (width == 0 || shift + width > n_)
    throw std::invalid_argument(
        "apply_diag_window: window outside the register");
  const StateIndex wmask = (StateIndex{1} << width) - 1;
  for_slices(dim_, [&](StateIndex lo, StateIndex hi) {
    QS_KERNEL(apply_diag_window, lo, hi, shift, wmask, table);
  });
}

double StateVector::reduce_chunks(
    StateIndex count,
    const std::function<double(StateIndex, StateIndex)>& chunk_sum) const {
  const StateIndex chunk = StateIndex{1} << kReduceChunkBits;
  if (count <= chunk) return chunk_sum(0, count);
  const std::size_t chunks =
      static_cast<std::size_t>((count + chunk - 1) >> kReduceChunkBits);
  std::vector<double> partial(chunks, 0.0);
  auto run_chunk = [&](std::size_t c) {
    const StateIndex lo = static_cast<StateIndex>(c) << kReduceChunkBits;
    const StateIndex hi = std::min(count, lo + chunk);
    partial[c] = chunk_sum(lo, hi);
  };
  if (parallel_active()) {
    policy_.pool->run_chunks(chunks, run_chunk);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) run_chunk(c);
  }
  double total = 0.0;
  for (double p : partial) total += p;
  return total;
}

void StateVector::apply_1q(const Matrix& u, QubitIndex q) {
  check_qubit(q);
  if (u.rows() != 2 || u.cols() != 2)
    throw std::invalid_argument("apply_1q: matrix must be 2x2");
  const cplx m2[4] = {u(0, 0), u(0, 1), u(1, 0), u(1, 1)};
  for_slices(dim_ >> 1, [&](StateIndex lo, StateIndex hi) {
    QS_KERNEL(apply_1q, lo, hi, q, m2);
  });
}

void StateVector::apply_controlled_1q(const Matrix& u,
                                      const std::vector<QubitIndex>& controls,
                                      QubitIndex target) {
  check_qubit(target);
  if (u.rows() != 2 || u.cols() != 2)
    throw std::invalid_argument("apply_controlled_1q: matrix must be 2x2");
  StateIndex control_mask = 0;
  for (QubitIndex c : controls) {
    check_qubit(c);
    if (c == target)
      throw std::invalid_argument(
          "apply_controlled_1q: control equals target");
    control_mask |= StateIndex{1} << c;
  }
  const cplx m2[4] = {u(0, 0), u(0, 1), u(1, 0), u(1, 1)};
  for_slices(dim_ >> 1, [&](StateIndex lo, StateIndex hi) {
    QS_KERNEL(apply_controlled_1q, lo, hi, target, control_mask, m2);
  });
}

void StateVector::apply_2q(const Matrix& u, QubitIndex q1, QubitIndex q0) {
  check_qubit(q1);
  check_qubit(q0);
  if (q1 == q0)
    throw std::invalid_argument("apply_2q: identical qubit operands");
  if (u.rows() != 4 || u.cols() != 4)
    throw std::invalid_argument("apply_2q: matrix must be 4x4");
  const StateIndex m1 = StateIndex{1} << q1;
  const StateIndex m0 = StateIndex{1} << q0;
  const QubitIndex blo = q1 < q0 ? q1 : q0;
  const QubitIndex bhi = q1 < q0 ? q0 : q1;
  cplx m4[16];
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c) m4[4 * r + c] = u(r, c);
  for_slices(dim_ >> 2, [&](StateIndex lo, StateIndex hi) {
    QS_KERNEL(apply_2q, lo, hi, blo, bhi, m1, m0, m4);
  });
}

void StateVector::apply_x(QubitIndex q) {
  check_qubit(q);
  for_slices(dim_ >> 1, [&](StateIndex lo, StateIndex hi) {
    QS_KERNEL(apply_x, lo, hi, q);
  });
}

void StateVector::apply_y(QubitIndex q) {
  check_qubit(q);
  for_slices(dim_ >> 1, [&](StateIndex lo, StateIndex hi) {
    QS_KERNEL(apply_y, lo, hi, q);
  });
}

void StateVector::apply_z(QubitIndex q) {
  check_qubit(q);
  for_slices(dim_ >> 1, [&](StateIndex lo, StateIndex hi) {
    QS_KERNEL(apply_z, lo, hi, q);
  });
}

void StateVector::apply_phase(QubitIndex q, cplx phase) {
  check_qubit(q);
  for_slices(dim_ >> 1, [&](StateIndex lo, StateIndex hi) {
    QS_KERNEL(apply_phase, lo, hi, q, phase);
  });
}

void StateVector::apply_diag(QubitIndex q, cplx d0, cplx d1) {
  check_qubit(q);
  for_slices(dim_ >> 1, [&](StateIndex lo, StateIndex hi) {
    QS_KERNEL(apply_diag, lo, hi, q, d0, d1);
  });
}

void StateVector::apply_cnot(QubitIndex control, QubitIndex target) {
  check_qubit(control);
  check_qubit(target);
  if (control == target)
    throw std::invalid_argument("apply_cnot: identical operands");
  const StateIndex mc = StateIndex{1} << control;
  const StateIndex mt = StateIndex{1} << target;
  const QubitIndex blo = control < target ? control : target;
  const QubitIndex bhi = control < target ? target : control;
  for_slices(dim_ >> 2, [&](StateIndex lo, StateIndex hi) {
    QS_KERNEL(apply_cnot, lo, hi, blo, bhi, mc, mt);
  });
}

void StateVector::apply_cphase(QubitIndex a, QubitIndex b, cplx phase) {
  check_qubit(a);
  check_qubit(b);
  if (a == b) throw std::invalid_argument("apply_cphase: identical operands");
  const StateIndex both = (StateIndex{1} << a) | (StateIndex{1} << b);
  const QubitIndex blo = a < b ? a : b;
  const QubitIndex bhi = a < b ? b : a;
  for_slices(dim_ >> 2, [&](StateIndex lo, StateIndex hi) {
    QS_KERNEL(apply_cphase, lo, hi, blo, bhi, both, phase);
  });
}

void StateVector::apply_zz_phase(QubitIndex a, QubitIndex b, cplx same,
                                 cplx diff) {
  check_qubit(a);
  check_qubit(b);
  if (a == b)
    throw std::invalid_argument("apply_zz_phase: identical operands");
  const StateIndex ma = StateIndex{1} << a;
  const StateIndex mb = StateIndex{1} << b;
  const QubitIndex blo = a < b ? a : b;
  const QubitIndex bhi = a < b ? b : a;
  for_slices(dim_ >> 2, [&](StateIndex lo, StateIndex hi) {
    QS_KERNEL(apply_zz_phase, lo, hi, blo, bhi, ma, mb, same, diff);
  });
}

void StateVector::apply_swap(QubitIndex a, QubitIndex b) {
  check_qubit(a);
  check_qubit(b);
  if (a == b) throw std::invalid_argument("apply_swap: identical operands");
  const StateIndex ma = StateIndex{1} << a;
  const StateIndex mb = StateIndex{1} << b;
  const QubitIndex blo = a < b ? a : b;
  const QubitIndex bhi = a < b ? b : a;
  for_slices(dim_ >> 2, [&](StateIndex lo, StateIndex hi) {
    QS_KERNEL(apply_swap, lo, hi, blo, bhi, ma, mb);
  });
}

double StateVector::prob_one(QubitIndex q) const {
  check_qubit(q);
  // Block kernel over the bit-set half: no per-index bit test. Pair p
  // visits basis states in increasing index order, so a single-chunk
  // reduction equals the naive masked sum exactly.
  return reduce_chunks(dim_ >> 1, [&](StateIndex lo, StateIndex hi) {
    return QS_KERNEL_CONST(sum_sq_set, lo, hi, q);
  });
}

int StateVector::measure(QubitIndex q, Rng& rng) {
  const double p1 = prob_one(q);
  const int outcome = rng.uniform() < p1 ? 1 : 0;
  const double keep_prob = outcome ? p1 : 1.0 - p1;
  const double scale = keep_prob > 0.0 ? 1.0 / std::sqrt(keep_prob) : 0.0;
  // Fused sweep: one pass rescales the kept half and zeroes the other.
  for_slices(dim_ >> 1, [&](StateIndex lo, StateIndex hi) {
    QS_KERNEL(collapse, lo, hi, q, outcome, scale);
  });
  return outcome;
}

void StateVector::prep_z(QubitIndex q, Rng& rng) {
  if (measure(q, rng) == 1) apply_x(q);
}

std::vector<int> StateVector::measure_all(Rng& rng) {
  std::vector<int> bits(n_);
  for (QubitIndex q = 0; q < n_; ++q) bits[q] = measure(q, rng);
  return bits;
}

std::vector<double> StateVector::cumulative_distribution(
    const CancelToken& cancel) const {
  const StateIndex count = dim_;
  const StateIndex chunk = StateIndex{1} << kReduceChunkBits;
  const std::size_t chunks =
      static_cast<std::size_t>((count + chunk - 1) >> kReduceChunkBits);
  std::vector<double> cum(count);
  // Pass 1: within-chunk inclusive running sums. The squares fill the
  // chunk as a vectorisable elementwise pass; the running sum then reads
  // them back left-to-right — the same adds in the same order whether
  // chunks run sequentially or on pool lanes, so the doubles never depend
  // on the thread count (or the kernel backend, at f64).
  auto fill_chunk = [&](std::size_t c) {
    const StateIndex lo = static_cast<StateIndex>(c) << kReduceChunkBits;
    const StateIndex hi = std::min(count, lo + chunk);
    QS_KERNEL_CONST(square_into, cum.data(), lo, hi);
    double running = 0.0;
    for (StateIndex i = lo; i < hi; ++i) {
      running += cum[i];
      cum[i] = running;
    }
  };
  const bool parallel = parallel_active();
  if (parallel) {
    // Pool bodies must not throw: observe the token between passes.
    throw_if_stopped(cancel);
    policy_.pool->run_chunks(chunks, fill_chunk);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) {
      throw_if_stopped(cancel);
      fill_chunk(c);
    }
  }
  if (chunks <= 1) return cum;

  // Pass 2 (always sequential): chunk base offsets accumulated in chunk
  // order — the same combination order reduce_chunks uses.
  std::vector<double> base(chunks, 0.0);
  for (std::size_t c = 1; c < chunks; ++c) {
    const StateIndex prev_end =
        std::min(count, static_cast<StateIndex>(c) << kReduceChunkBits);
    base[c] = base[c - 1] + cum[prev_end - 1];
  }

  // Pass 3: shift each chunk by its base (elementwise, disjoint writes;
  // chunk 0 adds exactly 0.0).
  auto shift_chunk = [&](std::size_t c) {
    const StateIndex lo = static_cast<StateIndex>(c) << kReduceChunkBits;
    const StateIndex hi = std::min(count, lo + chunk);
    const double b = base[c];
    for (StateIndex i = lo; i < hi; ++i) cum[i] += b;
  };
  if (parallel) {
    throw_if_stopped(cancel);
    policy_.pool->run_chunks(chunks, shift_chunk);
    throw_if_stopped(cancel);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) {
      throw_if_stopped(cancel);
      shift_chunk(c);
    }
  }
  return cum;
}

StateIndex StateVector::sample(Rng& rng) const {
  // Prefix-sum + binary search (shared with the terminal-measurement
  // sampling fast path) instead of a per-draw O(2^n) subtract scan. The
  // draw scales by the running total: after stochastic error channels the
  // state can drift below unit norm, and an unscaled draw would bias the
  // fallback toward the last basis state.
  const std::vector<double> cum = cumulative_distribution();
  const double total = cum.back();
  const double u = rng.uniform() * total;
  if (total <= 0.0) return 0;
  return sample_from_cumulative(cum, u);
}

double StateVector::expectation_z(QubitIndex q) const {
  return 1.0 - 2.0 * prob_one(q);
}

double StateVector::expectation_diagonal(
    const std::function<double(StateIndex)>& f) const {
  double e = 0.0;
  for (StateIndex i = 0; i < dim_; ++i) {
    const double p = std::norm(amplitude(i));
    if (p > 0.0) e += p * f(i);
  }
  return e;
}

double StateVector::norm() const {
  return reduce_chunks(dim_, [&](StateIndex lo, StateIndex hi) {
    return QS_KERNEL_CONST(sum_sq, lo, hi);
  });
}

void StateVector::normalize() {
  const double n = norm();
  if (n <= 0.0)
    throw std::runtime_error("StateVector::normalize: zero state");
  const double scale = 1.0 / std::sqrt(n);
  for_slices(dim_, [&](StateIndex lo, StateIndex hi) {
    QS_KERNEL(scale, lo, hi, scale);
  });
}

double StateVector::fidelity(const StateVector& other) const {
  if (other.n_ != n_)
    throw std::invalid_argument("fidelity: qubit count mismatch");
  cplx overlap(0.0, 0.0);
  for (StateIndex i = 0; i < dim_; ++i)
    overlap += std::conj(amplitude(i)) * other.amplitude(i);
  return std::norm(overlap);
}

std::string StateVector::basis_string(StateIndex basis) const {
  std::string s(n_, '0');
  for (QubitIndex q = 0; q < n_; ++q)
    if (basis & (StateIndex{1} << q)) s[q] = '1';
  return s;
}

StateIndex sample_from_cumulative(const std::vector<double>& cum, double u) {
  if (cum.empty()) return 0;
  const auto it = std::upper_bound(cum.begin(), cum.end(), u);
  if (it != cum.end()) return static_cast<StateIndex>(it - cum.begin());
  // Boundary draw: u * total can round up onto total itself. Return the
  // last occupied index, mirroring the old linear scan's fallback.
  StateIndex i = static_cast<StateIndex>(cum.size()) - 1;
  while (i > 0 && cum[i - 1] == cum[i]) --i;
  return i;
}

}  // namespace qs::sim
