// Deterministic, seedable random number generation for simulators and
// stochastic solvers. A thin wrapper over xoshiro256** so every experiment
// in the benchmark harness is reproducible from a single seed.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace qs {

/// xoshiro256** pseudo-random generator with convenience distributions.
///
/// All stochastic components of the stack (error injection in the QX
/// simulator, annealing schedules, SPSA perturbations, artificial DNA
/// generation) take an Rng by reference so that a run is a pure function
/// of its seed.
class Rng {
 public:
  /// Seeds the state from a single 64-bit value via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Raw 64 random bits.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 high bits -> double in [0,1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n) for n >= 1.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Standard normal sample (Box-Muller; caches the spare value).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Samples an index from an (unnormalised) non-negative weight vector.
  std::size_t discrete(const std::vector<double>& weights);

  /// Shuffles the elements of a vector in place (Fisher-Yates).
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(i));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
  bool has_spare_ = false;
  double spare_ = 0.0;
};

/// Rng::uniform_int(n) for one fixed n, with both of its divisions done
/// once up front: the rejection threshold is stored, and r % n becomes a
/// multiply-high by the 64-bit reciprocal floor((2^64 - 1) / n) followed by
/// one branchless correction. Each call consumes exactly the draws of
/// uniform_int(n) and returns the same value.
class UniformInt {
 public:
  explicit UniformInt(std::uint64_t n);

  std::uint64_t operator()(Rng& rng) const {
    for (;;) {
      const std::uint64_t r = rng.next_u64();
      if (accepts(r)) return reduce(r);
    }
  }

  /// The rejection test of uniform_int(n): r >= 2^64 mod n.
  bool accepts(std::uint64_t r) const { return r >= threshold_; }

  /// r % n. The reciprocal underestimates 2^64 / n by at most one and
  /// r < 2^64, so the estimated quotient is floor(r / n) or one less, and
  /// one conditional subtraction of n completes the remainder.
  std::uint64_t reduce(std::uint64_t r) const {
    const std::uint64_t q = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(r) * reciprocal_) >> 64);
    const std::uint64_t rem = r - q * n_;
    return rem - (n_ & (0 - static_cast<std::uint64_t>(rem >= n_)));
  }

 private:
  std::uint64_t n_;
  std::uint64_t threshold_;
  std::uint64_t reciprocal_;
};

/// Rng::shuffle for vectors of up to n elements, with a UniformInt per
/// bound 2..n: the same draws and the same permutation, no division.
class Shuffler {
 public:
  explicit Shuffler(std::size_t n);

  template <typename T>
  void operator()(std::vector<T>& v, Rng& rng) const {
    if (v.size() > draws_.size() + 1)
      throw std::length_error("Shuffler: vector longer than its bounds");
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(draws_[i - 2](rng));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::vector<UniformInt> draws_;  ///< draws_[i - 2] draws from [0, i)
};

/// Derives the seed of an independent RNG stream from a base seed and a
/// stream index (counter-based splitting, SplitMix64-style finalisation).
///
/// The execution service shards a job's shots into fixed-size shards and
/// seeds shard `i` with `derive_stream_seed(job_seed, i)`: because the
/// derivation depends only on (base seed, index) — never on which worker
/// thread runs the shard — the merged result of a sharded run is
/// bit-identical to a single-threaded run of the same shards.
std::uint64_t derive_stream_seed(std::uint64_t base_seed,
                                 std::uint64_t stream_index);

}  // namespace qs
