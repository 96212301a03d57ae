#include "common/rng.h"

#include <cmath>
#include <stdexcept>

namespace qs {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // splitmix64 expansion guarantees a non-zero state for any seed.
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("Rng::uniform_int: n must be >= 1");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  spare_ = mag * std::sin(2.0 * 3.14159265358979323846 * u2);
  has_spare_ = true;
  return mag * std::cos(2.0 * 3.14159265358979323846 * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

std::uint64_t derive_stream_seed(std::uint64_t base_seed,
                                 std::uint64_t stream_index) {
  // Two rounds of splitmix64 over (base ^ phi*index): consecutive indices
  // land far apart in seed space, and Rng's own splitmix64 expansion then
  // decorrelates the xoshiro states.
  std::uint64_t x = base_seed ^ (0x9E3779B97F4A7C15ULL * (stream_index + 1));
  std::uint64_t a = splitmix64(x);
  std::uint64_t b = splitmix64(x);
  return a ^ std::rotl(b, 32);
}

UniformInt::UniformInt(std::uint64_t n)
    : n_(n),
      threshold_(n ? (0ULL - n) % n : 0),
      reciprocal_(n ? ~0ULL / n : 0) {
  if (n == 0) throw std::invalid_argument("UniformInt: n must be >= 1");
}

Shuffler::Shuffler(std::size_t n) {
  for (std::size_t i = 2; i <= n; ++i) draws_.emplace_back(i);
}

std::size_t Rng::discrete(const std::vector<double>& weights) {
  if (weights.empty())
    throw std::invalid_argument("Rng::discrete: empty weight vector");
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0)
      throw std::invalid_argument("Rng::discrete: negative weight");
    total += w;
  }
  if (total <= 0.0)
    throw std::invalid_argument("Rng::discrete: all weights zero");
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace qs
