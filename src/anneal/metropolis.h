// The Metropolis acceptance test shared by every annealer in src/anneal/,
// exact to the bit and mostly free of std::exp.
//
// Almost every proposal of a cooled annealer is rejected, so much of the
// cost of a sweep is the test u < exp(y) with y = -beta * delta.
// below_exp() first brackets exp(y) between two entries of a static
// table and only calls std::exp when u falls inside the bracket; its
// answer is always the one u < std::exp(y) gives (DESIGN.md, "Annealing
// kernel").
#pragma once

#include <array>
#include <cmath>
#include <cstddef>

#include "common/rng.h"

namespace qs::anneal {

/// Bounds of std::exp over one table step [-(k+1)/64, -k/64]: `below` is
/// std::exp(-(k+1)/64) shrunk, and `above` is std::exp(-k/64) widened, by
/// a relative 2^-50. Two std::exp results that are each within 1 ulp
/// (2^-52 relative) of e^x differ from the exact ratio by at most 2^-51,
/// and e^y is monotone, so std::exp(y) lies strictly between the bounds
/// for every y of the step.
struct ExpBracket {
  double below;
  double above;
};

class ExpBrackets {
 public:
  static constexpr double kStepsPerUnit = 64.0;
  static constexpr std::size_t kSteps = 40 * 64;  ///< the table spans [-40, 0]

  ExpBrackets();

  const ExpBracket& operator[](std::size_t k) const { return table_[k]; }

 private:
  std::array<ExpBracket, kSteps> table_;
};

inline const ExpBrackets& exp_brackets() {
  static const ExpBrackets table;
  return table;
}

/// u < std::exp(y), exactly, for any u and y. Inside the table, u below
/// the bracket accepts and u at or above it rejects without std::exp;
/// only u inside the bracket (a fraction of about exp(y) / 64 of uniform
/// draws) or y outside [-40, 0] evaluates std::exp.
inline bool below_exp(double u, double y) {
  // Scaling by 64 is exact, so k = floor(t) puts y in [-(k+1)/64, -k/64].
  const double t = -y * ExpBrackets::kStepsPerUnit;
  if (t >= 0.0 && t < static_cast<double>(ExpBrackets::kSteps)) {
    const ExpBracket& b = exp_brackets()[static_cast<std::size_t>(t)];
    if (u < b.below) return true;
    if (u >= b.above) return false;
  }
  return u < std::exp(y);
}

/// Metropolis acceptance of an energy change `delta` at inverse
/// temperature `beta`: downhill moves are free, uphill moves draw one
/// uniform u and pass when u < exp(-beta * delta). Zero-delta moves are
/// accepted with probability 1/2: deterministically accepting them creates
/// limit cycles (e.g. a domain wall rotating around an antiferromagnetic
/// ring forever under sequential updates).
inline bool metropolis_accept(double delta, double beta, Rng& rng) {
  if (delta < 0.0) return true;
  if (delta == 0.0) return rng.bernoulli(0.5);
  return below_exp(rng.uniform(), -beta * delta);
}

}  // namespace qs::anneal
