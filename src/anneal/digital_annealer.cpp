#include "anneal/digital_annealer.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "anneal/metropolis.h"

namespace qs::anneal {

DigitalAnnealer::DigitalAnnealer(DigitalAnnealerParams params)
    : params_(params) {
  if (params_.restarts == 0)
    throw std::invalid_argument("DigitalAnnealer: restarts must be >= 1");
}

std::pair<std::vector<int>, double> DigitalAnnealer::solve(const Qubo& qubo,
                                                           Rng& rng) const {
  const std::size_t n = qubo.size();
  if (!fits(n))
    throw std::invalid_argument(
        "DigitalAnnealer: problem exceeds the 8192-node capacity");

  // Dense coupling matrix for O(1) single-flip energy deltas (the DA's
  // full-connectivity advantage made concrete).
  std::vector<double> q(n * n, 0.0);
  std::vector<double> diag(n, 0.0);
  for (const auto& [pair, w] : qubo.terms()) {
    const auto [i, j] = pair;
    if (i == j) {
      diag[i] += w;
    } else {
      q[i * n + j] += w;
      q[j * n + i] += w;
    }
  }

  std::vector<int> best;
  double best_e = std::numeric_limits<double>::infinity();

  for (std::size_t restart = 0; restart < params_.restarts; ++restart) {
    std::vector<int> x(n);
    for (auto& v : x) v = rng.bernoulli(0.5) ? 1 : 0;
    // local[i] = sum_j Q_ij x_j  (off-diagonal part).
    std::vector<double> local(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if (x[j]) local[i] += q[i * n + j];
    double energy = qubo.energy(x);
    double offset = 0.0;  // dynamic escape offset

    const double ratio =
        params_.iterations > 1
            ? std::pow(params_.beta_end / params_.beta_start,
                       1.0 / static_cast<double>(params_.iterations - 1))
            : 1.0;
    double beta = params_.beta_start;

    for (std::size_t it = 0; it < params_.iterations; ++it) {
      // Parallel trial: evaluate the flip delta of every variable, accept
      // each independently per the Metropolis criterion with the dynamic
      // offset, then commit one uniformly-chosen accepted flip (the DA
      // hardware commits one winner per cycle).
      std::vector<std::size_t> accepted;
      std::vector<double> deltas(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double delta = x[i]
                                 ? -(diag[i] + local[i])
                                 : (diag[i] + local[i]);
        deltas[i] = delta;
        const double effective = delta - offset;
        if (effective <= 0.0 ||
            below_exp(rng.uniform(), -beta * effective)) {
          accepted.push_back(i);
        }
      }
      if (accepted.empty()) {
        offset += params_.offset_increase;  // escape mechanism
      } else {
        offset = 0.0;
        const std::size_t pick =
            accepted[rng.uniform_int(accepted.size())];
        const int old = x[pick];
        x[pick] = 1 - old;
        energy += deltas[pick];
        const double sign = x[pick] ? 1.0 : -1.0;
        for (std::size_t i = 0; i < n; ++i)
          local[i] += sign * q[i * n + pick];
        if (energy < best_e) {
          best_e = energy;
          best = x;
        }
      }
      beta *= ratio;
    }
    if (best.empty()) {
      best = x;
      best_e = energy;
    }
  }
  return {best, best_e};
}

}  // namespace qs::anneal
