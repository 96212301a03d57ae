#include "anneal/annealer.h"

#include <algorithm>
#include <numeric>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>

#include "anneal/metropolis.h"

namespace qs::anneal {

namespace {

/// The couplings of an Ising model in compressed-sparse-row form. Row i
/// lists i's neighbours in the order of IsingModel::adjacency(), so every
/// field below adds the same terms in the same order as a sum over it.
class Couplings {
 public:
  explicit Couplings(const IsingModel& m) : h_(m.h), start_(m.n + 1, 0) {
    const auto adj = m.adjacency();
    for (std::size_t i = 0; i < m.n; ++i) {
      start_[i + 1] = start_[i] + adj[i].size();
      for (const auto& [k, w] : adj[i]) {
        neighbour_.push_back(static_cast<std::uint32_t>(k));
        weight_.push_back(w);
      }
    }
  }

  std::size_t size() const { return h_.size(); }

  /// Local field at spin i: dE of flipping s_i is -2 s_i * local_field(i).
  double local_field(const int* s, std::size_t i) const {
    double f = h_[i];
    for (std::size_t e = start_[i]; e < start_[i + 1]; ++e)
      f += weight_[e] * s[neighbour_[e]];
    return f;
  }

  /// Energy change of flipping a whole cluster: intra-cluster couplings are
  /// invariant, so only fields and boundary couplings contribute.
  double cluster_flip_delta(const int* s,
                            const std::vector<std::size_t>& cluster,
                            std::vector<char>& in_cluster) const {
    for (std::size_t i : cluster) in_cluster[i] = 1;
    double delta = 0.0;
    for (std::size_t i : cluster) {
      double boundary = h_[i];
      for (std::size_t e = start_[i]; e < start_[i + 1]; ++e) {
        const std::size_t k = neighbour_[e];
        if (!in_cluster[k]) boundary += weight_[e] * s[k];
      }
      delta += -2.0 * static_cast<double>(s[i]) * boundary;
    }
    for (std::size_t i : cluster) in_cluster[i] = 0;
    return delta;
  }

  std::span<const std::uint32_t> neighbours(std::size_t i) const {
    return {neighbour_.data() + start_[i], neighbour_.data() + start_[i + 1]};
  }

 private:
  const std::vector<double>& h_;
  std::vector<std::size_t> start_;
  std::vector<std::uint32_t> neighbour_;
  std::vector<double> weight_;
};

/// Local fields of `slices` spin slices laid out as one flat slices x n
/// array. A field is recomputed from scratch, in row order, only when a
/// neighbour flipped since it was last read, so a cached value is always
/// bit-identical to a fresh local_field(). A stale entry holds NaN.
class FieldCache {
 public:
  FieldCache(const Couplings& c, std::size_t slices)
      : c_(c), n_(c.size()), field_(slices * n_, kStale) {}

  /// Local field of spin i of slice p, whose spins start at `s`.
  double operator()(std::size_t p, const int* s, std::size_t i) {
    double& f = field_[p * n_ + i];
    if (std::isnan(f)) f = c_.local_field(s, i);
    return f;
  }

  /// Spin i of slice p flipped: its neighbours' fields are stale.
  void flipped(std::size_t p, std::size_t i) {
    double* field = field_.data() + p * n_;
    for (std::uint32_t k : c_.neighbours(i)) field[k] = kStale;
  }

  /// Every spin may have changed (a new restart).
  void invalidate() { std::fill(field_.begin(), field_.end(), kStale); }

 private:
  static constexpr double kStale = std::numeric_limits<double>::quiet_NaN();
  const Couplings& c_;
  std::size_t n_;
  std::vector<double> field_;
};

}  // namespace

SimulatedAnnealer::SimulatedAnnealer(AnnealSchedule schedule)
    : schedule_(schedule) {
  if (schedule_.restarts == 0)
    throw std::invalid_argument("SimulatedAnnealer: restarts must be >= 1");
}

AnnealResult SimulatedAnnealer::solve(const IsingModel& model, Rng& rng,
                                      const SpinClusters& clusters,
                                      const CancelToken& cancel) const {
  if (model.n == 0)
    throw std::invalid_argument("SimulatedAnnealer: empty model");
  const Couplings couplings(model);
  FieldCache fields(couplings, 1);
  const Shuffler shuffle(model.n);
  AnnealResult best;
  best.best_energy = std::numeric_limits<double>::infinity();

  for (std::size_t restart = 0; restart < schedule_.restarts; ++restart) {
    std::vector<int> s(model.n);
    for (auto& v : s) v = rng.bernoulli(0.5) ? 1 : -1;
    fields.invalidate();
    double energy = model.energy(s);
    std::vector<int> local_best = s;
    double local_best_e = energy;

    const double ratio =
        schedule_.sweeps > 1
            ? std::pow(schedule_.beta_end / schedule_.beta_start,
                       1.0 / static_cast<double>(schedule_.sweeps - 1))
            : 1.0;
    double beta = schedule_.beta_start;

    std::vector<std::size_t> order(model.n);
    std::iota(order.begin(), order.end(), 0);
    std::vector<char> in_cluster(model.n, 0);
    for (std::size_t sweep = 0; sweep < schedule_.sweeps; ++sweep) {
      throw_if_stopped(cancel);
      shuffle(order, rng);
      for (std::size_t i : order) {
        // E contains h_i s_i + sum_k J_ik s_i s_k = s_i * local(i), so a
        // flip changes the energy by -2 s_i local(i).
        const double delta =
            -2.0 * static_cast<double>(s[i]) * fields(0, s.data(), i);
        if (metropolis_accept(delta, beta, rng)) {
          s[i] = -s[i];
          fields.flipped(0, i);
          energy += delta;
          if (energy < local_best_e) {
            local_best_e = energy;
            local_best = s;
          }
        }
      }
      // Collective cluster flips (embedded-chain moves).
      for (const auto& cluster : clusters) {
        if (cluster.empty()) continue;
        const double delta =
            couplings.cluster_flip_delta(s.data(), cluster, in_cluster);
        if (metropolis_accept(delta, beta, rng)) {
          for (std::size_t i : cluster) {
            s[i] = -s[i];
            fields.flipped(0, i);
          }
          energy += delta;
          if (energy < local_best_e) {
            local_best_e = energy;
            local_best = s;
          }
        }
      }
      beta *= ratio;
      ++best.sweeps_done;
      if (schedule_.trace_every &&
          sweep % schedule_.trace_every == 0)
        best.energy_trace.push_back(std::min(local_best_e, best.best_energy));
    }
    if (local_best_e < best.best_energy) {
      best.best_energy = local_best_e;
      best.best_spins = local_best;
    }
  }
  return best;
}

std::pair<std::vector<int>, double> SimulatedAnnealer::solve_qubo(
    const Qubo& qubo, Rng& rng, const CancelToken& cancel) const {
  const IsingModel ising = qubo.to_ising();
  const AnnealResult r = solve(ising, rng, /*clusters=*/{}, cancel);
  std::vector<int> x = spins_to_binary(r.best_spins);
  return {x, qubo.energy(x)};
}

SimulatedQuantumAnnealer::SimulatedQuantumAnnealer(
    QuantumAnnealSchedule schedule)
    : schedule_(schedule) {
  if (schedule_.restarts == 0)
    throw std::invalid_argument(
        "SimulatedQuantumAnnealer: restarts must be >= 1");
}

AnnealResult SimulatedQuantumAnnealer::solve(
    const IsingModel& model, Rng& rng, const SpinClusters& clusters,
    const CancelToken& cancel) const {
  if (model.n == 0)
    throw std::invalid_argument("SimulatedQuantumAnnealer: empty model");
  const std::size_t n = model.n;
  const std::size_t P = std::max<std::size_t>(2, schedule_.trotter_slices);
  const double T = schedule_.temperature;
  const double PT = static_cast<double>(P) * T;
  const double beta_slice = 1.0 / PT;  // effective inverse temp per slice
  const Couplings couplings(model);
  FieldCache fields(couplings, P);
  const Shuffler shuffle(n);

  AnnealResult best;
  best.best_energy = std::numeric_limits<double>::infinity();

  // replicas[p * n + i]: spin i in Trotter slice p.
  std::vector<int> replicas(P * n);
  for (std::size_t restart = 0; restart < schedule_.restarts; ++restart) {
    for (auto& v : replicas) v = rng.bernoulli(0.5) ? 1 : -1;
    fields.invalidate();

    const double gamma_ratio =
        schedule_.sweeps > 1
            ? std::pow(schedule_.gamma_end / schedule_.gamma_start,
                       1.0 / static_cast<double>(schedule_.sweeps - 1))
            : 1.0;
    double gamma = schedule_.gamma_start;

    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::vector<char> in_cluster(n, 0);
    for (std::size_t sweep = 0; sweep < schedule_.sweeps; ++sweep) {
      throw_if_stopped(cancel);
      // Ferromagnetic replica coupling grows as the field shrinks,
      // freezing the slices together into a classical state.
      const double jperp =
          -0.5 * PT * std::log(std::tanh(gamma / PT));
      for (std::size_t p = 0; p < P; ++p) {
        int* s = replicas.data() + p * n;
        const int* up = replicas.data() + ((p + 1) % P) * n;
        const int* down = replicas.data() + ((p + P - 1) % P) * n;
        shuffle(order, rng);
        for (std::size_t i : order) {
          // The action weights the problem term by beta/P = beta_slice, so
          // the local field enters undivided here.
          const double classical = fields(p, s, i);
          // Ferromagnetic coupling along imaginary time: the effective
          // Hamiltonian term is -J_perp s_i^p s_i^{p+1}.
          const double quantum = -jperp * (up[i] + down[i]);
          const double delta =
              -2.0 * static_cast<double>(s[i]) * (classical + quantum);
          if (metropolis_accept(delta, beta_slice, rng)) {
            s[i] = -s[i];
            fields.flipped(p, i);
          }
        }
      }
      // Collective cluster flips per slice. Flipping the cluster in one
      // slice leaves the replica-coupling term for its spins unchanged in
      // expectation only when neighbours agree; compute it exactly.
      if (!clusters.empty()) {
        for (std::size_t p = 0; p < P; ++p) {
          int* s = replicas.data() + p * n;
          const int* up = replicas.data() + ((p + 1) % P) * n;
          const int* down = replicas.data() + ((p + P - 1) % P) * n;
          for (const auto& cluster : clusters) {
            if (cluster.empty()) continue;
            double delta =
                couplings.cluster_flip_delta(s, cluster, in_cluster);
            for (std::size_t i : cluster)
              delta += 2.0 * jperp * static_cast<double>(s[i]) *
                       static_cast<double>(up[i] + down[i]);
            if (metropolis_accept(delta, beta_slice, rng)) {
              for (std::size_t i : cluster) {
                s[i] = -s[i];
                fields.flipped(p, i);
              }
            }
          }
        }
      }
      gamma *= gamma_ratio;
      ++best.sweeps_done;
    }

    // Read out the best slice.
    std::vector<int> slice(n);
    for (std::size_t p = 0; p < P; ++p) {
      std::copy_n(replicas.begin() + static_cast<std::ptrdiff_t>(p * n), n,
                  slice.begin());
      const double e = model.energy(slice);
      if (e < best.best_energy) {
        best.best_energy = e;
        best.best_spins = slice;
      }
    }
  }
  return best;
}

std::pair<std::vector<int>, double> SimulatedQuantumAnnealer::solve_qubo(
    const Qubo& qubo, Rng& rng, const CancelToken& cancel) const {
  const IsingModel ising = qubo.to_ising();
  const AnnealResult r = solve(ising, rng, /*clusters=*/{}, cancel);
  std::vector<int> x = spins_to_binary(r.best_spins);
  return {x, qubo.energy(x)};
}

}  // namespace qs::anneal
