// Annealing solvers for Ising/QUBO problems (paper Sections 3.3, 4.2):
//  * SimulatedAnnealer        — classical Metropolis annealing baseline.
//  * SimulatedQuantumAnnealer — path-integral Monte Carlo with a transverse
//    field schedule: the closest laptop-scale stand-in for a D-Wave-style
//    quantum annealer (substitution documented in DESIGN.md).
#pragma once

#include <cstddef>
#include <vector>

#include "anneal/qubo.h"
#include "common/cancellation.h"
#include "common/rng.h"

namespace qs::anneal {

struct AnnealResult {
  std::vector<int> best_spins;   ///< {-1,+1}
  double best_energy = 0.0;
  std::size_t sweeps_done = 0;
  std::vector<double> energy_trace;  ///< best-so-far per recorded sweep
};

struct AnnealSchedule {
  std::size_t sweeps = 1000;
  double beta_start = 0.1;   ///< initial inverse temperature
  double beta_end = 5.0;     ///< final inverse temperature
  std::size_t restarts = 1;
  std::size_t trace_every = 0;  ///< 0 = no trace recording
};

/// Spin groups updated collectively in addition to single-spin moves.
/// Used for embedded problems: a ferromagnetic chain is nearly impossible
/// to flip spin-by-spin once frozen, but flips freely as one cluster.
using SpinClusters = std::vector<std::vector<std::size_t>>;

/// Classical simulated annealing with a geometric beta schedule.
///
/// Both solvers observe an optional CancelToken at every sweep boundary
/// and throw CancelledError when it requests a stop, so a deadline or a
/// client cancel aborts a long anneal mid-schedule instead of running the
/// sweep budget to completion. The default token never stops.
class SimulatedAnnealer {
 public:
  /// Throws std::invalid_argument when schedule.restarts is 0.
  explicit SimulatedAnnealer(AnnealSchedule schedule = {});

  AnnealResult solve(const IsingModel& model, Rng& rng,
                     const SpinClusters& clusters = {},
                     const CancelToken& cancel = {}) const;

  /// Convenience wrapper: anneal the QUBO's Ising image, return binary x.
  std::pair<std::vector<int>, double> solve_qubo(
      const Qubo& qubo, Rng& rng, const CancelToken& cancel = {}) const;

 private:
  AnnealSchedule schedule_;
};

struct QuantumAnnealSchedule {
  std::size_t sweeps = 500;
  std::size_t trotter_slices = 16;  ///< P replicas of the spin system
  double temperature = 0.05;        ///< PT product sets replica coupling
  double gamma_start = 3.0;         ///< initial transverse field
  double gamma_end = 1e-3;          ///< final transverse field
  std::size_t restarts = 1;
};

/// Path-integral Monte Carlo simulated quantum annealing: the classical
/// system is replicated into P Trotter slices coupled along the imaginary
/// time axis with strength J_perp = -(P*T/2) ln tanh(Gamma/(P*T)); the
/// transverse field Gamma anneals from gamma_start to gamma_end.
class SimulatedQuantumAnnealer {
 public:
  /// Throws std::invalid_argument when schedule.restarts is 0.
  explicit SimulatedQuantumAnnealer(QuantumAnnealSchedule schedule = {});

  AnnealResult solve(const IsingModel& model, Rng& rng,
                     const SpinClusters& clusters = {},
                     const CancelToken& cancel = {}) const;

  std::pair<std::vector<int>, double> solve_qubo(
      const Qubo& qubo, Rng& rng, const CancelToken& cancel = {}) const;

 private:
  QuantumAnnealSchedule schedule_;
};

}  // namespace qs::anneal
