// Fujitsu-style Digital Annealer model (paper Section 4.2): a
// quantum-inspired, *fully connected* QUBO solver with 8192 nodes — no
// minor embedding needed. Modelled as massively parallel-trial annealing
// with a dynamic energy offset to escape plateaus (the published DA
// algorithm structure).
#pragma once

#include <cstddef>
#include <vector>

#include "anneal/qubo.h"
#include "common/rng.h"

namespace qs::anneal {

struct DigitalAnnealerParams {
  std::size_t iterations = 2000;
  double beta_start = 0.05;
  double beta_end = 10.0;
  double offset_increase = 0.1;  ///< dynamic offset step on rejection
  std::size_t restarts = 1;
};

class DigitalAnnealer {
 public:
  /// The marketed capacity: 8192 fully-connected nodes.
  static constexpr std::size_t kCapacity = 8192;

  /// Throws std::invalid_argument when params.restarts is 0.
  explicit DigitalAnnealer(DigitalAnnealerParams params = {});

  /// True if a problem of `n` variables fits (full connectivity: no
  /// embedding, the answer only depends on n).
  static bool fits(std::size_t n) { return n <= kCapacity; }

  /// Solves a QUBO directly (throws std::invalid_argument if too large).
  std::pair<std::vector<int>, double> solve(const Qubo& qubo, Rng& rng) const;

 private:
  DigitalAnnealerParams params_;
};

}  // namespace qs::anneal
