// Unit tests for the annealing substrate: QUBO/Ising algebra, simulated
// (quantum) annealers, Chimera graphs, minor embedding and the digital
// annealer.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "anneal/annealer.h"
#include "anneal/chimera.h"
#include "anneal/digital_annealer.h"
#include "anneal/embedding.h"
#include "anneal/metropolis.h"
#include "anneal/qubo.h"
#include "apps/tsp/qubo_encode.h"
#include "apps/tsp/tsp.h"
#include "runtime/accelerator.h"

namespace qs::anneal {
namespace {

/// Small frustrated QUBO with known minimum: a triangle of antiferro
/// couplings plus a field. min at x = (1,0,1) or symmetric variants.
Qubo triangle_qubo() {
  Qubo q(3);
  q.add(0, 1, 2.0);
  q.add(1, 2, 2.0);
  q.add(0, 2, 2.0);
  q.add(0, 0, -1.0);
  q.add(1, 1, -1.0);
  q.add(2, 2, -1.0);
  return q;
}

/// MaxCut-style Ising ring of n spins with antiferromagnetic couplings.
IsingModel af_ring(std::size_t n) {
  IsingModel m(n);
  for (std::size_t i = 0; i < n; ++i)
    m.add_coupling(i, (i + 1) % n, 1.0);
  return m;
}

// ---------------------------------------------------------------- QUBO ----

TEST(Qubo, EnergyEvaluation) {
  Qubo q(2);
  q.add(0, 0, -1.0);
  q.add(0, 1, 2.0);
  EXPECT_EQ(q.energy({0, 0}), 0.0);
  EXPECT_EQ(q.energy({1, 0}), -1.0);
  EXPECT_EQ(q.energy({1, 1}), 1.0);
  EXPECT_THROW(q.energy({1}), std::invalid_argument);
}

TEST(Qubo, SymmetricAccumulation) {
  Qubo q(3);
  q.add(2, 0, 1.5);
  q.add(0, 2, 0.5);
  EXPECT_EQ(q.coeff(0, 2), 2.0);
  EXPECT_EQ(q.coeff(2, 0), 2.0);
}

TEST(Qubo, BruteForceFindsTriangleMinimum) {
  // Setting one variable gives -1; any second adds +2 -1 = +1.
  const auto [x, e] = triangle_qubo().brute_force_minimum();
  EXPECT_EQ(e, -1.0);
  EXPECT_EQ(x[0] + x[1] + x[2], 1);
}

TEST(Qubo, BruteForceEnumeratesExactly) {
  // For the triangle QUBO, setting exactly one variable gives -1; two
  // variables gives -2 + 2 = 0 ... enumerate explicitly to pin semantics.
  const Qubo q = triangle_qubo();
  EXPECT_EQ(q.energy({1, 0, 0}), -1.0);
  EXPECT_EQ(q.energy({1, 1, 0}), 0.0);
  EXPECT_EQ(q.energy({1, 1, 1}), 3.0);
  const auto [x, e] = q.brute_force_minimum();
  EXPECT_EQ(e, -1.0);
}

TEST(Qubo, IsingRoundTripPreservesArgmin) {
  const Qubo q = triangle_qubo();
  const IsingModel ising = q.to_ising();
  // Energies must agree up to the constant offset for every assignment.
  for (unsigned mask = 0; mask < 8; ++mask) {
    std::vector<int> x(3), s(3);
    for (int i = 0; i < 3; ++i) {
      x[i] = (mask >> i) & 1;
      s[i] = x[i] ? 1 : -1;
    }
    EXPECT_NEAR(q.energy(x), ising.energy(s), 1e-12) << mask;
  }
}

TEST(Qubo, FromIsingInverts) {
  IsingModel m(3);
  m.add_field(0, 0.5);
  m.add_coupling(0, 1, -1.0);
  m.add_coupling(1, 2, 0.7);
  const Qubo q = Qubo::from_ising(m);
  // Argmin must match brute-force over the Ising model.
  const auto [x, e] = q.brute_force_minimum();
  double best_ising = 1e18;
  std::vector<int> best_s;
  for (unsigned mask = 0; mask < 8; ++mask) {
    std::vector<int> s(3);
    for (int i = 0; i < 3; ++i) s[i] = (mask >> i) & 1 ? 1 : -1;
    if (m.energy(s) < best_ising) {
      best_ising = m.energy(s);
      best_s = s;
    }
  }
  EXPECT_EQ(x, spins_to_binary(best_s));
}

TEST(Qubo, SpinBinaryConversions) {
  EXPECT_EQ(spins_to_binary({1, -1, 1}), (std::vector<int>{1, 0, 1}));
  EXPECT_EQ(binary_to_spins({1, 0, 1}), (std::vector<int>{1, -1, 1}));
}

TEST(Qubo, EdgesAndCouplingCount) {
  const Qubo q = triangle_qubo();
  EXPECT_EQ(q.coupling_count(), 3u);
  EXPECT_EQ(q.edges().size(), 3u);
}

TEST(Ising, AdjacencyFromCouplings) {
  const IsingModel m = af_ring(4);
  const auto adj = m.adjacency();
  for (const auto& neighbours : adj) EXPECT_EQ(neighbours.size(), 2u);
}

// ----------------------------------------------------------- Annealers ----

TEST(SimulatedAnnealer, SolvesAfRing) {
  const IsingModel m = af_ring(8);
  Rng rng(5);
  AnnealSchedule schedule;
  schedule.sweeps = 500;
  const AnnealResult r = SimulatedAnnealer(schedule).solve(m, rng);
  // Ground state of even AF ring: alternating spins, energy -n.
  EXPECT_EQ(r.best_energy, -8.0);
}

TEST(SimulatedAnnealer, SolveQuboMatchesBruteForce) {
  Rng rng(7);
  const Qubo q = triangle_qubo();
  AnnealSchedule schedule;
  schedule.sweeps = 400;
  schedule.restarts = 3;
  const auto [x, e] = SimulatedAnnealer(schedule).solve_qubo(q, rng);
  EXPECT_EQ(e, q.brute_force_minimum().second);
}

TEST(SimulatedAnnealer, RandomQuboMatchesBruteForce) {
  Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    Qubo q(8);
    for (std::size_t i = 0; i < 8; ++i) {
      q.add(i, i, rng.uniform(-1, 1));
      for (std::size_t j = i + 1; j < 8; ++j)
        if (rng.bernoulli(0.5)) q.add(i, j, rng.uniform(-1, 1));
    }
    AnnealSchedule schedule;
    schedule.sweeps = 800;
    schedule.restarts = 4;
    const auto [x, e] = SimulatedAnnealer(schedule).solve_qubo(q, rng);
    EXPECT_NEAR(e, q.brute_force_minimum().second, 1e-9) << trial;
  }
}

TEST(SimulatedAnnealer, ZeroRestartsRejected) {
  AnnealSchedule schedule;
  schedule.restarts = 0;
  EXPECT_THROW(SimulatedAnnealer{schedule}, std::invalid_argument);
}

TEST(SimulatedAnnealer, EmptyModelThrows) {
  Rng rng(1);
  EXPECT_THROW(SimulatedAnnealer().solve(IsingModel(0), rng),
               std::invalid_argument);
}

TEST(QuantumAnnealer, SolvesAfRing) {
  const IsingModel m = af_ring(8);
  Rng rng(13);
  QuantumAnnealSchedule schedule;
  schedule.sweeps = 400;
  schedule.restarts = 2;
  const AnnealResult r = SimulatedQuantumAnnealer(schedule).solve(m, rng);
  EXPECT_EQ(r.best_energy, -8.0);
}

TEST(QuantumAnnealer, SolveQuboFindsOptimum) {
  Rng rng(17);
  const Qubo q = triangle_qubo();
  QuantumAnnealSchedule schedule;
  schedule.sweeps = 400;
  schedule.restarts = 3;
  const auto [x, e] = SimulatedQuantumAnnealer(schedule).solve_qubo(q, rng);
  EXPECT_NEAR(e, -1.0, 1e-12);
}

TEST(QuantumAnnealer, ZeroRestartsRejected) {
  QuantumAnnealSchedule schedule;
  schedule.restarts = 0;
  EXPECT_THROW(SimulatedQuantumAnnealer{schedule}, std::invalid_argument);
  // The embedded accelerator path used to index the empty best_spins of a
  // zero-restart solve; it now fails with the annealer's own error.
  const runtime::AnnealAccelerator embedded(ChimeraGraph(2, 2, 4), schedule);
  Rng rng(1);
  EXPECT_THROW(embedded.solve(triangle_qubo(), rng), std::invalid_argument);
  const runtime::AnnealAccelerator dense(4, schedule);
  EXPECT_THROW(dense.solve(triangle_qubo(), rng), std::invalid_argument);
}

TEST(QuantumAnnealer, MoreSweepsNotWorse) {
  // Statistical sanity: long schedules find the AF-ring ground state more
  // reliably than 1-sweep schedules.
  const IsingModel m = af_ring(12);
  int hits_short = 0, hits_long = 0;
  for (int t = 0; t < 10; ++t) {
    Rng rng(100 + t);
    QuantumAnnealSchedule s1;
    s1.sweeps = 2;
    QuantumAnnealSchedule s2;
    s2.sweeps = 300;
    if (SimulatedQuantumAnnealer(s1).solve(m, rng).best_energy == -12.0)
      ++hits_short;
    if (SimulatedQuantumAnnealer(s2).solve(m, rng).best_energy == -12.0)
      ++hits_long;
  }
  EXPECT_GE(hits_long, hits_short);
  EXPECT_GE(hits_long, 8);
}

// -------------------------------------------------- Exact Metropolis ----
//
// below_exp(u, y) must give u < std::exp(y) for every input; the table
// bracket only decides when the answer is certain.

bool exp_reference(double u, double y) { return u < std::exp(y); }

TEST(ExactMetropolis, SeededPairsMatchStdExp) {
  Rng rng(2024);
  std::size_t mismatches = 0;
  for (std::size_t t = 0; t < 10'000'000; ++t) {
    // y covers the table [-40, 0] and some of the exp tail below it.
    const double y = -42.0 * rng.uniform();
    double u = rng.uniform();
    switch (t % 3) {
      case 0:  // a plain Metropolis draw
        break;
      case 1:  // near exp(y), inside and around its bracket
        u = std::exp(y) * (1.0 + (u - 0.5) * 0x1.0p-5);
        break;
      default: {  // near the table value at the step's upper grid point
        const double grid = -std::floor(-y * 64.0) / 64.0;
        u = std::exp(grid) * (1.0 + (u - 0.5) * 0x1.0p-47);
      }
    }
    if (below_exp(u, y) != exp_reference(u, y)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(ExactMetropolis, GridPointsAndNeighbours) {
  const double inf = std::numeric_limits<double>::infinity();
  for (int k = 0; k <= 40 * 64 + 1; ++k) {
    const double grid = -static_cast<double>(k) / 64.0;
    for (double y : {grid, std::nextafter(grid, -inf),
                     std::nextafter(grid, inf)}) {
      const double e = std::exp(y);
      const double e_next = std::exp(-static_cast<double>(k + 1) / 64.0);
      for (double u : {e, std::nextafter(e, 0.0), std::nextafter(e, 1.0),
                       e_next, std::nextafter(e_next, 0.0),
                       std::nextafter(e_next, 1.0),
                       e * (1.0 - 0x1.0p-50), e * (1.0 + 0x1.0p-50)}) {
        EXPECT_EQ(below_exp(u, y), exp_reference(u, y))
            << "k=" << k << " y=" << y << " u=" << u;
      }
    }
  }
}

TEST(ExactMetropolis, AtExpItself) {
  Rng rng(7);
  for (int t = 0; t < 100'000; ++t) {
    const double y = -45.0 * rng.uniform();
    const double e = std::exp(y);
    double u = e;
    for (int step = 0; step < 4; ++step) u = std::nextafter(u, 0.0);
    for (int step = 0; step < 9; ++step) {
      ASSERT_EQ(below_exp(u, y), exp_reference(u, y)) << y << " " << u;
      u = std::nextafter(u, 1.0);
    }
  }
}

TEST(ExactMetropolis, EdgeValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double y : {-0.0, 0.0, -40.0, std::nextafter(-40.0, 0.0),
                   std::nextafter(-40.0, -inf), -745.0, -746.0, -inf, 0.5,
                   inf, nan}) {
    for (double u : {0.0, 1.0 - 0x1.0p-53, 0x1.0p-53, 0.5}) {
      EXPECT_EQ(below_exp(u, y), exp_reference(u, y))
          << "y=" << y << " u=" << u;
    }
  }
}

// ------------------------------------------------------------- Chimera ----

TEST(Chimera, Dwave2000qDimensions) {
  const ChimeraGraph g = ChimeraGraph::dwave2000q();
  EXPECT_EQ(g.size(), 2048u);
  // Edges: cells 16*16*16 (K44) + vertical 15*16*4 + horizontal 16*15*4.
  EXPECT_EQ(g.edge_count(), 16u * 16 * 16 + 2u * 15 * 16 * 4);
}

TEST(Chimera, IntraCellBipartite) {
  const ChimeraGraph g(2, 2, 4);
  // side-0 shore connects to all side-1 in same cell, none within shore.
  EXPECT_TRUE(g.connected(g.node_id(0, 0, 0, 0), g.node_id(0, 0, 1, 3)));
  EXPECT_FALSE(g.connected(g.node_id(0, 0, 0, 0), g.node_id(0, 0, 0, 1)));
}

TEST(Chimera, InterCellCouplers) {
  const ChimeraGraph g(2, 2, 4);
  // Vertical: side-0 same k, row neighbour.
  EXPECT_TRUE(g.connected(g.node_id(0, 0, 0, 2), g.node_id(1, 0, 0, 2)));
  EXPECT_FALSE(g.connected(g.node_id(0, 0, 0, 2), g.node_id(1, 0, 0, 3)));
  // Horizontal: side-1 same k, column neighbour.
  EXPECT_TRUE(g.connected(g.node_id(0, 0, 1, 1), g.node_id(0, 1, 1, 1)));
  EXPECT_FALSE(g.connected(g.node_id(0, 0, 1, 1), g.node_id(1, 0, 1, 1)));
}

TEST(Chimera, DegreeBounds) {
  const ChimeraGraph g = ChimeraGraph::dwave2000q();
  // Interior node: 4 intra + 2 inter = 6.
  EXPECT_NEAR(g.average_degree(), 5.875, 0.01);
  EXPECT_THROW(g.node_id(16, 0, 0, 0), std::out_of_range);
}

// ----------------------------------------------------------- Embedding ----

HardwareGraph chimera_hw(const ChimeraGraph& g) {
  HardwareGraph hw;
  hw.adjacency.resize(g.size());
  for (std::size_t n = 0; n < g.size(); ++n) hw.adjacency[n] = g.neighbours(n);
  return hw;
}

std::vector<std::pair<std::size_t, std::size_t>> complete_graph_edges(
    std::size_t n) {
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  return edges;
}

/// Validates an embedding: chains disjoint and connected, every logical
/// edge has a physical coupler between its chains.
void expect_valid_embedding(
    const Embedding& emb, std::size_t n,
    const std::vector<std::pair<std::size_t, std::size_t>>& edges,
    const HardwareGraph& hw) {
  ASSERT_TRUE(emb.success);
  std::vector<int> owner(hw.size(), -1);
  for (std::size_t v = 0; v < n; ++v) {
    ASSERT_FALSE(emb.chains[v].empty());
    for (std::size_t node : emb.chains[v]) {
      ASSERT_EQ(owner[node], -1) << "chains overlap at node " << node;
      owner[node] = static_cast<int>(v);
    }
  }
  // Chain connectivity by BFS within chain.
  for (std::size_t v = 0; v < n; ++v) {
    const auto& chain = emb.chains[v];
    std::vector<std::size_t> stack{chain[0]};
    std::vector<bool> seen(hw.size(), false);
    seen[chain[0]] = true;
    std::size_t reached = 1;
    while (!stack.empty()) {
      const std::size_t u = stack.back();
      stack.pop_back();
      for (std::size_t w : hw.adjacency[u]) {
        if (!seen[w] && owner[w] == static_cast<int>(v)) {
          seen[w] = true;
          ++reached;
          stack.push_back(w);
        }
      }
    }
    EXPECT_EQ(reached, chain.size()) << "chain " << v << " disconnected";
  }
  // Coupler per logical edge.
  for (const auto& [a, b] : edges) {
    bool coupled = false;
    for (std::size_t u : emb.chains[a]) {
      for (std::size_t w : hw.adjacency[u])
        if (owner[w] == static_cast<int>(b)) coupled = true;
    }
    EXPECT_TRUE(coupled) << "edge " << a << "-" << b << " uncoupled";
  }
}

TEST(Embedding, TriangleOnChimera) {
  const ChimeraGraph g(2, 2, 4);
  const HardwareGraph hw = chimera_hw(g);
  Rng rng(3);
  const auto edges = complete_graph_edges(3);
  const Embedding emb = Embedder(4).embed(3, edges, hw, rng);
  expect_valid_embedding(emb, 3, edges, hw);
}

TEST(Embedding, HeuristicK6OnSmallChimera) {
  const ChimeraGraph g(4, 4, 4);
  const HardwareGraph hw = chimera_hw(g);
  Rng rng(5);
  const auto edges = complete_graph_edges(6);
  const Embedding emb = Embedder(4).embed(6, edges, hw, rng);
  expect_valid_embedding(emb, 6, edges, hw);
  EXPECT_GT(emb.max_chain_length, 1u);  // K6 needs chains on Chimera
}

TEST(Embedding, CliqueTemplateK64OnDwave2000q) {
  const ChimeraGraph g = ChimeraGraph::dwave2000q();
  EXPECT_EQ(chimera_clique_capacity(g), 64u);
  const HardwareGraph hw = chimera_hw(g);
  const auto edges = complete_graph_edges(64);
  const Embedding emb = chimera_clique_embedding(64, g);
  expect_valid_embedding(emb, 64, edges, hw);
  EXPECT_EQ(emb.max_chain_length, 17u);  // m + 1
}

TEST(Embedding, CliqueTemplateRejectsOversize) {
  const ChimeraGraph g = ChimeraGraph::dwave2000q();
  EXPECT_FALSE(chimera_clique_embedding(65, g).success);
  EXPECT_THROW(chimera_clique_embedding(4, ChimeraGraph(2, 3, 4)),
               std::invalid_argument);
}

TEST(Embedding, ImpossibleOnTinyHardware) {
  // K5 cannot embed in a 4-node path.
  HardwareGraph hw;
  hw.adjacency = {{1}, {0, 2}, {1, 3}, {2}};
  Rng rng(7);
  const Embedding emb = Embedder(3).embed(5, complete_graph_edges(5), hw, rng);
  EXPECT_FALSE(emb.success);
}

TEST(Embedding, EdgelessGraphTrivial) {
  const ChimeraGraph g(1, 1, 4);
  const HardwareGraph hw = chimera_hw(g);
  Rng rng(9);
  const Embedding emb = Embedder(1).embed(4, {}, hw, rng);
  ASSERT_TRUE(emb.success);
  EXPECT_EQ(emb.physical_qubits_used, 4u);
  EXPECT_EQ(emb.max_chain_length, 1u);
}

// ------------------------------------------------------ DigitalAnnealer ----

TEST(DigitalAnnealer, SolvesTriangle) {
  Rng rng(11);
  DigitalAnnealerParams params;
  params.iterations = 3000;
  params.restarts = 2;
  const auto [x, e] = DigitalAnnealer(params).solve(triangle_qubo(), rng);
  EXPECT_NEAR(e, -1.0, 1e-12);
}

TEST(DigitalAnnealer, MatchesBruteForceOnRandom) {
  Rng rng(13);
  Qubo q(10);
  for (std::size_t i = 0; i < 10; ++i) {
    q.add(i, i, rng.uniform(-1, 1));
    for (std::size_t j = i + 1; j < 10; ++j)
      q.add(i, j, rng.uniform(-0.5, 0.5));
  }
  DigitalAnnealerParams params;
  params.iterations = 8000;
  params.restarts = 3;
  const auto [x, e] = DigitalAnnealer(params).solve(q, rng);
  EXPECT_NEAR(e, q.brute_force_minimum().second, 1e-9);
}

TEST(DigitalAnnealer, ZeroRestartsRejected) {
  // Zero restarts would leave no assignment to return.
  DigitalAnnealerParams params;
  params.restarts = 0;
  EXPECT_THROW(DigitalAnnealer{params}, std::invalid_argument);
}

TEST(DigitalAnnealer, CapacityGuard) {
  EXPECT_TRUE(DigitalAnnealer::fits(8192));
  EXPECT_FALSE(DigitalAnnealer::fits(8193));
}


// ------------------------------------------------------ Golden results ----
//
// Bit-identity pins for every annealer. Each fingerprint holds the best
// assignment, the energy as IEEE-754 bits, the sweep count, the energy
// trace and the next raw draw of the caller's Rng after the solve, which
// pins the number of draws the solver consumed. Any change to the sweep
// kernels must reproduce these exactly: same moves, same draws, same
// floating-point sums.

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string hex_bits(double v) {
  return hex64(std::bit_cast<std::uint64_t>(v));
}

std::string assignment(const std::vector<int>& values) {
  std::string out;
  for (int v : values) out += v > 0 ? '1' : '0';
  return out;
}

std::string fingerprint(const AnnealResult& r, Rng& rng) {
  std::string out = assignment(r.best_spins) + " e=" + hex_bits(r.best_energy) +
                    " sweeps=" + std::to_string(r.sweeps_done) + " trace=";
  for (double e : r.energy_trace) out += hex_bits(e) + ",";
  return out + " next=" + hex64(rng.next_u64());
}

std::string fingerprint(const std::vector<int>& x, double energy, Rng& rng) {
  return assignment(x) + " e=" + hex_bits(energy) +
         " next=" + hex64(rng.next_u64());
}

/// Dense random QUBO: every diagonal and every pair carries a weight.
Qubo dense_random_qubo(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Qubo q(n);
  for (std::size_t i = 0; i < n; ++i) {
    q.add(i, i, rng.uniform(-1, 1));
    for (std::size_t j = i + 1; j < n; ++j) q.add(i, j, rng.uniform(-1, 1));
  }
  return q;
}

void expect_sqa_golden(const Qubo& qubo,
                       const std::vector<std::string>& expected) {
  const IsingModel ising = qubo.to_ising();
  for (std::size_t k = 0; k < expected.size(); ++k) {
    Rng rng(k + 1);
    const AnnealResult r = SimulatedQuantumAnnealer().solve(ising, rng);
    EXPECT_EQ(fingerprint(r, rng), expected[k]) << "seed " << k + 1;
  }
}

TEST(AnnealGolden, QuantumAnnealerNetherlands4) {
  const apps::tsp::TspQubo tsp(apps::tsp::TspInstance::netherlands4());
  expect_sqa_golden(tsp.qubo(), {
      "0010010010000001 e=c02099a702170afd"
      " sweeps=500 trace= next=3abaa80e9b372cd2",
      "0100001010000001 e=c02074501d8f308f"
      " sweeps=500 trace= next=8bdb8dc81354f3de",
      "1000000101000010 e=c02074501d8f3090"
      " sweeps=500 trace= next=9714f03959896f51",
      "0010010010000001 e=c02099a702170afd"
      " sweeps=500 trace= next=54066cf39b149d07",
      "0001001001001000 e=c02099a702170aff"
      " sweeps=500 trace= next=d3aca96cd8c8a26a",
      "0001001010000100 e=c02074501d8f3091"
      " sweeps=500 trace= next=4150560d1aa19c57",
      "0001100001000010 e=c02099a702170afd"
      " sweeps=500 trace= next=1617a52a51eaf278",
      "0010000110000100 e=c02099a702170afd"
      " sweeps=500 trace= next=63df30dac1da9856",
  });
}

TEST(AnnealGolden, QuantumAnnealerRandomTsp4) {
  Rng instance_rng(2020);
  const apps::tsp::TspQubo tsp(apps::tsp::TspInstance::random(4, instance_rng));
  expect_sqa_golden(tsp.qubo(), {
      "0010100000010100 e=c026eeb3921da83a"
      " sweeps=500 trace= next=3355f91799dcc8c3",
      "0100000100101000 e=c026eeb3921da83a"
      " sweeps=500 trace= next=72fad6595f2028ef",
      "0010000110000100 e=c0272523de56f742"
      " sweeps=500 trace= next=d4037829c1b0c438",
      "0100001000011000 e=c0272523de56f742"
      " sweeps=500 trace= next=ae09d733eee33f35",
      "0001010000101000 e=c026eeb3921da83a"
      " sweeps=500 trace= next=0f2a58f2ab448368",
      "1000010000100001 e=c0272523de56f744"
      " sweeps=500 trace= next=e32080379979e3f5",
      "0100001000011000 e=c0272523de56f742"
      " sweeps=500 trace= next=27e3fa064ed6fd90",
      "1000010000100001 e=c0272523de56f744"
      " sweeps=500 trace= next=ac3931b60bd30e07",
  });
}

TEST(AnnealGolden, QuantumAnnealerWithClusters) {
  // Chain moves through the embedded path: a 6-variable clique on a
  // Chimera(2,2,4) device, whose 32-spin physical model also holds
  // isolated spins (zero-delta moves).
  const Qubo q = dense_random_qubo(6, 34);
  QuantumAnnealSchedule schedule;
  schedule.sweeps = 120;
  schedule.restarts = 2;
  const runtime::AnnealAccelerator acc(ChimeraGraph(2, 2, 4), schedule);
  Rng rng(5);
  const runtime::AnnealOutcome o = acc.solve(q, rng);
  ASSERT_TRUE(o.embedded);
  EXPECT_EQ(fingerprint(o.solution, o.energy, rng),
            "010111 e=c01002fa0d22ed62 next=d63672d2954bcc33");

  // The same kernel called directly, with hand-made clusters on a
  // frustrated ring, pins the physical spins as well.
  IsingModel m = af_ring(9);
  m.add_field(0, 0.25);
  m.add_coupling(0, 4, -0.5);
  const SpinClusters clusters = {{0, 1, 2}, {}, {4, 5}, {7}};
  Rng direct(6);
  const AnnealResult r =
      SimulatedQuantumAnnealer(schedule).solve(m, direct, clusters);
  EXPECT_EQ(fingerprint(r, direct),
            "010101011 e=c01f000000000000 sweeps=240 trace="
            " next=bcadb25489767f05");
}

TEST(AnnealGolden, SimulatedAnnealerClustersAndTrace) {
  IsingModel m = dense_random_qubo(10, 41).to_ising();
  m.j[{0, 9}] = 0.0;  // a present zero coupling
  AnnealSchedule schedule;
  schedule.sweeps = 200;
  schedule.restarts = 2;
  schedule.trace_every = 40;
  const SpinClusters clusters = {{0, 1, 2}, {5, 6}, {}, {9}};
  Rng rng(8);
  const AnnealResult r = SimulatedAnnealer(schedule).solve(m, rng, clusters);
  EXPECT_EQ(fingerprint(r, rng),
            "0111001010 e=c0123bba86cd9bc6 sweeps=400"
            " trace=c0020fe60d36ee6d,c0123bba86cd9bc3,c0123bba86cd9bc3,"
            "c0123bba86cd9bc3,c0123bba86cd9bc3,c0123bba86cd9bc3,"
            "c0123bba86cd9bc4,c0123bba86cd9bc4,c0123bba86cd9bc4,"
            "c0123bba86cd9bc6, next=316cc87f4185d274");

  Rng ring_rng(9);
  const AnnealResult ring =
      SimulatedAnnealer(schedule).solve(af_ring(10), ring_rng);
  EXPECT_EQ(fingerprint(ring, ring_rng),
            "0101010101 e=c024000000000000 sweeps=400"
            " trace=c000000000000000,c024000000000000,c024000000000000,"
            "c024000000000000,c024000000000000,c024000000000000,"
            "c024000000000000,c024000000000000,c024000000000000,"
            "c024000000000000, next=075b5fd4451e2ef6");
}

TEST(AnnealGolden, DigitalAnnealer) {
  const Qubo q = dense_random_qubo(10, 51);
  DigitalAnnealerParams params;
  params.iterations = 1500;
  params.restarts = 2;
  Rng rng(10);
  const auto [x, e] = DigitalAnnealer(params).solve(q, rng);
  EXPECT_EQ(fingerprint(x, e, rng),
            "1000101110 e=c01434cbdde97271 next=d1db57e5f4fda6b9");
}

}  // namespace
}  // namespace qs::anneal
