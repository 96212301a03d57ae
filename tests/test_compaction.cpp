// Live-register compaction: trajectory shots simulate only the qubits a
// program names, and the result must be byte-identical to a full-width
// run. The golden histograms below were recorded from the full-width
// simulator (every shot evolving all 2^17 Surface-17 amplitudes); any
// drift in a single count means compaction changed a double or an RNG
// draw.
#include <gtest/gtest.h>

#include <string>

#include "compiler/algorithms.h"
#include "compiler/compiler.h"
#include "compiler/platform.h"
#include "microarch/eqasm_parser.h"
#include "microarch/executor.h"
#include "qasm/parser.h"
#include "runtime/accelerator.h"
#include "sim/simulator.h"

namespace qs {
namespace {

using compiler::Platform;
using runtime::GatePath;

constexpr std::size_t kShots = 16;

/// "key:count key:count ..." in key order — a byte-exact fingerprint.
std::string serialize(const Histogram& h) {
  std::string out;
  for (const auto& [key, n] : h.counts()) {
    if (!out.empty()) out += ' ';
    out += key + ':' + std::to_string(n);
  }
  return out;
}

compiler::Program ghz8() {
  compiler::Program p("ghz", 8);
  p.add_kernel("main").ghz(8).measure_all();
  return p;
}

compiler::Program bv7() {
  return compiler::algorithms::bernstein_vazirani(6, 0b101101);
}

compiler::Program dj6() {
  return compiler::algorithms::deutsch_jozsa(5, false, 0b10110);
}

compiler::Program qft5() {
  compiler::Program p("qft", 5);
  auto& k = p.add_kernel("main");
  k.x(0).x(2);
  k.qft({0, 1, 2, 3, 4}).measure_all();
  return p;
}

/// Runs `program` on noisy Surface-17 through one gate path.
std::string run_route(const compiler::Program& program, GatePath path,
                      std::uint64_t seed) {
  const runtime::GateAccelerator gate(Platform::superconducting17(), {},
                                      path);
  const compiler::CompileResult compiled =
      gate.compile_const(program.to_qasm());
  return serialize(gate.run_compiled(compiled, kShots, seed));
}

// ------------------------------------------------ pooled-family goldens ----

struct GoldenCase {
  const char* name;
  compiler::Program (*build)();
  std::uint64_t seed;
  const char* eqasm;
  const char* direct;
};

const GoldenCase kGolden[] = {
    {"GHZ8", ghz8, 101,
     "00000000000000000:5 00001011000000000:1 11111111000000000:10",
     "00000000000000000:9 11100111000000000:1 11111111000000000:6"},
    {"BV7", bv7, 202,
     "00110100000000000:1 10110000000000000:2 10110100000000000:12 "
     "11110100000000000:1",
     "00110100000000000:1 10110000000000000:2 10110100000000000:12 "
     "11110100000000000:1"},
    {"DJ6", dj6, 303,
     "01000000000000000:1 01100000000000000:2 01101000000000000:13",
     "01000000000000000:1 01100000000000000:2 01101000000000000:13"},
    {"QFT5", qft5, 404,
     "00001000000000000:1 00010000000000000:1 00101000000000000:1 "
     "00111000000000000:1 01001000000000000:1 01010000000000000:1 "
     "10000000000000000:1 10011000000000000:2 10100000000000000:1 "
     "10101000000000000:2 11000000000000000:1 11001000000000000:3",
     "00001000000000000:1 00010000000000000:3 00101000000000000:2 "
     "01000000000000000:1 01001000000000000:1 01110000000000000:1 "
     "10000000000000000:1 10001000000000000:1 10011000000000000:1 "
     "11010000000000000:1 11011000000000000:1 11101000000000000:2"},
};

TEST(CompactionGolden, EqasmRouteMatchesFullWidth) {
  for (const GoldenCase& c : kGolden)
    EXPECT_EQ(run_route(c.build(), GatePath::MicroArch, c.seed), c.eqasm)
        << c.name;
}

TEST(CompactionGolden, DirectTrajectoryRouteMatchesFullWidth) {
  for (const GoldenCase& c : kGolden)
    EXPECT_EQ(run_route(c.build(), GatePath::Direct, c.seed), c.direct)
        << c.name;
}

// --------------------------------------------------------- edge cases ----

sim::Simulator noisy_s17(std::uint64_t seed) {
  const Platform p = Platform::superconducting17();
  return sim::Simulator(p.qubit_count, p.qubit_model, seed, p.durations);
}

std::string run_direct(const char* source, std::uint64_t seed,
                       std::size_t* simulated = nullptr) {
  sim::Simulator s = noisy_s17(seed);
  const std::string h = serialize(s.run(qasm::Parser::parse(source), 8)
                                      .histogram);
  if (simulated != nullptr) *simulated = s.simulated_qubit_count();
  return h;
}

TEST(CompactionEdge, MeasureAllNamesEveryQubit) {
  std::size_t simulated = 0;
  EXPECT_EQ(run_direct(R"(
version 1.0
qubits 17
h q[2]
cnot q[2], q[5]
measure_all
)", 7, &simulated),
            "00000000000000000:2 00100100000000000:6");
  EXPECT_EQ(simulated, 17u);
}

TEST(CompactionEdge, BareWaitNamesEveryQubit) {
  std::size_t simulated = 0;
  EXPECT_EQ(run_direct(R"(
version 1.0
qubits 17
x q[1]
h q[4]
wait 40
measure q[1]
measure q[4]
)", 8, &simulated),
            "00000000000000000:1 01000000000000000:5 01001000000000000:2");
  EXPECT_EQ(simulated, 17u);
}

TEST(CompactionEdge, QubitSixteenFallsBackToFullWidth) {
  // Above 16 qubits the full-width reductions split into 2^16-amplitude
  // chunks; a live qubit 16 puts amplitude in the second chunk, so the
  // compact sum order would differ. The guard keeps the full register.
  std::size_t simulated = 0;
  EXPECT_EQ(run_direct(R"(
version 1.0
qubits 17
h q[16]
cnot q[16], q[3]
x q[0]
measure q[16]
measure q[3]
measure q[0]
)", 9, &simulated),
            "10000000000000000:4 10010000000000001:4");
  EXPECT_EQ(simulated, 17u);
}

TEST(CompactionEdge, NarrowProgramIsCompacted) {
  std::size_t simulated = 0;
  EXPECT_EQ(run_direct(R"(
version 1.0
qubits 17
h q[3]
cnot q[3], q[11]
x q[7]
measure q[3]
measure q[7]
measure q[11]
)", 10, &simulated),
            "00000001000000000:2 00010001000000000:1 00010001000100000:5");
  EXPECT_EQ(simulated, 3u);
}

// FMR reads the measurement register by physical qubit, and BR branches on
// it: q5 is put in superposition, and q9 is flipped only when q5 read 1.
constexpr const char* kFeedbackEqasm = R"(
    SMIS s0, {5}
    SMIS s1, {9}
    1, y90 s0
    1, measure s0
    FMR r1, q5
    LDI r2, 1
    CMP r1, r2
    BR ne, skip
    1, x90 s1
    1, x90 s1
skip:
    1, measure s1
    STOP
)";

TEST(CompactionEdge, EqasmFeedbackKeepsPhysicalBitPositions) {
  microarch::Executor executor(Platform::superconducting17(), 11);
  const Histogram h =
      executor.run_shots(microarch::parse_eqasm(kFeedbackEqasm), 32);
  EXPECT_EQ(serialize(h), "00000000000000000:13 00000100010000000:19");
  EXPECT_EQ(executor.backend().simulated_qubit_count(), 2u);
}

TEST(CompactionEdge, StateAfterRunOnceKeepsFullRegister) {
  Platform platform = Platform::superconducting17();
  platform.qubit_model = sim::QubitModel::perfect();
  microarch::Executor executor(platform, 3);
  const microarch::EqProgram eq = microarch::parse_eqasm(R"(
    SMIS s0, {6}
    1, x90 s0
    1, x90 s0
    STOP
)");
  // A compacted multi-shot run first, then inspection after one run: the
  // state presents the whole register with q6 in |1>.
  executor.run_shots(eq, 4);
  executor.run(eq);
  sim::StateVector& state = executor.backend().state();
  EXPECT_EQ(state.qubit_count(), 17u);
  EXPECT_NEAR(state.prob_one(6), 1.0, 1e-12);
  EXPECT_NEAR(std::norm(state.amplitude(StateIndex{1} << 6)), 1.0, 1e-12);

  sim::Simulator s(17);
  s.run_once(qasm::Parser::parse("version 1.0\nqubits 17\nx q[12]\n"));
  EXPECT_EQ(s.state().qubit_count(), 17u);
  EXPECT_EQ(s.state().amplitude(StateIndex{1} << 12), cplx(1.0, 0.0));
}

}  // namespace
}  // namespace qs
