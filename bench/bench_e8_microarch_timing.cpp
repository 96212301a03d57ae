// E8 — Figures 5/6: the micro-architecture's timing behaviour. "From that
// level on, the timing execution requirements are very strict and need to
// be precise up to the nanosecond level."
// Instruction issue, queue pressure and nanosecond timelines vs circuit
// size, on both the superconducting and semiconducting platform configs
// (same micro-architecture, different configuration file — Section 3.1).
// A second table times noisy trajectory shots on Surface-17 at full
// register width and with live-register compaction (docs/simulator.md).
#include <algorithm>
#include <chrono>

#include "bench_util.h"
#include "compiler/algorithms.h"
#include "compiler/compiler.h"
#include "microarch/assembler.h"
#include "microarch/executor.h"

namespace {

using namespace qs;
using Clock = std::chrono::steady_clock;

compiler::Program make_workload(std::size_t qubits, std::size_t layers) {
  compiler::Program p("w" + std::to_string(layers), qubits);
  auto& k = p.add_kernel("main");
  for (std::size_t l = 0; l < layers; ++l) {
    for (QubitIndex q = 0; q < qubits; ++q) k.x90(q);
    for (QubitIndex q = 0; q + 1 < qubits; q += 2) k.cz(q, q + 1);
  }
  k.measure_all();
  return p;
}

compiler::Program pooled_family(int family) {
  // The noisy-s17 benchmark's four families at their Surface-17 sizes.
  namespace alg = compiler::algorithms;
  if (family == 1) return alg::bernstein_vazirani(6, 0b101101);
  if (family == 2) return alg::deutsch_jozsa(5, false, 0b10110);
  const std::size_t n = family == 0 ? 8 : 5;
  compiler::Program p(family == 0 ? "ghz" : "qft", n);
  auto& k = p.add_kernel("main");
  if (family == 0) {
    k.ghz(n);
  } else {
    std::vector<QubitIndex> line;
    for (QubitIndex q = 0; q < n; ++q) line.push_back(q);
    k.x(0).x(2).qft(line);
  }
  k.measure_all();
  return p;
}

/// Median milliseconds per shot over `reps` timed repetitions of fn(),
/// each running `shots` shots.
template <typename Fn>
double median_ms_per_shot(int reps, std::size_t shots, Fn fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0)
                     .count() /
                 static_cast<double>(shots));
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

/// Noisy trajectory shots on Surface-17 through the eQASM executor.
/// Executor::run() always simulates the whole register — the executor
/// path before live-register compaction — while run_shots() declares the
/// program's live qubits once. Same seed, same shots: the histograms must
/// be byte-identical.
void compaction_table() {
  using namespace qs::bench;
  const compiler::Platform platform = compiler::Platform::superconducting17();
  std::printf(
      "\nlive-register compaction: %s, realistic noise, median of 5\n",
      platform.name.c_str());
  Table table({8, 6, 16, 16, 10, 10});
  table.header({"family", "live", "full ms/shot", "compact ms/shot",
                "speed-up", "identical"});
  const char* const names[] = {"GHZ8", "BV7", "DJ6", "QFT5"};
  constexpr std::size_t kFullShots = 4;
  constexpr std::size_t kCompactShots = 400;
  constexpr std::uint64_t kSeed = 17;
  compiler::Compiler compiler(platform);
  microarch::Assembler assembler(platform);
  for (int family = 0; family < 4; ++family) {
    const microarch::EqProgram eq = assembler.assemble(
        compiler.compile(pooled_family(family)).program);

    Histogram full;
    const double full_ms = median_ms_per_shot(5, kFullShots, [&] {
      microarch::Executor executor(platform, kSeed);
      full = Histogram{};
      for (std::size_t s = 0; s < kFullShots; ++s) {
        const std::vector<int> bits = executor.run(eq).bits;
        std::string key(bits.size(), '0');
        for (std::size_t i = 0; i < bits.size(); ++i)
          if (bits[i]) key[i] = '1';
        full.add(key);
      }
    });
    std::size_t live = 0;
    const double compact_ms = median_ms_per_shot(5, kCompactShots, [&] {
      microarch::Executor executor(platform, kSeed);
      executor.run_shots(eq, kCompactShots);
      live = executor.backend().simulated_qubit_count();
    });
    microarch::Executor executor(platform, kSeed);
    const bool identical =
        executor.run_shots(eq, kFullShots).counts() == full.counts();
    table.row({names[family], fmt_int(live), fmt(full_ms, 3),
               fmt(compact_ms, 4), fmt(full_ms / compact_ms, 0) + "x",
               identical ? "yes" : "NO"});
  }
}

}  // namespace

int main() {
  using namespace qs::bench;

  banner("E8", "Micro-architecture timing and queue pressure",
         "nanosecond-precise issue; pre-interval timing; queue behaviour");

  for (const bool spin : {false, true}) {
    compiler::Platform platform =
        spin ? compiler::Platform::semiconducting_spin(8)
             : compiler::Platform::superconducting17();
    platform.qubit_model = sim::QubitModel::perfect();
    const std::size_t qubits = spin ? 8 : 8;
    std::printf("\nplatform: %s (cycle %zu ns, 1q %zu ns, 2q %zu ns)\n",
                platform.name.c_str(),
                static_cast<std::size_t>(platform.cycle_time_ns),
                static_cast<std::size_t>(platform.durations.single_qubit),
                static_cast<std::size_t>(platform.durations.two_qubit));

    Table table({8, 12, 10, 10, 10, 14, 12});
    table.header({"layers", "class.instr", "bundles", "qops", "pulses",
                  "quantum ns", "delayed"});

    compiler::Compiler compiler(platform);
    for (std::size_t layers : {1u, 4u, 16u, 64u}) {
      const compiler::Program program = make_workload(qubits, layers);
      const compiler::CompileResult compiled = compiler.compile(program);
      microarch::Assembler assembler(platform);
      const microarch::EqProgram eq = assembler.assemble(compiled.program);
      microarch::Executor executor(platform, 3);
      const microarch::ExecutionResult r = executor.run(eq);
      table.row({fmt_int(layers), fmt_int(r.stats.classical_instructions),
                 fmt_int(r.stats.bundles_issued), fmt_int(r.stats.qops_issued),
                 fmt_int(r.stats.pulses_emitted),
                 fmt_int(r.stats.quantum_time_ns),
                 fmt_int(r.stats.pulses_delayed)});
    }
  }

  std::printf(
      "\nshape check: pulses/bundles grow linearly with layers; the quantum\n"
      "timeline scales with layer count x cycle time; the semiconducting\n"
      "platform runs the SAME eQASM micro-architecture ~5x slower purely\n"
      "from its configuration file (Section 3.1's retargeting claim).\n");

  compaction_table();
  std::printf(
      "\nshape check: a shot costs O(2^live), not O(2^17); the histograms\n"
      "match the full-register run byte for byte.\n");
  return 0;
}
