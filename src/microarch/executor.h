// Cycle-level executor of eQASM on the micro-architecture of Figures 5-6:
// a classical pipeline (registers, flags, branches) interleaved with
// quantum timing control. Quantum bundles are expanded by the micro-code
// unit into channel pulses sent to the ADI at nanosecond-precise
// timestamps, while the semantic payload is applied to the QX simulator
// back-end. Measurement results flow back through the MSMT register file
// (FMR) enabling the hybrid feedback loop of Section 3.3.
#pragma once

#include <memory>

#include "common/stats.h"
#include "compiler/platform.h"
#include "microarch/adi.h"
#include "microarch/eqasm.h"
#include "microarch/microcode.h"
#include "sim/simulator.h"

namespace qs::microarch {

struct ExecutionStats {
  std::size_t classical_instructions = 0;  ///< classical ops retired
  std::size_t bundles_issued = 0;
  std::size_t qops_issued = 0;
  std::size_t pulses_emitted = 0;
  std::size_t pulses_delayed = 0;          ///< channel-queue pressure
  NanoSec quantum_time_ns = 0;             ///< end of last pulse
  NanoSec classical_time_ns = 0;           ///< classical pipeline time
  std::size_t measurements = 0;
};

struct ExecutionResult {
  std::vector<int> bits;  ///< MSMT measurement register file at STOP
  ExecutionStats stats;
};

class Executor {
 public:
  /// Builds the micro-architecture for a platform: microcode table from the
  /// platform config, ADI channel banks, and a QX back-end with the
  /// platform's qubit model. `sim_options` configures the back-end's
  /// kernel layer (fused gates, intra-shot threading).
  explicit Executor(const compiler::Platform& platform,
                    std::uint64_t seed = 1,
                    sim::SimOptions sim_options = sim::SimOptions{});

  /// Executes the program from the entry point until STOP (or the
  /// instruction budget is exhausted — guards against infinite loops).
  ExecutionResult run(const EqProgram& program);

  /// Multi-shot execution; returns the histogram over MSMT bitstrings
  /// (q[0] leftmost), resetting the quantum state between shots. The
  /// back-end simulates only the qubits the program's SMIS/SMIT masks
  /// name (sim::Simulator::declare_live_qubits); keys still span the
  /// whole register.
  Histogram run_shots(const EqProgram& program, std::size_t shots);

  const AnalogDigitalInterface& adi() const { return adi_; }
  const MicrocodeTable& microcode() const { return microcode_; }
  sim::Simulator& backend() { return sim_; }

  /// Instruction budget per run() (default 50M).
  void set_instruction_budget(std::size_t budget) { budget_ = budget; }

 private:
  compiler::Platform platform_;  // owned copy: executor outlives caller scopes
  MicrocodeTable microcode_;
  AnalogDigitalInterface adi_;
  sim::Simulator sim_;
  std::size_t budget_ = 50'000'000;
};

}  // namespace qs::microarch
