// The QX-like simulator front-end (paper Section 2.7): executes a cQASM
// program on the state-vector engine, injecting errors per the configured
// qubit model, handling measurement, binary-controlled gates and waits.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "qasm/program.h"
#include "sim/error_model.h"
#include "sim/fusion.h"
#include "sim/statevector.h"
#include "sim/trajectory_analysis.h"

namespace qs::sim {

/// Wall-clock duration of each operation class in nanoseconds; used both by
/// the decoherence model and the micro-architecture timing domain. Defaults
/// follow typical transmon numbers (paper Section 3.1 context).
struct GateDurations {
  NanoSec single_qubit = 20;
  NanoSec two_qubit = 40;
  NanoSec measure = 300;
  NanoSec prep = 200;
  NanoSec cycle = 20;  ///< duration of one schedule cycle / wait unit

  NanoSec of(const qasm::Instruction& instr) const;
};

/// Kernel-execution knobs. Results are bit-identical for a fixed seed
/// whatever the thread count (see docs/simulator.md for the contract);
/// fused kernels are numerically equivalent to the generic matrix path.
struct SimOptions {
  /// Kernel threads for the state-vector hot loops. 0 resolves through the
  /// QS_SIM_THREADS environment variable, defaulting to 1 (sequential).
  std::size_t threads = 0;

  /// Specialized fast-path kernels for X/Y/Z/S/T/phase/RZ/CNOT/CZ/SWAP/RZZ
  /// (diagonals and permutations skip the generic 2x2/4x4 multiply).
  bool fused_kernels = true;

  /// States below this qubit count always run kernels sequentially; the
  /// fork-join overhead dominates the arithmetic there.
  std::size_t min_parallel_qubits = 14;

  /// Cooperative stop: multi-shot loops (Simulator::run, Executor::
  /// run_shots) check between shots and throw qs::CancelledError when a
  /// cancel is requested or the attached deadline expires. The default
  /// token never fires. Checking at shot granularity keeps a cancelled or
  /// expired job from occupying a worker for more than one trajectory.
  /// The sampling fast path checks every 4096 draws and between
  /// distribution-build chunks — the same order of granularity.
  CancelToken cancel;

  /// Amplitude storage precision. f64 is the reference tier; f32 halves
  /// the state footprint (one extra qubit per byte budget) and roughly
  /// doubles SIMD lane width, at ~1e-7 per-gate rounding. Each tier is
  /// internally byte-identical; tiers differ from each other.
  Precision precision = Precision::kF64;

  /// Byte budget for the amplitude arrays (replaces the old hard 28-qubit
  /// cap). The default admits 28 qubits at f64 and 29 at f32 exactly.
  std::size_t max_state_bytes = StateVector::kDefaultMaxStateBytes;

  /// Kernel backend selection. kAuto picks AVX2 when compiled in and the
  /// CPU supports it (QS_SIMD=off in the environment overrides to
  /// scalar); kOff forces the scalar backend. f64 results are
  /// byte-identical either way; the switch exists for benchmarking and
  /// as an escape hatch.
  SimdMode simd = SimdMode::kAuto;

  /// Compile-time gate-sequence fusion (sim/fusion.h): Simulator::run
  /// fuses adjacent <= 2-qubit unitary runs into single matrices when the
  /// qubit model is stochastic-error-free. Callers holding a cached
  /// FusedProgram pass it to run_flat directly; this knob only controls
  /// the convenience path that builds one on the fly.
  bool fuse_sequences = true;

  /// Terminal-measurement sampling fast path: shot-deterministic circuits
  /// (see analyze_trajectory) evolve once and draw all shots from the
  /// final distribution. Off forces the per-shot trajectory loop — same
  /// statistics, different (per-trajectory) RNG stream, so fixed-seed
  /// histograms differ between the two paths by design. A QuantumService
  /// reads its primary gate backend's setting to elect each job's path.
  bool sampling = true;
};

/// Resolves a requested kernel-thread count: `requested` if non-zero, else
/// the QS_SIM_THREADS environment variable, else 1. Clamped to [1, 64].
std::size_t resolve_sim_threads(std::size_t requested);

/// Result of a multi-shot run.
struct RunResult {
  Histogram histogram;          ///< full-register bitstrings, q[0] leftmost
  std::size_t shots = 0;
  std::size_t total_gates = 0;  ///< unitary gates executed across all shots
  bool sampled = false;         ///< took the sampling fast path
  FusionStats fusion;           ///< gate-fusion stats (zero when unfused)
};

/// Mask of the qubits a flattened stream names (bit q = qubit q): the
/// operands of every instruction except barriers. `measure_all`, `display`
/// and a bare `wait` name every qubit of the `width`-qubit register, and
/// so does an operand outside it (the run then raises its usual error).
StateIndex live_qubit_mask(const std::vector<qasm::Instruction>& flat,
                           std::size_t width);

/// Live-register compaction (docs/simulator.md): a simulator whose live
/// set was declared holds a state over only those qubits, renumbered in
/// increasing physical order. Dead qubits are exact |0> factors that no
/// instruction touches and no RNG draw concerns, and the kernels act
/// elementwise in basis order, so every amplitude, reduction and draw is
/// the one a full-width run produces. bits(), histogram keys and state()
/// always span the whole register.
class Simulator {
 public:
  /// Creates a simulator over `qubit_count` qubits with the given qubit
  /// quality model, RNG seed and kernel options. Throws when the full
  /// register would exceed the state budget; the state itself is
  /// allocated on first use, at the width the first run needs.
  explicit Simulator(std::size_t qubit_count,
                     QubitModel model = QubitModel::perfect(),
                     std::uint64_t seed = 1,
                     GateDurations durations = GateDurations{},
                     SimOptions options = SimOptions{});

  /// Register width: bits(), histogram keys and state() span this many.
  std::size_t qubit_count() const { return width_; }

  /// Qubits the state vector currently holds: the register width, or the
  /// live-set size while compacted (0 before the first allocation).
  std::size_t simulated_qubit_count() const {
    return state_ ? state_->qubit_count() : 0;
  }
  const QubitModel& qubit_model() const { return model_; }

  /// Effective kernel options (threads resolved; see resolve_sim_threads).
  const SimOptions& options() const { return options_; }

  /// Resets state and classical bits to all-zero (keeps the current
  /// live set).
  void reset();

  /// Resets, then sizes the state to the qubits in `live` (bit q = qubit
  /// q; see live_qubit_mask). Compaction applies only when it is exact:
  /// the register has at most StateVector::kReduceChunkBits qubits, or no
  /// live qubit lies at or above that index — otherwise a full-width
  /// reduction would sum over several chunks, in a different order from
  /// the compact single-chunk sum. Any other mask selects the full
  /// register. Instructions naming a dead qubit later still run exactly:
  /// the state first widens to the full register.
  void declare_live_qubits(StateIndex live);

  /// Executes a single instruction against the live state. Returns false
  /// for a conditional instruction whose condition bits were not all 1.
  bool execute(const qasm::Instruction& instr);

  /// Executes the full (flattened) program once; returns the classical bit
  /// register after the final instruction.
  std::vector<int> run_once(const qasm::Program& program);

  /// Runs the program for `shots` shots; collects full-register
  /// bitstrings (q[0] leftmost). Shot-deterministic circuits (terminal
  /// measurements only, no conditionals, stochastic-error-free model —
  /// see analyze_trajectory) evolve ONCE and draw every shot from the
  /// final distribution; everything else runs `shots` independent
  /// trajectories with a reset before each. The program is flattened and
  /// analyzed once, not per shot.
  RunResult run(const qasm::Program& program, std::size_t shots);

  /// As run(), over a pre-flattened, pre-validated, pre-analyzed program
  /// (the service caches all three per compiled entry). The analysis must
  /// have been computed for this simulator's register width and qubit
  /// model. When `fused` is non-null (built by fuse_sequences over this
  /// exact flat stream with boundary = analysis.terminal_start) the fused
  /// ops execute instead of the raw instructions; callers must only pass
  /// it under a stochastic-error-free model.
  RunResult run_flat(const std::vector<qasm::Instruction>& flat,
                     const TrajectoryAnalysis& analysis, std::size_t shots,
                     const FusedProgram* fused = nullptr);

  /// Evolves the shot-deterministic prefix once (from reset) and returns
  /// the reusable final distribution. Requires analysis.samplable.
  /// Observes options().cancel before/during the build. A non-null
  /// `fused` executes ops[0, prefix_ops) instead of the raw prefix.
  FinalDistribution final_distribution(
      const std::vector<qasm::Instruction>& flat,
      const TrajectoryAnalysis& analysis,
      const FusedProgram* fused = nullptr);

  /// Live state access (inspection after run_once; tests and QAOA use it).
  /// Always the full register: a compacted state widens first (the
  /// register's logical state is unchanged, so the const form may too).
  StateVector& state() { return full_state(); }
  const StateVector& state() const { return full_state(); }

  /// Classical measurement-bit register (bit i paired with qubit i).
  const std::vector<int>& bits() const { return bits_; }

  Rng& rng() { return rng_; }

  /// Number of unitary gates applied since construction/reset counter zero.
  std::size_t gates_executed() const { return gates_executed_; }

 private:
  void apply_unitary(const qasm::Instruction& instr,
                     const std::vector<QubitIndex>& q);
  bool apply_fused(const qasm::Instruction& instr,
                   const std::vector<QubitIndex>& q);
  void execute_fused_op(const FusedOp& op);

  /// Replaces the state with |0...0> over `qubits` qubits.
  void allocate(std::size_t qubits) const;
  /// The state at its current width, allocated full-width if absent.
  StateVector& current_state() const;
  /// The state over the whole register; a compacted state is embedded
  /// (amplitude c moves to the index that scatters c's bits onto live_).
  StateVector& full_state() const;
  /// `instr`'s operands as state indices (widening first when it names a
  /// dead qubit or the whole register).
  const std::vector<QubitIndex>& operands(const qasm::Instruction& instr);

  // Mutable: allocation and widening change the representation of the
  // register state, never its value.
  std::size_t width_;
  mutable std::optional<StateVector> state_;
  mutable std::vector<QubitIndex> live_;     ///< compact -> qubit; empty: full
  mutable std::vector<QubitIndex> compact_;  ///< qubit -> compact index
  std::vector<QubitIndex> operand_scratch_;
  QubitModel model_;
  std::unique_ptr<ErrorModel> errors_;
  GateDurations durations_;
  std::uint64_t seed_;  ///< base seed for counter-derived sampling streams
  Rng rng_;
  std::vector<int> bits_;
  std::size_t gates_executed_ = 0;
  SimOptions options_;
  std::unique_ptr<ThreadPool> pool_;  ///< kernel threads (threads > 1 only)
};

}  // namespace qs::sim
