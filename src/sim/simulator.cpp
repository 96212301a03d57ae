#include "sim/simulator.h"

#include <cstdlib>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "common/logging.h"

#include "sim/gates.h"

namespace qs::sim {

namespace {
const cplx kImag(0.0, 1.0);
constexpr QubitIndex kDead = ~QubitIndex{0};

/// True for instructions whose semantics span the whole register.
bool names_every_qubit(const qasm::Instruction& instr) {
  using qasm::GateKind;
  return instr.kind() == GateKind::MeasureAll ||
         instr.kind() == GateKind::Display ||
         (instr.kind() == GateKind::Wait && instr.qubits().empty());
}

}  // namespace

StateIndex live_qubit_mask(const std::vector<qasm::Instruction>& flat,
                           std::size_t width) {
  const StateIndex all = ~StateIndex{0};
  StateIndex live = 0;
  for (const qasm::Instruction& instr : flat) {
    if (instr.kind() == qasm::GateKind::Barrier) continue;
    if (names_every_qubit(instr)) return all;
    for (QubitIndex q : instr.qubits()) {
      if (q >= width) return all;
      live |= StateIndex{1} << q;
    }
  }
  return live;
}

NanoSec GateDurations::of(const qasm::Instruction& instr) const {
  using qasm::GateKind;
  switch (instr.kind()) {
    case GateKind::Measure:
    case GateKind::MeasureAll:
      return measure;
    case GateKind::PrepZ:
      return prep;
    case GateKind::Wait:
      return cycle * static_cast<NanoSec>(instr.param_k() > 0
                                              ? instr.param_k()
                                              : 1);
    case GateKind::Display:
    case GateKind::Barrier:
      return 0;
    default:
      return qasm::gate_arity(instr.kind()) >= 2 ? two_qubit : single_qubit;
  }
}

std::size_t resolve_sim_threads(std::size_t requested) {
  std::size_t t = requested;
  if (t == 0) {
    if (const char* env = std::getenv("QS_SIM_THREADS")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) t = static_cast<std::size_t>(parsed);
    }
  }
  if (t == 0) t = 1;
  return t > 64 ? 64 : t;
}

Simulator::Simulator(std::size_t qubit_count, QubitModel model,
                     std::uint64_t seed, GateDurations durations,
                     SimOptions options)
    : width_(qubit_count),
      model_(model),
      errors_(make_error_model(model)),
      durations_(durations),
      seed_(seed),
      rng_(seed),
      bits_(qubit_count, 0),
      options_(options) {
  options_.threads = resolve_sim_threads(options.threads);
  StateVector::check_size(width_, options_.precision,
                          options_.max_state_bytes);
  if (options_.threads > 1)
    pool_ = std::make_unique<ThreadPool>(options_.threads);
}

void Simulator::allocate(std::size_t qubits) const {
  state_.emplace(qubits, options_.precision, options_.max_state_bytes,
                 options_.simd);
  state_->set_kernel_policy({pool_.get(), options_.min_parallel_qubits});
}

StateVector& Simulator::current_state() const {
  if (!state_) allocate(width_);
  return *state_;
}

StateVector& Simulator::full_state() const {
  if (live_.empty()) return current_state();
  const StateVector compact = std::move(*state_);
  allocate(width_);
  for (StateIndex c = 0; c < compact.dimension(); ++c) {
    StateIndex basis = 0;
    for (std::size_t b = 0; b < live_.size(); ++b)
      if ((c >> b) & 1) basis |= StateIndex{1} << live_[b];
    state_->set_amplitude(basis, compact.amplitude(c));
  }
  live_.clear();
  compact_.clear();
  return *state_;
}

void Simulator::reset() {
  current_state().reset();
  std::fill(bits_.begin(), bits_.end(), 0);
}

void Simulator::declare_live_qubits(StateIndex live) {
  const StateIndex all = (StateIndex{1} << width_) - 1;  // width_ < 58
  const bool exact = width_ <= StateVector::kReduceChunkBits ||
                     (live >> StateVector::kReduceChunkBits) == 0;
  live_.clear();
  compact_.clear();
  if (exact && (live & ~all) == 0 && live != all) {
    // A program naming no qubit still needs a one-qubit state.
    if (live == 0) live = 1;
    compact_.assign(width_, kDead);
    for (QubitIndex q = 0; q < width_; ++q) {
      if (((live >> q) & 1) == 0) continue;
      compact_[q] = static_cast<QubitIndex>(live_.size());
      live_.push_back(q);
    }
  }
  const std::size_t qubits = live_.empty() ? width_ : live_.size();
  if (!state_ || state_->qubit_count() != qubits) allocate(qubits);
  reset();
}

const std::vector<QubitIndex>& Simulator::operands(
    const qasm::Instruction& instr) {
  if (live_.empty() || names_every_qubit(instr)) {
    full_state();
    return instr.qubits();
  }
  operand_scratch_.clear();
  for (QubitIndex q : instr.qubits()) {
    if (q >= width_ || compact_[q] == kDead) {
      full_state();
      return instr.qubits();
    }
    operand_scratch_.push_back(compact_[q]);
  }
  return operand_scratch_;
}

bool Simulator::apply_fused(const qasm::Instruction& instr,
                            const std::vector<QubitIndex>& q) {
  using qasm::GateKind;
  StateVector& state = *state_;
  // Phase constants mirror gates.cpp expression-for-expression so the
  // fused path produces the same doubles as the generic matrix path.
  switch (instr.kind()) {
    case GateKind::X:
      state.apply_x(q[0]);
      return true;
    case GateKind::Y:
      state.apply_y(q[0]);
      return true;
    case GateKind::Z:
      state.apply_z(q[0]);
      return true;
    case GateKind::S:
      state.apply_phase(q[0], kImag);
      return true;
    case GateKind::Sdag:
      state.apply_phase(q[0], -kImag);
      return true;
    case GateKind::T:
      state.apply_phase(q[0], std::exp(kImag * (kPi / 4.0)));
      return true;
    case GateKind::Tdag:
      state.apply_phase(q[0], std::conj(std::exp(kImag * (kPi / 4.0))));
      return true;
    case GateKind::Rz:
      state.apply_diag(q[0], std::exp(-kImag * (instr.angle() / 2.0)),
                        std::exp(kImag * (instr.angle() / 2.0)));
      return true;
    case GateKind::CNOT:
      state.apply_cnot(q[0], q[1]);
      return true;
    case GateKind::CZ:
      state.apply_cphase(q[0], q[1], cplx(-1.0, 0.0));
      return true;
    case GateKind::Swap:
      state.apply_swap(q[0], q[1]);
      return true;
    case GateKind::CR:
      state.apply_cphase(q[0], q[1], std::exp(kImag * instr.angle()));
      return true;
    case GateKind::CRK: {
      if (instr.param_k() < 0) return false;  // generic path raises the error
      const double phi =
          2.0 * kPi / static_cast<double>(1LL << instr.param_k());
      state.apply_cphase(q[0], q[1], std::exp(kImag * phi));
      return true;
    }
    case GateKind::RZZ:
      state.apply_zz_phase(q[0], q[1],
                            std::exp(-kImag * (instr.angle() / 2.0)),
                            std::exp(kImag * (instr.angle() / 2.0)));
      return true;
    default:
      return false;
  }
}

void Simulator::apply_unitary(const qasm::Instruction& instr,
                              const std::vector<QubitIndex>& q) {
  using qasm::GateKind;
  StateVector& state = *state_;
  if (!options_.fused_kernels || !apply_fused(instr, q)) {
    switch (instr.kind()) {
      case GateKind::CNOT:
        state.apply_controlled_1q(pauli_x(), {q[0]}, q[1]);
        break;
      case GateKind::CZ:
        state.apply_controlled_1q(pauli_z(), {q[0]}, q[1]);
        break;
      case GateKind::Swap:
        state.apply_2q(gate_matrix_2q(GateKind::Swap), q[0], q[1]);
        break;
      case GateKind::Toffoli:
        state.apply_controlled_1q(pauli_x(), {q[0], q[1]}, q[2]);
        break;
      case GateKind::CR:
      case GateKind::CRK:
      case GateKind::RZZ:
        state.apply_2q(
            gate_matrix_2q(instr.kind(), instr.angle(), instr.param_k()),
            q[0], q[1]);
        break;
      default:
        state.apply_1q(gate_matrix_1q(instr.kind(), instr.angle()), q[0]);
        break;
    }
  }
  ++gates_executed_;
  errors_->after_gate(state, q, durations_.of(instr), rng_);
}

bool Simulator::execute(const qasm::Instruction& instr) {
  using qasm::GateKind;
  // Binary-controlled gate: all condition bits must currently read 1.
  for (BitIndex b : instr.conditions()) {
    if (b >= bits_.size())
      throw std::out_of_range("Simulator: condition bit out of range");
    if (bits_[b] != 1) return false;
  }
  if (instr.kind() == GateKind::Barrier) return true;  // no semantics

  // `q` indexes the state (compact when a live set is declared); bits_
  // stays indexed by the instruction's own (register) qubits.
  const std::vector<QubitIndex>& q = operands(instr);
  StateVector& state = *state_;
  switch (instr.kind()) {
    case GateKind::PrepZ:
      state.prep_z(q[0], rng_);
      bits_[instr.qubits()[0]] = 0;
      return true;
    case GateKind::Measure: {
      const int raw = state.measure(q[0], rng_);
      bits_[instr.qubits()[0]] = errors_->corrupt_readout(raw, rng_);
      return true;
    }
    case GateKind::MeasureAll: {
      for (QubitIndex i = 0; i < state.qubit_count(); ++i) {
        const int raw = state.measure(i, rng_);
        bits_[i] = errors_->corrupt_readout(raw, rng_);
      }
      return true;
    }
    case GateKind::Display: {
      // cQASM `display`: dump the non-negligible amplitudes (debug aid,
      // emitted through the logging sink at Info level).
      std::ostringstream os;
      os << "state dump:";
      std::size_t shown = 0;
      for (StateIndex i = 0; i < state.dimension() && shown < 16; ++i) {
        const cplx a = state.amplitude(i);
        if (std::norm(a) < 1e-12) continue;
        os << " |" << state.basis_string(i) << "> " << a.real();
        if (a.imag() >= 0) os << "+";
        os << a.imag() << "i;";
        ++shown;
      }
      QS_LOG(LogLevel::Info, "qx", os.str());
      return true;
    }
    case GateKind::Wait: {
      // A bare `wait n` (no qubit operands — legal cQASM) idles the whole
      // register; listing qubits restricts the idle to those.
      if (q.empty()) {
        std::vector<QubitIndex> all(state.qubit_count());
        std::iota(all.begin(), all.end(), QubitIndex{0});
        errors_->idle(state, all, durations_.of(instr), rng_);
      } else {
        errors_->idle(state, q, durations_.of(instr), rng_);
      }
      return true;
    }
    default:
      apply_unitary(instr, q);
      return true;
  }
}

std::vector<int> Simulator::run_once(const qasm::Program& program) {
  program.validate();
  if (program.qubit_count() > width_)
    throw std::invalid_argument(
        "Simulator: program needs more qubits than the simulator has");
  const std::vector<qasm::Instruction> flat = program.flatten();
  full_state();
  // Same guard as run(): per-gate error hooks count physical gates, so
  // fusion is only exact on noiseless models.
  if (options_.fuse_sequences && !stochastic_model(model_)) {
    const FusedProgram fused = fuse_sequences(flat, flat.size());
    for (const FusedOp& op : fused.ops) execute_fused_op(op);
  } else {
    for (const auto& instr : flat) execute(instr);
  }
  return bits_;
}

RunResult Simulator::run(const qasm::Program& program, std::size_t shots) {
  program.validate();
  if (program.qubit_count() > width_)
    throw std::invalid_argument(
        "Simulator: program needs more qubits than the simulator has");
  // Flatten and analyze once: both the instruction stream and the
  // shot-determinism verdict are per-program facts, not per-shot ones.
  const std::vector<qasm::Instruction> flat = program.flatten();
  const TrajectoryAnalysis analysis =
      analyze_trajectory(flat, width_, model_);
  // Fusion is only exact when no per-gate error hooks fire (they count
  // physical gates, not fused blocks).
  if (options_.fuse_sequences && !stochastic_model(model_)) {
    const FusedProgram fused = fuse_sequences(flat, analysis.terminal_start);
    return run_flat(flat, analysis, shots, &fused);
  }
  return run_flat(flat, analysis, shots);
}

void Simulator::execute_fused_op(const FusedOp& op) {
  if (!op.is_block && !op.is_diag_window) {
    execute(op.instr);
    return;
  }
  // Fused ops address register qubits: they run on the full register.
  StateVector& state = full_state();
  if (op.is_diag_window) {
    state.apply_diag_window(op.dw_shift, op.dw_width, op.dw_table.data());
  } else if (op.arity == 2) {
    state.apply_2q(op.u, op.q1, op.q0);
  } else {
    state.apply_1q(op.u, op.q0);
  }
  // Gate accounting stays logical: a block counts the gates it replaced,
  // so gates_executed()/total_gates are fusion-invariant.
  gates_executed_ += op.gate_count;
}

RunResult Simulator::run_flat(const std::vector<qasm::Instruction>& flat,
                              const TrajectoryAnalysis& analysis,
                              std::size_t shots, const FusedProgram* fused) {
  RunResult result;
  result.shots = shots;
  if (fused != nullptr) result.fusion = fused->stats;
  if (options_.sampling && analysis.samplable) {
    // Shot-deterministic circuit: evolve once, sample every shot from the
    // final distribution. One counter-derived draw per shot keeps the
    // histogram byte-identical to any other sampler of the same
    // (seed, shots) pair — whatever the thread count or shard layout.
    const FinalDistribution dist = final_distribution(flat, analysis, fused);
    result.total_gates = dist.gates;
    result.histogram = sample_histogram(dist, shots, seed_, options_.cancel);
    result.sampled = true;
    return result;
  }
  // Trajectories over the raw stream simulate only the qubits it names;
  // fused ops address the whole register.
  declare_live_qubits(fused != nullptr ? ~StateIndex{0}
                                       : live_qubit_mask(flat, width_));
  const std::size_t gates_before = gates_executed_;
  std::string key(bits_.size(), '0');
  for (std::size_t s = 0; s < shots; ++s) {
    throw_if_stopped(options_.cancel);
    reset();
    if (fused != nullptr) {
      for (const FusedOp& op : fused->ops) execute_fused_op(op);
    } else {
      for (const auto& instr : flat) execute(instr);
    }
    for (std::size_t i = 0; i < bits_.size(); ++i)
      key[i] = bits_[i] ? '1' : '0';
    result.histogram.add(key);
  }
  result.total_gates = gates_executed_ - gates_before;
  return result;
}

FinalDistribution Simulator::final_distribution(
    const std::vector<qasm::Instruction>& flat,
    const TrajectoryAnalysis& analysis, const FusedProgram* fused) {
  if (!analysis.samplable)
    throw std::logic_error(
        "Simulator::final_distribution: trajectory is not samplable");
  throw_if_stopped(options_.cancel);
  const std::size_t gates_before = gates_executed_;
  declare_live_qubits(~StateIndex{0});  // the sampled route stays full width
  if (fused != nullptr) {
    for (std::size_t i = 0; i < fused->prefix_ops; ++i)
      execute_fused_op(fused->ops[i]);
  } else {
    for (std::size_t i = 0; i < analysis.terminal_start; ++i)
      execute(flat[i]);
  }
  FinalDistribution dist;
  dist.qubit_count = width_;
  dist.measured_mask = analysis.measured_mask;
  dist.gates = gates_executed_ - gates_before;
  // Measurement-free circuits never consult the amplitudes; skip the
  // prefix-sum pass entirely.
  if (analysis.measured_mask != 0)
    dist.cum = state_->cumulative_distribution(options_.cancel);
  return dist;
}

}  // namespace qs::sim
