#include "microarch/executor.h"

#include <array>
#include <stdexcept>

namespace qs::microarch {

namespace {

/// The qubits an eQASM program can address: the union of every SMIS and
/// SMIT mask (bundles reach qubits only through mask registers).
StateIndex mask_register_qubits(const EqProgram& program,
                                std::size_t width) {
  StateIndex live = 0;
  auto add = [&](QubitIndex q) {
    // Out-of-register operands keep the full register, so execution
    // raises its usual error.
    live |= q < width ? StateIndex{1} << q : ~StateIndex{0};
  };
  for (const EqInstruction& i : program.instructions()) {
    if (i.op == EqOpcode::SMIS) {
      for (QubitIndex q : i.mask_qubits) add(q);
    } else if (i.op == EqOpcode::SMIT) {
      for (const auto& [a, b] : i.mask_pairs) {
        add(a);
        add(b);
      }
    }
  }
  return live;
}

}  // namespace

Executor::Executor(const compiler::Platform& platform, std::uint64_t seed,
                   sim::SimOptions sim_options)
    : platform_(platform),
      microcode_(MicrocodeTable::for_platform(platform)),
      adi_(platform.qubit_count),
      sim_(platform.qubit_count, platform.qubit_model, seed,
           platform.durations, sim_options) {}

ExecutionResult Executor::run(const EqProgram& program) {
  ExecutionResult result;
  ExecutionStats& st = result.stats;

  std::array<std::int64_t, kNumGpRegisters> regs{};
  int flag_cmp = 0;  // -1: rs<rt, 0: equal, +1: rs>rt
  std::array<std::vector<QubitIndex>, kNumSingleMaskRegisters> smask{};
  std::array<std::vector<std::pair<QubitIndex, QubitIndex>>,
             kNumPairMaskRegisters>
      tmask{};

  sim_.reset();
  adi_.clear();

  NanoSec qtime = 0;  // quantum timing-control timeline
  std::size_t pc = 0;
  std::size_t executed = 0;
  const auto& ins = program.instructions();

  while (pc < ins.size()) {
    if (++executed > budget_)
      throw std::runtime_error(
          "Executor: instruction budget exhausted (possible infinite loop)");
    const EqInstruction& i = ins[pc];
    ++st.classical_instructions;
    st.classical_time_ns += platform_.cycle_time_ns;
    bool branched = false;

    switch (i.op) {
      case EqOpcode::LDI:
        regs.at(static_cast<std::size_t>(i.rd)) = i.imm;
        break;
      case EqOpcode::ADD:
        regs.at(static_cast<std::size_t>(i.rd)) =
            regs.at(static_cast<std::size_t>(i.rs)) +
            regs.at(static_cast<std::size_t>(i.rt));
        break;
      case EqOpcode::SUB:
        regs.at(static_cast<std::size_t>(i.rd)) =
            regs.at(static_cast<std::size_t>(i.rs)) -
            regs.at(static_cast<std::size_t>(i.rt));
        break;
      case EqOpcode::CMP: {
        const std::int64_t a = regs.at(static_cast<std::size_t>(i.rs));
        const std::int64_t b = regs.at(static_cast<std::size_t>(i.rt));
        flag_cmp = a < b ? -1 : (a == b ? 0 : 1);
        break;
      }
      case EqOpcode::BR: {
        bool take = false;
        switch (i.cond) {
          case BranchCond::Always: take = true; break;
          case BranchCond::EQ: take = flag_cmp == 0; break;
          case BranchCond::NE: take = flag_cmp != 0; break;
          case BranchCond::LT: take = flag_cmp < 0; break;
          case BranchCond::GE: take = flag_cmp >= 0; break;
          case BranchCond::GT: take = flag_cmp > 0; break;
          case BranchCond::LE: take = flag_cmp <= 0; break;
        }
        if (take) {
          pc = program.label_target(i.label);
          branched = true;
        }
        break;
      }
      case EqOpcode::FMR: {
        const std::size_t q = static_cast<std::size_t>(i.imm);
        if (q >= sim_.bits().size())
          throw std::out_of_range("Executor: FMR qubit out of range");
        regs.at(static_cast<std::size_t>(i.rd)) = sim_.bits()[q];
        break;
      }
      case EqOpcode::SMIS:
        smask.at(static_cast<std::size_t>(i.rd)) = i.mask_qubits;
        break;
      case EqOpcode::SMIT:
        tmask.at(static_cast<std::size_t>(i.rd)) = i.mask_pairs;
        break;
      case EqOpcode::QWAIT:
        qtime += static_cast<NanoSec>(i.imm) * platform_.cycle_time_ns;
        break;
      case EqOpcode::QWAITR:
        qtime += static_cast<NanoSec>(
                     regs.at(static_cast<std::size_t>(i.rs))) *
                 platform_.cycle_time_ns;
        break;
      case EqOpcode::BUNDLE: {
        qtime += static_cast<NanoSec>(i.pre_interval) *
                 platform_.cycle_time_ns;
        ++st.bundles_issued;
        NanoSec bundle_end = qtime;
        for (const QOp& qop : i.qops) {
          ++st.qops_issued;
          const MicrocodeEntry& mc = microcode_.entry(qop.name);
          // The committed mask registers define the addressed qubits —
          // both for pulse generation and for the semantic payload (this
          // is what makes parsed eQASM text fully executable).
          std::vector<QubitIndex> addressed;
          const auto& pairs =
              tmask.at(static_cast<std::size_t>(qop.mask_reg));
          if (qop.two_qubit) {
            for (const auto& [a, b] : pairs) {
              addressed.push_back(a);
              addressed.push_back(b);
            }
          } else {
            addressed = smask.at(static_cast<std::size_t>(qop.mask_reg));
          }
          for (QubitIndex q : addressed) {
            for (const MicroOperation& mo : mc.ops) {
              const NanoSec start = adi_.emit(q, mo.channel, mo.codeword,
                                              qtime, mo.duration_ns,
                                              qop.name);
              bundle_end = std::max(bundle_end, start + mo.duration_ns);
              ++st.pulses_emitted;
            }
          }
          // Apply semantics on the QX back-end.
          using qasm::GateKind;
          if (qop.kind == GateKind::Measure ||
              qop.kind == GateKind::MeasureAll) {
            for (QubitIndex q : addressed) {
              sim_.execute(qasm::Instruction(GateKind::Measure, {q}));
              ++st.measurements;
            }
          } else if (qop.kind == GateKind::PrepZ) {
            for (QubitIndex q : addressed)
              sim_.execute(qasm::Instruction(GateKind::PrepZ, {q}));
          } else if (qop.two_qubit) {
            for (const auto& [a, b] : pairs)
              sim_.execute(
                  qasm::Instruction(qop.kind, {a, b}, qop.angle,
                                    qop.param_k));
          } else {
            for (QubitIndex q : addressed)
              sim_.execute(
                  qasm::Instruction(qop.kind, {q}, qop.angle, qop.param_k));
          }
        }
        break;
      }
      case EqOpcode::STOP:
        result.bits = sim_.bits();
        st.quantum_time_ns = adi_.horizon();
        st.pulses_delayed = adi_.delayed_pulses();
        return result;
    }
    if (!branched) ++pc;
  }
  throw std::runtime_error("Executor: program ran past end without STOP");
}

Histogram Executor::run_shots(const EqProgram& program, std::size_t shots) {
  // Every shot simulates only the qubits the mask registers can name.
  sim_.declare_live_qubits(
      mask_register_qubits(program, platform_.qubit_count));
  Histogram hist;
  for (std::size_t s = 0; s < shots; ++s) {
    throw_if_stopped(sim_.options().cancel);
    const ExecutionResult r = run(program);
    std::string key(r.bits.size(), '0');
    for (std::size_t i = 0; i < r.bits.size(); ++i)
      key[i] = r.bits[i] ? '1' : '0';
    hist.add(key);
  }
  return hist;
}

}  // namespace qs::microarch
