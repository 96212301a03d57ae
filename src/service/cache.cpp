#include "service/cache.h"

#include <utility>

#include "common/codec.h"
#include "common/hash.h"
#include "microarch/eqasm_parser.h"
#include "qasm/parser.h"

namespace qs::service {

store::Codec<CompiledEntry> compiled_entry_codec(
    CompiledProgramCache::ReviveContext ctx) {
  store::Codec<CompiledEntry> codec;

  codec.encode = [](const CompiledEntry& entry) {
    Encoder w;
    w.u64(entry.key);
    w.str(entry.compiled.cqasm);
    w.u8(entry.eqasm ? 1 : 0);
    if (entry.eqasm) w.str(entry.eqasm->to_string());
    w.u64(entry.compiled.gates_before);
    w.u64(entry.compiled.gates_after);
    w.u64(entry.compiled.two_qubit_gates_after);
    return w.take();
  };

  codec.decode =
      [ctx](const std::string& payload) -> std::shared_ptr<const CompiledEntry> {
    Decoder r(payload);
    auto entry = std::make_shared<CompiledEntry>();
    std::uint8_t has_eqasm = 0;
    std::string eqasm_text;
    std::uint64_t gates_before, gates_after, two_qubit;
    if (!r.u64(&entry->key) || !r.str(&entry->compiled.cqasm) ||
        !r.u8(&has_eqasm) || has_eqasm > 1 ||
        (has_eqasm && !r.str(&eqasm_text)) || !r.u64(&gates_before) ||
        !r.u64(&gates_after) || !r.u64(&two_qubit) || !r.finish())
      return nullptr;
    // A payload from a store shared with a micro-arch pool may lack the
    // eQASM this pool needs: reject (→ recompile) rather than serve an
    // entry a failover route cannot execute.
    if (ctx.want_eqasm && !has_eqasm) return nullptr;

    StatusOr<qasm::Program> program =
        qasm::Parser::parse_or_status(entry->compiled.cqasm);
    if (!program.ok()) return nullptr;
    entry->compiled.program = std::move(*program);
    entry->compiled.gates_before = static_cast<std::size_t>(gates_before);
    entry->compiled.gates_after = static_cast<std::size_t>(gates_after);
    entry->compiled.two_qubit_gates_after =
        static_cast<std::size_t>(two_qubit);
    if (has_eqasm) {
      StatusOr<microarch::EqProgram> eq =
          microarch::parse_eqasm_or_status(eqasm_text);
      if (!eq.ok()) return nullptr;
      entry->eqasm =
          std::make_shared<const microarch::EqProgram>(std::move(*eq));
    }
    try {
      entry->compiled.program.validate();
      entry->flat = entry->compiled.program.flatten();
    } catch (const std::exception&) {
      return nullptr;
    }
    entry->analysis =
        sim::analyze_trajectory(entry->flat, ctx.qubit_count, ctx.model);
    fuse_compiled_entry(*entry, ctx.model);
    return entry;
  };

  codec.resident_bytes = [](const CompiledEntry& entry) {
    return compiled_entry_bytes(entry);
  };
  return codec;
}

std::uint64_t compiled_program_key(const std::string& cqasm_text,
                                   std::uint64_t platform_fingerprint,
                                   std::uint64_t options_fingerprint) {
  std::uint64_t h = fnv1a64(cqasm_text);
  h = hash_combine(h, platform_fingerprint);
  h = hash_combine(h, options_fingerprint);
  return h;
}

void fuse_compiled_entry(CompiledEntry& entry, const sim::QubitModel& model) {
  if (sim::stochastic_model(model)) {
    entry.fused = nullptr;
    return;
  }
  entry.fused = std::make_shared<const sim::FusedProgram>(
      sim::fuse_sequences(entry.flat, entry.analysis.terminal_start));
}

std::size_t compiled_entry_bytes(const CompiledEntry& entry) {
  std::size_t n = sizeof(CompiledEntry);
  n += entry.compiled.cqasm.size();
  n += entry.compiled.program.total_instructions() * sizeof(qasm::Instruction);
  n += entry.flat.size() * sizeof(qasm::Instruction);
  if (entry.eqasm)
    n += entry.eqasm->instructions().size() * sizeof(microarch::EqInstruction);
  if (entry.fused) n += entry.fused->bytes();
  return n;
}

CompiledProgramCache::CompiledProgramCache(std::size_t memory_budget_bytes)
    : store_(std::make_shared<store::ArtifactStore>(store::StoreOptions{
          memory_budget_bytes, /*directory=*/""})),
      codec_(compiled_entry_codec(ReviveContext{})) {}

CompiledProgramCache::CompiledProgramCache(
    std::shared_ptr<store::ArtifactStore> store, ReviveContext revive)
    : store_(std::move(store)), codec_(compiled_entry_codec(revive)) {}

std::shared_ptr<const CompiledEntry> CompiledProgramCache::lookup(
    std::uint64_t key, store::Outcome* outcome) {
  return store_->get(store::ArtifactKey::compiled(key), codec_, outcome);
}

void CompiledProgramCache::insert(std::uint64_t key,
                                  std::shared_ptr<const CompiledEntry> entry,
                                  store::Outcome* outcome) {
  store_->put(store::ArtifactKey::compiled(key), std::move(entry), codec_,
              outcome);
}

std::size_t CompiledProgramCache::size() const {
  return store_->memory_entries(store::ArtifactKind::kCompiled);
}

std::uint64_t CompiledProgramCache::hits() const {
  const store::StoreStats s = stats();
  return s.memory.hits + s.disk.hits;
}

std::uint64_t CompiledProgramCache::misses() const {
  // A full miss is a miss of the deepest enabled tier: with a disk tier
  // the memory misses that were answered from disk are not misses of the
  // cache, they are (slower) hits.
  const store::StoreStats s = stats();
  return store_->disk_enabled() ? s.disk.misses : s.memory.misses;
}

std::uint64_t CompiledProgramCache::evictions() const {
  return stats().memory.evictions;
}

std::uint64_t CompiledProgramCache::oversized() const {
  return stats().memory.oversized;
}

double CompiledProgramCache::hit_rate() const {
  const std::uint64_t h = hits();
  const std::uint64_t total = h + misses();
  return total == 0 ? 0.0
                    : static_cast<double>(h) / static_cast<double>(total);
}

void CompiledProgramCache::clear() { store_->clear_memory(); }

}  // namespace qs::service
