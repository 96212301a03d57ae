#include "service/final_state_cache.h"

#include <sstream>

#include "common/codec.h"
#include "common/hash.h"

namespace qs::service {

store::Codec<sim::FinalDistribution> final_distribution_codec() {
  store::Codec<sim::FinalDistribution> codec;

  codec.encode = [](const sim::FinalDistribution& dist) {
    Encoder w;
    w.u64(dist.qubit_count);
    w.u64(static_cast<std::uint64_t>(dist.measured_mask));
    w.u64(dist.gates);
    w.u64(dist.cum.size());
    for (double v : dist.cum) w.f64(v);
    return w.take();
  };

  codec.decode = [](const std::string& payload)
      -> std::shared_ptr<const sim::FinalDistribution> {
    Decoder r(payload);
    auto dist = std::make_shared<sim::FinalDistribution>();
    std::uint64_t qubits, mask, gates, n;
    if (!r.u64(&qubits) || !r.u64(&mask) || !r.u64(&gates) || !r.u64(&n))
      return nullptr;
    // Shape check before allocating: a distribution over q qubits has
    // exactly 2^q buckets, and they must all be present in the payload.
    if (qubits >= 64 || n != (std::uint64_t{1} << qubits) ||
        n > r.remaining() / sizeof(double))
      return nullptr;
    dist->qubit_count = static_cast<std::size_t>(qubits);
    dist->measured_mask = static_cast<StateIndex>(mask);
    dist->gates = static_cast<std::size_t>(gates);
    dist->cum.resize(static_cast<std::size_t>(n));
    for (double& v : dist->cum)
      if (!r.f64(&v)) return nullptr;
    if (!r.finish()) return nullptr;
    return dist;
  };

  codec.resident_bytes = [](const sim::FinalDistribution& dist) {
    return dist.bytes();
  };
  return codec;
}

std::uint64_t final_state_key(std::uint64_t compiled_key,
                              const sim::QubitModel& model,
                              bool fused_kernels, Precision precision,
                              bool fused_sequences) {
  // Hexfloat round-trips doubles exactly, so two models hash equal iff
  // their parameters are bit-equal (same rule the platform fingerprint
  // follows for durations).
  std::ostringstream os;
  os << static_cast<int>(model.kind) << ' ' << std::hexfloat
     << model.gate_error_1q << ' ' << model.gate_error_2q << ' '
     << model.readout_error << ' ' << model.t1_ns << ' ' << model.t2_ns
     << ' ' << (fused_kernels ? 'f' : 'g');
  // Appended (rather than inline) so every pre-existing (f64, unfused)
  // disk entry keeps its key.
  if (precision != Precision::kF64 || fused_sequences)
    os << ' ' << to_string(precision) << (fused_sequences ? "+fused" : "");
  return hash_combine(compiled_key, fnv1a64(os.str()));
}

FinalStateCache::FinalStateCache(std::size_t capacity_bytes)
    : store_(std::make_shared<store::ArtifactStore>(store::StoreOptions{
          capacity_bytes, /*directory=*/""})),
      codec_(final_distribution_codec()) {}

FinalStateCache::FinalStateCache(std::shared_ptr<store::ArtifactStore> store)
    : store_(std::move(store)), codec_(final_distribution_codec()) {}

std::shared_ptr<const sim::FinalDistribution> FinalStateCache::lookup(
    std::uint64_t key, store::Outcome* outcome) {
  return store_->get(store::ArtifactKey::final_state(key), codec_, outcome);
}

std::size_t FinalStateCache::insert(
    std::uint64_t key, std::shared_ptr<const sim::FinalDistribution> dist,
    store::Outcome* outcome) {
  if (!dist) return 0;
  store::Outcome local;
  store::Outcome* o = outcome ? outcome : &local;
  store_->put(store::ArtifactKey::final_state(key), std::move(dist), codec_,
              o);
  return o->evicted;
}

std::size_t FinalStateCache::size() const {
  return store_->memory_entries(store::ArtifactKind::kFinalState);
}

std::size_t FinalStateCache::bytes() const { return store_->memory_bytes(); }

std::uint64_t FinalStateCache::hits() const {
  const store::StoreStats s = stats();
  return s.memory.hits + s.disk.hits;
}

std::uint64_t FinalStateCache::misses() const {
  const store::StoreStats s = stats();
  return store_->disk_enabled() ? s.disk.misses : s.memory.misses;
}

std::uint64_t FinalStateCache::evictions() const {
  return stats().memory.evictions;
}

std::uint64_t FinalStateCache::oversized() const {
  return stats().memory.oversized;
}

void FinalStateCache::clear() { store_->clear_memory(); }

}  // namespace qs::service
