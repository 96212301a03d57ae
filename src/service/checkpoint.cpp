#include "service/checkpoint.h"

#include <stdexcept>
#include <utility>

#include "common/codec.h"
#include "service/job.h"

namespace qs::service {

namespace {

Status malformed(const std::string& what) {
  return Status::InvalidArgument("JobCheckpoint: malformed snapshot: " + what);
}

}  // namespace

std::size_t JobCheckpoint::completed() const {
  std::size_t n = 0;
  for (char d : shard_done) n += d ? 1 : 0;
  return n;
}

std::string JobCheckpoint::serialize() const {
  Encoder e;
  e.u64(fingerprint);
  e.u32(static_cast<std::uint32_t>(shards));
  e.u32(static_cast<std::uint32_t>(completed()));
  for (std::size_t i = 0; i < shard_done.size(); ++i)
    if (shard_done[i]) e.u32(static_cast<std::uint32_t>(i));
  e.u8(has_best ? 1 : 0);
  if (has_best) {
    e.f64(best_energy);
    e.u64(best_read);
    std::string bits;
    for (int b : best_solution) bits.push_back(b ? '1' : '0');
    e.str(bits);
  }
  e.histogram(merged);
  return e.take();
}

StatusOr<JobCheckpoint> JobCheckpoint::deserialize(std::string_view bytes) {
  Decoder d(bytes);
  JobCheckpoint cp;
  std::uint32_t shards, done;
  if (!d.u64(&cp.fingerprint) || !d.u32(&shards) || !d.u32(&done))
    return malformed(d.status().message());
  if (shards > kMaxShards) return malformed("shard count above kMaxShards");
  cp.shards = shards;
  cp.shard_done.assign(cp.shards, 0);
  for (std::uint32_t i = 0; i < done; ++i) {
    std::uint32_t index;
    if (!d.u32(&index)) return malformed(d.status().message());
    if (index >= shards) return malformed("done index out of range");
    cp.shard_done[index] = 1;
  }
  std::uint8_t has_best;
  if (!d.u8(&has_best) || has_best > 1) return malformed("bad best flag");
  cp.has_best = has_best != 0;
  if (cp.has_best) {
    std::string bits;
    if (!d.f64(&cp.best_energy) || !d.u64(&cp.best_read) || !d.str(&bits))
      return malformed(d.status().message());
    for (char c : bits) {
      if (c != '0' && c != '1') return malformed("best bits not binary");
      cp.best_solution.push_back(c == '1' ? 1 : 0);
    }
  }
  if (!d.histogram(&cp.merged)) return malformed(d.status().message());
  for (const auto& [key, n] : cp.merged.counts())
    if (n == 0) return malformed("zero count for '" + key + "'");
  // Exact consumption distinguishes a complete snapshot from a torn or
  // padded one; refuse anything that is not provably whole.
  if (!d.finish()) return malformed(d.status().message());
  return cp;
}

StoreCheckpointStore::StoreCheckpointStore(
    std::shared_ptr<store::ArtifactStore> store)
    : store_(std::move(store)) {
  if (!store_)
    throw std::invalid_argument("StoreCheckpointStore: null artifact store");
}

Status StoreCheckpointStore::save(const std::string& key,
                                  const JobCheckpoint& cp) {
  const bool ok = store_->put_bytes(store::ArtifactKey::checkpoint(key),
                                    cp.serialize(), use_memory_tier());
  if (!ok)
    return Status::Unavailable("StoreCheckpointStore: write failed for '" +
                               key + "'");
  return Status::Ok();
}

std::optional<JobCheckpoint> StoreCheckpointStore::load(
    const std::string& key) {
  std::optional<std::string> bytes = store_->get_bytes(
      store::ArtifactKey::checkpoint(key), use_memory_tier());
  if (!bytes) return std::nullopt;
  // Second verification layer: the store proved the bytes whole, the
  // deserializer proves they parse. A torn or hand-edited snapshot is
  // refused either way — the resumed job just starts fresh.
  StatusOr<JobCheckpoint> cp = JobCheckpoint::deserialize(*bytes);
  if (!cp.ok()) return std::nullopt;
  return std::move(*cp);
}

void StoreCheckpointStore::remove(const std::string& key) {
  store_->remove(store::ArtifactKey::checkpoint(key));
}

}  // namespace qs::service
