#include "service/checkpoint.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "service/job.h"

namespace qs::service {

namespace {

/// Bitstring keys and solutions are written verbatim; doubles round-trip
/// through max_digits10 so a resumed best_energy compares exactly equal.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

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
  std::ostringstream out;
  out << "qs-checkpoint v1\n";
  out << "fingerprint " << fingerprint << "\n";
  out << "shards " << shards << "\n";
  for (std::size_t i = 0; i < shard_done.size(); ++i)
    if (shard_done[i]) out << "done " << i << "\n";
  if (has_best) {
    out << "best " << format_double(best_energy) << " " << best_read << " ";
    for (int b : best_solution) out << (b ? '1' : '0');
    out << "\n";
  }
  for (const auto& [bits, n] : merged.counts())
    out << "count " << bits << " " << n << "\n";
  out << "end\n";
  return out.str();
}

StatusOr<JobCheckpoint> JobCheckpoint::deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "qs-checkpoint v1")
    return malformed("missing header");

  JobCheckpoint cp;
  bool saw_fingerprint = false, saw_shards = false, saw_end = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "fingerprint") {
      if (!(fields >> cp.fingerprint)) return malformed(line);
      saw_fingerprint = true;
    } else if (tag == "shards") {
      if (!(fields >> cp.shards) || cp.shards > kMaxShards)
        return malformed(line);
      cp.shard_done.assign(cp.shards, 0);
      saw_shards = true;
    } else if (tag == "done") {
      std::size_t index = 0;
      if (!saw_shards || !(fields >> index) || index >= cp.shards)
        return malformed(line);
      cp.shard_done[index] = 1;
    } else if (tag == "best") {
      std::string bits;
      if (!(fields >> cp.best_energy >> cp.best_read >> bits))
        return malformed(line);
      cp.has_best = true;
      cp.best_solution.clear();
      for (char c : bits) {
        if (c != '0' && c != '1') return malformed(line);
        cp.best_solution.push_back(c == '1' ? 1 : 0);
      }
    } else if (tag == "count") {
      std::string bits;
      std::size_t n = 0;
      if (!(fields >> bits >> n) || n == 0) return malformed(line);
      cp.merged.add(bits, n);
    } else if (tag == "end") {
      saw_end = true;
      break;
    } else {
      return malformed(line);
    }
  }
  // The trailing "end" marker distinguishes a complete snapshot from a
  // torn write; refuse anything that is not provably whole.
  if (!saw_fingerprint || !saw_shards || !saw_end)
    return malformed("truncated snapshot");
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
  std::optional<std::string> text = store_->get_bytes(
      store::ArtifactKey::checkpoint(key), use_memory_tier());
  if (!text) return std::nullopt;
  // Second verification layer: the store proved the bytes whole, the
  // deserializer proves they parse. A torn or hand-edited snapshot is
  // refused either way — the resumed job just starts fresh.
  StatusOr<JobCheckpoint> cp = JobCheckpoint::deserialize(*text);
  if (!cp.ok()) return std::nullopt;
  return std::move(*cp);
}

void StoreCheckpointStore::remove(const std::string& key) {
  store_->remove(store::ArtifactKey::checkpoint(key));
}

}  // namespace qs::service
