#include "service/job.h"

#include <stdexcept>

namespace qs::service {

std::size_t shard_count(std::size_t shots, std::size_t shard_shots) {
  if (shard_shots == 0)
    throw std::invalid_argument("shard_count: shard_shots must be >= 1");
  return shots / shard_shots + (shots % shard_shots != 0 ? 1 : 0);
}

}  // namespace qs::service
