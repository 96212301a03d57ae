#include "runtime/run_api.h"

namespace qs::runtime {

const char* to_string(JobKind kind) {
  return kind == JobKind::Gate ? "gate" : "anneal";
}

const char* to_string(CacheTier tier) {
  switch (tier) {
    case CacheTier::kNone: return "none";
    case CacheTier::kMemory: return "memory";
    case CacheTier::kDisk: return "disk";
  }
  return "unknown";
}

const char* to_string(BackendFaultKind kind) {
  switch (kind) {
    case BackendFaultKind::kCrash: return "backend_crash";
    case BackendFaultKind::kCorruptHistogram: return "corrupt_histogram";
    case BackendFaultKind::kStuckShard: return "stuck_shard";
  }
  return "unknown";
}

const char* to_string(CrashPoint point) {
  switch (point) {
    case CrashPoint::kNone: return "none";
    case CrashPoint::kAdmit: return "admit";
    case CrashPoint::kDispatch: return "dispatch";
    case CrashPoint::kMidShard: return "mid-shard";
    case CrashPoint::kPreComplete: return "pre-complete";
  }
  return "unknown";
}

std::size_t FaultPlan::failures_for(std::size_t shard) const {
  for (const ShardFault& f : shard_faults)
    if (f.shard_index == shard) return f.failures;
  return 0;
}

bool FaultPlan::backend_fault(const std::string& backend,
                              BackendFaultKind kind) const {
  for (const BackendFault& f : backend_faults)
    if (f.backend == backend && f.kind == kind) return true;
  return false;
}

Status RunRequest::validate() const {
  const int payloads = (program ? 1 : 0) + (program_text ? 1 : 0) +
                       (qubo ? 1 : 0);
  if (payloads != 1)
    return Status::InvalidArgument(
        "RunRequest: exactly one of program/program_text/qubo must be set");
  if (program_text && program_text->empty())
    return Status::InvalidArgument("RunRequest: program_text is empty");
  if (shots == 0)
    return Status::InvalidArgument("RunRequest: shots must be >= 1");
  if (deadline && deadline->count() <= 0)
    return Status::InvalidArgument(
        "RunRequest: deadline must be positive when set");
  if (deadline && *deadline > kMaxDeadline)
    return Status::InvalidArgument(
        "RunRequest: deadline longer than kMaxDeadline (100 years)");
  if (tenant.size() > 64)
    return Status::InvalidArgument(
        "RunRequest: tenant name longer than 64 characters");
  for (char c : tenant)
    if (c < 0x21 || c > 0x7e || c == '"')
      return Status::InvalidArgument(
          "RunRequest: tenant name must be printable, non-space, non-quote "
          "ASCII (it keys metrics labels and wire frames)");
  if (idempotency_key.size() > 128)
    return Status::InvalidArgument(
        "RunRequest: idempotency_key longer than 128 characters");
  for (char c : idempotency_key)
    if (c < 0x21 || c > 0x7e || c == '"')
      return Status::InvalidArgument(
          "RunRequest: idempotency_key must be printable, non-space, "
          "non-quote ASCII (it keys journal records and wire frames)");
  if (program) {
    try {
      program->validate();
    } catch (const std::exception& e) {
      return Status::InvalidArgument(std::string("RunRequest: bad program: ") +
                                     e.what());
    }
  }
  return Status::Ok();
}

RunRequest RunRequest::gate(qasm::Program program, std::size_t shots,
                            std::uint64_t seed, int priority) {
  RunRequest r;
  r.program = std::move(program);
  r.shots = shots;
  r.seed = seed;
  r.priority = priority;
  return r;
}

RunRequest RunRequest::gate_source(std::string cqasm, std::size_t shots,
                                   std::uint64_t seed, int priority) {
  RunRequest r;
  r.program_text = std::move(cqasm);
  r.shots = shots;
  r.seed = seed;
  r.priority = priority;
  return r;
}

RunRequest RunRequest::anneal(anneal::Qubo qubo, std::size_t reads,
                              std::uint64_t seed, int priority) {
  RunRequest r;
  r.qubo = std::move(qubo);
  r.shots = reads;
  r.seed = seed;
  r.priority = priority;
  return r;
}

}  // namespace qs::runtime
