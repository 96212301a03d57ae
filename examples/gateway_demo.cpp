// Gateway demo: boots the serving stack behind the TCP gateway, then acts
// as a remote tenant — connect + version handshake, submit a job, stream
// shard-boundary progress, fetch the result and the metrics snapshot, and
// watch a graceful shutdown turn new work away. Exits non-zero on any
// broken expectation, so CI runs it as a smoke test of the full
// client -> socket -> gateway -> service -> accelerator path.
#include <cstdio>
#include <string>
#include <thread>
#include <utility>

#include "compiler/kernel.h"
#include "gateway/client.h"
#include "gateway/server.h"
#include "qasm/printer.h"
#include "service/service.h"

using namespace qs;

namespace {

int fail(const std::string& what) {
  std::printf("FAIL: %s\n", what.c_str());
  return 1;
}

}  // namespace

int main() {
  // --- Server side: a 2-worker service behind the gateway ------------------
  service::ServiceOptions sopts;
  sopts.workers = 2;
  sopts.shard_shots = 64;
  runtime::GateAccelerator gate(compiler::Platform::perfect(8));
  sim::SimOptions sim_options;
  sim_options.sampling = false;  // per-shot work, so progress is visible
  gate.set_sim_options(sim_options);
  service::QuantumService svc(std::move(gate), sopts);

  gateway::GatewayOptions gopts;
  gopts.tenant_quotas["demo"] =
      gateway::TenantQuota{/*submit_rate=*/100.0, /*burst=*/10.0,
                           /*max_inflight=*/4};
  gateway::GatewayServer server(svc, gopts);
  if (const Status s = server.start(); !s.ok())
    return fail("server start: " + s.to_string());
  std::printf("gateway listening on 127.0.0.1:%u\n", server.port());

  // --- Client side: connect and negotiate ----------------------------------
  gateway::GatewayClient client;
  if (const Status s = client.connect("127.0.0.1", server.port(), "demo-cli");
      !s.ok())
    return fail("connect: " + s.to_string());
  std::printf("connected: protocol v%u, session %llu\n", client.version(),
              static_cast<unsigned long long>(client.session()));

  // --- Submit a GHZ job as tenant "demo" -----------------------------------
  compiler::Program p("ghz", 8);
  p.add_kernel("main").ghz(8).measure_all();
  runtime::RunRequest request = runtime::RunRequest::gate_source(
      qasm::to_cqasm(p.to_qasm()), /*shots=*/1024, /*seed=*/7);
  request.tenant = "demo";
  request.tag = "ghz8-demo";

  const auto id = client.submit(request);
  if (!id.ok()) return fail("submit: " + id.status().to_string());
  std::printf("submitted job %llu\n", static_cast<unsigned long long>(*id));

  // --- Stream progress at shard boundaries ---------------------------------
  std::size_t snapshots = 0;
  const Status stream = client.stream_progress(
      *id, [&](const gateway::ProgressUpdate& u) {
        ++snapshots;
        std::printf("  progress: %llu/%llu shards, %zu shots merged\n",
                    static_cast<unsigned long long>(u.shards_done),
                    static_cast<unsigned long long>(u.shards_total),
                    u.partial.total());
      });
  if (!stream.ok()) return fail("stream: " + stream.to_string());
  std::printf("stream done after %zu snapshots\n", snapshots);

  // --- Fetch and check the result ------------------------------------------
  const auto result = client.wait(*id);
  if (!result.ok()) return fail("wait: " + result.status().to_string());
  if (!result->status.ok())
    return fail("job status: " + result->status.to_string());
  if (result->histogram.total() != 1024)
    return fail("histogram total " +
                std::to_string(result->histogram.total()) + " != 1024");
  // A perfect GHZ register only ever collapses to all-zeros / all-ones.
  const std::size_t zeros = result->histogram.count("00000000");
  const std::size_t ones = result->histogram.count("11111111");
  if (zeros + ones != 1024)
    return fail("GHZ histogram has weight off the |0..0>/|1..1> ridge");
  std::printf("ghz8 x 1024 shots: %zu zeros / %zu ones (tag '%s')\n", zeros,
              ones, result->tag.c_str());

  // --- Metrics over the wire ------------------------------------------------
  const auto metrics = client.metrics();
  if (!metrics.ok()) return fail("metrics: " + metrics.status().to_string());
  if (metrics->find("qs_queue_wait_seconds") == std::string::npos)
    return fail("metrics text is missing qs_queue_wait_seconds");
  if (metrics->find("qs_tenant_admitted_total{tenant=\"demo\"}") ==
      std::string::npos)
    return fail("metrics text is missing the per-tenant admission counter");
  std::printf("metrics op: %zu bytes, queue-wait histogram and per-tenant "
              "counters present\n",
              metrics->size());

  // --- Graceful shutdown ----------------------------------------------------
  server.shutdown();
  const auto after = client.submit(request);
  if (after.ok()) return fail("submit after shutdown unexpectedly accepted");
  std::printf("post-shutdown submit rejected as expected: %s\n",
              after.status().to_string().c_str());

  std::printf("gateway demo OK\n");
  return 0;
}
