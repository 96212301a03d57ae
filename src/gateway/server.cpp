#include "gateway/server.h"

#include <algorithm>
#include <stdexcept>

namespace qs::gateway {

namespace {

Status check_quota(const char* who, const TenantQuota& q) {
  const std::string name(who);
  if (q.submit_rate <= 0.0)
    return Status::InvalidArgument(name +
                                   ": token-bucket submit_rate must be > 0");
  if (q.burst < 1.0)
    return Status::InvalidArgument(name +
                                   ": token-bucket burst must be >= 1");
  if (q.max_inflight == 0)
    return Status::InvalidArgument(name + ": max_inflight must be >= 1");
  return Status::Ok();
}

GatewayOptions validated(GatewayOptions options) {
  if (Status v = options.validate(); !v.ok())
    throw std::invalid_argument("GatewayOptions: " + v.message());
  return options;
}

}  // namespace

Status GatewayOptions::validate() const {
  if (host.empty())
    return Status::InvalidArgument("host must not be empty");
  if (backlog < 1)
    return Status::InvalidArgument("backlog must be >= 1");
  if (max_connections == 0)
    return Status::InvalidArgument("max_connections must be >= 1");
  if (progress_poll.count() <= 0)
    return Status::InvalidArgument("progress_poll must be > 0");
  if (max_poll_wait.count() <= 0)
    return Status::InvalidArgument("max_poll_wait must be > 0");
  if (drain_timeout.count() < 0)
    return Status::InvalidArgument("drain_timeout must be >= 0");
  if (Status s = check_quota("default_quota", default_quota); !s.ok())
    return s;
  for (const auto& [tenant, quota] : tenant_quotas) {
    if (Status s = check_quota(("quota for tenant '" + tenant + "'").c_str(),
                               quota);
        !s.ok())
      return s;
  }
  return Status::Ok();
}

GatewayServer::GatewayServer(service::QuantumService& service,
                             GatewayOptions options)
    : service_(service),
      options_(validated(std::move(options))),
      governor_(options_.default_quota, options_.tenant_quotas) {}

GatewayServer::~GatewayServer() { shutdown(); }

Status GatewayServer::start() {
  if (started_.exchange(true))
    return Status::FailedPrecondition("gateway already started");
  Status s = listen_tcp(options_.host, options_.port, options_.backlog,
                        &listener_, &port_);
  if (!s.ok()) {
    started_.store(false);
    return s;
  }
  acceptor_ = std::thread([this] { accept_loop(); });
  return Status::Ok();
}

std::size_t GatewayServer::active_connections() const {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  std::size_t live = 0;
  for (const auto& conn : conns_)
    if (!conn->done.load()) ++live;
  return live;
}

void GatewayServer::accept_loop() {
  while (!stopping_.load()) {
    Socket sock;
    if (!accept_tcp(listener_, &sock).ok()) break;  // listener shut down
    if (stopping_.load()) break;

    std::lock_guard<std::mutex> lock(conns_mutex_);
    // Reap connections whose threads already finished, so a long-lived
    // gateway does not accumulate joinable threads.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->done.load()) {
        (*it)->thread.join();
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    if (conns_.size() >= options_.max_connections) {
      send_error(sock,
                 Status::ResourceExhausted(
                     "gateway connection limit (" +
                     std::to_string(options_.max_connections) + ") reached"));
      continue;  // ~Socket closes
    }
    auto conn = std::make_unique<Conn>();
    conn->sock = std::move(sock);
    Conn* raw = conn.get();
    conn->thread = std::thread([this, raw] { serve(raw); });
    conns_.push_back(std::move(conn));
    service_.metrics().counter("qs_gateway_connections_total").inc();
  }
}

Status GatewayServer::negotiate(const Socket& sock, std::uint64_t session,
                                std::uint16_t* version) {
  Frame frame;
  // Accept any frame version in the Hello itself — the whole point of the
  // handshake is agreeing on one.
  if (Status s = read_frame(sock, &frame); !s.ok()) return s;
  if (frame.op != Op::kHello) {
    send_error(sock, Status::FailedPrecondition(
                         "first frame must be Hello, got " +
                         std::string(to_string(frame.op))));
    return Status::FailedPrecondition("no Hello");
  }
  HelloRequest hello;
  Decoder d(frame.payload);
  if (!decode_hello(&d, &hello)) {
    send_error(sock, d.status());
    return d.status();
  }
  const std::uint16_t lo = std::max(hello.min_version, kProtocolVersionMin);
  const std::uint16_t hi = std::min(hello.max_version, kProtocolVersion);
  if (lo > hi) {
    const Status s = Status::FailedPrecondition(
        "no common protocol version: client speaks [" +
        std::to_string(hello.min_version) + ", " +
        std::to_string(hello.max_version) + "], server speaks [" +
        std::to_string(kProtocolVersionMin) + ", " +
        std::to_string(kProtocolVersion) + "]");
    send_error(sock, s);
    return s;
  }
  *version = hi;  // highest version both sides support
  HelloReply reply;
  reply.version = hi;
  reply.server_name = options_.server_name;
  reply.session = session;
  Encoder e;
  encode_hello_reply(reply, &e);
  return write_frame(sock, Op::kHelloOk, e.bytes(), hi);
}

void GatewayServer::serve(Conn* conn) {
  const std::uint64_t session = next_session_.fetch_add(1);
  std::map<std::uint64_t, JobEntry> jobs;

  std::uint16_t version = kProtocolVersion;
  if (negotiate(conn->sock, session, &version).ok()) {
    for (;;) {
      Frame frame;
      if (!read_frame(conn->sock, &frame).ok()) break;
      switch (frame.op) {
        case Op::kSubmit:
          handle_submit(conn->sock, frame, session, &jobs);
          break;
        case Op::kPoll:
          handle_poll(conn->sock, frame, &jobs);
          break;
        case Op::kCancel:
          handle_cancel(conn->sock, frame, &jobs);
          break;
        case Op::kStreamProgress:
          handle_stream(conn->sock, frame, &jobs);
          break;
        case Op::kMetrics:
          handle_metrics(conn->sock);
          break;
        default:
          // Framing is intact (magic/length checked), the op is just not a
          // request we serve — reply and keep the connection.
          if (!send_error(conn->sock,
                          Status::InvalidArgument(
                              "unexpected op " +
                              std::string(to_string(frame.op))))
                   .ok())
            goto done;
          break;
      }
      if (stopping_.load()) break;
    }
  }
done:
  // Jobs never retrieved die with the connection: cancel them so workers
  // stop burning time, and return their tenant slots. Keyed jobs are the
  // exception — the whole point of an idempotency_key is surviving the
  // connection, so only the tenant slot is returned and the job runs on
  // (a resubmission of the key attaches to it or gets its stored result).
  for (auto& [id, entry] : jobs) {
    if (entry.idempotency_key.empty()) entry.handle.cancel();
    retire(entry, nullptr);
  }
  // Signal EOF to the peer now; the fd itself stays open (and is closed
  // after join) so a concurrent shutdown() never touches a reused fd.
  conn->sock.shutdown_rdwr();
  conn->done.store(true);
}

void GatewayServer::handle_submit(const Socket& sock, const Frame& frame,
                                  std::uint64_t session,
                                  std::map<std::uint64_t, JobEntry>* jobs) {
  runtime::RunRequest request;
  Decoder d(frame.payload);
  if (!decode_run_request(&d, &request)) {
    send_error(sock, d.status());
    return;
  }
  request.session = session;

  auto& rejected = service_.metrics().counter("qs_gateway_rejected_total");

  if (draining_.load()) {
    rejected.inc();
    send_error(sock,
               Status::Unavailable("gateway draining: not accepting new jobs"),
               service_.queue_depth());
    return;
  }
  if (Status v = request.validate(); !v.ok()) {
    rejected.inc();
    send_error(sock, v);
    return;
  }

  const std::string tenant = service::tenant_label(request.tenant);
  const std::string idemp_key = request.idempotency_key;
  if (Status a = governor_.admit(tenant); !a.ok()) {
    rejected.inc();
    service_.metrics()
        .counter(service::tenant_metric("qs_tenant_rejected_total", tenant))
        .inc();
    send_error(sock, std::move(a), service_.queue_depth());
    return;
  }

  // Deadline feasibility: with D jobs queued and an EWMA estimate of E us
  // per job over W workers, a deadline under D*E/W cannot be met — shed it
  // now instead of letting it expire in the queue.
  if (request.deadline && estimator_.estimate_us() > 0.0) {
    const double deadline_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            *request.deadline)
            .count();
    const double est_wait_us =
        static_cast<double>(service_.queue_depth()) *
        estimator_.estimate_us() /
        static_cast<double>(std::max<std::size_t>(1, service_.worker_count()));
    if (deadline_us < est_wait_us) {
      governor_.release(tenant);
      rejected.inc();
      service_.metrics()
          .counter(service::tenant_metric("qs_tenant_rejected_total", tenant))
          .inc();
      send_error(sock,
                 Status::DeadlineExceeded(
                     "infeasible deadline: estimated queue wait " +
                     std::to_string(static_cast<std::uint64_t>(est_wait_us)) +
                     "us exceeds deadline " +
                     std::to_string(static_cast<std::uint64_t>(deadline_us)) +
                     "us"),
                 service_.queue_depth());
      return;
    }
  }

  service::JobHandle handle = service_.try_submit(std::move(request));

  // try_submit resolves admission rejections synchronously; an
  // immediately-ready handle with a pre-dispatch code is a shed, not a
  // completed job.
  if (handle.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
    const runtime::RunResult result = handle.get();
    const StatusCode code = result.status.code();
    if (code == StatusCode::kResourceExhausted ||
        code == StatusCode::kUnavailable ||
        code == StatusCode::kFailedPrecondition ||
        code == StatusCode::kInvalidArgument) {
      governor_.release(tenant);
      rejected.inc();
      send_error(sock, result.status, service_.queue_depth());
      return;
    }
  }

  const auto [jit, inserted] = jobs->emplace(
      handle.id(), JobEntry{handle, tenant, idemp_key});
  if (inserted) {
    outstanding_.fetch_add(1);
  } else {
    // Duplicate keyed submit of a job this connection already owns: the
    // service attached both handles to one job, which holds one tenant
    // slot and counts as one outstanding retrieval.
    governor_.release(tenant);
  }
  service_.metrics().counter("qs_gateway_submits_total").inc();

  SubmitReply reply{handle.id()};
  Encoder e;
  encode_submit_reply(reply, &e);
  write_frame(sock, Op::kSubmitOk, e.bytes());
}

void GatewayServer::handle_poll(const Socket& sock, const Frame& frame,
                                std::map<std::uint64_t, JobEntry>* jobs) {
  PollRequest poll;
  Decoder d(frame.payload);
  if (!decode_poll(&d, &poll)) {
    send_error(sock, d.status());
    return;
  }
  const auto it = jobs->find(poll.job_id);
  if (it == jobs->end()) {
    send_error(sock, Status::NotFound("no such job on this connection: " +
                                      std::to_string(poll.job_id)));
    return;
  }

  // Wait in slices so a long server-side poll never holds this reader
  // thread hostage across a shutdown.
  const auto wait = std::min<std::chrono::microseconds>(
      std::chrono::microseconds(poll.timeout_us), options_.max_poll_wait);
  const auto deadline = std::chrono::steady_clock::now() + wait;
  bool ready =
      it->second.handle.wait_for(std::chrono::seconds(0)) ==
      std::future_status::ready;
  while (!ready && !stopping_.load()) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    const auto slice = std::min<std::chrono::steady_clock::duration>(
        deadline - now, std::chrono::milliseconds(50));
    ready = it->second.handle.wait_for(slice) == std::future_status::ready;
  }

  PollReply reply;
  reply.done = ready;
  if (ready) reply.result = it->second.handle.get();
  Encoder e;
  encode_poll_reply(reply, &e);
  write_frame(sock, Op::kPollOk, e.bytes());
  // Retire only once the reply is on the wire: a draining shutdown()
  // closes every connection as soon as the last job is retired.
  if (ready) {
    retire(it->second, &reply.result);
    jobs->erase(it);
  }
}

void GatewayServer::handle_cancel(const Socket& sock, const Frame& frame,
                                  std::map<std::uint64_t, JobEntry>* jobs) {
  CancelRequest cancel;
  Decoder d(frame.payload);
  if (!decode_cancel(&d, &cancel)) {
    send_error(sock, d.status());
    return;
  }
  const auto it = jobs->find(cancel.job_id);
  if (it == jobs->end()) {
    send_error(sock, Status::NotFound("no such job on this connection: " +
                                      std::to_string(cancel.job_id)));
    return;
  }
  // Cooperative: the job resolves to kCancelled (or kOk if it won the
  // race), retrieved through a later Poll as usual.
  it->second.handle.cancel();
  write_frame(sock, Op::kCancelOk, {});
}

void GatewayServer::handle_stream(const Socket& sock, const Frame& frame,
                                  std::map<std::uint64_t, JobEntry>* jobs) {
  StreamProgressRequest req;
  Decoder d(frame.payload);
  if (!decode_stream_progress(&d, &req)) {
    send_error(sock, d.status());
    return;
  }
  const auto it = jobs->find(req.job_id);
  if (it == jobs->end()) {
    send_error(sock, Status::NotFound("no such job on this connection: " +
                                      std::to_string(req.job_id)));
    return;
  }

  std::uint64_t last_seq = 0;
  auto send = [&](const ProgressUpdate& update) {
    last_seq = update.seq;
    Encoder e;
    encode_progress(update, &e);
    return write_frame(sock, Op::kProgress, e.bytes()).ok();
  };
  for (;;) {
    if (stopping_.load()) {
      send_error(sock, Status::Unavailable("gateway shutting down"));
      return;
    }
    if (const auto p = service_.progress(req.job_id);
        p && p->seq > last_seq) {
      ProgressUpdate update;
      update.job_id = p->job_id;
      update.seq = p->seq;
      update.shards_total = p->shards_total;
      update.shards_done = p->shards_done;
      update.partial = p->partial;
      if (!send(update)) return;
      continue;  // drain advances without sleeping
    }
    // Sleep on the handle rather than the clock: completion wakes the
    // stream immediately.
    if (it->second.handle.wait_for(options_.progress_poll) ==
        std::future_status::ready)
      break;
  }
  // Terminal snapshot, built from the result: a stream opened after the
  // job finished (or that lost the race with its last merges) still sees
  // the final state before ProgressDone. The merge counter ends at one
  // per merged shard, so the snapshot continues the live sequence; it is
  // skipped only when the last live snapshot already showed every merge.
  const runtime::RunResult result = it->second.handle.get();
  const std::uint64_t merged =
      result.stats.shards_resumed + result.stats.shards_executed;
  if (last_seq == 0 || last_seq < merged) {
    ProgressUpdate terminal;
    terminal.job_id = req.job_id;
    terminal.seq = std::max<std::uint64_t>(merged, last_seq + 1);
    terminal.shards_total = result.stats.shards;
    terminal.shards_done = merged;
    terminal.partial = result.histogram;
    if (!send(terminal)) return;
  }
  write_frame(sock, Op::kProgressDone, {});
  // The result itself is fetched through Poll.
}

void GatewayServer::handle_metrics(const Socket& sock) {
  Encoder e;
  e.str(service_.metrics().render());
  write_frame(sock, Op::kMetricsOk, e.bytes());
}

void GatewayServer::retire(const JobEntry& entry,
                           const runtime::RunResult* result) {
  if (result && result->status.ok())
    estimator_.observe(result->stats.run_us);
  governor_.release(entry.tenant);
  {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    outstanding_.fetch_sub(1);
  }
  drain_cv_.notify_all();
}

Status GatewayServer::send_error(const Socket& sock, Status status,
                                 std::uint64_t queue_depth) {
  WireError err;
  err.status = std::move(status);
  err.queue_depth = queue_depth;
  Encoder e;
  encode_error(err, &e);
  return write_frame(sock, Op::kError, e.bytes());
}

void GatewayServer::shutdown() {
  if (!started_.load()) return;
  if (!draining_.exchange(true)) {
    // Bounded drain: give clients a window to retrieve what they already
    // submitted (new Submits are being rejected from this point on).
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drain_cv_.wait_for(lock, options_.drain_timeout,
                       [this] { return outstanding_.load() == 0; });
  }
  if (stopping_.exchange(true)) return;

  // Wake the acceptor, then every connection reader.
  listener_.shutdown_rdwr();
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& conn : conns_) conn->sock.shutdown_rdwr();
  }
  if (acceptor_.joinable()) acceptor_.join();
  std::list<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns.swap(conns_);
  }
  for (auto& conn : conns)
    if (conn->thread.joinable()) conn->thread.join();
  listener_.close();
}

}  // namespace qs::gateway
