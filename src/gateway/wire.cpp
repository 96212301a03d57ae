#include "gateway/wire.h"

namespace qs::gateway {

const char* to_string(Op op) {
  switch (op) {
    case Op::kHello: return "Hello";
    case Op::kSubmit: return "Submit";
    case Op::kPoll: return "Poll";
    case Op::kCancel: return "Cancel";
    case Op::kStreamProgress: return "StreamProgress";
    case Op::kMetrics: return "Metrics";
    case Op::kHelloOk: return "HelloOk";
    case Op::kSubmitOk: return "SubmitOk";
    case Op::kPollOk: return "PollOk";
    case Op::kCancelOk: return "CancelOk";
    case Op::kProgress: return "Progress";
    case Op::kProgressDone: return "ProgressDone";
    case Op::kMetricsOk: return "MetricsOk";
    case Op::kError: return "Error";
  }
  return "Op(?)";
}

// ---------------------------------------------------------------------------
// Message bodies
// ---------------------------------------------------------------------------

void encode_hello(const HelloRequest& m, Encoder* e) {
  e->u16(m.min_version);
  e->u16(m.max_version);
  e->str(m.client_name);
}

bool decode_hello(Decoder* d, HelloRequest* m) {
  return d->u16(&m->min_version) && d->u16(&m->max_version) &&
         d->str(&m->client_name) && d->finish();
}

void encode_hello_reply(const HelloReply& m, Encoder* e) {
  e->u16(m.version);
  e->str(m.server_name);
  e->u64(m.session);
}

bool decode_hello_reply(Decoder* d, HelloReply* m) {
  return d->u16(&m->version) && d->str(&m->server_name) &&
         d->u64(&m->session) && d->finish();
}

void encode_submit_reply(const SubmitReply& m, Encoder* e) { e->u64(m.job_id); }

bool decode_submit_reply(Decoder* d, SubmitReply* m) {
  return d->u64(&m->job_id) && d->finish();
}

void encode_poll(const PollRequest& m, Encoder* e) {
  e->u64(m.job_id);
  e->u64(m.timeout_us);
}

bool decode_poll(Decoder* d, PollRequest* m) {
  return d->u64(&m->job_id) && d->u64(&m->timeout_us) && d->finish();
}

void encode_poll_reply(const PollReply& m, Encoder* e) {
  e->u8(m.done ? 1 : 0);
  if (m.done) encode_run_result(m.result, e);
}

bool decode_poll_reply(Decoder* d, PollReply* m) {
  std::uint8_t done;
  if (!d->u8(&done)) return false;
  if (done > 1) {
    d->fail("bad poll done flag");
    return false;
  }
  m->done = done != 0;
  if (m->done) return decode_run_result(d, &m->result);
  m->result = runtime::RunResult{};
  return d->finish();
}

void encode_cancel(const CancelRequest& m, Encoder* e) { e->u64(m.job_id); }

bool decode_cancel(Decoder* d, CancelRequest* m) {
  return d->u64(&m->job_id) && d->finish();
}

void encode_stream_progress(const StreamProgressRequest& m, Encoder* e) {
  e->u64(m.job_id);
}

bool decode_stream_progress(Decoder* d, StreamProgressRequest* m) {
  return d->u64(&m->job_id) && d->finish();
}

void encode_progress(const ProgressUpdate& m, Encoder* e) {
  e->u64(m.job_id);
  e->u64(m.seq);
  e->u64(m.shards_total);
  e->u64(m.shards_done);
  e->histogram(m.partial);
}

bool decode_progress(Decoder* d, ProgressUpdate* m) {
  return d->u64(&m->job_id) && d->u64(&m->seq) && d->u64(&m->shards_total) &&
         d->u64(&m->shards_done) && d->histogram(&m->partial) && d->finish();
}

void encode_error(const WireError& m, Encoder* e) {
  encode_status(m.status, e);
  e->u64(m.queue_depth);
}

bool decode_error(Decoder* d, WireError* m) {
  return decode_status(d, &m->status) && d->u64(&m->queue_depth) &&
         d->finish();
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kHeaderBytes = 12;
}  // namespace

Status read_frame(const Socket& sock, Frame* frame,
                  std::uint16_t min_version) {
  char hdr[kHeaderBytes];
  if (Status s = read_exact(sock, hdr, sizeof hdr); !s.ok()) return s;

  Decoder d(hdr, sizeof hdr);
  std::uint32_t magic = 0, length = 0;
  std::uint16_t version = 0, op = 0;
  d.u32(&magic);
  d.u16(&version);
  d.u16(&op);
  d.u32(&length);
  if (magic != kMagic)
    return Status::InvalidArgument("bad frame magic");
  if (version < min_version || version > kProtocolVersion)
    return Status::InvalidArgument("unsupported protocol version " +
                                   std::to_string(version));
  if (length > kMaxPayloadBytes)
    return Status::InvalidArgument("frame payload length " +
                                   std::to_string(length) +
                                   " exceeds 16MiB cap");

  frame->version = version;
  frame->op = static_cast<Op>(op);
  frame->payload.resize(length);
  if (length > 0) {
    if (Status s = read_exact(sock, frame->payload.data(), length); !s.ok())
      return s.code() == StatusCode::kUnavailable
                 ? Status::Unavailable("connection closed mid-frame")
                 : s;
  }
  return Status::Ok();
}

Status write_frame(const Socket& sock, Op op, std::string_view payload,
                   std::uint16_t version) {
  if (payload.size() > kMaxPayloadBytes)
    return Status::InvalidArgument("frame payload exceeds 16MiB cap");
  Encoder e;
  e.u32(kMagic);
  e.u16(version);
  e.u16(static_cast<std::uint16_t>(op));
  e.u32(static_cast<std::uint32_t>(payload.size()));
  e.raw(payload);
  return write_all(sock, e.bytes().data(), e.bytes().size());
}

}  // namespace qs::gateway
