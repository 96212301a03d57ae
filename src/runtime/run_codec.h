// Byte bodies of a RunRequest / RunResult in the shared codec
// (common/codec.h). These exact bytes are the gateway's Submit and PollOk
// payloads (protocol v4) and the job journal's admitted / terminal record
// bodies, so a job has one byte representation wherever it travels or
// rests. Not carried (host-side concerns): faults, checkpoint_key; a
// structured `program` is printed to cQASM text, so both submission
// styles meet on the same bytes.
#pragma once

#include "common/codec.h"
#include "runtime/run_api.h"

namespace qs::runtime {

void encode_run_request(const RunRequest& m, Encoder* e);
/// Decodes a whole body: ends with d->finish(), so trailing bytes fail.
bool decode_run_request(Decoder* d, RunRequest* m);

void encode_run_result(const RunResult& m, Encoder* e);
/// Decodes a whole body: ends with d->finish(), so trailing bytes fail.
bool decode_run_result(Decoder* d, RunResult* m);

}  // namespace qs::runtime
