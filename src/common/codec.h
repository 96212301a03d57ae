// The stack's one byte codec: a little-endian writer/reader pair shared
// by every byte format the host side persists or transmits — gateway wire
// frames, journal records, job checkpoints and artifact-store entries.
//
// Integers are little-endian; f64 is the IEEE-754 bit pattern as u64, so
// a round trip is bit-exact (a store-loaded amplitude equals the freshly
// evolved one, which the determinism contract requires — a "%f" round
// trip would quietly change histograms); strings are u32 length + raw
// bytes; histograms are u32 entry count + (string key, u64 count) pairs
// in key order. The buffer is a std::string of raw bytes for every user.
//
// The Decoder is total: any truncation, oversized length prefix or value
// error latches a typed kInvalidArgument and every later read fails —
// never a read past the buffer, never a crash, never an exception.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/stats.h"
#include "common/status.h"

namespace qs {

/// Append-only little-endian byte sink.
class Encoder {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v);
  void str(std::string_view s);
  void histogram(const Histogram& h);
  /// Appends bytes verbatim, without a length prefix (fixed magics,
  /// already-encoded bodies).
  void raw(std::string_view bytes) { buf_.append(bytes); }

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  template <typename T>
  void uint_le(T v);

  std::string buf_;
};

/// Bounds-checked little-endian reader over a byte view (the caller keeps
/// the bytes alive). Every accessor returns false (and latches a
/// kInvalidArgument status) on truncation; decode functions bail out on
/// the first failure.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}
  Decoder(const char* data, std::size_t size) : data_(data, size) {}

  bool u8(std::uint8_t* v);
  bool u16(std::uint16_t* v);
  bool u32(std::uint32_t* v);
  bool u64(std::uint64_t* v);
  bool i32(std::int32_t* v);
  bool f64(double* v);
  bool str(std::string* s);
  bool histogram(Histogram* h);
  /// Reads exactly `n` bytes without a length prefix, as a view into the
  /// input.
  bool raw(std::size_t n, std::string_view* out);

  /// True when the input was consumed exactly; trailing garbage is a
  /// framing error (fail()s the decoder).
  bool finish();

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  std::size_t remaining() const { return data_.size() - off_; }

  /// Latches a decode failure (used by message-level decoders for value
  /// errors, e.g. an unknown enum tag).
  void fail(std::string message);

 private:
  bool need(std::size_t k);
  template <typename T>
  bool uint_le(T* v);

  std::string_view data_;
  std::size_t off_ = 0;
  Status status_;
};

/// Status as u16 wire code (status_code_to_wire) + message string.
void encode_status(const Status& s, Encoder* e);
bool decode_status(Decoder* d, Status* s);

}  // namespace qs
