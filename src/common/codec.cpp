#include "common/codec.h"

#include <cstring>

namespace qs {

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

template <typename T>
void Encoder::uint_le(T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    u8(static_cast<std::uint8_t>(std::uint64_t{v} >> (8 * i)));
}

void Encoder::u16(std::uint16_t v) { uint_le(v); }
void Encoder::u32(std::uint32_t v) { uint_le(v); }
void Encoder::u64(std::uint64_t v) { uint_le(v); }

void Encoder::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void Encoder::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.append(s);
}

void Encoder::histogram(const Histogram& h) {
  u32(static_cast<std::uint32_t>(h.counts().size()));
  for (const auto& [key, count] : h.counts()) {
    str(key);
    u64(count);
  }
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

bool Decoder::need(std::size_t k) {
  if (!status_.ok()) return false;
  if (remaining() < k) {
    fail("truncated payload");
    return false;
  }
  return true;
}

void Decoder::fail(std::string message) {
  if (status_.ok()) status_ = Status::InvalidArgument(std::move(message));
}

bool Decoder::u8(std::uint8_t* v) {
  if (!need(1)) return false;
  *v = static_cast<std::uint8_t>(data_[off_++]);
  return true;
}

template <typename T>
bool Decoder::uint_le(T* v) {
  if (!need(sizeof(T))) return false;
  std::uint64_t x = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    x |= std::uint64_t{static_cast<std::uint8_t>(data_[off_ + i])} << (8 * i);
  off_ += sizeof(T);
  *v = static_cast<T>(x);
  return true;
}

bool Decoder::u16(std::uint16_t* v) { return uint_le(v); }
bool Decoder::u32(std::uint32_t* v) { return uint_le(v); }
bool Decoder::u64(std::uint64_t* v) { return uint_le(v); }

bool Decoder::i32(std::int32_t* v) {
  std::uint32_t x;
  if (!u32(&x)) return false;
  *v = static_cast<std::int32_t>(x);
  return true;
}

bool Decoder::f64(double* v) {
  std::uint64_t bits;
  if (!u64(&bits)) return false;
  std::memcpy(v, &bits, sizeof bits);
  return true;
}

bool Decoder::str(std::string* s) {
  std::uint32_t len;
  if (!u32(&len)) return false;
  // A length prefix larger than the bytes actually present is the classic
  // amplification bug; check before allocating.
  std::string_view bytes;
  if (!raw(len, &bytes)) return false;
  s->assign(bytes);
  return true;
}

bool Decoder::histogram(Histogram* h) {
  std::uint32_t entries;
  if (!u32(&entries)) return false;
  *h = Histogram();
  for (std::uint32_t i = 0; i < entries; ++i) {
    std::string key;
    std::uint64_t count;
    if (!str(&key) || !u64(&count)) return false;
    h->add(key, static_cast<std::size_t>(count));
  }
  return true;
}

bool Decoder::raw(std::size_t n, std::string_view* out) {
  if (!need(n)) return false;
  *out = data_.substr(off_, n);
  off_ += n;
  return true;
}

bool Decoder::finish() {
  if (!status_.ok()) return false;
  if (off_ != data_.size()) {
    fail("trailing bytes after message body");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------------

void encode_status(const Status& s, Encoder* e) {
  e->u16(status_code_to_wire(s.code()));
  e->str(s.message());
}

bool decode_status(Decoder* d, Status* s) {
  std::uint16_t wire;
  std::string message;
  if (!d->u16(&wire) || !d->str(&message)) return false;
  *s = Status(status_code_from_wire(wire), std::move(message));
  return true;
}

}  // namespace qs
