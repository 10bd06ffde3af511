#include "serve/wire.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace efficsense::serve {

// Doubles cross the wire as one memcpy of their in-memory bytes, which is
// the little-endian wire order only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the wire is little-endian; doubles are copied as raw bytes");

namespace {

constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;  // Castagnoli, reflected

constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (kCrc32cPoly & (0u - (c & 1u)));
    t[i] = c;
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> kCrc32cTable = make_crc32c_table();

#if defined(__x86_64__)
// Eight bytes per crc32 instruction, then the tail byte by byte. Loads go
// through memcpy, so any start alignment is fine.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(
    const unsigned char* p, std::size_t n) {
  std::uint64_t c = 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = std::uint32_t(c);
  for (; n > 0; --n, ++p) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

void put_u16(std::string& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) out.push_back(char((v >> (8 * i)) & 0xFF));
}
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(char((v >> (8 * i)) & 0xFF));
}
void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(char((v >> (8 * i)) & 0xFF));
}
void put_f64s(std::string& out, const double* v, std::size_t n) {
  out.append(reinterpret_cast<const char*>(v), 8 * n);
}

/// Cursor over a body buffer; every get_* checks the remaining length.
struct Reader {
  const std::uint8_t* p;
  std::size_t n;
  bool ok = true;

  bool take(void* out, std::size_t k) {
    if (!ok || n < k) {
      ok = false;
      return false;
    }
    std::memcpy(out, p, k);
    p += k;
    n -= k;
    return true;
  }
  std::uint16_t u16() {
    std::uint8_t b[2] = {};
    take(b, 2);
    return std::uint16_t(b[0] | (std::uint16_t(b[1]) << 8));
  }
  std::uint32_t u32() {
    std::uint8_t b[4] = {};
    take(b, 4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }
  std::uint64_t u64() {
    std::uint8_t b[8] = {};
    take(b, 8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }
  void f64s(double* out, std::size_t k) {
    if (k > 0) take(out, 8 * k);  // an empty vector's data() may be null
  }
};

}  // namespace

std::uint32_t crc32c_table(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = kCrc32cTable[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return ~c;
}

bool cpu_has_sse42() {
#if defined(__x86_64__)
  static const bool has = __builtin_cpu_supports("sse4.2");
  return has;
#else
  return false;
#endif
}

std::uint32_t crc32c_sse42(const void* data, std::size_t n) {
#if defined(__x86_64__)
  return crc32c_hw(static_cast<const unsigned char*>(data), n);
#else
  return crc32c_table(data, n);
#endif
}

std::uint32_t crc32c(const void* data, std::size_t n) {
  return cpu_has_sse42() ? crc32c_sse42(data, n) : crc32c_table(data, n);
}

bool status_retryable(Status s) {
  return s == Status::kRetryBusy || s == Status::kRetryBudget ||
         s == Status::kDraining;
}

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kRetryBusy: return "retry_busy";
    case Status::kRetryBudget: return "retry_budget";
    case Status::kDraining: return "draining";
    case Status::kBadMagic: return "bad_magic";
    case Status::kBadVersion: return "bad_version";
    case Status::kBadCrc: return "bad_crc";
    case Status::kTruncated: return "truncated";
    case Status::kOversize: return "oversize";
    case Status::kBadFrameType: return "bad_frame_type";
    case Status::kNotHello: return "not_hello";
    case Status::kUnknownScenario: return "unknown_scenario";
    case Status::kBadM: return "bad_m";
    case Status::kShortEpoch: return "short_epoch";
    case Status::kNonFinite: return "non_finite";
    case Status::kInternal: return "internal_error";
  }
  return "unknown_status";
}

std::string encode_frame(FrameType type, Status status,
                         const std::string& body) {
  std::string frame;
  frame.reserve(4 + kHeaderBytes + body.size());
  put_u32(frame, std::uint32_t(kHeaderBytes + body.size()));
  put_u32(frame, kMagic);
  frame.push_back(char(kVersion));
  frame.push_back(char(type));
  put_u16(frame, std::uint16_t(status));
  put_u64(frame, crc32c(body.data(), body.size()));
  frame += body;
  return frame;
}

Status parse_frame(const std::uint8_t* data, std::size_t len,
                   ParsedFrame* out) {
  if (len > kMaxFrameBytes) return Status::kOversize;
  if (len < kHeaderBytes) return Status::kTruncated;
  Reader r{data, len};
  if (r.u32() != kMagic) return Status::kBadMagic;
  std::uint8_t version = 0;
  r.take(&version, 1);
  if (version != kVersion) return Status::kBadVersion;
  std::uint8_t type = 0;
  r.take(&type, 1);
  if (type < std::uint8_t(FrameType::kHello) ||
      type > std::uint8_t(FrameType::kByeAck)) {
    return Status::kBadFrameType;
  }
  const std::uint16_t status = r.u16();
  const std::uint64_t crc = r.u64();
  if (crc32c(r.p, r.n) != crc) return Status::kBadCrc;
  out->type = FrameType(type);
  out->status = Status(status);
  out->body = r.p;
  out->body_len = r.n;
  return Status::kOk;
}

std::string encode_hello(const Hello& h) {
  std::string b;
  put_u32(b, h.tenant_id);
  put_u32(b, h.scenario_id);
  put_u32(b, h.node_count);
  put_u32(b, 0);  // reserved
  return b;
}

std::optional<Hello> decode_hello(const std::uint8_t* body, std::size_t len) {
  Reader r{body, len};
  Hello h;
  h.tenant_id = r.u32();
  h.scenario_id = r.u32();
  h.node_count = r.u32();
  r.u32();
  if (!r.ok) return std::nullopt;
  return h;
}

std::string encode_hello_ack(const HelloAck& a) {
  std::string b;
  put_u32(b, a.tenant_id);
  put_u64(b, a.session_id);
  put_u32(b, a.max_frame_bytes);
  put_u32(b, a.decode_threads);
  return b;
}

std::optional<HelloAck> decode_hello_ack(const std::uint8_t* body,
                                         std::size_t len) {
  Reader r{body, len};
  HelloAck a;
  a.tenant_id = r.u32();
  a.session_id = r.u64();
  a.max_frame_bytes = r.u32();
  a.decode_threads = r.u32();
  if (!r.ok) return std::nullopt;
  return a;
}

std::string encode_data(const DataHeader& h, const double* y, std::size_t n) {
  std::string b;
  b.reserve(40 + 8 * n);
  put_u32(b, h.scenario_id);
  put_u32(b, h.m);
  put_u64(b, h.phi_seed);
  put_u64(b, h.node_id);
  put_u64(b, h.epoch_index);
  put_u32(b, std::uint32_t(n));
  put_u32(b, 0);  // reserved
  put_f64s(b, y, n);
  return b;
}

std::optional<DataFrame> decode_data(const std::uint8_t* body, std::size_t len,
                                     Status* why) {
  Reader r{body, len};
  DataFrame f;
  f.header.scenario_id = r.u32();
  f.header.m = r.u32();
  f.header.phi_seed = r.u64();
  f.header.node_id = r.u64();
  f.header.epoch_index = r.u64();
  const std::uint32_t count = r.u32();
  r.u32();
  if (!r.ok) {
    *why = Status::kTruncated;
    return std::nullopt;
  }
  if (std::size_t(count) * 8 > kMaxFrameBytes) {
    *why = Status::kOversize;
    return std::nullopt;
  }
  if (r.n != std::size_t(count) * 8) {
    // The declared count and the actual payload disagree: a torn frame.
    *why = Status::kTruncated;
    return std::nullopt;
  }
  f.y.resize(count);
  r.f64s(f.y.data(), count);
  *why = Status::kOk;
  return f;
}

std::string encode_detection(const Detection& d) {
  std::string b;
  put_u64(b, d.node_id);
  put_u64(b, d.epoch_index);
  put_f64s(b, &d.score, 1);
  put_u32(b, d.n_samples);
  b.push_back(char(d.detected));
  b.push_back(0);
  b.push_back(0);
  b.push_back(0);  // pad to 8-byte multiple
  return b;
}

std::optional<Detection> decode_detection(const std::uint8_t* body,
                                          std::size_t len) {
  Reader r{body, len};
  Detection d;
  d.node_id = r.u64();
  d.epoch_index = r.u64();
  r.f64s(&d.score, 1);
  d.n_samples = r.u32();
  std::uint8_t det = 0;
  r.take(&det, 1);
  d.detected = det;
  if (!r.ok) return std::nullopt;
  return d;
}

std::string encode_error(const ErrorBody& e) {
  std::string b;
  put_u64(b, e.node_id);
  put_u64(b, e.epoch_index);
  b += e.message;
  return b;
}

std::optional<ErrorBody> decode_error(const std::uint8_t* body,
                                      std::size_t len) {
  Reader r{body, len};
  ErrorBody e;
  e.node_id = r.u64();
  e.epoch_index = r.u64();
  if (!r.ok) return std::nullopt;
  e.message.assign(reinterpret_cast<const char*>(r.p), r.n);
  return e;
}

std::string encode_bye_ack(const ByeAck& b) {
  std::string s;
  put_u64(s, b.frames_accepted);
  put_u64(s, b.detections_sent);
  put_u64(s, b.frames_rejected);
  return s;
}

std::optional<ByeAck> decode_bye_ack(const std::uint8_t* body,
                                     std::size_t len) {
  Reader r{body, len};
  ByeAck b;
  b.frames_accepted = r.u64();
  b.detections_sent = r.u64();
  b.frames_rejected = r.u64();
  if (!r.ok) return std::nullopt;
  return b;
}

}  // namespace efficsense::serve
