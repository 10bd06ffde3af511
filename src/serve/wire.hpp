#pragma once
// Wire protocol of the streaming gateway (DESIGN.md §14). Sessions exchange
// length-prefixed binary frames; every frame starts with a fixed 16-byte
// header (magic, version, type, status, CRC-32C of the body zero-extended
// to 64 bits) followed by a type-specific body.
// All integers are little-endian fixed width; doubles travel as their raw
// IEEE-754 bit patterns, so a detection score returned by the daemon can be
// compared bit for bit against the offline oracle.
//
// Encoding/decoding here is pure byte-buffer work with no sockets attached,
// so the parser is directly unit-testable (and sanitizer-fuzzable) against
// truncated, corrupted and hostile inputs.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace efficsense::serve {

/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78, initial value and
/// final xor 0xFFFFFFFF) of a byte range: the frame body checksum. Runs the
/// SSE4.2 crc32 instruction when the CPU has it, else crc32c_table.
std::uint32_t crc32c(const void* data, std::size_t n);
/// The portable path: one 256-entry table lookup per byte.
std::uint32_t crc32c_table(const void* data, std::size_t n);
/// The hardware path; call only when cpu_has_sse42().
std::uint32_t crc32c_sse42(const void* data, std::size_t n);
/// True when the CPU has the SSE4.2 crc32 instruction (cached probe).
bool cpu_has_sse42();

inline constexpr std::uint32_t kMagic = 0x45535256;  // "ESRV"
/// Version 2: CRC-32C body checksum (version 1 carried FNV-1a 64).
inline constexpr std::uint8_t kVersion = 2;
/// Wire header: u32 magic, u8 version, u8 type, u16 status, u64 crc (the
/// CRC-32C in the low 32 bits, the high 32 bits zero).
inline constexpr std::size_t kHeaderBytes = 16;
/// Hard ceiling on one frame's length prefix: nothing the protocol carries
/// legitimately approaches this, so larger prefixes are rejected before any
/// allocation happens (a hostile length cannot balloon memory).
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,      ///< client -> server: open a tenant session
  kHelloAck = 2,   ///< server -> client: session accepted
  kData = 3,       ///< client -> server: one epoch of measurements
  kDetection = 4,  ///< server -> client: the decoded epoch's detection
  kError = 5,      ///< server -> client: typed rejection
  kBye = 6,        ///< client -> server: no more data, flush and close
  kByeAck = 7,     ///< server -> client: session totals, then close
};

enum class Status : std::uint16_t {
  kOk = 0,
  // Retryable rejections (the client may resend the same frame later).
  kRetryBusy = 1,    ///< tenant decode queue full (backpressure)
  kRetryBudget = 2,  ///< session or global byte budget exhausted
  kDraining = 3,     ///< daemon is draining; no new work accepted
  // Hard protocol errors (the frame, or the stream, is malformed).
  kBadMagic = 10,
  kBadVersion = 11,
  kBadCrc = 12,
  kTruncated = 13,  ///< frame shorter than its type's body, or count lies
  kOversize = 14,   ///< length prefix or payload beyond protocol limits
  kBadFrameType = 15,
  kNotHello = 16,  ///< first frame of a session must be kHello
  // Semantic rejections (well-formed frame, unservable request).
  kUnknownScenario = 20,
  kBadM = 21,        ///< M = 0 with payload not raw, M > N_Phi, or y % M != 0
  kShortEpoch = 22,  ///< decoded window shorter than one detector epoch
  kNonFinite = 23,   ///< a measurement is NaN or infinite
  kInternal = 30,    ///< decode failed after admission (server-side fault)
};

/// Retryable = transient server state, not a fault in the frame.
bool status_retryable(Status s);
const char* status_name(Status s);

struct Hello {
  std::uint32_t tenant_id = 0;
  std::uint32_t scenario_id = 0;
  std::uint32_t node_count = 0;  ///< advisory (sizing hint only)
};

struct HelloAck {
  std::uint32_t tenant_id = 0;
  std::uint64_t session_id = 0;
  std::uint32_t max_frame_bytes = 0;
  std::uint32_t decode_threads = 0;
};

/// Everything identifying one epoch's decode besides the measurements.
struct DataHeader {
  std::uint32_t scenario_id = 0;
  std::uint32_t m = 0;  ///< measurements per CS frame (0 = pass-through)
  std::uint64_t phi_seed = 0;
  std::uint64_t node_id = 0;
  std::uint64_t epoch_index = 0;
};

struct Detection {
  std::uint64_t node_id = 0;
  std::uint64_t epoch_index = 0;
  double score = 0.0;  ///< P(seizure); raw bits on the wire
  std::uint32_t n_samples = 0;
  std::uint8_t detected = 0;
};

struct ErrorBody {
  std::uint64_t node_id = 0;
  std::uint64_t epoch_index = 0;
  std::string message;
};

struct ByeAck {
  std::uint64_t frames_accepted = 0;
  std::uint64_t detections_sent = 0;
  std::uint64_t frames_rejected = 0;
};

/// A validated frame: header fields plus a view of the body bytes. The view
/// aliases the caller's buffer and is only valid while it lives.
struct ParsedFrame {
  FrameType type = FrameType::kError;
  Status status = Status::kOk;
  const std::uint8_t* body = nullptr;
  std::size_t body_len = 0;
};

// --- Frame assembly (header + crc + length prefix) --------------------------

/// Serialize a complete wire frame: u32 length prefix, header (crc computed
/// over the body), body.
std::string encode_frame(FrameType type, Status status,
                         const std::string& body);

/// Validate one frame (the bytes AFTER the length prefix): magic, version,
/// known type, crc. Returns kOk and fills `out`, or the offending status.
Status parse_frame(const std::uint8_t* data, std::size_t len,
                   ParsedFrame* out);

// --- Typed bodies -----------------------------------------------------------

std::string encode_hello(const Hello& h);
std::optional<Hello> decode_hello(const std::uint8_t* body, std::size_t len);

std::string encode_hello_ack(const HelloAck& a);
std::optional<HelloAck> decode_hello_ack(const std::uint8_t* body,
                                         std::size_t len);

/// Data body: DataHeader, u32 count, u32 reserved, count raw doubles.
std::string encode_data(const DataHeader& h, const double* y, std::size_t n);
/// Decoded data frame; `y` is copied out of the buffer.
struct DataFrame {
  DataHeader header;
  std::vector<double> y;
};
/// nullopt when the body is shorter than its declared count (kTruncated)
/// or the count exceeds the frame limit (kOversize) — `why` tells which.
std::optional<DataFrame> decode_data(const std::uint8_t* body, std::size_t len,
                                     Status* why);

std::string encode_detection(const Detection& d);
std::optional<Detection> decode_detection(const std::uint8_t* body,
                                          std::size_t len);

std::string encode_error(const ErrorBody& e);
std::optional<ErrorBody> decode_error(const std::uint8_t* body,
                                      std::size_t len);

std::string encode_bye_ack(const ByeAck& b);
std::optional<ByeAck> decode_bye_ack(const std::uint8_t* body,
                                     std::size_t len);

}  // namespace efficsense::serve
