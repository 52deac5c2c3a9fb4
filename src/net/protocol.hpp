#pragma once
/// \file protocol.hpp
/// The dlpic network wire format: a length-prefixed, versioned binary
/// protocol for inference requests, decoded exclusively through the bounded
/// FrameReader so no length field from the network is ever trusted.
///
/// Framing (all integers little-endian, mirroring util::binary_io):
///
/// | field      | type | meaning                                      |
/// |------------|------|----------------------------------------------|
/// | magic      | u32  | kMagic ("DLPN") — resync/garbage detector    |
/// | version    | u32  | kProtocolVersion — hard mismatch check       |
/// | body_len   | u64  | body bytes that follow (<= max_frame_bytes)  |
/// | body       | ...  | one message, see below                       |
///
/// Request body:  u8 type (kRequestMessage), u64 request_id, string model
/// name, u8 priority lane, i64 deadline_us (relative microseconds from
/// server receipt; < 0 or > kMaxDeadlineUs = no deadline), f64 vector
/// payload.
/// Response body: u8 type (kResponseMessage), u64 request_id, u8 status,
/// then — kOk: f64 vector result; otherwise: string error message.
///
/// Bounded-read contract: FrameReader validates every length field against
/// both the frame's remaining bytes AND the configured FrameLimits before
/// allocating, so a hostile length (0xFFFF...) costs a ProtocolError, never
/// an allocation. The frame header itself is validated (magic, version,
/// body_len <= max_frame_bytes) before the body is read off the socket.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace dlpic::net {

/// Frame magic: the bytes "DLPN" read as a little-endian u32.
inline constexpr uint32_t kMagic = 0x4E504C44u;

/// Wire-format version; bumped on any incompatible change.
inline constexpr uint32_t kProtocolVersion = 1;

/// Bytes of the fixed frame header (magic + version + body_len).
inline constexpr size_t kFrameHeaderBytes = 16;

/// Message type tags (first body byte).
inline constexpr uint8_t kRequestMessage = 1;
inline constexpr uint8_t kResponseMessage = 2;

/// Response status codes.
enum class Status : uint8_t {
  kOk = 0,             ///< payload carries the result row
  kAppError = 1,       ///< request was well-formed but failed (unknown model,
                       ///< deadline expired, forward error, shutdown...)
  kProtocolError = 2,  ///< request violated the wire format or its bounds
};

/// Decode-side bounds applied to every untrusted length field. Defaults fit
/// the serving workload (histograms of a few thousand doubles) with slack;
/// tighten them for hostile-facing deployments.
struct FrameLimits {
  /// Largest frame body accepted (also the cap a sender must respect).
  uint64_t max_frame_bytes = 1ull << 20;  // 1 MiB
  /// Largest string field (model names are short; this is generous).
  uint64_t max_string_bytes = 4096;
  /// Largest f64 vector element count (1 << 16 doubles = 512 KiB).
  uint64_t max_vector_elems = 1ull << 16;
};

/// The decode failure every malformed or out-of-bounds frame produces. A
/// protocol error is a property of the INPUT, not the server: handlers
/// reply with Status::kProtocolError and keep running.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what) : std::runtime_error(what) {}
};

/// Serializes one frame body into a growable byte buffer (little-endian,
/// mirroring util::BinaryWriter's field encodings).
class FrameWriter {
 public:
  void put_u8(uint8_t v);
  void put_u32(uint32_t v);
  void put_u64(uint64_t v);
  void put_i64(int64_t v);
  void put_f64(double v);
  void put_string(const std::string& s);               // u64 length + bytes
  void put_f64_vector(const std::vector<double>& v);   // u64 count + data

  /// The accumulated body bytes.
  [[nodiscard]] const std::vector<uint8_t>& body() const { return body_; }

  /// Full wire frame: header (magic, version, body length) + body.
  [[nodiscard]] std::vector<uint8_t> frame() const;

 private:
  void append(const void* data, size_t n);
  std::vector<uint8_t> body_;
};

/// Bounds-checked reader over one received frame body — the hardened
/// BinaryReader shape applied to untrusted memory: every read is validated
/// against the remaining bytes, and every length field additionally against
/// FrameLimits, BEFORE any allocation. All failures throw ProtocolError
/// naming the offset, so the connection handler can reply cleanly.
class FrameReader {
 public:
  FrameReader(const uint8_t* data, size_t size, const FrameLimits& limits)
      : data_(data), size_(size), limits_(limits) {}

  uint8_t read_u8();
  uint32_t read_u32();
  uint64_t read_u64();
  int64_t read_i64();
  double read_f64();
  std::string read_string();
  std::vector<double> read_f64_vector();

  /// Bytes not yet consumed.
  [[nodiscard]] size_t remaining() const { return size_ - offset_; }
  /// True when the whole body has been consumed (a well-formed message
  /// leaves no garbage tail).
  [[nodiscard]] bool at_end() const { return offset_ == size_; }
  /// Bytes consumed so far (the offset reported by errors).
  [[nodiscard]] size_t offset() const { return offset_; }

  /// Throws ProtocolError unless the body was consumed exactly.
  void expect_end(const char* what) const;

 private:
  const uint8_t* cursor(size_t bytes, const char* what);  // bounds-check + advance
  const uint8_t* data_;
  size_t size_;
  FrameLimits limits_;
  size_t offset_ = 0;
};

/// Fixed-size frame header, validated field by field.
struct FrameHeader {
  uint32_t magic = kMagic;
  uint32_t version = kProtocolVersion;
  uint64_t body_len = 0;
};

/// Encodes a header into exactly kFrameHeaderBytes at `out`.
void encode_frame_header(const FrameHeader& header, uint8_t out[kFrameHeaderBytes]);

/// Decodes + validates a header: magic, version, and body_len against
/// `limits.max_frame_bytes`. Throws ProtocolError on any violation —
/// BEFORE anything is allocated for the body.
FrameHeader decode_frame_header(const uint8_t data[kFrameHeaderBytes],
                                const FrameLimits& limits);

/// Longest relative deadline a request can carry: one day. Larger values,
/// like negative ones, mean no deadline, so the server's receipt time plus
/// the deadline cannot overflow the clock.
inline constexpr int64_t kMaxDeadlineUs = int64_t{86'400} * 1'000'000;

/// One decoded inference request as it travels the wire.
struct NetRequest {
  uint64_t request_id = 0;
  std::string model;            ///< registered bundle name
  uint8_t priority = 1;         ///< serve::Priority lane index (0/1)
  int64_t deadline_us = -1;     ///< relative expiry from receipt; < 0 or
                                ///< > kMaxDeadlineUs = none
  std::vector<double> payload;  ///< flattened input sample
};

/// One response as it travels the wire.
struct NetResponse {
  uint64_t request_id = 0;
  Status status = Status::kOk;
  std::vector<double> payload;  ///< set when status == kOk
  std::string error;            ///< set when status != kOk
};

/// Encodes a full request frame (header + body).
std::vector<uint8_t> encode_request(const NetRequest& request);

/// Decodes a request body. Throws ProtocolError on malformed input,
/// including an unconsumed garbage tail.
NetRequest decode_request(const uint8_t* body, size_t size, const FrameLimits& limits);

/// Encodes a full response frame (header + body).
std::vector<uint8_t> encode_response(const NetResponse& response);

/// Decodes a response body (the client side of the same contract).
NetResponse decode_response(const uint8_t* body, size_t size, const FrameLimits& limits);

}  // namespace dlpic::net
