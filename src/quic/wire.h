// QUIC packet and frame codec.
//
// Packets are encoded byte-faithfully enough for the study's size accounting:
// long headers carry version, 8-byte connection IDs, the INITIAL token and a
// varint length; every protected packet pays a 16-byte AEAD tag; datagrams
// that contain an ack-eliciting INITIAL are padded to 1200 bytes. One
// deliberate simplification is documented inline: short-header (1-RTT)
// packets also carry an explicit length varint so that coalesced parsing
// needs no header protection logic.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "quic/types.h"
#include "util/buffer.h"
#include "util/bytes.h"

namespace doxlab::quic {

enum class PacketType : std::uint8_t {
  kInitial,
  kZeroRtt,
  kHandshake,
  kRetry,
  kVersionNegotiation,
  kOneRtt,
};

/// Which packet-number space a packet type belongs to.
PnSpace space_of(PacketType type);

enum class FrameType : std::uint8_t {
  kPadding = 0x00,
  kPing = 0x01,
  kAck = 0x02,
  kCrypto = 0x06,
  kNewToken = 0x07,
  kStream = 0x08,  // bits 0x08..0x0F; we always set LEN|OFF and FIN as needed
  kConnectionClose = 0x1C,
  kHandshakeDone = 0x1E,
};

/// Inclusive packet-number range [first, last].
struct AckRange {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  bool operator==(const AckRange&) const = default;
};

/// A decoded/encodable frame. Exactly the fields relevant to `type` are
/// meaningful; the rest stay default.
struct Frame {
  FrameType type = FrameType::kPadding;

  // kAck: ranges sorted descending by packet number (RFC 9000 §19.3).
  std::vector<AckRange> ack_ranges;

  // kCrypto / kStream.
  std::uint64_t offset = 0;
  std::vector<std::uint8_t> data;

  // kStream.
  std::uint64_t stream_id = 0;
  bool fin = false;

  // kNewToken.
  std::vector<std::uint8_t> token;

  // kConnectionClose.
  std::uint64_t error_code = 0;
  std::string reason;

  /// True for frames that demand acknowledgement (everything but ACK,
  /// PADDING and CONNECTION_CLOSE — RFC 9002 §2).
  bool ack_eliciting() const {
    return type != FrameType::kAck && type != FrameType::kPadding &&
           type != FrameType::kConnectionClose;
  }

  static Frame ack(std::vector<AckRange> ranges) {
    Frame f;
    f.type = FrameType::kAck;
    f.ack_ranges = std::move(ranges);
    return f;
  }

  /// True if `pn` falls inside any acknowledged range.
  bool acks(std::uint64_t pn) const {
    for (const AckRange& r : ack_ranges) {
      if (pn >= r.first && pn <= r.last) return true;
    }
    return false;
  }
  static Frame crypto(std::uint64_t offset, std::vector<std::uint8_t> data) {
    Frame f;
    f.type = FrameType::kCrypto;
    f.offset = offset;
    f.data = std::move(data);
    return f;
  }
  static Frame stream(std::uint64_t id, std::uint64_t offset,
                      std::vector<std::uint8_t> data, bool fin) {
    Frame f;
    f.type = FrameType::kStream;
    f.stream_id = id;
    f.offset = offset;
    f.data = std::move(data);
    f.fin = fin;
    return f;
  }
  static Frame new_token(std::vector<std::uint8_t> token) {
    Frame f;
    f.type = FrameType::kNewToken;
    f.token = std::move(token);
    return f;
  }
  static Frame connection_close(std::uint64_t code, std::string reason) {
    Frame f;
    f.type = FrameType::kConnectionClose;
    f.error_code = code;
    f.reason = std::move(reason);
    return f;
  }
  static Frame ping() {
    Frame f;
    f.type = FrameType::kPing;
    return f;
  }
  static Frame handshake_done() {
    Frame f;
    f.type = FrameType::kHandshakeDone;
    return f;
  }
};

/// A packet before encoding / after decoding.
struct QuicPacket {
  PacketType type = PacketType::kInitial;
  QuicVersion version = QuicVersion::kV1;
  std::uint64_t dcid = 0;
  std::uint64_t scid = 0;
  /// The full number when encoding; after decoding, only its low
  /// kPacketNumberBits bits (see decode_packet_number).
  std::uint64_t packet_number = 0;
  std::vector<std::uint8_t> token;  // INITIAL: address token; Retry: minted
  std::vector<QuicVersion> supported_versions;  // VN only
  std::vector<Frame> frames;

  bool ack_eliciting() const {
    for (const Frame& f : frames) {
      if (f.ack_eliciting()) return true;
    }
    return false;
  }
};

/// Packet numbers travel truncated to their low 16 bits (a 2-byte
/// packet-number field).
inline constexpr unsigned kPacketNumberBits = 16;

/// RFC 9000 Appendix A.3: the full packet number whose low `bits` bits are
/// `truncated` and which lies closest to the successor of `largest`, the
/// largest number received so far in the packet's space (nullopt before
/// the first). Correct while the sender keeps the gap to the peer's
/// largest acknowledged number under 2^(bits - 1).
std::uint64_t decode_packet_number(std::optional<std::uint64_t> largest,
                                   std::uint64_t truncated,
                                   unsigned bits = kPacketNumberBits);

/// Encodes one packet (including its 16-byte tag for protected types).
std::vector<std::uint8_t> encode_packet(const QuicPacket& packet);

/// Exact encoded size of `packet`, computed analytically without encoding.
/// Matches `encode_packet(packet).size()` byte for byte; used by the packet
/// scheduler to size datagrams without a throwaway encode per packet.
std::size_t encoded_packet_size(const QuicPacket& packet);

/// Encodes a datagram from coalesced packets, applying RFC 9000 §14.1
/// padding to 1200 bytes: clients pad every INITIAL-carrying datagram,
/// servers pad those carrying an ack-eliciting INITIAL. All coalesced
/// packets are written into one exactly-sized pooled buffer.
util::Buffer encode_datagram(std::span<const QuicPacket> packets,
                             bool sender_is_client);

/// Decodes all packets coalesced in a datagram; nullopt on malformed input.
/// Trailing zero padding is skipped.
std::optional<std::vector<QuicPacket>> decode_datagram(
    std::span<const std::uint8_t> datagram);

}  // namespace doxlab::quic
