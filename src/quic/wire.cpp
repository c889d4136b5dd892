#include "quic/wire.h"

#include <algorithm>

namespace doxlab::quic {

std::string_view version_name(QuicVersion v) {
  switch (v) {
    case QuicVersion::kV1: return "v1";
    case QuicVersion::kDraft29: return "draft-29";
    case QuicVersion::kDraft32: return "draft-32";
    case QuicVersion::kDraft34: return "draft-34";
  }
  return "unknown";
}

std::vector<std::uint8_t> AddressToken::encode() const {
  ByteWriter w;
  w.u64(server_secret);
  w.u32(client_ip);
  w.u64(static_cast<std::uint64_t>(issued_at));
  w.u64(static_cast<std::uint64_t>(lifetime));
  w.u8(from_retry ? 1 : 0);
  // Real tokens are AEAD-sealed blobs; pad to a realistic size (~48 bytes).
  w.pad(48 - w.size());
  return w.take();
}

std::optional<AddressToken> AddressToken::decode(
    std::span<const std::uint8_t> data) {
  ByteReader r(data);
  AddressToken t;
  auto secret = r.u64();
  auto ip = r.u32();
  auto issued = r.u64();
  auto lifetime = r.u64();
  auto retry = r.u8();
  if (!secret || !ip || !issued || !lifetime || !retry) return std::nullopt;
  t.server_secret = *secret;
  t.client_ip = *ip;
  t.issued_at = static_cast<SimTime>(*issued);
  t.lifetime = static_cast<SimTime>(*lifetime);
  t.from_retry = *retry != 0;
  return t;
}

PnSpace space_of(PacketType type) {
  switch (type) {
    case PacketType::kInitial: return PnSpace::kInitial;
    case PacketType::kHandshake: return PnSpace::kHandshake;
    case PacketType::kZeroRtt:
    case PacketType::kOneRtt: return PnSpace::kAppData;
    case PacketType::kRetry:
    case PacketType::kVersionNegotiation: return PnSpace::kInitial;
  }
  return PnSpace::kInitial;
}

namespace {

constexpr std::size_t kAeadTag = 16;
constexpr std::size_t kCidBytes = 8;

// First-byte encodings. Long header: form bit 0x80 + fixed 0x40 + type.
constexpr std::uint8_t kFirstInitial = 0xC0;
constexpr std::uint8_t kFirstZeroRtt = 0xD0;
constexpr std::uint8_t kFirstHandshake = 0xE0;
constexpr std::uint8_t kFirstRetry = 0xF0;
constexpr std::uint8_t kFirstOneRtt = 0x40;

/// RFC 9000 §16 varint width for `v` (1, 2, 4 or 8 bytes).
constexpr std::size_t varint_size(std::uint64_t v) {
  if (v < (1ull << 6)) return 1;
  if (v < (1ull << 14)) return 2;
  if (v < (1ull << 30)) return 4;
  return 8;
}

/// Exact encoded size of `frames`; mirrors encode_frames() case by case.
std::size_t encoded_frames_size(const std::vector<Frame>& frames) {
  std::size_t total = 0;
  for (const Frame& f : frames) {
    switch (f.type) {
      case FrameType::kPadding:
      case FrameType::kPing:
      case FrameType::kHandshakeDone:
        total += 1;
        break;
      case FrameType::kAck: {
        total += 1;
        if (f.ack_ranges.empty()) {
          total += 4;  // four zero varints
          break;
        }
        const AckRange& top = f.ack_ranges.front();
        total += varint_size(top.last) + varint_size(0) +
                 varint_size(f.ack_ranges.size() - 1) +
                 varint_size(top.last - top.first);
        std::uint64_t prev_first = top.first;
        for (std::size_t i = 1; i < f.ack_ranges.size(); ++i) {
          const AckRange& r = f.ack_ranges[i];
          total += varint_size(prev_first - r.last - 2) +
                   varint_size(r.last - r.first);
          prev_first = r.first;
        }
        break;
      }
      case FrameType::kCrypto:
        total += 1 + varint_size(f.offset) + varint_size(f.data.size()) +
                 f.data.size();
        break;
      case FrameType::kNewToken:
        total += 1 + varint_size(f.token.size()) + f.token.size();
        break;
      case FrameType::kStream:
        total += 1 + varint_size(f.stream_id) + varint_size(f.offset) +
                 varint_size(f.data.size()) + f.data.size();
        break;
      case FrameType::kConnectionClose:
        total += 1 + varint_size(f.error_code) + varint_size(0) +
                 varint_size(f.reason.size()) + f.reason.size();
        break;
    }
  }
  return total;
}

void encode_frames(ByteWriter& w, const std::vector<Frame>& frames) {
  for (const Frame& f : frames) {
    switch (f.type) {
      case FrameType::kPadding:
        w.u8(0x00);
        break;
      case FrameType::kPing:
        w.u8(0x01);
        break;
      case FrameType::kAck: {
        // RFC 9000 §19.3: largest, delay, range count, first range, then
        // alternating gap/length pairs, all descending.
        w.u8(0x02);
        if (f.ack_ranges.empty()) {
          w.varint(0);
          w.varint(0);
          w.varint(0);
          w.varint(0);
          break;
        }
        const AckRange& top = f.ack_ranges.front();
        w.varint(top.last);
        w.varint(0);  // ack delay
        w.varint(f.ack_ranges.size() - 1);
        w.varint(top.last - top.first);
        std::uint64_t prev_first = top.first;
        for (std::size_t i = 1; i < f.ack_ranges.size(); ++i) {
          const AckRange& r = f.ack_ranges[i];
          // gap = number of missing packets between ranges - 1.
          w.varint(prev_first - r.last - 2);
          w.varint(r.last - r.first);
          prev_first = r.first;
        }
        break;
      }
      case FrameType::kCrypto:
        w.u8(0x06);
        w.varint(f.offset);
        w.varint(f.data.size());
        w.bytes(f.data);
        break;
      case FrameType::kNewToken:
        w.u8(0x07);
        w.varint(f.token.size());
        w.bytes(f.token);
        break;
      case FrameType::kStream: {
        // STREAM with OFF|LEN bits (+FIN).
        std::uint8_t first = 0x08 | 0x04 | 0x02 | (f.fin ? 0x01 : 0x00);
        w.u8(first);
        w.varint(f.stream_id);
        w.varint(f.offset);
        w.varint(f.data.size());
        w.bytes(f.data);
        break;
      }
      case FrameType::kConnectionClose:
        w.u8(0x1C);
        w.varint(f.error_code);
        w.varint(0);  // frame type
        w.varint(f.reason.size());
        w.bytes(f.reason);
        break;
      case FrameType::kHandshakeDone:
        w.u8(0x1E);
        break;
    }
  }
}

std::optional<std::vector<Frame>> decode_frames(
    std::span<const std::uint8_t> payload) {
  std::vector<Frame> out;
  ByteReader r(payload);
  while (!r.at_end()) {
    auto first = r.u8();
    if (!first) return std::nullopt;
    Frame f;
    switch (*first) {
      case 0x00:
        continue;  // padding: not materialized
      case 0x01:
        f.type = FrameType::kPing;
        break;
      case 0x02: {
        f.type = FrameType::kAck;
        auto largest = r.varint();
        auto delay = r.varint();
        auto range_count = r.varint();
        auto range0 = r.varint();
        if (!largest || !delay || !range_count || !range0) return std::nullopt;
        if (*range0 > *largest) return std::nullopt;
        f.ack_ranges.push_back(AckRange{*largest - *range0, *largest});
        std::uint64_t prev_first = *largest - *range0;
        for (std::uint64_t i = 0; i < *range_count; ++i) {
          auto gap = r.varint();
          auto len = r.varint();
          if (!gap || !len) return std::nullopt;
          if (*gap + 2 > prev_first) return std::nullopt;
          const std::uint64_t last = prev_first - *gap - 2;
          if (*len > last) return std::nullopt;
          f.ack_ranges.push_back(AckRange{last - *len, last});
          prev_first = last - *len;
        }
        break;
      }
      case 0x06: {
        f.type = FrameType::kCrypto;
        auto offset = r.varint();
        auto len = r.varint();
        if (!offset || !len) return std::nullopt;
        auto data = r.bytes(*len);
        if (!data) return std::nullopt;
        f.offset = *offset;
        f.data.assign(data->begin(), data->end());
        break;
      }
      case 0x07: {
        f.type = FrameType::kNewToken;
        auto len = r.varint();
        if (!len) return std::nullopt;
        auto data = r.bytes(*len);
        if (!data) return std::nullopt;
        f.token.assign(data->begin(), data->end());
        break;
      }
      case 0x1C: {
        f.type = FrameType::kConnectionClose;
        auto code = r.varint();
        auto frame_type = r.varint();
        auto len = r.varint();
        if (!code || !frame_type || !len) return std::nullopt;
        auto reason = r.string(*len);
        if (!reason) return std::nullopt;
        f.error_code = *code;
        f.reason = std::move(*reason);
        break;
      }
      case 0x1E:
        f.type = FrameType::kHandshakeDone;
        break;
      default: {
        if ((*first & 0xF8) == 0x08) {
          f.type = FrameType::kStream;
          f.fin = (*first & 0x01) != 0;
          auto id = r.varint();
          auto offset = r.varint();
          auto len = r.varint();
          if (!id || !offset || !len) return std::nullopt;
          auto data = r.bytes(*len);
          if (!data) return std::nullopt;
          f.stream_id = *id;
          f.offset = *offset;
          f.data.assign(data->begin(), data->end());
          break;
        }
        return std::nullopt;  // unknown frame type
      }
    }
    out.push_back(std::move(f));
  }
  return out;
}

/// Writes one packet into `w`; the frame payload goes straight into the
/// writer (the length varint is computed analytically up front, so no
/// intermediate body buffer is needed).
void encode_packet_into(ByteWriter& w, const QuicPacket& packet) {
  switch (packet.type) {
    case PacketType::kVersionNegotiation: {
      w.u8(0x80);
      w.u32(0);  // version 0 marks VN
      w.u8(kCidBytes);
      w.u64(packet.dcid);
      w.u8(kCidBytes);
      w.u64(packet.scid);
      for (QuicVersion v : packet.supported_versions) {
        w.u32(static_cast<std::uint32_t>(v));
      }
      return;
    }
    case PacketType::kRetry: {
      w.u8(kFirstRetry);
      w.u32(static_cast<std::uint32_t>(packet.version));
      w.u8(kCidBytes);
      w.u64(packet.dcid);
      w.u8(kCidBytes);
      w.u64(packet.scid);
      w.varint(packet.token.size());
      w.bytes(packet.token);
      w.pad(16);  // retry integrity tag
      return;
    }
    case PacketType::kInitial:
    case PacketType::kZeroRtt:
    case PacketType::kHandshake: {
      const std::uint8_t first = packet.type == PacketType::kInitial
                                     ? kFirstInitial
                                     : packet.type == PacketType::kZeroRtt
                                           ? kFirstZeroRtt
                                           : kFirstHandshake;
      w.u8(first);
      w.u32(static_cast<std::uint32_t>(packet.version));
      w.u8(kCidBytes);
      w.u64(packet.dcid);
      w.u8(kCidBytes);
      w.u64(packet.scid);
      if (packet.type == PacketType::kInitial) {
        w.varint(packet.token.size());
        w.bytes(packet.token);
      }
      // Length covers packet number (2 bytes) + payload + tag.
      w.varint(2 + encoded_frames_size(packet.frames) + kAeadTag);
      w.u16(static_cast<std::uint16_t>(packet.packet_number));
      encode_frames(w, packet.frames);
      w.pad(kAeadTag);
      return;
    }
    case PacketType::kOneRtt: {
      // Model simplification: short-header packets carry an explicit length
      // varint so coalesced parsing works without header protection.
      w.u8(kFirstOneRtt);
      w.u64(packet.dcid);
      w.varint(2 + encoded_frames_size(packet.frames) + kAeadTag);
      w.u16(static_cast<std::uint16_t>(packet.packet_number));
      encode_frames(w, packet.frames);
      w.pad(kAeadTag);
      return;
    }
  }
}

}  // namespace

std::vector<std::uint8_t> encode_packet(const QuicPacket& packet) {
  ByteWriter w(encoded_packet_size(packet));
  encode_packet_into(w, packet);
  return w.take();
}

std::size_t encoded_packet_size(const QuicPacket& packet) {
  switch (packet.type) {
    case PacketType::kVersionNegotiation:
      return 1 + 4 + (1 + 8) * 2 + 4 * packet.supported_versions.size();
    case PacketType::kRetry:
      return 1 + 4 + (1 + 8) * 2 + varint_size(packet.token.size()) +
             packet.token.size() + 16;
    case PacketType::kInitial:
    case PacketType::kZeroRtt:
    case PacketType::kHandshake: {
      const std::size_t body = 2 + encoded_frames_size(packet.frames) +
                               kAeadTag;
      std::size_t size = 1 + 4 + (1 + 8) * 2;
      if (packet.type == PacketType::kInitial) {
        size += varint_size(packet.token.size()) + packet.token.size();
      }
      return size + varint_size(body) + body;
    }
    case PacketType::kOneRtt: {
      const std::size_t body = 2 + encoded_frames_size(packet.frames) +
                               kAeadTag;
      return 1 + 8 + varint_size(body) + body;
    }
  }
  return 0;
}

util::Buffer encode_datagram(std::span<const QuicPacket> packets,
                             bool sender_is_client) {
  std::size_t total = 0;
  bool pad = false;
  for (const QuicPacket& p : packets) {
    if (p.type == PacketType::kInitial &&
        (sender_is_client || p.ack_eliciting())) {
      pad = true;
    }
    total += encoded_packet_size(p);
  }
  const std::size_t wire = pad ? std::max(total, kMinInitialDatagram) : total;
  ByteWriter w = ByteWriter::pooled(wire, /*headroom=*/0);
  for (const QuicPacket& p : packets) encode_packet_into(w, p);
  if (pad && w.size() < kMinInitialDatagram) {
    w.pad(kMinInitialDatagram - w.size());
  }
  return w.take_buffer();
}

std::optional<std::vector<QuicPacket>> decode_datagram(
    std::span<const std::uint8_t> datagram) {
  std::vector<QuicPacket> out;
  ByteReader r(datagram);
  while (!r.at_end()) {
    auto first = r.u8();
    if (!first) return std::nullopt;
    if (*first == 0x00) continue;  // datagram padding

    QuicPacket p;
    if ((*first & 0x80) != 0) {
      // Long header.
      auto version = r.u32();
      auto dcid_len = r.u8();
      if (!version || !dcid_len || *dcid_len != kCidBytes) return std::nullopt;
      auto dcid = r.u64();
      auto scid_len = r.u8();
      if (!dcid || !scid_len || *scid_len != kCidBytes) return std::nullopt;
      auto scid = r.u64();
      if (!scid) return std::nullopt;
      p.dcid = *dcid;
      p.scid = *scid;

      if (*version == 0) {
        p.type = PacketType::kVersionNegotiation;
        while (r.remaining() >= 4) {
          auto v = r.u32();
          p.supported_versions.push_back(static_cast<QuicVersion>(*v));
        }
        out.push_back(std::move(p));
        return out;  // VN is never coalesced
      }
      p.version = static_cast<QuicVersion>(*version);

      const std::uint8_t type_bits = *first & 0xF0;
      if (type_bits == kFirstRetry) {
        p.type = PacketType::kRetry;
        auto token_len = r.varint();
        if (!token_len) return std::nullopt;
        auto token = r.bytes(*token_len);
        if (!token) return std::nullopt;
        p.token.assign(token->begin(), token->end());
        if (!r.bytes(16)) return std::nullopt;  // integrity tag
        out.push_back(std::move(p));
        continue;
      }

      p.type = type_bits == kFirstInitial
                   ? PacketType::kInitial
                   : type_bits == kFirstZeroRtt ? PacketType::kZeroRtt
                                                : PacketType::kHandshake;
      if (p.type == PacketType::kInitial) {
        auto token_len = r.varint();
        if (!token_len) return std::nullopt;
        auto token = r.bytes(*token_len);
        if (!token) return std::nullopt;
        p.token.assign(token->begin(), token->end());
      }
      auto length = r.varint();
      if (!length || *length < 2 + kAeadTag) return std::nullopt;
      auto pn = r.u16();
      if (!pn) return std::nullopt;
      p.packet_number = *pn;
      auto payload = r.bytes(*length - 2 - kAeadTag);
      if (!payload) return std::nullopt;
      if (!r.bytes(kAeadTag)) return std::nullopt;
      auto frames = decode_frames(*payload);
      if (!frames) return std::nullopt;
      p.frames = std::move(*frames);
      out.push_back(std::move(p));
    } else {
      // Short header (1-RTT).
      p.type = PacketType::kOneRtt;
      auto dcid = r.u64();
      auto length = r.varint();
      if (!dcid || !length || *length < 2 + kAeadTag) return std::nullopt;
      p.dcid = *dcid;
      auto pn = r.u16();
      if (!pn) return std::nullopt;
      p.packet_number = *pn;
      auto payload = r.bytes(*length - 2 - kAeadTag);
      if (!payload) return std::nullopt;
      if (!r.bytes(kAeadTag)) return std::nullopt;
      auto frames = decode_frames(*payload);
      if (!frames) return std::nullopt;
      p.frames = std::move(*frames);
      out.push_back(std::move(p));
    }
  }
  return out;
}

std::uint64_t decode_packet_number(std::optional<std::uint64_t> largest,
                                   std::uint64_t truncated, unsigned bits) {
  const std::uint64_t expected = largest ? *largest + 1 : 0;
  const std::uint64_t window = std::uint64_t{1} << bits;
  const std::uint64_t half = window / 2;
  const std::uint64_t candidate = (expected & ~(window - 1)) | truncated;
  // The RFC's `candidate <= expected - half`, kept from wrapping below 0.
  if (candidate + half <= expected &&
      candidate < (std::uint64_t{1} << 62) - window) {
    return candidate + window;
  }
  if (candidate > expected + half && candidate >= window) {
    return candidate - window;
  }
  return candidate;
}

}  // namespace doxlab::quic
