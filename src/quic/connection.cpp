#include "quic/connection.h"

#include <algorithm>
#include <cassert>

#include "util/logging.h"

namespace doxlab::quic {

namespace {
/// Conservative per-packet header + tag overhead used when splitting frames
/// across packets (actual encoding is exact; this only bounds chunk sizes).
constexpr std::size_t kPacketOverhead = 80;
/// Per-frame overhead bound (type + varints).
constexpr std::size_t kFrameOverhead = 24;
/// RFC 9002 §6.1.1 packet reordering threshold: a packet is declared lost
/// when one sent at least this many packet numbers later is acknowledged.
constexpr std::uint64_t kPacketThreshold = 3;
}  // namespace

std::shared_ptr<QuicConnection> QuicConnection::make_client(
    sim::Simulator& sim, QuicConfig config, Callbacks callbacks) {
  config.is_server = false;
  return std::shared_ptr<QuicConnection>(
      new QuicConnection(sim, std::move(config), std::move(callbacks)));
}

std::shared_ptr<QuicConnection> QuicConnection::make_server(
    sim::Simulator& sim, QuicConfig config, Callbacks callbacks,
    bool address_validated) {
  config.is_server = true;
  auto conn = std::shared_ptr<QuicConnection>(
      new QuicConnection(sim, std::move(config), std::move(callbacks)));
  conn->address_validated_ = address_validated;
  return conn;
}

QuicConnection::QuicConnection(sim::Simulator& sim, QuicConfig config,
                               Callbacks callbacks)
    : sim_(sim),
      config_(std::move(config)),
      cb_(std::move(callbacks)),
      tls_wire_(config_.tls_sizes),
      version_(config_.version),
      local_cid_(config_.is_server ? 0x5EC0DE5EC0DE5EC0ull
                                   : 0xC11E27C11E27C11Eull) {
  cc::CcConfig cc_config;
  cc_config.algorithm = config_.congestion_algorithm;
  cc_config.mss = config_.max_datagram_size;
  cc_config.trace = config_.cc_trace;
  cc_ = cc::CongestionController(cc_config);
  touch_idle_timer();
}

void QuicConnection::touch_idle_timer() {
  idle_timer_.cancel();
  auto self = weak_from_this();
  idle_timer_ = sim_.schedule(config_.idle_timeout, [self] {
    if (auto conn = self.lock()) {
      if (conn->closed_) return;
      conn->closed_ = true;
      conn->pto_timer_.cancel();
      conn->notify_closed(util::Error::timeout("QUIC idle timeout"));
    }
  });
}

// --------------------------------------------------------------- client API

void QuicConnection::connect(std::optional<tls::SessionTicket> ticket,
                             std::optional<AddressToken> token) {
  if (config_.is_server || connect_called_) {
    fail(util::Error::protocol("connect() on server or already-connected endpoint"));
    return;
  }
  connect_called_ = true;
  ticket_ = std::move(ticket);
  if (token) {
    token_ = token;
    initial_token_bytes_ = token->encode();
    pending_info_.presented_token = true;
  }
  send_client_initial();
}

void QuicConnection::send_client_initial() {
  tls::ClientHello ch;
  ch.max_version = tls::TlsVersion::kTls13;  // QUIC mandates TLS 1.3
  ch.sni = config_.sni;
  ch.alpn = config_.alpn;

  const bool ticket_usable = ticket_ && ticket_->valid_at(sim_.now());
  if (ticket_usable) ch.psk = *ticket_;
  const bool early_eligible = ticket_usable && config_.enable_0rtt &&
                              ticket_->allow_early_data &&
                              !queued_streams_.empty();
  ch.early_data = early_eligible;

  queue_crypto(PnSpace::kInitial, tls_wire_.client_hello_message(ch));

  if (early_eligible) {
    sent_early_data_ = true;
    for (auto& qs : queued_streams_) {
      Stream& stream = streams_[qs.id];
      queue_frame(PnSpace::kAppData,
                  Frame::stream(qs.id, stream.send_offset, qs.data, qs.fin));
      stream.send_offset += qs.data.size();
      stream.send_fin = qs.fin;
    }
  }
  if (!processing_) flush_output();
}

std::uint64_t QuicConnection::open_stream(std::vector<std::uint8_t> data,
                                          bool fin) {
  const std::uint64_t id = next_stream_id_;
  next_stream_id_ += 4;
  if (!complete_) {
    queued_streams_.push_back(QueuedStream{std::move(data), fin, id});
    // If connect() already fired and 0-RTT is active, ship it immediately
    // as another 0-RTT packet.
    if (sent_early_data_) {
      QueuedStream& qs = queued_streams_.back();
      Stream& stream = streams_[qs.id];
      queue_frame(PnSpace::kAppData,
                  Frame::stream(qs.id, stream.send_offset, qs.data, qs.fin));
      stream.send_offset += qs.data.size();
      stream.send_fin = qs.fin;
      if (!processing_) flush_output();
    }
    return id;
  }
  Stream& stream = streams_[id];
  const std::size_t len = data.size();
  queue_frame(PnSpace::kAppData,
              Frame::stream(id, stream.send_offset, std::move(data), fin));
  stream.send_offset += len;
  stream.send_fin = fin;
  if (!processing_) flush_output();
  return id;
}

void QuicConnection::send_stream(std::uint64_t stream_id,
                                 std::vector<std::uint8_t> data, bool fin) {
  if (closed_) return;
  if (!config_.is_server && !complete_) {
    // Client before handshake completion (e.g. an HTTP/3 control stream):
    // queue like open_stream does — the data rides 0-RTT when early data is
    // active, or flushes with the handshake-completion flight otherwise.
    queued_streams_.push_back(QueuedStream{std::move(data), fin, stream_id});
    if (sent_early_data_) {
      QueuedStream& qs = queued_streams_.back();
      Stream& stream = streams_[qs.id];
      queue_frame(PnSpace::kAppData,
                  Frame::stream(qs.id, stream.send_offset, qs.data, qs.fin));
      stream.send_offset += qs.data.size();
      stream.send_fin = qs.fin;
      if (!processing_) flush_output();
    }
    return;
  }
  if (stream_retired(stream_id)) return;  // both directions already finished
  Stream& stream = streams_[stream_id];
  Frame f = Frame::stream(stream_id, stream.send_offset, std::move(data), fin);
  stream.send_offset += f.data.size();
  stream.send_fin = fin;
  queue_frame(PnSpace::kAppData, std::move(f));
  retire_if_finished(stream_id);
  if (!processing_) flush_output();
}

void QuicConnection::close(std::uint64_t error_code, std::string reason) {
  if (closed_) return;
  // Before handshake completion both endpoints close in the Initial space.
  const PnSpace space = complete_ ? PnSpace::kAppData : PnSpace::kInitial;
  queue_frame(space, Frame::connection_close(error_code, reason));
  flush_output();
  closed_ = true;
  pto_timer_.cancel();
  idle_timer_.cancel();
  notify_closed(util::Error::none());
}

void QuicConnection::fail(util::Error error) {
  if (closed_) return;
  closed_ = true;
  pto_timer_.cancel();
  idle_timer_.cancel();
  DOXLAB_DEBUG("QUIC failure: " << error);
  notify_closed(error);
}

void QuicConnection::notify_closed(const util::Error& error) {
  if (cb_.on_closed) cb_.on_closed(error);
  if (app_on_closed_) app_on_closed_(error);
  // Break reference cycles: user callbacks routinely capture shared_ptrs to
  // this connection or to its owning transport state, which in turn owns
  // this connection. Dropping the handlers (one event-loop turn later, so a
  // currently-executing closure is never destroyed mid-call) lets the whole
  // object graph — including the UDP socket and its port — be reclaimed.
  auto self = shared_from_this();
  sim_.schedule(0, [self] {
    self->cb_ = Callbacks{};
    self->app_on_closed_ = nullptr;
  });
}

// ------------------------------------------------------------- output path

void QuicConnection::queue_frame(PnSpace space, Frame frame) {
  auto& pending = pending_[static_cast<int>(space)];
  if (frame.ack_eliciting()) pending.ack_only = false;
  pending.frames.push_back(std::move(frame));
}

void QuicConnection::queue_crypto(PnSpace space,
                                  std::vector<std::uint8_t> message) {
  auto& crypto = crypto_[static_cast<int>(space)];
  Frame f = Frame::crypto(crypto.send_offset, std::move(message));
  crypto.send_offset += f.data.size();
  queue_frame(space, std::move(f));
}

std::size_t QuicConnection::amplification_budget() const {
  if (!config_.is_server || address_validated_) {
    return static_cast<std::size_t>(-1);
  }
  const std::uint64_t allowed = kAmplificationFactor * unvalidated_received_;
  return allowed > unvalidated_sent_
             ? static_cast<std::size_t>(allowed - unvalidated_sent_)
             : 0;
}

void QuicConnection::flush_output() {
  if (in_flush_) return;
  in_flush_ = true;

  // Build packets directly into datagrams, filling each datagram up to the
  // MTU before opening the next. This matters for the INITIAL datagram
  // padding rule: a server coalesces INITIAL(ServerHello) with as much
  // HANDSHAKE data as fits, so the mandatory 1200-byte padding carries
  // useful bytes — which is exactly what decides whether a certificate
  // chain squeezes under the 3x anti-amplification budget.
  std::vector<std::vector<QuicPacket>> datagrams;
  std::vector<QuicPacket> current;
  std::size_t current_size = 0;
  auto close_datagram = [&] {
    if (!current.empty()) {
      datagrams.push_back(std::move(current));
      current.clear();
      current_size = 0;
    }
  };

  auto packet_type = [&](PnSpace sp) {
    switch (sp) {
      case PnSpace::kInitial: return PacketType::kInitial;
      case PnSpace::kHandshake: return PacketType::kHandshake;
      case PnSpace::kAppData:
        return (!config_.is_server && !complete_) ? PacketType::kZeroRtt
                                                  : PacketType::kOneRtt;
    }
    return PacketType::kOneRtt;
  };

  // RFC 9002 §7: with congestion control enforced, ack-eliciting frames may
  // only fill the window headroom; the excess stays pending and flushes when
  // acknowledgements free window (on_datagram always re-flushes). Pure ACKs
  // and CONNECTION_CLOSE are never blocked.
  std::size_t window_room = static_cast<std::size_t>(-1);
  if (config_.enable_cc) {
    window_room = cc_.cwnd() > bytes_in_flight_
                      ? cc_.cwnd() - bytes_in_flight_
                      : 0;
  }

  for (int s = 0; s < kNumPnSpaces; ++s) {
    auto space = static_cast<PnSpace>(s);
    auto& pending = pending_[s];
    std::vector<Frame> frames;
    if (need_ack_[s]) {
      auto ranges = received_pns_[s].descending();
      if (!ranges.empty()) frames.push_back(Frame::ack(std::move(ranges)));
      need_ack_[s] = false;
    }
    std::vector<Frame> deferred;
    for (auto& f : pending.frames) {
      if (!f.ack_eliciting()) {
        frames.push_back(std::move(f));
        continue;
      }
      if (!deferred.empty()) {
        // Later data must stay behind the first deferral (stream order).
        deferred.push_back(std::move(f));
        continue;
      }
      const std::size_t cost = f.data.size() + f.token.size() +
                               f.reason.size() + kFrameOverhead;
      if (cost <= window_room) {
        window_room -= cost;
        frames.push_back(std::move(f));
        continue;
      }
      // Partially fill the remaining window from a splittable frame.
      const bool splittable =
          f.type == FrameType::kCrypto || f.type == FrameType::kStream;
      if (splittable && window_room > kFrameOverhead + 256) {
        const std::size_t take = window_room - kFrameOverhead;
        std::vector<std::uint8_t> head(
            f.data.begin(), f.data.begin() + static_cast<long>(take));
        Frame piece =
            f.type == FrameType::kCrypto
                ? Frame::crypto(f.offset, std::move(head))
                : Frame::stream(f.stream_id, f.offset, std::move(head),
                                /*fin=*/false);
        f.data.erase(f.data.begin(),
                     f.data.begin() + static_cast<long>(take));
        f.offset += take;
        frames.push_back(std::move(piece));
        window_room = 0;
      }
      deferred.push_back(std::move(f));
    }
    pending.frames = std::move(deferred);
    pending.ack_only = pending.frames.empty();
    if (frames.empty()) continue;

    std::size_t fi = 0;
    while (fi < frames.size()) {
      const std::size_t room = config_.max_datagram_size - current_size;
      if (room < kPacketOverhead + 48) {
        close_datagram();
        continue;
      }
      QuicPacket packet;
      packet.type = packet_type(space);
      packet.version = version_;
      packet.dcid = remote_cid_;
      packet.scid = local_cid_;
      if (packet.type == PacketType::kInitial && !config_.is_server) {
        packet.token = initial_token_bytes_;
      }
      packet.packet_number = next_pn_[s]++;

      const std::size_t budget =
          room - kPacketOverhead - packet.token.size();
      std::size_t used = 0;
      while (fi < frames.size()) {
        Frame& frame = frames[fi];
        const std::size_t cost = frame.data.size() + frame.token.size() +
                                 frame.reason.size() + kFrameOverhead;
        if (cost <= budget - used) {
          used += cost;
          packet.frames.push_back(std::move(frame));
          ++fi;
          continue;
        }
        // Frame does not fit whole. Data-bearing frames split; everything
        // else moves to the next packet/datagram.
        const bool splittable = frame.type == FrameType::kCrypto ||
                                frame.type == FrameType::kStream;
        const std::size_t data_room =
            (budget - used > kFrameOverhead) ? budget - used - kFrameOverhead
                                             : 0;
        if (!splittable || data_room < 64) break;
        Frame piece;
        std::vector<std::uint8_t> head(frame.data.begin(),
                                       frame.data.begin() +
                                           static_cast<long>(data_room));
        if (frame.type == FrameType::kCrypto) {
          piece = Frame::crypto(frame.offset, std::move(head));
        } else {
          piece = Frame::stream(frame.stream_id, frame.offset,
                                std::move(head), /*fin=*/false);
        }
        frame.data.erase(frame.data.begin(),
                         frame.data.begin() + static_cast<long>(data_room));
        frame.offset += data_room;
        packet.frames.push_back(std::move(piece));
        used = budget;
        break;
      }
      if (packet.frames.empty()) {
        --next_pn_[s];  // nothing went out; recycle the number
        close_datagram();
        continue;
      }
      current_size += encoded_packet_size(packet);
      current.push_back(std::move(packet));
      if (current_size + kPacketOverhead + 48 > config_.max_datagram_size) {
        close_datagram();
      }
    }
  }
  close_datagram();

  if (!datagrams.empty()) send_datagrams(std::move(datagrams));
  in_flush_ = false;
}

void QuicConnection::send_datagrams(
    std::vector<std::vector<QuicPacket>> datagrams) {
  for (auto& packets : datagrams) {
    util::Buffer bytes = encode_datagram(packets, !config_.is_server);
    const std::size_t wire_size = bytes.size() + net::kUdpHeaderBytes;

    if (config_.is_server && !address_validated_) {
      if (wire_size > amplification_budget()) {
        was_amplification_blocked_ = true;
        blocked_datagrams_.push_back(std::move(packets));
        continue;
      }
      unvalidated_sent_ += wire_size;
    }

    // Register retransmittable content.
    for (const QuicPacket& p : packets) {
      const int s = static_cast<int>(space_of(p.type));
      SentPacket sp;
      sp.pn = p.packet_number;
      sp.sent_at = sim_.now();
      sp.ack_eliciting = p.ack_eliciting();
      sp.size = encoded_packet_size(p);
      for (const Frame& f : p.frames) {
        if (f.type == FrameType::kCrypto || f.type == FrameType::kStream ||
            f.type == FrameType::kNewToken ||
            f.type == FrameType::kHandshakeDone ||
            f.type == FrameType::kPing) {
          sp.retransmittable.push_back(f);
        }
      }
      if (sp.ack_eliciting) {
        bytes_in_flight_ += sp.size;
        sent_[s].push_back(std::move(sp));
      }
    }

    bytes_sent_ += wire_size;
    ++datagrams_sent_;
    if (cb_.send_datagram) cb_.send_datagram(std::move(bytes));
  }
  arm_pto();
}

// -------------------------------------------------------------- input path

void QuicConnection::on_datagram(std::span<const std::uint8_t> datagram) {
  if (closed_) return;
  bytes_received_ += datagram.size() + net::kUdpHeaderBytes;
  if (config_.is_server && !address_validated_) {
    unvalidated_received_ += datagram.size() + net::kUdpHeaderBytes;
  }
  touch_idle_timer();

  auto packets = decode_datagram(datagram);
  if (!packets) {
    DOXLAB_DEBUG("undecodable datagram dropped");
    return;
  }

  processing_ = true;
  for (const QuicPacket& p : *packets) {
    process_packet(p);
    if (closed_) {
      processing_ = false;
      return;
    }
  }
  processing_ = false;

  // Amplification budget may have grown: release blocked flights first.
  if (config_.is_server && !blocked_datagrams_.empty()) {
    auto blocked = std::move(blocked_datagrams_);
    blocked_datagrams_.clear();
    send_datagrams(std::move(blocked));
  }
  flush_output();

  if (complete_callback_pending_) {
    complete_callback_pending_ = false;
    if (cb_.on_handshake_complete && info_) cb_.on_handshake_complete(*info_);
  }
}

void QuicConnection::process_packet(const QuicPacket& packet) {
  switch (packet.type) {
    case PacketType::kVersionNegotiation:
      handle_version_negotiation(packet);
      return;
    case PacketType::kRetry:
      handle_retry(packet);
      return;
    default:
      break;
  }

  if (config_.is_server && version_ != packet.version &&
      packet.type == PacketType::kInitial) {
    // First INITIAL pins the connection's version (QuicServer already
    // filtered unsupported ones).
    version_ = packet.version;
  }

  // Rejected or undecidable 0-RTT is dropped without acknowledgement.
  if (packet.type == PacketType::kZeroRtt && config_.is_server &&
      !early_accepted_) {
    return;
  }

  const int s = static_cast<int>(space_of(packet.type));
  RangeSet& received = received_pns_[s];
  if (!received.insert(
          decode_packet_number(received.largest(), packet.packet_number))) {
    return;  // duplicate delivery (retransmitted datagram); already handled
  }
  if (packet.ack_eliciting()) need_ack_[s] = true;

  if (config_.is_server && packet.type == PacketType::kHandshake) {
    // A HANDSHAKE packet proves the peer owns the address (RFC 9000 §8.1).
    address_validated_ = true;
  }
  if (remote_cid_ == 0 && packet.scid != 0) remote_cid_ = packet.scid;

  process_frames(space_of(packet.type), packet);
}

void QuicConnection::process_frames(PnSpace space, const QuicPacket& packet) {
  for (const Frame& frame : packet.frames) {
    switch (frame.type) {
      case FrameType::kAck:
        handle_ack(space, frame);
        break;
      case FrameType::kCrypto: {
        auto& crypto = crypto_[static_cast<int>(space)];
        if (frame.offset + frame.data.size() > crypto.recv_consumed) {
          crypto.recv_buffer.emplace(frame.offset, frame.data);
        }
        process_crypto_stream(space);
        break;
      }
      case FrameType::kStream:
        handle_stream_frame(frame);
        break;
      case FrameType::kNewToken: {
        auto token = AddressToken::decode(frame.token);
        if (token && cb_.on_new_token) cb_.on_new_token(*token);
        break;
      }
      case FrameType::kHandshakeDone:
        break;  // informational in the model
      case FrameType::kConnectionClose: {
        closed_ = true;
        pto_timer_.cancel();
        idle_timer_.cancel();
        // Error code 0 with no reason is a clean application shutdown;
        // anything else is a peer-signalled transport error.
        notify_closed(frame.error_code == 0 && frame.reason.empty()
                          ? util::Error::none()
                          : util::Error::quic_transport(frame.reason));
        return;
      }
      case FrameType::kPing:
      case FrameType::kPadding:
        break;
    }
    if (closed_) return;
  }
}

void QuicConnection::process_crypto_stream(PnSpace space) {
  auto& crypto = crypto_[static_cast<int>(space)];
  // Drain contiguous bytes into the assembled buffer.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = crypto.recv_buffer.begin();
         it != crypto.recv_buffer.end();) {
      const std::uint64_t start = it->first;
      const std::uint64_t end = start + it->second.size();
      if (end <= crypto.recv_consumed) {
        it = crypto.recv_buffer.erase(it);
        continue;
      }
      if (start <= crypto.recv_consumed) {
        const std::size_t skip =
            static_cast<std::size_t>(crypto.recv_consumed - start);
        crypto.assembled.insert(crypto.assembled.end(),
                                it->second.begin() + skip, it->second.end());
        crypto.recv_consumed = end;
        it = crypto.recv_buffer.erase(it);
        progressed = true;
      } else {
        ++it;
      }
    }
  }

  // Parse complete TLS messages: [type u8][len u24][body].
  while (crypto.assembled.size() >= 4) {
    const std::size_t body_len =
        (std::size_t(crypto.assembled[1]) << 16) |
        (std::size_t(crypto.assembled[2]) << 8) | crypto.assembled[3];
    if (crypto.assembled.size() < 4 + body_len) return;
    std::span<const std::uint8_t> message(crypto.assembled.data(),
                                          4 + body_len);
    auto msg = tls_wire_.parse_handshake(message, /*encrypted=*/false);
    if (!msg) {
      fail(util::Error::protocol("malformed CRYPTO message"));
      return;
    }
    handle_tls_message(space, *msg);
    if (closed_) return;
    crypto.assembled.erase(crypto.assembled.begin(),
                           crypto.assembled.begin() + 4 + body_len);
  }
}

void QuicConnection::handle_tls_message(PnSpace space,
                                        const tls::HandshakeMessage& msg) {
  using tls::HandshakeType;
  if (config_.is_server) {
    switch (msg.type) {
      case HandshakeType::kClientHello:
        if (!msg.client_hello) return fail(util::Error::protocol("CH without payload"));
        if (space != PnSpace::kInitial) return fail(util::Error::protocol("CH outside Initial"));
        server_respond_to_client_hello(*msg.client_hello);
        break;
      case HandshakeType::kFinished: {
        if (complete_) break;
        // Client Finished: handshake done; emit 1-RTT post-handshake frames.
        complete_handshake();
        queue_frame(PnSpace::kAppData, Frame::handshake_done());
        if (config_.enable_session_tickets) {
          tls::SessionTicket ticket;
          ticket.server_secret = config_.ticket_secret;
          ticket.ticket_id = next_ticket_id_++;
          ticket.issued_at = sim_.now();
          ticket.lifetime = 7 * kDay;
          ticket.allow_early_data = config_.enable_0rtt;
          ticket.version = tls::TlsVersion::kTls13;
          ticket.alpn = negotiated_alpn_;
          queue_crypto(PnSpace::kAppData,
                       tls_wire_.new_session_ticket_message(ticket));
        }
        if (config_.send_new_token) {
          AddressToken token;
          token.server_secret = config_.ticket_secret;
          token.client_ip = config_.peer_ip;
          token.issued_at = sim_.now();
          queue_frame(PnSpace::kAppData, Frame::new_token(token.encode()));
        }
        break;
      }
      default:
        break;
    }
    return;
  }

  // Client side.
  switch (msg.type) {
    case HandshakeType::kServerHello:
      if (!msg.server_hello) return fail(util::Error::protocol("SH without payload"));
      resumed_ = msg.server_hello->psk_accepted;
      break;
    case HandshakeType::kEncryptedExtensions: {
      if (!msg.encrypted_extensions) return fail(util::Error::protocol("EE without payload"));
      negotiated_alpn_ = msg.encrypted_extensions->alpn;
      early_accepted_ = msg.encrypted_extensions->early_data_accepted &&
                        sent_early_data_;
      if (sent_early_data_ && !early_accepted_) {
        // 0-RTT rejected: the server never processed (nor will acknowledge)
        // the 0-RTT packets — forget them and resend post-handshake.
        auto& appdata = sent_[static_cast<int>(PnSpace::kAppData)];
        for (auto& sp : appdata) {
          bytes_in_flight_ -= std::min(bytes_in_flight_, sp.size);
          for (auto& f : sp.retransmittable) {
            if (f.type == FrameType::kStream) {
              queue_frame(PnSpace::kAppData, f);
            }
          }
        }
        appdata.clear();
      }
      break;
    }
    case HandshakeType::kCertificate:
    case HandshakeType::kCertificateVerify:
      break;
    case HandshakeType::kFinished: {
      if (complete_) break;
      // Server Finished: send our Finished and complete.
      queue_crypto(PnSpace::kHandshake, tls_wire_.finished_message());
      complete_handshake();
      break;
    }
    case HandshakeType::kNewSessionTicket:
      if (!msg.new_session_ticket) return fail(util::Error::protocol("NST without payload"));
      if (cb_.on_new_ticket) cb_.on_new_ticket(msg.new_session_ticket->ticket);
      break;
    default:
      break;
  }
}

void QuicConnection::server_respond_to_client_hello(
    const tls::ClientHello& ch) {
  if (!negotiated_alpn_.empty() || complete_) return;  // duplicate CH

  // ALPN.
  for (const auto& proto : ch.alpn) {
    if (std::find(config_.alpn.begin(), config_.alpn.end(), proto) !=
        config_.alpn.end()) {
      negotiated_alpn_ = proto;
      break;
    }
  }
  if (negotiated_alpn_.empty()) {
    queue_frame(PnSpace::kInitial,
                Frame::connection_close(0x178, "no application protocol"));
    flush_output();
    fail(util::Error::tls_alert("no ALPN overlap"));
    return;
  }

  // Resumption / 0-RTT.
  resumed_ = ch.psk && ch.psk->server_secret == config_.ticket_secret &&
             ch.psk->valid_at(sim_.now());
  early_accepted_ = resumed_ && ch.early_data && config_.enable_0rtt &&
                    ch.psk->allow_early_data;

  tls::ServerHello sh;
  sh.version = tls::TlsVersion::kTls13;
  sh.psk_accepted = resumed_;
  queue_crypto(PnSpace::kInitial, tls_wire_.server_hello_message(sh));

  tls::EncryptedExtensions ee;
  ee.alpn = negotiated_alpn_;
  ee.early_data_accepted = early_accepted_;
  queue_crypto(PnSpace::kHandshake,
               tls_wire_.encrypted_extensions_message(ee));
  if (!resumed_) {
    queue_crypto(PnSpace::kHandshake,
                 tls_wire_.certificate_message(config_.certificate_chain_size));
    queue_crypto(PnSpace::kHandshake, tls_wire_.certificate_verify_message());
  }
  queue_crypto(PnSpace::kHandshake, tls_wire_.finished_message());
}

void QuicConnection::complete_handshake() {
  if (complete_) return;
  complete_ = true;
  QuicHandshakeInfo info = pending_info_;
  info.version = version_;
  info.alpn = negotiated_alpn_;
  info.resumed = resumed_;
  info.early_data_accepted = early_accepted_;
  info.amplification_stall = was_amplification_blocked_;
  info_ = info;
  // Defer the user callback until the completing flight has been flushed,
  // so byte counters observed inside it include the final handshake bytes.
  complete_callback_pending_ = true;

  // Client: flush streams that did not ride 0-RTT.
  if (!config_.is_server && !early_accepted_) {
    for (auto& qs : queued_streams_) {
      if (stream_retired(qs.id)) continue;  // rode 0-RTT, already answered
      Stream& stream = streams_[qs.id];
      if (stream.send_offset > 0 || stream.send_fin) continue;  // 0-RTT path
      const std::size_t len = qs.data.size();
      queue_frame(PnSpace::kAppData,
                  Frame::stream(qs.id, 0, std::move(qs.data), qs.fin));
      stream.send_offset = len;
      stream.send_fin = qs.fin;
    }
  }
  queued_streams_.clear();
}

void QuicConnection::handle_stream_frame(const Frame& frame) {
  // A retired stream's frames are late retransmissions of bytes already
  // delivered; recreating the record would deliver (and answer) them again.
  if (stream_retired(frame.stream_id)) return;
  Stream& stream = streams_[frame.stream_id];
  if (frame.fin) {
    stream.fin_offset = frame.offset + frame.data.size();
  }
  if (frame.offset + frame.data.size() > stream.recv_consumed ||
      (frame.fin && !stream.fin_delivered && frame.data.empty())) {
    stream.recv_buffer.emplace(frame.offset,
                               std::make_pair(frame.data, frame.fin));
  }

  // Deliver in order.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = stream.recv_buffer.begin();
         it != stream.recv_buffer.end();) {
      const std::uint64_t start = it->first;
      const std::uint64_t end = start + it->second.first.size();
      if (end < stream.recv_consumed ||
          (end == stream.recv_consumed && !it->second.second)) {
        it = stream.recv_buffer.erase(it);
        continue;
      }
      if (start <= stream.recv_consumed) {
        const std::size_t skip =
            static_cast<std::size_t>(stream.recv_consumed - start);
        std::span<const std::uint8_t> fresh(it->second.first.data() + skip,
                                            it->second.first.size() - skip);
        stream.recv_consumed = end;
        const bool fin_now =
            it->second.second ||
            (stream.fin_offset && *stream.fin_offset == end);
        if (cb_.on_stream_data && (!fresh.empty() || !stream.fin_delivered)) {
          if (fin_now) stream.fin_delivered = true;
          cb_.on_stream_data(frame.stream_id, fresh, fin_now);
        }
        it = stream.recv_buffer.erase(it);
        progressed = true;
      } else {
        ++it;
      }
    }
  }
  // Only after the delivery loop: the callback may send_stream() on this
  // stream, which must not erase the record the loop is still walking (the
  // chunk being delivered keeps recv_buffer non-empty until then).
  retire_if_finished(frame.stream_id);
}

bool QuicConnection::stream_retired(std::uint64_t stream_id) const {
  return retired_streams_[stream_id & 3].contains(stream_id >> 2);
}

void QuicConnection::retire_if_finished(std::uint64_t stream_id) {
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) return;
  const Stream& stream = it->second;
  if (!stream.send_fin || !stream.fin_delivered ||
      !stream.recv_buffer.empty()) {
    return;
  }
  retired_streams_[stream_id & 3].insert(stream_id >> 2);
  streams_.erase(it);
}

void QuicConnection::handle_version_negotiation(const QuicPacket& packet) {
  if (config_.is_server || complete_ ||
      pending_info_.used_version_negotiation) {
    return;
  }
  // Pick our most preferred version the server also supports.
  std::optional<QuicVersion> chosen;
  for (QuicVersion mine : config_.supported) {
    for (QuicVersion theirs : packet.supported_versions) {
      if (mine == theirs) {
        chosen = mine;
        break;
      }
    }
    if (chosen) break;
  }
  if (!chosen) {
    fail(util::Error::quic_transport("no common QUIC version"));
    return;
  }
  pending_info_.used_version_negotiation = true;
  version_ = *chosen;

  // Restart the handshake from scratch with the new version.
  for (int s = 0; s < kNumPnSpaces; ++s) {
    sent_[s].clear();
    pending_[s] = PendingSpace{};
    crypto_[s] = CryptoStream{};
    need_ack_[s] = false;
    received_pns_[s].clear();
  }
  bytes_in_flight_ = 0;
  for (auto& [id, stream] : streams_) stream = Stream{};
  sent_early_data_ = false;
  send_client_initial();
}

void QuicConnection::handle_retry(const QuicPacket& packet) {
  if (config_.is_server || complete_ || pending_info_.used_retry) return;
  pending_info_.used_retry = true;
  initial_token_bytes_ = packet.token;

  // Resend the first flight with the Retry token (RFC 9000 §8.1.2).
  for (int s = 0; s < kNumPnSpaces; ++s) {
    sent_[s].clear();
    pending_[s] = PendingSpace{};
    crypto_[s] = CryptoStream{};
    need_ack_[s] = false;
    received_pns_[s].clear();
  }
  bytes_in_flight_ = 0;
  for (auto& [id, stream] : streams_) stream = Stream{};
  sent_early_data_ = false;  // send_client_initial re-evaluates 0-RTT
  send_client_initial();
}

// ----------------------------------------------------------- loss recovery

void QuicConnection::handle_ack(PnSpace space, const Frame& ack) {
  if (ack.ack_ranges.empty()) return;
  const std::uint64_t largest = ack.ack_ranges.front().last;
  auto& sent = sent_[static_cast<int>(space)];
  bool newly_acked = false;
  std::size_t acked_bytes = 0;
  std::uint64_t newest_pn = 0;
  SimTime newest_sent_at = sim_.now();
  for (auto it = sent.begin(); it != sent.end();) {
    if (ack.acks(it->pn)) {
      if (it->pn == largest) update_rtt(sim_.now() - it->sent_at);
      if (!newly_acked || it->pn >= newest_pn) {
        newest_pn = it->pn;
        newest_sent_at = it->sent_at;
      }
      acked_bytes += it->size;
      bytes_in_flight_ -= std::min(bytes_in_flight_, it->size);
      it = sent.erase(it);
      newly_acked = true;
    } else {
      ++it;
    }
  }
  if (newly_acked) {
    pto_backoff_ = 0;
    if (config_.enable_cc) {
      cc_.on_ack(acked_bytes, newest_sent_at, sim_.now());
      detect_losses(space, largest);
    }
    arm_pto();
  }
}

void QuicConnection::detect_losses(PnSpace space, std::uint64_t largest_acked) {
  // RFC 9002 §6.1.1 packet-threshold detection: everything still unacked
  // with pn <= largest_acked - kPacketThreshold is declared lost — its
  // frames requeue for the next flush, and the controller takes one window
  // reduction per recovery episode (keyed on send time).
  if (largest_acked < kPacketThreshold) return;
  const std::uint64_t lost_up_to = largest_acked - kPacketThreshold;
  auto& sent = sent_[static_cast<int>(space)];
  for (auto it = sent.begin(); it != sent.end();) {
    if (it->pn <= lost_up_to) {
      ++packets_lost_;
      bytes_in_flight_ -= std::min(bytes_in_flight_, it->size);
      cc_.on_loss(it->sent_at, sim_.now());
      for (auto& f : it->retransmittable) {
        queue_frame(space, std::move(f));
      }
      it = sent.erase(it);
    } else {
      ++it;
    }
  }
}

void QuicConnection::update_rtt(SimTime sample) {
  if (!srtt_) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const SimTime err = std::abs(*srtt_ - sample);
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * *srtt_ + sample) / 8;
  }
}

SimTime QuicConnection::current_pto() const {
  SimTime base = srtt_ ? (*srtt_ + std::max<SimTime>(4 * rttvar_, 1000) +
                          25 * kMillisecond)
                       : config_.initial_pto;
  return base << std::min(pto_backoff_, 10);
}

void QuicConnection::arm_pto() {
  pto_timer_.cancel();
  bool in_flight = false;
  for (int s = 0; s < kNumPnSpaces; ++s) {
    if (!sent_[s].empty()) {
      in_flight = true;
      break;
    }
  }
  if (!in_flight || closed_) return;
  auto self = weak_from_this();
  pto_timer_ = sim_.schedule(current_pto(), [self] {
    if (auto conn = self.lock()) conn->on_pto();
  });
}

void QuicConnection::on_pto() {
  if (closed_) return;
  ++pto_backoff_;
  ++total_ptos_;
  if (pto_backoff_ > config_.max_pto_count) {
    fail(util::Error::timeout("QUIC handshake/transfer timed out"));
    return;
  }
  if (config_.enable_cc) {
    // A timeout collapses the window and restarts slow start; a second
    // consecutive PTO with no ack in between is the model's persistent
    // congestion signal (RFC 9002 §7.6).
    if (pto_backoff_ >= 2) {
      cc_.on_persistent_congestion(sim_.now());
    } else {
      cc_.on_rto(sim_.now());
    }
  }
  // Retransmit all unacknowledged retransmittable frames as fresh packets.
  bool queued_any = false;
  for (int s = 0; s < kNumPnSpaces; ++s) {
    auto sent = std::move(sent_[s]);
    sent_[s].clear();
    for (auto& sp : sent) {
      for (auto& f : sp.retransmittable) {
        queue_frame(static_cast<PnSpace>(s), std::move(f));
        queued_any = true;
      }
    }
  }
  bytes_in_flight_ = 0;
  if (!queued_any) {
    // Nothing retransmittable (e.g. only ACK-eliciting PINGs already gone):
    // probe with a PING in the highest active space.
    queue_frame(complete_ ? PnSpace::kAppData : PnSpace::kInitial,
                Frame::ping());
  }
  flush_output();
}

}  // namespace doxlab::quic
