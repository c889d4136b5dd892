#include "resolver/resolver.h"

#include <algorithm>
#include <span>

#include "util/logging.h"

namespace doxlab::resolver {

namespace {

/// FNV-1a over the presentation name: stable fake authoritative data.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Strips/applies the DoQ length prefix depending on the draft ALPN.
bool alpn_uses_length_prefix(std::string_view alpn) {
  if (alpn == "doq") return true;
  if (alpn.substr(0, 5) == "doq-i") {
    return std::atoi(std::string(alpn.substr(5)).c_str()) >= 3;
  }
  return false;
}

std::vector<std::uint8_t> with_length_prefix(
    const std::vector<std::uint8_t>& m) {
  std::vector<std::uint8_t> out;
  out.reserve(m.size() + 2);
  out.push_back(static_cast<std::uint8_t>(m.size() >> 8));
  out.push_back(static_cast<std::uint8_t>(m.size() & 0xFF));
  out.insert(out.end(), m.begin(), m.end());
  return out;
}

/// In-place variant: the prefix lands in the buffer's headroom.
util::Buffer with_length_prefix(util::Buffer m) {
  const std::size_t len = m.size();
  std::uint8_t* prefix = m.prepend(2);
  prefix[0] = static_cast<std::uint8_t>(len >> 8);
  prefix[1] = static_cast<std::uint8_t>(len & 0xFF);
  return m;
}

/// Parses "txtNNNN....": synthetic TXT payload size from the leftmost label
/// ("txt1800.example.com" -> a 1800-byte TXT record). Returns 0 when the
/// name does not request TXT data.
std::size_t txt_payload_size(const dns::DnsName& name) {
  if (name.is_root()) return 0;
  const std::string_view label = name.first_label();
  if (label.size() < 4 || label.substr(0, 3) != "txt") return 0;
  std::size_t n = 0;
  for (std::size_t i = 3; i < label.size(); ++i) {
    if (label[i] < '0' || label[i] > '9') return 0;
    n = n * 10 + static_cast<std::size_t>(label[i] - '0');
  }
  return std::min<std::size_t>(n, 16000);
}

/// Appends an EDNS0 option to the message's OPT record (no-op without OPT).
void append_edns_option(dns::Message& message, std::uint16_t code,
                        std::span<const std::uint8_t> value) {
  for (dns::ResourceRecord& rr : message.additionals) {
    if (rr.type != dns::RRType::kOPT) continue;
    ByteWriter w;
    w.bytes(rr.rdata);
    w.u16(code);
    w.u16(static_cast<std::uint16_t>(value.size()));
    w.bytes(value);
    rr.rdata = w.take();
    return;
  }
}

/// True if the query carries an RFC 7830 padding option (the client asked
/// for padded responses).
bool wants_padding(const dns::Message& query) {
  const dns::ResourceRecord* opt = query.opt();
  if (opt == nullptr) return false;
  auto options = dns::rdata_as_options(*opt);
  if (!options) return false;
  for (const auto& option : *options) {
    if (option.code == dns::kEdnsPaddingOption) return true;
  }
  return false;
}

/// One DoQ connection's partial query streams. `live` is the resolver-wide
/// count of buffered streams, kept exact as entries come and go.
struct DoqStreamBuffers {
  explicit DoqStreamBuffers(std::shared_ptr<std::size_t> live_count)
      : live(std::move(live_count)) {}
  DoqStreamBuffers(const DoqStreamBuffers&) = delete;
  DoqStreamBuffers& operator=(const DoqStreamBuffers&) = delete;
  ~DoqStreamBuffers() { *live -= by_stream.size(); }

  std::map<std::uint64_t, std::vector<std::uint8_t>> by_stream;
  std::shared_ptr<std::size_t> live;
};

/// Incremental 2-byte-length framing parser (server side).
struct LengthReader {
  std::vector<std::uint8_t> buffer;
  std::vector<std::vector<std::uint8_t>> feed(
      std::span<const std::uint8_t> data) {
    buffer.insert(buffer.end(), data.begin(), data.end());
    std::vector<std::vector<std::uint8_t>> out;
    while (buffer.size() >= 2) {
      const std::size_t len = (std::size_t(buffer[0]) << 8) | buffer[1];
      if (buffer.size() < 2 + len) break;
      out.emplace_back(buffer.begin() + 2, buffer.begin() + 2 + len);
      buffer.erase(buffer.begin(), buffer.begin() + 2 + len);
    }
    return out;
  }
};

}  // namespace

std::uint32_t authoritative_ipv4(const dns::DnsName& name) {
  // 198.18.0.0/15 (benchmarking range) + hash.
  return 0xC6120000u | static_cast<std::uint32_t>(fnv1a(name.to_string()) &
                                                  0x0001FFFFu);
}

// --------------------------------------------------------- connection state

struct DoxResolver::DotConn {
  std::shared_ptr<tcp::TcpConnection> tcp;
  std::unique_ptr<tls::TlsSession> tls;
  LengthReader reader;
  bool closed = false;
};

struct DoxResolver::DohConn {
  std::shared_ptr<tcp::TcpConnection> tcp;
  std::unique_ptr<tls::TlsSession> tls;
  std::unique_ptr<h2::H2Connection> h2;
  std::map<std::uint32_t, std::vector<std::uint8_t>> bodies;
  bool closed = false;
};

// ------------------------------------------------------------- construction

// Construction must stay free of observable side effects beyond the host
// and its bound sockets: it schedules no simulator event and draws from no
// stream but the resolver's own `rng`, and the host goes into the
// network's address map, which is only ever looked up, never iterated.
// `scan::Population` relies on this to bring resolvers up on demand, at
// any simulated time, bit-identically to building them all up front
// (tests/scan_test.cpp, `Population.BringUpIsSideEffectFree`).
DoxResolver::DoxResolver(net::Network& network, const ResolverProfile& profile,
                         Rng rng)
    : network_(network), profile_(profile), rng_(std::move(rng)) {
  host_ = &network.add_host(profile_.name, profile_.address,
                            profile_.location, profile_.continent,
                            /*access_delay=*/from_ms(0.5));
  udp_ = std::make_unique<net::UdpStack>(*host_);
  tcp_ = std::make_unique<tcp::TcpStack>(*host_);
  open_listeners();
}

DoxResolver::~DoxResolver() = default;

void DoxResolver::open_listeners() {
  if (profile_.supports_doudp) serve_doudp();
  if (profile_.supports_dotcp) serve_dotcp();
  if (profile_.supports_dot) serve_dot();
  if (profile_.supports_doh) serve_doh();
  if (profile_.supports_doq) serve_doq();
  if (profile_.supports_doh3) serve_doh3();
}

tls::TlsConfig DoxResolver::server_tls_config(const std::string& alpn) const {
  tls::TlsConfig config;
  config.is_server = true;
  config.max_version = profile_.max_tls;
  config.alpn = {alpn};
  config.certificate_chain_size = profile_.certificate_chain_size;
  config.enable_session_tickets = profile_.session_tickets;
  config.enable_0rtt = profile_.supports_0rtt;
  config.ticket_secret = profile_.secret;
  return config;
}

quic::QuicConfig DoxResolver::server_quic_config() const {
  quic::QuicConfig config;
  config.is_server = true;
  config.version = profile_.quic_version;
  config.supported = {profile_.quic_version};
  config.alpn = {profile_.doq_alpn};
  config.certificate_chain_size = profile_.certificate_chain_size;
  config.enable_session_tickets = profile_.session_tickets;
  config.enable_0rtt = profile_.supports_0rtt;
  config.require_retry = profile_.validate_with_retry;
  config.ticket_secret = profile_.secret;
  return config;
}

// ----------------------------------------------------------- core resolution

void DoxResolver::handle_query(dox::DnsProtocol protocol,
                               const dns::Message& query,
                               std::function<void(dns::Message)> respond) {
  if (query.qr || query.questions.empty()) return;
  if (rng_.chance(profile_.drop_probability)) return;  // unresponsive sample
  ++served_[static_cast<int>(protocol)];

  const dns::Question& question = query.questions.front();
  auto& sim = network_.simulator();
  // The reserved .invalid TLD never resolves (RFC 2606).
  static const dns::DnsName kInvalidTld = dns::DnsName::parse("invalid");

  auto finish = [this, protocol, query, respond = std::move(respond),
                 question](std::vector<dns::ResourceRecord> records,
                           dns::RCode rcode = dns::RCode::kNoError) {
    dns::Message response = dns::make_response(query, rcode);
    response.answers = std::move(records);

    const bool encrypted = protocol != dox::DnsProtocol::kDoUdp &&
                           protocol != dox::DnsProtocol::kDoTcp;
    if (protocol == dox::DnsProtocol::kDoTcp &&
        profile_.supports_keepalive) {
      // RFC 7828: advertise an idle timeout (units of 100 ms) so clients
      // keep the connection for further queries.
      const std::uint8_t timeout[2] = {0, 100};  // 10 s
      append_edns_option(response, dns::kEdnsTcpKeepaliveOption, timeout);
    }
    if (encrypted && wants_padding(query)) {
      // RFC 8467: servers pad responses to 468-byte blocks.
      dns::pad_to_block(response, 468);
    }
    if (protocol == dox::DnsProtocol::kDoUdp) {
      const std::size_t limit =
          std::min<std::size_t>(dns::advertised_udp_size(query), 1232);
      dns::truncate_for_udp(response, limit);
    }
    respond(std::move(response));
  };

  auto cached = cache_.lookup(question.name, question.type, sim.now());
  if (cached) {
    // NXDOMAIN entries are cached as empty record sets for .invalid names.
    const dns::RCode rcode = question.name.is_subdomain_of(kInvalidTld)
                                 ? dns::RCode::kNXDomain
                                 : dns::RCode::kNoError;
    sim.schedule(profile_.processing_delay,
                 [finish, rcode, records = std::move(*cached)]() mutable {
                   finish(std::move(records), rcode);
                 });
    return;
  }

  // Simulated upstream recursion: log-normal around the profile mean.
  const double mean_ms = to_ms(profile_.recursive_latency_mean);
  const double mu = std::log(mean_ms) - 0.125;  // sigma^2/2 with sigma=0.5
  const SimTime recursion =
      from_ms(std::min(rng_.lognormal(mu, 0.5), 10 * mean_ms));
  sim.schedule(
      profile_.processing_delay + recursion, [this, finish, question] {
        std::vector<dns::ResourceRecord> records;
        dns::RCode rcode = dns::RCode::kNoError;
        if (question.name.is_subdomain_of(kInvalidTld)) {
          rcode = dns::RCode::kNXDomain;
        } else if (question.type == dns::RRType::kA ||
                   question.type == dns::RRType::kAAAA) {
          if (!question.name.is_root() &&
              question.name.first_label() == "www" &&
              question.name.label_count() > 2) {
            // Recursive resolvers return the full chain: the www alias plus
            // the canonical name's address record.
            const dns::DnsName canonical = question.name.parent();
            records.push_back(
                dns::make_cname(question.name, /*ttl=*/300, canonical));
            records.push_back(dns::make_a(canonical, /*ttl=*/300,
                                          authoritative_ipv4(canonical)));
          } else {
            records.push_back(dns::make_a(question.name, /*ttl=*/300,
                                          authoritative_ipv4(question.name)));
          }
        } else if (question.type == dns::RRType::kTXT) {
          // Synthetic large records ("txtNNNN.example") exercise UDP
          // truncation and the TCP fallback.
          if (const std::size_t n = txt_payload_size(question.name); n > 0) {
            records.push_back(dns::make_txt(question.name, /*ttl=*/300,
                                            std::string(n, 'x')));
          }
        }
        cache_.insert(question.name, question.type, records,
                      network_.simulator().now());
        finish(std::move(records), rcode);
      });
}

// ------------------------------------------------------------------- DoUDP

void DoxResolver::serve_doudp() {
  udp53_ = udp_->bind(53);
  udp53_->on_datagram([this](const net::Endpoint& from,
                             util::Buffer payload) {
    auto query = dns::Message::decode(payload);
    if (!query) return;
    handle_query(dox::DnsProtocol::kDoUdp, *query,
                 [this, from](dns::Message response) {
                   udp53_->send_to(from, response.encode());
                 });
  });
}

// ------------------------------------------------------------------- DoTCP

void DoxResolver::serve_dotcp() {
  auto& listener = tcp_->listen(53);
  listener.set_tfo_enabled(profile_.supports_tfo);
  listener.on_accept([this](const std::shared_ptr<tcp::TcpConnection>& conn) {
    // Handlers owned by the connection must capture it weakly, or the
    // connection keeps itself alive as a reference cycle until close.
    std::weak_ptr<tcp::TcpConnection> weak_conn = conn;
    conn->on_remote_fin([weak_conn] {
      if (auto conn = weak_conn.lock()) conn->close();
    });
    auto reader = std::make_shared<LengthReader>();
    conn->on_data([this, weak_conn,
                   reader](std::span<const std::uint8_t> data) {
      for (auto& payload : reader->feed(data)) {
        auto query = dns::Message::decode(payload);
        if (!query) continue;
        handle_query(dox::DnsProtocol::kDoTcp, *query,
                     [weak_conn](dns::Message response) {
                       // kSynReceived is legal too: a TFO query is answered
                       // together with the SYN-ACK (0.5-RTT data).
                       auto conn = weak_conn.lock();
                       if (conn && conn->state() != tcp::TcpState::kClosed) {
                         conn->send(with_length_prefix(
                             response.encode_buffer(/*headroom=*/2)));
                       }
                     });
      }
    });
  });
}

// --------------------------------------------------------------------- DoT

void DoxResolver::serve_dot() {
  auto& listener = tcp_->listen(853);
  listener.on_accept([this](const std::shared_ptr<tcp::TcpConnection>& conn) {
    // The DotConn owns the TLS session and (a reference to) the TCP
    // connection, so every callback stored inside either must capture the
    // state weakly or the whole trio leaks as a reference cycle.
    std::weak_ptr<tcp::TcpConnection> weak_conn = conn;
    conn->on_remote_fin([weak_conn] {
      if (auto conn = weak_conn.lock()) conn->close();
    });
    auto state = std::make_shared<DotConn>();
    std::weak_ptr<DotConn> weak_state = state;
    state->tcp = conn;

    tls::TlsSession::Callbacks callbacks;
    callbacks.now = [this] { return network_.simulator().now(); };
    callbacks.send_transport = [weak_state](util::Buffer bytes) {
      auto state = weak_state.lock();
      if (!state) return;
      if (!state->closed) state->tcp->send(std::move(bytes));
    };
    callbacks.on_application_data = [this, weak_state](
                                        std::span<const std::uint8_t> data) {
      auto state = weak_state.lock();
      if (!state) return;
      for (auto& payload : state->reader.feed(data)) {
        auto query = dns::Message::decode(payload);
        if (!query) continue;
        handle_query(dox::DnsProtocol::kDoT, *query,
                     [weak_state](dns::Message response) {
                       auto state = weak_state.lock();
                       if (state && !state->closed) {
                         state->tls->send_application_data(
                             with_length_prefix(response.encode_buffer(
                                 2 + tls::kRecordHeaderBytes)));
                       }
                     });
      }
    };
    callbacks.on_error = [weak_state](const util::Error&) {
      if (auto state = weak_state.lock()) state->closed = true;
    };
    state->tls = std::make_unique<tls::TlsSession>(server_tls_config("dot"),
                                                   std::move(callbacks));
    conn->on_data([weak_state](std::span<const std::uint8_t> data) {
      auto state = weak_state.lock();
      if (!state) return;
      state->tls->on_transport_data(data);
    });
    conn->on_closed([this, weak_state](const util::Error&) {
      auto state = weak_state.lock();
      if (!state) return;
      state->closed = true;
      std::erase(dot_conns_, state);
    });
    dot_conns_.push_back(state);
  });
}

// --------------------------------------------------------------------- DoH

void DoxResolver::serve_doh() {
  auto& listener = tcp_->listen(443);
  listener.on_accept([this](const std::shared_ptr<tcp::TcpConnection>& conn) {
    // Same cycle-avoidance as serve_dot: the DohConn owns the TLS and H2
    // sessions plus a TCP reference, so their stored callbacks capture it
    // weakly.
    std::weak_ptr<tcp::TcpConnection> weak_conn = conn;
    conn->on_remote_fin([weak_conn] {
      if (auto conn = weak_conn.lock()) conn->close();
    });
    auto state = std::make_shared<DohConn>();
    std::weak_ptr<DohConn> weak_state = state;
    state->tcp = conn;

    h2::H2Connection::Callbacks h2_callbacks;
    h2_callbacks.send_transport = [weak_state](util::Buffer bytes) {
      auto state = weak_state.lock();
      if (!state) return;
      if (!state->closed) state->tls->send_application_data(std::move(bytes));
    };
    h2_callbacks.on_headers = [](std::uint32_t id, const std::vector<h2::Header>& h,
                                 bool end) {
      DOXLAB_DEBUG("DoH server headers stream=" << id << " n=" << h.size()
                                                << " end=" << end);
    };
    h2_callbacks.on_error = [](const util::Error& error) {
      DOXLAB_DEBUG("DoH server h2 error: " << error);
    };
    h2_callbacks.on_data = [this, weak_state](
                               std::uint32_t stream_id,
                               std::span<const std::uint8_t> data,
                               bool end_stream) {
      auto state = weak_state.lock();
      if (!state) return;
      auto& body = state->bodies[stream_id];
      body.insert(body.end(), data.begin(), data.end());
      DOXLAB_DEBUG("DoH server data stream=" << stream_id << " total="
                                             << body.size() << " end="
                                             << end_stream);
      if (!end_stream) return;
      auto query = dns::Message::decode(body);
      state->bodies.erase(stream_id);
      if (!query) return;
      handle_query(
          dox::DnsProtocol::kDoH, *query,
          [weak_state, stream_id](dns::Message response) {
            auto state = weak_state.lock();
            if (!state || state->closed) return;
            util::Buffer body = response.encode_buffer(
                h2::kFrameHeaderBytes + tls::kRecordHeaderBytes);
            std::vector<h2::Header> headers = {
                {":status", "200"},
                {"content-type", "application/dns-message"},
                {"content-length", std::to_string(body.size())},
                {"cache-control", "no-cache"},
            };
            state->h2->send_response(stream_id, headers, std::move(body));
          });
    };
    state->h2 = std::make_unique<h2::H2Connection>(/*is_client=*/false,
                                                   std::move(h2_callbacks));

    tls::TlsSession::Callbacks tls_callbacks;
    tls_callbacks.now = [this] { return network_.simulator().now(); };
    tls_callbacks.send_transport = [weak_state](util::Buffer bytes) {
      auto state = weak_state.lock();
      if (!state) return;
      if (!state->closed) state->tcp->send(std::move(bytes));
    };
    tls_callbacks.on_application_data =
        [weak_state](std::span<const std::uint8_t> data) {
          auto state = weak_state.lock();
          if (!state) return;
          state->h2->on_transport_data(data);
        };
    tls_callbacks.on_error = [weak_state](const util::Error&) {
      if (auto state = weak_state.lock()) state->closed = true;
    };
    state->tls = std::make_unique<tls::TlsSession>(server_tls_config("h2"),
                                                   std::move(tls_callbacks));
    conn->on_data([weak_state](std::span<const std::uint8_t> data) {
      auto state = weak_state.lock();
      if (!state) return;
      state->tls->on_transport_data(data);
    });
    conn->on_closed([this, weak_state](const util::Error&) {
      auto state = weak_state.lock();
      if (!state) return;
      state->closed = true;
      std::erase(doh_conns_, state);
    });
    doh_conns_.push_back(state);
  });
}

// --------------------------------------------------------------------- DoQ

void DoxResolver::serve_doq() {
  // RFC 9250 port 853 plus the earlier draft ports the paper scanned.
  for (std::uint16_t port : {std::uint16_t(853), std::uint16_t(784),
                             std::uint16_t(8853)}) {
    auto server = std::make_unique<quic::QuicServer>(
        network_.simulator(), *udp_, port, server_quic_config());
    server->on_accept([this](const std::shared_ptr<quic::QuicConnection>& conn,
                             const net::Endpoint&) {
      const bool prefix = alpn_uses_length_prefix(profile_.doq_alpn);
      auto buffers =
          std::make_shared<DoqStreamBuffers>(doq_buffered_streams_);
      // Weak capture: the connection owns this callback, so a shared
      // capture would pin the connection alive forever (cycle). The
      // QuicServer's connection map is the owner.
      std::weak_ptr<quic::QuicConnection> weak_conn = conn;
      conn->set_on_stream_data([this, weak_conn, buffers, prefix](
                                   std::uint64_t stream_id,
                                   std::span<const std::uint8_t> data,
                                   bool fin) {
        auto [it, fresh] = buffers->by_stream.try_emplace(stream_id);
        if (fresh) ++*buffers->live;
        it->second.insert(it->second.end(), data.begin(), data.end());
        if (!fin) return;
        // The stream is finished: release its buffer before parsing, so a
        // short or malformed query cannot leave it behind.
        const std::vector<std::uint8_t> bytes = std::move(it->second);
        buffers->by_stream.erase(it);
        --*buffers->live;
        std::span<const std::uint8_t> payload(bytes);
        if (prefix) {
          if (payload.size() < 2) return;
          const std::size_t len = (std::size_t(payload[0]) << 8) | payload[1];
          payload = payload.subspan(2, std::min(len, payload.size() - 2));
        }
        auto query = dns::Message::decode(payload);
        if (!query) return;
        handle_query(dox::DnsProtocol::kDoQ, *query,
                     [weak_conn, stream_id, prefix](dns::Message response) {
                       auto conn = weak_conn.lock();
                       if (!conn || conn->closed()) return;
                       auto wire = response.encode();
                       if (prefix) wire = with_length_prefix(wire);
                       conn->send_stream(stream_id, std::move(wire), true);
                     });
      });
    });
    quic_servers_.push_back(std::move(server));
  }
}

// -------------------------------------------------------------------- DoH3

void DoxResolver::serve_doh3() {
  // HTTP/3 on UDP 443 (alpn "h3"); shares the QUIC substrate with DoQ.
  quic::QuicConfig config = server_quic_config();
  config.alpn = {"h3"};
  auto server = std::make_unique<quic::QuicServer>(network_.simulator(),
                                                   *udp_, 443, config);
  server->on_accept([this](const std::shared_ptr<quic::QuicConnection>& conn,
                           const net::Endpoint&) {
    auto h3 = std::make_shared<std::unique_ptr<h3::H3Connection>>();
    auto bodies = std::make_shared<
        std::map<std::uint64_t, std::vector<std::uint8_t>>>();
    // The H3 session owns the connection and the connection's stream
    // callback reaches the session — both captures must be weak or the
    // pair leaks as a cycle. The resolver (doh3_conns_) is the owner.
    std::weak_ptr<quic::QuicConnection> weak_conn = conn;
    std::weak_ptr<std::unique_ptr<h3::H3Connection>> weak_h3 = h3;

    h3::H3Connection::Callbacks callbacks;
    callbacks.on_headers = [](std::uint64_t, const std::vector<h2::Header>&,
                              bool) {
      // POST /dns-query implied; the DATA frame carries the query.
    };
    callbacks.on_data = [this, weak_conn, weak_h3, bodies](
                            std::uint64_t stream_id,
                            std::span<const std::uint8_t> data,
                            bool end_stream) {
      auto& body = (*bodies)[stream_id];
      body.insert(body.end(), data.begin(), data.end());
      if (!end_stream) return;
      auto query = dns::Message::decode(body);
      bodies->erase(stream_id);
      if (!query) return;
      handle_query(
          dox::DnsProtocol::kDoH3, *query,
          [weak_conn, weak_h3, stream_id](dns::Message response) {
            auto conn = weak_conn.lock();
            auto h3 = weak_h3.lock();
            if (!conn || conn->closed() || !h3 || !*h3) return;
            auto body = response.encode();
            std::vector<h2::Header> headers = {
                {":status", "200"},
                {"content-type", "application/dns-message"},
                {"content-length", std::to_string(body.size())},
                {"cache-control", "no-cache"},
            };
            (*h3)->send_response(stream_id, headers, std::move(body));
          });
    };
    *h3 = std::make_unique<h3::H3Connection>(conn, /*is_client=*/false,
                                             std::move(callbacks));
    conn->set_on_stream_data([weak_h3](std::uint64_t id,
                                       std::span<const std::uint8_t> data,
                                       bool fin) {
      auto h3 = weak_h3.lock();
      if (!h3 || !*h3) return;
      (*h3)->on_stream_data(id, data, fin);
    });
    (*h3)->start();
    doh3_conns_.push_back(std::move(h3));
  });
  quic_servers_.push_back(std::move(server));
}

}  // namespace doxlab::resolver
