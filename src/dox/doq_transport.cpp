// DoQ: DNS over Dedicated QUIC Connections (RFC 9250).
//
// One QUIC connection per resolver; each query gets its own client-initiated
// bidirectional stream. Framing depends on the negotiated ALPN: "doq" (RFC)
// and draft versions doq-i03 and later carry a 2-byte length prefix (added
// in -i03 to permit multiple responses); doq-i00..i02 send the bare DNS
// message and rely on stream FIN. The client caches the resolver's QUIC
// version, ALPN and NEW_TOKEN address token between sessions and presents
// them on reconnect — the paper's methodology, which avoids Version
// Negotiation and address-validation round trips and, together with session
// resumption, sidesteps the traffic-amplification stall of the authors'
// preliminary study.
#include "dox/transport_base.h"
#include "quic/connection.h"

namespace doxlab::dox {

namespace {

/// All ALPN identifiers the tooling offers (newest first), mirroring the
/// paper's support for "doq" plus every draft version.
std::vector<std::string> offered_alpns() {
  std::vector<std::string> alpns = {"doq"};
  for (int i = 11; i >= 0; --i) {
    alpns.push_back("doq-i" + std::string(i < 10 ? "0" : "") +
                    std::to_string(i));
  }
  return alpns;
}

/// doq & doq-i03+ use the 2-byte length prefix.
bool alpn_uses_length_prefix(std::string_view alpn) {
  if (alpn == "doq") return true;
  if (alpn.starts_with("doq-i")) {
    const int draft = std::atoi(std::string(alpn.substr(5)).c_str());
    return draft >= 3;
  }
  return false;
}

class DoqTransport final : public TransportBase {
 public:
  DoqTransport(const TransportDeps& deps, const TransportOptions& options)
      : TransportBase(DnsProtocol::kDoQ, deps, options) {}

  ~DoqTransport() override { reset_sessions(); }

  void resolve(const dns::Question& question, ResultHandler handler) override {
    auto pending = make_pending(question, std::move(handler));
    if (!state_ || state_->conn->closed()) {
      open_connection(pending);
      return;
    }
    state_->in_flight.push_back(pending);
    if (state_->conn->handshake_complete()) {
      send_query(pending);
    } else {
      state_->queued.push_back(pending);
    }
  }

  void reset_sessions() override {
    if (state_) {
      if (!state_->conn->closed()) state_->conn->close();
      stats_.total_c2r = state_->conn->bytes_sent();
      stats_.total_r2c = state_->conn->bytes_received();
    }
    state_.reset();
  }

  std::size_t open_query_records() const {
    return state_ ? state_->streams.size() + state_->in_flight.size() : 0;
  }

  WireStats wire_stats() const override {
    WireStats stats = stats_;
    if (state_) {
      stats.total_c2r = state_->conn->bytes_sent();
      stats.total_r2c = state_->conn->bytes_received();
    }
    return stats;
  }

 private:
  struct StreamBuf {
    std::vector<std::uint8_t> data;
    PendingPtr pending;
  };

  struct ConnState {
    std::shared_ptr<quic::QuicConnection> conn;
    std::unique_ptr<net::UdpSocket> socket;
    std::map<std::uint64_t, StreamBuf> streams;
    std::vector<PendingPtr> in_flight;
    std::vector<PendingPtr> queued;
    std::string alpn;  // negotiated (or assumed from cache pre-handshake)
    bool length_prefix = true;
  };

  std::string cache_key() const {
    return server_key(options_.resolver, DnsProtocol::kDoQ);
  }

  void open_connection(const PendingPtr& first) {
    auto state = std::make_shared<ConnState>();
    state_ = state;
    first->result.new_session = true;
    mark(first, QueryPhase::kConnect);
    stats_ = WireStats{};

    const DoqServerInfo* known =
        deps_.doq_cache ? deps_.doq_cache->find(cache_key()) : nullptr;

    quic::QuicConfig config;
    config.alpn = offered_alpns();
    config.sni = "resolver-" + options_.resolver.address.to_string();
    config.enable_0rtt = options_.attempt_0rtt;
    config.enable_cc = options_.quic_enable_cc;
    if (known && known->version) config.version = *known->version;

    state->socket = deps_.udp->bind_ephemeral();

    // The connection's callbacks capture the ConnState weakly: the state
    // owns the connection, so a shared capture here would be a
    // state -> conn -> callbacks -> state cycle that outlives the
    // transport (the sanitizer build flags it as a leak).
    std::weak_ptr<ConnState> weak_state = state;
    quic::QuicConnection::Callbacks callbacks;
    callbacks.send_datagram = [this, weak_state, guard = alive_guard()](
                                  util::Buffer bytes) {
      if (guard.expired()) return;
      auto state = weak_state.lock();
      if (!state) return;
      state->socket->send_to(options_.resolver, std::move(bytes));
    };
    callbacks.on_handshake_complete =
        [this, weak_state, guard = alive_guard()](
            const quic::QuicHandshakeInfo& info) {
          if (guard.expired()) return;
          auto state = weak_state.lock();
          if (!state) return;
          on_established(state, info);
        };
    callbacks.on_stream_data = [this, weak_state, guard = alive_guard()](
                                   std::uint64_t id,
                                   std::span<const std::uint8_t> d,
                                   bool fin) {
      if (guard.expired()) return;
      auto state = weak_state.lock();
      if (!state) return;
      on_stream_data(state, id, d, fin);
    };
    callbacks.on_new_ticket = [this, guard = alive_guard()](
                                  const tls::SessionTicket& ticket) {
      if (guard.expired()) return;
      if (deps_.tickets) deps_.tickets->put(cache_key(), ticket);
    };
    callbacks.on_new_token = [this, guard = alive_guard()](
                                 const quic::AddressToken& token) {
      if (guard.expired()) return;
      if (deps_.doq_cache) deps_.doq_cache->entry(cache_key()).token = token;
    };
    callbacks.on_closed = [this, weak_state, guard = alive_guard()](
                              const util::Error& error) {
      if (guard.expired()) return;
      auto state = weak_state.lock();
      if (!state) return;
      if (!error.ok()) {
        auto in_flight = std::move(state->in_flight);
        state->in_flight.clear();
        state->queued.clear();
        for (auto& pending : in_flight) {
          finish_error(pending, error);
        }
      }
    };
    state->conn = quic::QuicConnection::make_client(sim(), config,
                                                    std::move(callbacks));
    state->socket->on_datagram(
        [conn = state->conn](const net::Endpoint&,
                             util::Buffer payload) {
          conn->on_datagram(payload);
        });

    state->in_flight.push_back(first);

    std::optional<tls::SessionTicket> ticket;
    if (options_.use_session_resumption && deps_.tickets) {
      ticket = deps_.tickets->get(cache_key(), sim().now());
    }
    std::optional<quic::AddressToken> token;
    if (options_.use_address_token && known && known->token &&
        known->token->valid_for(known->token->server_secret,
                                state->socket->local_endpoint()
                                    .address.value(),
                                sim().now())) {
      token = known->token;
    }

    // 0-RTT requires knowing the framing (negotiated ALPN) up front — the
    // paper's methodology stores it from the cache-warming query.
    const bool can_0rtt = options_.attempt_0rtt && ticket &&
                          ticket->allow_early_data && known && known->alpn;
    if (can_0rtt) {
      state->alpn = *known->alpn;
      state->length_prefix = alpn_uses_length_prefix(state->alpn);
      queue_stream_query(state, first);
      first->result.used_0rtt = true;
    } else {
      state->queued.push_back(first);
    }
    state->conn->connect(ticket, token);
  }

  void queue_stream_query(const std::shared_ptr<ConnState>& state,
                          const PendingPtr& pending) {
    // RFC 9250 §4.2.1: DoQ queries use DNS message id 0.
    pending->dns_id = 0;
    dns::Message query = build_query(pending, /*encrypted=*/true);
    auto wire = query.encode();
    if (state->length_prefix) wire = length_prefixed(wire);
    const std::uint64_t stream_id = state->conn->open_stream(wire, true);
    state->streams[stream_id].pending = pending;
    mark(pending, QueryPhase::kRequestSent);
  }

  void on_established(const std::shared_ptr<ConnState>& state,
                      const quic::QuicHandshakeInfo& info) {
    state->alpn = info.alpn;
    state->length_prefix = alpn_uses_length_prefix(info.alpn);
    stats_.handshake_c2r = state->conn->bytes_sent();
    stats_.handshake_r2c = state->conn->bytes_received();

    if (deps_.doq_cache) {
      auto& entry = deps_.doq_cache->entry(cache_key());
      entry.version = info.version;
      entry.alpn = info.alpn;
    }
    for (auto& p : state->in_flight) {
      if (p->result.new_session) {
        mark(p, QueryPhase::kSecure);
        p->result.quic_version = info.version;
        p->result.alpn = info.alpn;
        p->result.session_resumed = info.resumed;
        p->result.used_0rtt = info.early_data_accepted;
        p->result.tls_version = tls::TlsVersion::kTls13;
      }
    }
    auto queued = std::move(state->queued);
    state->queued.clear();
    for (auto& pending : queued) {
      if (!pending->done) queue_stream_query(state, pending);
    }
  }

  void send_query(const PendingPtr& pending) {
    queue_stream_query(state_, pending);
    if (!pending->result.quic_version && state_->conn->info()) {
      const auto& info = *state_->conn->info();
      pending->result.quic_version = info.version;
      pending->result.alpn = info.alpn;
      pending->result.session_resumed = info.resumed;
      pending->result.tls_version = tls::TlsVersion::kTls13;
    }
  }

  void on_stream_data(const std::shared_ptr<ConnState>& state,
                      std::uint64_t stream_id,
                      std::span<const std::uint8_t> data, bool fin) {
    auto it = state->streams.find(stream_id);
    if (it == state->streams.end()) return;
    StreamBuf& buf = it->second;
    buf.data.insert(buf.data.end(), data.begin(), data.end());
    if (!fin) return;

    // The stream is finished whatever its bytes hold: drop its state
    // before classifying them.
    auto pending = buf.pending;
    const std::vector<std::uint8_t> bytes = std::move(buf.data);
    std::erase(state->in_flight, pending);
    state->streams.erase(it);
    std::span<const std::uint8_t> payload(bytes);
    if (state->length_prefix) {
      if (payload.size() < 2) {
        finish_error(pending, util::Error::truncated("short DoQ response"));
        return;
      }
      const std::size_t len = (std::size_t(payload[0]) << 8) | payload[1];
      payload = payload.subspan(2, std::min(len, payload.size() - 2));
    }
    auto message = dns::Message::decode(payload);
    if (!message || !matches(*message, *pending)) {
      finish_error(pending, util::Error::protocol("malformed DoQ response"));
      return;
    }
    finish_success(pending, std::move(*message));
  }

  std::shared_ptr<ConnState> state_;
  WireStats stats_;
};

}  // namespace

std::size_t doq_open_query_records(const DnsTransport& transport) {
  const auto* doq = dynamic_cast<const DoqTransport*>(&transport);
  return doq ? doq->open_query_records() : 0;
}

std::unique_ptr<DnsTransport> make_doq_transport(
    const TransportDeps& deps, const TransportOptions& options) {
  return std::make_unique<DoqTransport>(deps, options);
}

}  // namespace doxlab::dox
