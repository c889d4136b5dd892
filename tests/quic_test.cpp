// Unit + integration tests for the QUIC model: wire codec, handshake
// round-trip counts, padding/amplification behaviour, resumption, 0-RTT,
// Retry, Version Negotiation, streams, loss recovery, teardown, and the
// constant per-connection state of long-lived DoQ connections.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "dns/message.h"
#include "dox/transport.h"
#include "net/network.h"
#include "net/udp.h"
#include "quic/connection.h"
#include "quic/range_set.h"
#include "quic/server.h"
#include "quic/wire.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace doxlab::quic {
namespace {

using net::Continent;
using net::Endpoint;
using net::IpAddress;

// ---------------------------------------------------------------- wire codec

TEST(QuicWire, InitialPacketRoundTrip) {
  QuicPacket p;
  p.type = PacketType::kInitial;
  p.version = QuicVersion::kV1;
  p.dcid = 0x1111;
  p.scid = 0x2222;
  p.packet_number = 7;
  p.token = {1, 2, 3};
  p.frames.push_back(Frame::crypto(0, {9, 9, 9, 9}));
  p.frames.push_back(Frame::ack({{0, 5}}));

  auto bytes = encode_packet(p);
  auto decoded = decode_datagram(bytes);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 1u);
  const QuicPacket& q = (*decoded)[0];
  EXPECT_EQ(q.type, PacketType::kInitial);
  EXPECT_EQ(q.version, QuicVersion::kV1);
  EXPECT_EQ(q.dcid, 0x1111u);
  EXPECT_EQ(q.scid, 0x2222u);
  EXPECT_EQ(q.packet_number, 7u);
  EXPECT_EQ(q.token, (std::vector<std::uint8_t>{1, 2, 3}));
  ASSERT_EQ(q.frames.size(), 2u);
  EXPECT_EQ(q.frames[0].type, FrameType::kCrypto);
  EXPECT_EQ(q.frames[0].data.size(), 4u);
  EXPECT_EQ(q.frames[1].type, FrameType::kAck);
  ASSERT_EQ(q.frames[1].ack_ranges.size(), 1u);
  EXPECT_EQ(q.frames[1].ack_ranges[0], (AckRange{0, 5}));
  EXPECT_TRUE(q.frames[1].acks(3));
  EXPECT_FALSE(q.frames[1].acks(6));
}

TEST(QuicWire, StreamFrameRoundTripWithFin) {
  QuicPacket p;
  p.type = PacketType::kOneRtt;
  p.dcid = 0xAB;
  p.packet_number = 3;
  p.frames.push_back(Frame::stream(4, 100, {1, 2}, true));
  auto decoded = decode_datagram(encode_packet(p));
  ASSERT_TRUE(decoded.has_value());
  const Frame& f = (*decoded)[0].frames[0];
  EXPECT_EQ(f.type, FrameType::kStream);
  EXPECT_EQ(f.stream_id, 4u);
  EXPECT_EQ(f.offset, 100u);
  EXPECT_TRUE(f.fin);
}

TEST(QuicWire, ConnectionCloseRoundTrip) {
  QuicPacket p;
  p.type = PacketType::kOneRtt;
  p.packet_number = 1;
  p.frames.push_back(Frame::connection_close(0x0A, "bye"));
  auto decoded = decode_datagram(encode_packet(p));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ((*decoded)[0].frames[0].error_code, 0x0Au);
  EXPECT_EQ((*decoded)[0].frames[0].reason, "bye");
}

TEST(QuicWire, ClientPadsEveryInitialDatagram) {
  QuicPacket ack_only;
  ack_only.type = PacketType::kInitial;
  ack_only.frames.push_back(Frame::ack({{0, 0}}));
  auto client_dgram =
      encode_datagram(std::span(&ack_only, 1), /*sender_is_client=*/true);
  EXPECT_GE(client_dgram.size(), kMinInitialDatagram);
  // Servers only pad ack-eliciting INITIALs; a bare ACK stays small.
  auto server_dgram =
      encode_datagram(std::span(&ack_only, 1), /*sender_is_client=*/false);
  EXPECT_LT(server_dgram.size(), 100u);
}

TEST(QuicWire, ServerPadsAckElicitingInitial) {
  QuicPacket initial;
  initial.type = PacketType::kInitial;
  initial.frames.push_back(Frame::crypto(0, {1}));
  auto dgram =
      encode_datagram(std::span(&initial, 1), /*sender_is_client=*/false);
  EXPECT_GE(dgram.size(), kMinInitialDatagram);
}

TEST(QuicWire, CoalescedPacketsDecodeInOrder) {
  QuicPacket a;
  a.type = PacketType::kInitial;
  a.frames.push_back(Frame::crypto(0, {1}));
  QuicPacket b;
  b.type = PacketType::kHandshake;
  b.frames.push_back(Frame::crypto(0, {2}));
  QuicPacket c;
  c.type = PacketType::kOneRtt;
  c.frames.push_back(Frame::ping());
  std::vector<QuicPacket> packets = {a, b, c};
  auto dgram = encode_datagram(packets, true);
  auto decoded = decode_datagram(dgram);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ((*decoded)[0].type, PacketType::kInitial);
  EXPECT_EQ((*decoded)[1].type, PacketType::kHandshake);
  EXPECT_EQ((*decoded)[2].type, PacketType::kOneRtt);
}

TEST(QuicWire, VersionNegotiationRoundTrip) {
  QuicPacket vn;
  vn.type = PacketType::kVersionNegotiation;
  vn.dcid = 1;
  vn.scid = 2;
  vn.supported_versions = {QuicVersion::kV1, QuicVersion::kDraft34};
  auto decoded = decode_datagram(encode_packet(vn));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ((*decoded)[0].type, PacketType::kVersionNegotiation);
  EXPECT_EQ((*decoded)[0].supported_versions.size(), 2u);
}

TEST(QuicWire, TruncatedDatagramRejected) {
  QuicPacket p;
  p.type = PacketType::kInitial;
  p.frames.push_back(Frame::crypto(0, {1, 2, 3}));
  auto bytes = encode_packet(p);
  bytes.resize(bytes.size() - 4);
  EXPECT_FALSE(decode_datagram(bytes).has_value());
}

TEST(QuicWire, AddressTokenRoundTripAndValidation) {
  AddressToken t;
  t.server_secret = 0xFEED;
  t.client_ip = 0x0A000001;
  t.issued_at = 100;
  t.lifetime = kDay;
  auto decoded = AddressToken::decode(t.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->valid_for(0xFEED, 0x0A000001, 200));
  EXPECT_FALSE(decoded->valid_for(0xBEEF, 0x0A000001, 200));   // wrong secret
  EXPECT_FALSE(decoded->valid_for(0xFEED, 0x0A000002, 200));   // wrong ip
  EXPECT_FALSE(decoded->valid_for(0xFEED, 0x0A000001, 2 * kDay));  // stale
}

// ------------------------------------------------------------- connections

class QuicFixture : public ::testing::Test {
 protected:
  QuicFixture()
      : network_(sim_, Rng(11)),
        client_host_(network_.add_host("client",
                                       IpAddress::from_octets(10, 0, 0, 1),
                                       {50.11, 8.68}, Continent::kEurope)),
        server_host_(network_.add_host("server",
                                       IpAddress::from_octets(10, 0, 0, 2),
                                       {52.37, 4.90}, Continent::kEurope)),
        client_udp_(client_host_),
        server_udp_(server_host_) {
    network_.set_loss_rate(0.0);
    network_.set_path_override(client_host_.address(), server_host_.address(),
                               from_ms(10));
  }

  QuicConfig server_config() {
    QuicConfig c;
    c.alpn = {"doq"};
    c.ticket_secret = 0xD0C;
    c.certificate_chain_size = 3000;
    return c;
  }

  /// Starts a DoQ-style echo server: answers every stream with its own
  /// payload reversed, fin set.
  void start_server(QuicConfig config) {
    server_ = std::make_unique<QuicServer>(sim_, server_udp_, 853, config);
    server_->on_accept([this](const std::shared_ptr<QuicConnection>& conn,
                              const Endpoint&) {
      accepted_.push_back(conn);
      // Raw capture: the server (and accepted_) own the connection; a
      // shared capture in its own handler would leak it as a cycle.
      conn->set_on_stream_data([c = conn.get()](
                                   std::uint64_t id,
                                   std::span<const std::uint8_t> data,
                                   bool fin) {
        if (!fin) return;
        std::vector<std::uint8_t> reply(data.rbegin(), data.rend());
        c->send_stream(id, std::move(reply), true);
      });
    });
  }

  /// Creates a client connection with standard bookkeeping.
  std::shared_ptr<QuicConnection> make_client(QuicConfig config) {
    client_socket_ = client_udp_.bind_ephemeral();
    QuicConnection::Callbacks callbacks;
    callbacks.send_datagram = [this](util::Buffer bytes) {
      client_socket_->send_to(Endpoint{server_host_.address(), 853},
                              std::move(bytes));
    };
    callbacks.on_handshake_complete = [this](const QuicHandshakeInfo& info) {
      client_info_ = info;
      handshake_done_at_ = sim_.now();
    };
    callbacks.on_stream_data = [this](std::uint64_t id,
                                      std::span<const std::uint8_t> data,
                                      bool fin) {
      stream_data_[id].insert(stream_data_[id].end(), data.begin(),
                              data.end());
      if (fin) {
        stream_fin_[id] = true;
        stream_fin_at_[id] = sim_.now();
      }
    };
    callbacks.on_new_ticket = [this](const tls::SessionTicket& t) {
      tickets_.push_back(t);
    };
    callbacks.on_new_token = [this](const AddressToken& t) {
      tokens_.push_back(t);
    };
    callbacks.on_closed = [this](const util::Error& error) {
      close_reasons_.push_back(error);
    };
    auto conn = QuicConnection::make_client(sim_, std::move(config),
                                            std::move(callbacks));
    client_socket_->on_datagram(
        [conn](const Endpoint&, util::Buffer payload) {
          conn->on_datagram(payload);
        });
    return conn;
  }

  QuicConfig client_config() {
    QuicConfig c;
    c.alpn = {"doq"};
    c.sni = "resolver.example";
    return c;
  }

  /// Warm a session fully: returns (ticket, token) learned from the server.
  std::pair<tls::SessionTicket, AddressToken> warm_session() {
    auto conn = make_client(client_config());
    conn->connect();
    sim_.run_until(sim_.now() + 3 * kSecond);
    EXPECT_FALSE(tickets_.empty());
    EXPECT_FALSE(tokens_.empty());
    conn->close();
    auto result = std::make_pair(tickets_.back(), tokens_.back());
    tickets_.clear();
    tokens_.clear();
    client_info_.reset();
    return result;
  }

  sim::Simulator sim_;
  net::Network network_;
  net::Host& client_host_;
  net::Host& server_host_;
  net::UdpStack client_udp_;
  net::UdpStack server_udp_;
  std::unique_ptr<QuicServer> server_;
  std::unique_ptr<net::UdpSocket> client_socket_;
  std::vector<std::shared_ptr<QuicConnection>> accepted_;
  std::optional<QuicHandshakeInfo> client_info_;
  SimTime handshake_done_at_ = -1;
  std::map<std::uint64_t, std::vector<std::uint8_t>> stream_data_;
  std::map<std::uint64_t, bool> stream_fin_;
  std::map<std::uint64_t, SimTime> stream_fin_at_;
  std::vector<tls::SessionTicket> tickets_;
  std::vector<AddressToken> tokens_;
  std::vector<util::Error> close_reasons_;
};

TEST_F(QuicFixture, FullHandshakeCompletesInOneRtt) {
  start_server(server_config());
  auto conn = make_client(client_config());
  conn->connect();
  sim_.run_until(3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  EXPECT_FALSE(client_info_->resumed);
  EXPECT_EQ(client_info_->alpn, "doq");
  EXPECT_EQ(client_info_->version, QuicVersion::kV1);
  // 1 RTT = 20 ms; full handshake with a 3000-byte cert may stall on the
  // amplification limit (client INITIAL is 1208+8 bytes -> budget ~3.6KB,
  // server flight ~4.3KB) costing one extra RTT.
  EXPECT_GE(handshake_done_at_, from_ms(20));
  EXPECT_LT(handshake_done_at_, from_ms(65));
}

TEST_F(QuicFixture, HandshakeIssuesTicketAndToken) {
  start_server(server_config());
  auto conn = make_client(client_config());
  conn->connect();
  sim_.run_until(3 * kSecond);
  ASSERT_FALSE(tickets_.empty());
  EXPECT_EQ(tickets_[0].server_secret, 0xD0Cu);
  ASSERT_FALSE(tokens_.empty());
  EXPECT_EQ(tokens_[0].client_ip, client_host_.address().value());
}

TEST_F(QuicFixture, StreamEchoRoundTrip) {
  start_server(server_config());
  auto conn = make_client(client_config());
  conn->connect();
  std::uint64_t id = conn->open_stream({1, 2, 3}, true);
  sim_.run_until(3 * kSecond);
  EXPECT_EQ(stream_data_[id], (std::vector<std::uint8_t>{3, 2, 1}));
  EXPECT_TRUE(stream_fin_[id]);
}

TEST_F(QuicFixture, MultipleStreamsGetDistinctIds) {
  start_server(server_config());
  auto conn = make_client(client_config());
  conn->connect();
  std::uint64_t a = conn->open_stream({1}, true);
  std::uint64_t b = conn->open_stream({2}, true);
  sim_.run_until(3 * kSecond);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 4u);
  EXPECT_EQ(stream_data_[a], (std::vector<std::uint8_t>{1}));
  EXPECT_EQ(stream_data_[b], (std::vector<std::uint8_t>{2}));
}

TEST_F(QuicFixture, ResumedHandshakeAvoidsAmplificationStall) {
  start_server(server_config());
  auto [ticket, token] = warm_session();

  auto conn = make_client(client_config());
  conn->connect(ticket, token);
  const SimTime t0 = sim_.now();
  sim_.run_until(sim_.now() + 3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  EXPECT_TRUE(client_info_->resumed);
  EXPECT_TRUE(client_info_->presented_token);
  EXPECT_FALSE(client_info_->amplification_stall);
  // Exactly 1 RTT (20ms) + jitter.
  EXPECT_GE(handshake_done_at_ - t0, from_ms(20));
  EXPECT_LT(handshake_done_at_ - t0, from_ms(30));
}

TEST_F(QuicFixture, FullHandshakeWithLargeCertStallsOnAmplification) {
  QuicConfig cfg = server_config();
  cfg.certificate_chain_size = 5000;  // server flight far above 3x budget
  start_server(cfg);
  auto conn = make_client(client_config());
  conn->connect();
  sim_.run_until(3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  // The *server* saw the block; the client paid an extra round trip.
  ASSERT_FALSE(accepted_.empty());
  ASSERT_TRUE(accepted_[0]->info().has_value());
  EXPECT_TRUE(accepted_[0]->info()->amplification_stall);
  EXPECT_GE(handshake_done_at_, from_ms(40));  // 2+ RTT
}

TEST_F(QuicFixture, TokenAloneSkipsAmplificationLimit) {
  QuicConfig cfg = server_config();
  cfg.certificate_chain_size = 5000;
  start_server(cfg);
  auto [ticket, token] = warm_session();
  (void)ticket;

  // Token without ticket: full handshake (cert flight) but address is
  // validated up front, so no stall despite the big cert.
  auto conn = make_client(client_config());
  conn->connect(std::nullopt, token);
  const SimTime t0 = sim_.now();
  sim_.run_until(sim_.now() + 3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  EXPECT_FALSE(client_info_->resumed);
  ASSERT_FALSE(accepted_.empty());
  ASSERT_GE(accepted_.size(), 2u);
  ASSERT_TRUE(accepted_[1]->info().has_value());
  EXPECT_FALSE(accepted_[1]->info()->amplification_stall);
  EXPECT_LT(handshake_done_at_ - t0, from_ms(30));
}

TEST_F(QuicFixture, ZeroRttDeliversQueryWithFirstFlight) {
  QuicConfig scfg = server_config();
  scfg.enable_0rtt = true;
  start_server(scfg);
  auto [ticket, token] = warm_session();
  EXPECT_TRUE(ticket.allow_early_data);

  QuicConfig ccfg = client_config();
  ccfg.enable_0rtt = true;
  auto conn = make_client(ccfg);
  const SimTime t0 = sim_.now();
  std::uint64_t id = conn->open_stream({5, 6, 7}, true);  // queued pre-connect
  conn->connect(ticket, token);
  sim_.run_until(sim_.now() + 3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  EXPECT_TRUE(client_info_->early_data_accepted);
  EXPECT_EQ(stream_data_[id], (std::vector<std::uint8_t>{7, 6, 5}));
  // Reply arrives ~1 RTT after the first flight (echo sent with the
  // server's handshake flight).
  EXPECT_LT(stream_fin_at_[id] - t0, from_ms(30));
}

TEST_F(QuicFixture, ZeroRttRejectedIsRetransmitted) {
  QuicConfig issuing = server_config();
  issuing.enable_0rtt = true;
  start_server(issuing);
  auto [ticket, token] = warm_session();

  // Server restarts with 0-RTT disabled (what the paper observed: nobody
  // accepts early data).
  server_.reset();
  accepted_.clear();
  QuicConfig strict = server_config();
  strict.enable_0rtt = false;
  start_server(strict);

  QuicConfig ccfg = client_config();
  ccfg.enable_0rtt = true;
  auto conn = make_client(ccfg);
  std::uint64_t id = conn->open_stream({9}, true);
  conn->connect(ticket, token);
  sim_.run_until(sim_.now() + 3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  EXPECT_FALSE(client_info_->early_data_accepted);
  EXPECT_EQ(stream_data_[id], (std::vector<std::uint8_t>{9}));
}

TEST_F(QuicFixture, RetryAddsRoundTripWithoutToken) {
  QuicConfig cfg = server_config();
  cfg.require_retry = true;
  start_server(cfg);
  auto conn = make_client(client_config());
  conn->connect();
  sim_.run_until(3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  EXPECT_TRUE(client_info_->used_retry);
  EXPECT_EQ(server_->retries_sent(), 1u);
  // Retry costs a full extra RTT before the normal handshake.
  EXPECT_GE(handshake_done_at_, from_ms(40));
}

TEST_F(QuicFixture, TokenSuppressesRetry) {
  QuicConfig cfg = server_config();
  cfg.require_retry = true;
  start_server(cfg);
  auto [ticket, token] = warm_session();

  auto conn = make_client(client_config());
  conn->connect(ticket, token);
  const SimTime t0 = sim_.now();
  sim_.run_until(sim_.now() + 3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  EXPECT_FALSE(client_info_->used_retry);
  EXPECT_LT(handshake_done_at_ - t0, from_ms(30));
}

TEST_F(QuicFixture, VersionNegotiationWhenClientGuessesWrong) {
  QuicConfig scfg = server_config();
  scfg.supported = {QuicVersion::kDraft29};  // old server
  start_server(scfg);
  QuicConfig ccfg = client_config();
  ccfg.version = QuicVersion::kV1;
  auto conn = make_client(ccfg);
  conn->connect();
  sim_.run_until(3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  EXPECT_TRUE(client_info_->used_version_negotiation);
  EXPECT_EQ(client_info_->version, QuicVersion::kDraft29);
  EXPECT_EQ(server_->version_negotiations_sent(), 1u);
  EXPECT_GE(handshake_done_at_, from_ms(40));  // +1 RTT
}

TEST_F(QuicFixture, KnownVersionAvoidsNegotiation) {
  QuicConfig scfg = server_config();
  scfg.supported = {QuicVersion::kDraft29};
  start_server(scfg);
  QuicConfig ccfg = client_config();
  ccfg.version = QuicVersion::kDraft29;  // learned during cache warming
  auto conn = make_client(ccfg);
  conn->connect();
  sim_.run_until(3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  EXPECT_FALSE(client_info_->used_version_negotiation);
  EXPECT_EQ(server_->version_negotiations_sent(), 0u);
}

TEST_F(QuicFixture, HandshakeSurvivesHeavyLoss) {
  network_.set_loss_override(client_host_.address(), server_host_.address(),
                             0.3);
  start_server(server_config());
  auto conn = make_client(client_config());
  conn->connect();
  std::uint64_t id = conn->open_stream({1, 2}, true);
  sim_.run_until(60 * kSecond);
  EXPECT_TRUE(client_info_.has_value());
  EXPECT_EQ(stream_data_[id], (std::vector<std::uint8_t>{2, 1}));
  EXPECT_GT(conn->pto_count_total() +
                (accepted_.empty() ? 0 : accepted_[0]->pto_count_total()),
            0u);
}

TEST_F(QuicFixture, UnreachableServerTimesOut) {
  // No server started; INITIAL PTOs then gives up.
  auto conn = make_client(client_config());
  conn->connect();
  sim_.run_until(600 * kSecond);
  EXPECT_TRUE(conn->closed());
  ASSERT_FALSE(close_reasons_.empty());
  EXPECT_EQ(close_reasons_[0].cls, util::ErrorClass::kTimeout);
}

TEST_F(QuicFixture, ClientCloseSendsConnectionClose) {
  start_server(server_config());
  auto conn = make_client(client_config());
  conn->connect();
  sim_.run_until(3 * kSecond);
  ASSERT_EQ(accepted_.size(), 1u);
  bool server_closed = false;
  accepted_[0]->set_on_closed(
      [&](const util::Error&) { server_closed = true; });
  conn->close();
  sim_.run_until(sim_.now() + kSecond);
  EXPECT_TRUE(conn->closed());
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(server_->connection_count(), 0u);
}

TEST_F(QuicFixture, IdleTimeoutClosesConnection) {
  QuicConfig scfg = server_config();
  scfg.idle_timeout = 5 * kSecond;
  start_server(scfg);
  QuicConfig ccfg = client_config();
  ccfg.idle_timeout = 5 * kSecond;
  auto conn = make_client(ccfg);
  conn->connect();
  sim_.run_until(30 * kSecond);
  EXPECT_TRUE(conn->closed());
}

TEST_F(QuicFixture, StreamsSurviveExtremeJitterReordering) {
  // Crank jitter so datagrams frequently reorder; stream payloads must
  // still deliver exactly once, in order.
  net::LatencyConfig lat;
  lat.jitter_mu_ms = 2.0;  // median ~7 ms jitter vs 10 ms propagation
  lat.jitter_sigma = 1.0;
  // Rebuild the fixture network pieces with the aggressive latency model.
  sim::Simulator sim;
  net::Network network(sim, Rng(77), net::LatencyModel(lat));
  network.set_loss_rate(0.0);
  auto& ch = network.add_host("c", IpAddress::from_octets(10, 9, 0, 1),
                              {50, 8}, Continent::kEurope);
  auto& sh = network.add_host("s", IpAddress::from_octets(10, 9, 0, 2),
                              {51, 9}, Continent::kEurope);
  network.set_path_override(ch.address(), sh.address(), from_ms(10));
  net::UdpStack cu(ch), su(sh);
  QuicConfig scfg;
  scfg.alpn = {"doq"};
  scfg.ticket_secret = 0x1;
  QuicServer server(sim, su, 853, scfg);
  std::map<std::uint64_t, std::vector<std::uint8_t>> echoed;
  server.on_accept([&](const std::shared_ptr<QuicConnection>& conn,
                       const Endpoint&) {
    // Accumulate per stream: reordering may deliver a stream in chunks.
    auto buffers = std::make_shared<
        std::map<std::uint64_t, std::vector<std::uint8_t>>>();
    // Raw capture: the server owns the connection; a shared capture in its
    // own handler would leak it as a cycle.
    conn->set_on_stream_data([c = conn.get(), buffers](
                                 std::uint64_t id,
                                 std::span<const std::uint8_t> d, bool fin) {
      auto& buffer = (*buffers)[id];
      buffer.insert(buffer.end(), d.begin(), d.end());
      if (fin) c->send_stream(id, std::move(buffer), true);
    });
  });
  auto socket = cu.bind_ephemeral();
  QuicConnection::Callbacks callbacks;
  callbacks.send_datagram = [&](util::Buffer bytes) {
    socket->send_to(Endpoint{sh.address(), 853}, std::move(bytes));
  };
  callbacks.on_stream_data = [&](std::uint64_t id,
                                 std::span<const std::uint8_t> d, bool) {
    echoed[id].insert(echoed[id].end(), d.begin(), d.end());
  };
  auto conn = QuicConnection::make_client(
      sim, QuicConfig{.alpn = {"doq"}, .sni = "s"}, std::move(callbacks));
  socket->on_datagram([conn](const Endpoint&,
                             util::Buffer payload) {
    conn->on_datagram(payload);
  });
  conn->connect();
  std::map<std::uint64_t, std::vector<std::uint8_t>> sent;
  for (int i = 0; i < 8; ++i) {
    std::vector<std::uint8_t> payload(200 + i * 37);
    for (std::size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<std::uint8_t>(i + j);
    }
    std::uint64_t id = conn->open_stream(payload, true);
    sent[id] = std::move(payload);
  }
  sim.run_until(60 * kSecond);
  ASSERT_EQ(echoed.size(), sent.size());
  for (const auto& [id, payload] : sent) {
    EXPECT_EQ(echoed[id], payload) << "stream " << id;
  }
}

TEST_F(QuicFixture, HandshakeTimeoutWhenServerVanishesMidway) {
  start_server(server_config());
  auto conn = make_client(client_config());
  conn->connect();
  // Kill the server host after the first flight leaves.
  sim_.schedule(from_ms(5), [this] { server_host_.set_up(false); });
  sim_.run_until(600 * kSecond);
  EXPECT_TRUE(conn->closed());
  ASSERT_FALSE(close_reasons_.empty());
  EXPECT_EQ(close_reasons_[0].cls, util::ErrorClass::kTimeout);
}

TEST_F(QuicFixture, ClientInitialDatagramIsPadded) {
  start_server(server_config());
  std::size_t first_c2s = 0;
  network_.set_tap([&](const net::Packet& p) {
    if (first_c2s == 0 && p.src.address == client_host_.address()) {
      first_c2s = p.payload.size();
    }
  });
  auto conn = make_client(client_config());
  conn->connect();
  sim_.run_until(kSecond);
  EXPECT_GE(first_c2s, kMinInitialDatagram);
}

TEST_F(QuicFixture, ResumedHandshakeBytesMatchPaperShape) {
  start_server(server_config());
  auto [ticket, token] = warm_session();

  auto conn = make_client(client_config());
  conn->connect(ticket, token);
  std::uint64_t sent_at_complete = 0, received_at_complete = 0;
  conn->set_on_handshake_complete([&](const QuicHandshakeInfo& info) {
    client_info_ = info;
    sent_at_complete = conn->bytes_sent();
    received_at_complete = conn->bytes_received();
  });
  sim_.run_until(sim_.now() + 3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  // Paper Table 1: DoQ handshake C->R 2564 bytes, R->C 1304 bytes. The
  // client sends two padded 1200-byte datagrams (CH, then ACK+Fin); the
  // server sends one padded INITIAL plus a small handshake flight.
  EXPECT_GE(sent_at_complete, 2400u);
  EXPECT_LE(sent_at_complete, 2800u);
  EXPECT_GE(received_at_complete, 1200u);
  EXPECT_LE(received_at_complete, 1500u);
}

// ------------------------------------------- RFC 9002 congestion control

TEST_F(QuicFixture, CcDisabledByDefaultKeepsSeedBehaviour) {
  start_server(server_config());
  auto conn = make_client(client_config());
  conn->connect();
  sim_.run_until(3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  EXPECT_FALSE(conn->congestion().config().trace);
  EXPECT_TRUE(conn->congestion().trace().empty());
}

TEST_F(QuicFixture, PacketThresholdLossDetectionDeclaresLosses) {
  // Moderate iid loss with CC on: ack-triggered kPacketThreshold reordering
  // detection must declare losses well before a PTO would fire, and the
  // transfer still completes.
  network_.set_loss_override(client_host_.address(), server_host_.address(),
                             0.1);
  // Custom server that accumulates the whole stream and acks the byte count
  // back once the fin lands (the fixture echo only reflects the last span).
  server_ = std::make_unique<QuicServer>(sim_, server_udp_, 853,
                                         server_config());
  std::size_t server_received = 0;
  server_->on_accept([&](const std::shared_ptr<QuicConnection>& conn,
                         const Endpoint&) {
    accepted_.push_back(conn);
    conn->set_on_stream_data([&server_received, c = conn.get()](
                                 std::uint64_t id,
                                 std::span<const std::uint8_t> data,
                                 bool fin) {
      server_received += data.size();
      if (fin) c->send_stream(id, {1}, true);
    });
  });
  QuicConfig config = client_config();
  config.enable_cc = true;
  auto conn = make_client(config);
  conn->connect();
  sim_.run_until(kSecond);
  const std::uint64_t id =
      conn->open_stream(std::vector<std::uint8_t>(120000, 0x3C), true);
  sim_.run_until(60 * kSecond);
  ASSERT_TRUE(stream_fin_[id]);
  EXPECT_EQ(server_received, 120000u);
  EXPECT_GT(conn->packets_declared_lost(), 0u);
  EXPECT_GT(conn->congestion().loss_episodes(), 0u);
  EXPECT_EQ(conn->bytes_in_flight(), 0u);  // everything acked or declared
}

TEST_F(QuicFixture, CwndTraceShowsSlowStartThenRecovery) {
  network_.set_loss_override(client_host_.address(), server_host_.address(),
                             0.08);
  start_server(server_config());
  QuicConfig config = client_config();
  config.enable_cc = true;
  config.cc_trace = true;
  auto conn = make_client(config);
  conn->connect();
  sim_.run_until(kSecond);
  conn->open_stream(std::vector<std::uint8_t>(150000, 0x77), true);
  sim_.run_until(30 * kSecond);
  const auto& trace = conn->congestion().trace();
  ASSERT_FALSE(trace.empty());
  bool saw_slow_start = false;
  bool recovery_after_slow_start = false;
  for (const auto& point : trace) {
    if (point.phase == cc::CcPhase::kSlowStart) saw_slow_start = true;
    if (saw_slow_start && point.phase == cc::CcPhase::kRecovery) {
      recovery_after_slow_start = true;
    }
  }
  EXPECT_TRUE(saw_slow_start);
  EXPECT_TRUE(recovery_after_slow_start);
}

TEST_F(QuicFixture, BlackholeCollapsesWindowViaPersistentCongestion) {
  start_server(server_config());
  QuicConfig config = client_config();
  config.enable_cc = true;
  auto conn = make_client(config);
  conn->connect();
  sim_.run_until(kSecond);
  const std::size_t cwnd_before = conn->congestion().cwnd();
  // Black-hole the path mid-transfer: consecutive PTOs with nothing acked
  // in between must trip persistent congestion and floor the window.
  conn->open_stream(std::vector<std::uint8_t>(50000, 0x2A), true);
  sim_.at(sim_.now() + from_ms(5), [&] {
    network_.set_loss_override(client_host_.address(),
                               server_host_.address(), 1.0);
  });
  sim_.run_until(sim_.now() + 10 * kSecond);
  EXPECT_LT(conn->congestion().cwnd(), cwnd_before);
  EXPECT_EQ(conn->congestion().cwnd(),
            conn->congestion().config().min_window_segments *
                conn->congestion().config().mss);
}

// ------------------------------------------------- received packet ranges

/// The ACK ranges a std::set of packet numbers yields: maximal runs of
/// consecutive numbers, largest first (the walk RangeSet replaces).
std::vector<AckRange> ranges_of(const std::set<std::uint64_t>& pns) {
  std::vector<AckRange> ranges;
  for (std::uint64_t pn : pns) {
    if (!ranges.empty() && ranges.back().last + 1 == pn) {
      ranges.back().last = pn;
    } else {
      ranges.push_back(AckRange{pn, pn});
    }
  }
  std::reverse(ranges.begin(), ranges.end());
  return ranges;
}

/// Inserts `sequence` into a RangeSet and a std::set side by side; after
/// every insert the "new or duplicate" answer, the descending ranges and
/// membership probes must agree.
void expect_matches_set(const std::vector<std::uint64_t>& sequence,
                        std::uint64_t seed) {
  RangeSet ranges;
  std::set<std::uint64_t> reference;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    const std::uint64_t pn = sequence[i];
    ASSERT_EQ(ranges.insert(pn), reference.insert(pn).second)
        << "insert #" << i << " of " << pn;
    ASSERT_EQ(ranges.descending(), ranges_of(reference)) << "after #" << i;
    const std::uint64_t probe = splitmix64(seed, i) % (sequence.size() + 8);
    ASSERT_EQ(ranges.contains(probe), reference.contains(probe))
        << "probe " << probe;
  }
}

TEST(QuicRangeSet, MatchesSetWalkOnSeededSequences) {
  constexpr std::size_t kLength = 1500;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::vector<std::uint64_t> in_order(kLength);
    std::iota(in_order.begin(), in_order.end(), 0);
    expect_matches_set(in_order, seed);

    std::vector<std::uint64_t> shuffled = in_order;
    for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
      std::swap(shuffled[i], shuffled[splitmix64(seed, i) % (i + 1)]);
    }
    expect_matches_set(shuffled, seed);

    std::vector<std::uint64_t> duplicates;
    for (std::size_t i = 0; i < kLength; ++i) {
      duplicates.push_back(splitmix64(seed ^ 0xD0, i) % (kLength / 3));
    }
    expect_matches_set(duplicates, seed);

    // Mostly in order with dropped numbers (losses) and short-range
    // reordering (late arrivals), the shape a lossy path produces.
    std::vector<std::uint64_t> gaps;
    for (std::uint64_t pn = 0; pn < kLength; ++pn) {
      if (splitmix64(seed ^ 0x6A, pn) % 5 != 0) gaps.push_back(pn);
    }
    for (std::size_t i = 1; i < gaps.size(); ++i) {
      if (splitmix64(seed ^ 0x5A, i) % 4 == 0) std::swap(gaps[i - 1], gaps[i]);
    }
    expect_matches_set(gaps, seed);
  }
}

TEST(QuicRangeSet, InOrderInsertsKeepOneRange) {
  RangeSet ranges;
  for (std::uint64_t pn = 0; pn < 100000; ++pn) ASSERT_TRUE(ranges.insert(pn));
  EXPECT_EQ(ranges.ranges().size(), 1u);
  EXPECT_FALSE(ranges.insert(4242));
  EXPECT_EQ(ranges.descending(), (std::vector<AckRange>{{0, 99999}}));
}

// ------------------------------------------- long-lived DoQ connections

/// Issues `total` A queries through `transport`, `batch` at a time, running
/// the simulation until each batch has completed. Returns how often each
/// query's handler fired; failed queries are counted in `failures`.
std::vector<int> run_queries(sim::Simulator& sim, dox::DnsTransport& transport,
                             int total, int batch, int& failures) {
  std::vector<int> completions(static_cast<std::size_t>(total), 0);
  int done = 0;
  for (int first = 0; first < total; first += batch) {
    const int last = std::min(total, first + batch);
    for (int q = first; q < last; ++q) {
      const auto name =
          dns::DnsName::parse("host" + std::to_string(q) + ".example");
      transport.resolve(
          dns::Question{name, dns::RRType::kA, dns::RRClass::kIN},
          [&, q](dox::QueryResult result) {
            ++completions[static_cast<std::size_t>(q)];
            ++done;
            if (!result.ok()) ++failures;
          });
    }
    while (done < last && sim.step()) {
    }
  }
  return completions;
}

class LongLivedDoq : public QuicFixture {
 protected:
  /// A DoQ responder ("doq" ALPN, 2-byte length prefix) that answers every
  /// query stream with one A record from inside the stream callback, and
  /// counts its answers per stream.
  void start_responder() {
    server_ = std::make_unique<QuicServer>(sim_, server_udp_, 853,
                                           server_config());
    server_->on_accept([this](const std::shared_ptr<QuicConnection>& conn,
                              const Endpoint&) {
      accepted_.push_back(conn);
      conn->set_on_stream_data([this, c = conn.get()](
                                   std::uint64_t id,
                                   std::span<const std::uint8_t> data,
                                   bool fin) {
        auto& bytes = query_bytes_[id];
        bytes.insert(bytes.end(), data.begin(), data.end());
        if (!fin) return;
        auto query =
            dns::Message::decode(std::span<const std::uint8_t>(bytes).subspan(2));
        query_bytes_.erase(id);
        ASSERT_TRUE(query.has_value());
        dns::Message response = dns::make_response(*query);
        response.answers.push_back(
            dns::make_a(query->questions.front().name, 300, 0x0A000002));
        auto wire = response.encode();
        std::vector<std::uint8_t> framed = {
            static_cast<std::uint8_t>(wire.size() >> 8),
            static_cast<std::uint8_t>(wire.size() & 0xFF)};
        framed.insert(framed.end(), wire.begin(), wire.end());
        ++answers_[id];
        c->send_stream(id, std::move(framed), true);
      });
    });
  }

  std::unique_ptr<dox::DnsTransport> make_transport() {
    dox::TransportDeps deps;
    deps.sim = &sim_;
    deps.udp = &client_udp_;
    dox::TransportOptions options;
    options.resolver = Endpoint{server_host_.address(), 853};
    return dox::make_transport(dox::DnsProtocol::kDoQ, deps, options);
  }

  /// Runs `queries` through one transport, `batch` at a time, and checks
  /// every query was answered exactly once over one connection that ends
  /// with no stream records on the server and no per-query state in the
  /// transport.
  void run_and_check(int& failures, int queries = kQueries, int batch = 8) {
    start_responder();
    auto transport = make_transport();
    const std::vector<int> completions =
        run_queries(sim_, *transport, queries, batch, failures);
    for (std::size_t q = 0; q < completions.size(); ++q) {
      ASSERT_EQ(completions[q], 1) << "query " << q;
    }
    ASSERT_EQ(accepted_.size(), 1u);  // one connection, reused throughout
    ASSERT_EQ(answers_.size(), static_cast<std::size_t>(queries));
    for (const auto& [id, count] : answers_) {
      ASSERT_EQ(count, 1) << "stream " << id << " answered twice";
    }
    EXPECT_EQ(accepted_.front()->live_streams(), 0u);
    EXPECT_TRUE(query_bytes_.empty());
    EXPECT_EQ(dox::doq_open_query_records(*transport), 0u);
  }

  static constexpr int kQueries = 5000;
  std::map<std::uint64_t, std::vector<std::uint8_t>> query_bytes_;
  std::map<std::uint64_t, int> answers_;
};

TEST_F(LongLivedDoq, FiveThousandQueriesLeaveNoStreamState) {
  int failures = 0;
  run_and_check(failures);
  EXPECT_EQ(failures, 0);
  // Loss-free: every packet number arrived, so each space is one range.
  const QuicConnection& server = *accepted_.front();
  for (PnSpace space : {PnSpace::kInitial, PnSpace::kHandshake,
                        PnSpace::kAppData}) {
    EXPECT_EQ(server.received_ranges(space), 1u)
        << "space " << static_cast<int>(space);
  }
}

TEST_F(LongLivedDoq, FortyThousandQueriesCrossThePacketNumberWrap) {
  // One query at a time costs about two packets each way, so this crosses
  // 2^16 packets per direction on one connection: the 16-bit packet
  // numbers wrap and must be reconstructed (RFC 9000 Appendix A.3), or
  // every packet after the wrap reads as a duplicate and is dropped
  // unacknowledged.
  int failures = 0;
  run_and_check(failures, 40000, 1);
  EXPECT_EQ(failures, 0);
}

TEST_F(LongLivedDoq, LossyPathStillAnswersEveryQueryExactlyOnce) {
  // Lost ACKs make the client retransmit queries the server has already
  // answered and retired; those frames must be dropped, not re-answered.
  network_.set_loss_rate(0.05);
  int failures = 0;
  run_and_check(failures);
  EXPECT_EQ(failures, 0);
  EXPECT_GT(accepted_.front()->pto_count_total(), 0u);  // loss did bite
}

TEST_F(QuicFixture, ClientRetiresAnsweredStreams) {
  // The client side of the same exchange, on a bare connection: 5,000
  // request/response streams leave no stream records on either endpoint
  // and one received range per packet-number space.
  start_server(server_config());
  auto conn = make_client(client_config());
  conn->connect();
  for (int batch = 0; batch < 625; ++batch) {
    for (int i = 0; i < 8; ++i) conn->open_stream({1, 2, 3}, true);
    sim_.run_until(sim_.now() + from_ms(50));
  }
  sim_.run_until(sim_.now() + kSecond);
  EXPECT_EQ(stream_fin_.size(), 5000u);
  EXPECT_EQ(conn->live_streams(), 0u);
  ASSERT_EQ(accepted_.size(), 1u);
  EXPECT_EQ(accepted_.front()->live_streams(), 0u);
  for (PnSpace space : {PnSpace::kInitial, PnSpace::kHandshake,
                        PnSpace::kAppData}) {
    EXPECT_EQ(conn->received_ranges(space), 1u)
        << "space " << static_cast<int>(space);
  }
}

}  // namespace
}  // namespace doxlab::quic
