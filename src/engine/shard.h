// One shard of the sharded forwarder engine: a complete, self-contained
// simulated world (event loop, network, upstream resolvers, ForwarderEngine,
// stub-client swarm) that runs on one thread at a time.
//
// The coordinator (engine/sharded.h) hashes stub clients onto shards by
// source address and hands each shard its slice of one global arrival
// schedule. Everything inside a shard is derived from (seed, shard index)
// only — never from the shard *count* or from wall-clock — so a shard's
// event stream is bit-identical run to run; the simulator's
// event_stream_digest() pins exactly that in the determinism tests.
//
// The swarm client differs from engine/load_gen.h's LoadGenerator: instead
// of one ephemeral socket per client (the UDP stack has ~16k ephemeral
// ports; the sharded scenario drives millions of clients), the whole shard
// shares ONE socket and stamps each query with its client's source address
// via send_to_from. Replies route back through the client prefix and demux
// by DNS transaction id, so per-client state is zero bytes — client count
// scales to millions for free.
//
// The per-query client path costs no heap event and no codec work: the
// arrival slice and the fixed-delay client timeouts each ride a monotone
// simulator lane (sim/simulator.h), a query is a copy of a pre-encoded
// per-name image with its id patched in, the pending table is a flat array
// indexed by DNS id, and answers decode into one reused scratch message.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dns/message.h"
#include "dns/packet_cache.h"
#include "dox/transport.h"
#include "engine/engine.h"
#include "engine/load_gen.h"
#include "net/network.h"
#include "resolver/resolver.h"
#include "tcp/tcp.h"

namespace doxlab::engine {

/// One entry of the global arrival schedule: at simulated time `at`, client
/// `client` asks for name index `name`. Generated once by the coordinator
/// from the seed — identical for every shard count.
struct Arrival {
  SimTime at = 0;
  std::uint32_t client = 0;
  std::uint32_t name = 0;
};

/// Workload + world parameters shared by every shard (the coordinator's
/// config; see sharded.h for the fields' one-stop documentation).
struct ShardedConfig {
  std::uint32_t shards = 1;
  std::uint64_t seed = 42;
  /// Simulated stub clients across ALL shards (source-hashed onto shards).
  std::size_t clients = 1'000'000;
  /// Aggregate Poisson arrival rate across all shards, queries per second.
  double qps = 20'000.0;
  SimTime duration = 10 * kSecond;
  std::size_t names = 500;
  double zipf_exponent = 1.0;
  SimTime client_timeout = 8 * kSecond;
  /// Client source addressing (mirrors LoadConfig): client i sends from
  /// `client_base + splitmix64(seed, i) % client_span`. Each shard routes
  /// the narrowest prefix covering the whole span back to its swarm
  /// socket, so any span fits.
  net::IpAddress client_base = net::IpAddress::from_octets(10, 50, 0, 0);
  std::uint32_t client_span = 1 << 16;
  /// Per-shard engine template; `l2` and `shard_index` are stamped per
  /// shard, and rate-limit budgets are sliced across shards
  /// (policy::scale_rate_limits — /32-keyed rules keep the full budget).
  EngineConfig engine;
  std::vector<SimTime> upstream_one_way = {from_ms(25), from_ms(40),
                                           from_ms(60)};
  std::vector<dox::DnsProtocol> protocols = {dox::DnsProtocol::kDoQ,
                                             dox::DnsProtocol::kDoT,
                                             dox::DnsProtocol::kDoUdp};
  /// Shared L2 packet cache (0 capacity disables it).
  std::size_t l2_capacity = 1 << 16;
  /// Epoch length: shards run independently for one epoch, then barrier at
  /// its end for the L2 sweep.
  SimTime epoch = 100 * kMillisecond;
  /// Batched-delivery aggregation window (`--batch-us`; 0 = per-datagram
  /// events). Applied to each shard's fabric: UDP datagrams landing on one
  /// host within the window coalesce into a single PacketBatch event, and
  /// the engine answers the burst with one batched flush. Changes event
  /// count/order (and the stream digest) but never per-query outcomes —
  /// that is what `outcome_digest` pins.
  SimTime batch_window = 0;
  /// Worker threads driving the shards (<= 0: one per hardware thread).
  int threads = 0;
  /// Optional finite-rate bottleneck link on each shard host's ingress
  /// (all stub queries and upstream answers drain through it). Exercises
  /// the link queues under engine load — the TSan CI stage runs one; the
  /// default (unset) keeps the pinned digests' event streams.
  std::optional<net::LinkConfig> bottleneck;
};

/// The source address client `index` sends from (shared by the coordinator
/// for shard assignment and by the shard for query stamping).
net::IpAddress client_source(const ShardedConfig& config, std::uint32_t index);

/// Which shard owns `source`: splitmix64 over the address, mod shard count.
std::uint32_t shard_of(const ShardedConfig& config, net::IpAddress source);

/// The swarm client's bookkeeping, apart from the socket: transaction ids,
/// the pre-encoded query images, client timeouts and the per-query outcome
/// book. EngineShard hands it arrivals and received datagrams and sends the
/// bytes it returns.
class SwarmClient {
 public:
  /// Query names are "name<i>.load.example" for i < `names`; every query
  /// gives up after `timeout`. Registers the timeout lane on `sim`, which
  /// must outlive the client.
  SwarmClient(sim::Simulator& sim, std::size_t names, SimTime timeout,
              std::uint64_t seed);

  SwarmClient(const SwarmClient&) = delete;
  SwarmClient& operator=(const SwarmClient&) = delete;

  /// Starts a query for name `name_index`: claims the next free
  /// transaction id, arms the client timeout, and returns the query's wire
  /// bytes — byte-identical to make_query(id, name, kA).encode(). Returns
  /// nullopt, and books the arrival as shed, when all 65535 ids are in
  /// flight.
  std::optional<util::Buffer> start_query(std::uint32_t name_index);

  /// Books one received datagram. A well-formed response (QR=1) to an
  /// in-flight id ends that query as answered or SERVFAIL; anything else —
  /// malformed, truncated, QR=0, an unknown id, or an answer that arrives
  /// after its query timed out — is ignored.
  void on_response(std::span<const std::uint8_t> wire);

  /// Queries sent and not yet answered or timed out.
  std::size_t in_flight() const { return in_flight_; }
  const LoadReport& report() const { return report_; }
  /// See EngineShard::outcome_digest.
  std::uint64_t outcome_digest() const { return outcome_digest_; }

 private:
  static constexpr SimTime kIdle = -1;  ///< sent_at of a free id
  struct PendingQuery {
    SimTime sent_at = kIdle;
    std::uint64_t timeout = 0;  ///< LaneTicket::position on timeout_lane_
  };

  enum OutcomeClass : std::uint64_t {
    kOutcomeAnswered = 1,
    kOutcomeServfail = 2,
    kOutcomeTimeout = 3,
    kOutcomeShed = 4,
  };
  void book_outcome(SimTime sent_at, std::uint64_t outcome);
  static void on_timeout(void* self, std::uint64_t id);

  sim::Simulator& sim_;
  SimTime timeout_;
  std::uint64_t seed_;
  std::uint32_t timeout_lane_;
  /// Every name's query (id 0), back to back; name i spans
  /// [image_offsets_[i], image_offsets_[i + 1]).
  std::vector<std::uint8_t> images_;
  std::vector<std::uint32_t> image_offsets_;
  std::vector<PendingQuery> pending_;  ///< indexed by DNS transaction id
  std::size_t in_flight_ = 0;
  std::uint16_t next_id_ = 1;
  dns::Message scratch_;  ///< reused decode target for answers
  std::uint64_t outcome_digest_ = 0;
  LoadReport report_;
};

class EngineShard {
 public:
  /// Builds the shard's world and queues its `arrivals` slice (which must
  /// be in time order) on the simulator's arrival lane. `l2` may be null
  /// (no shared cache). The ShardedConfig must outlive the shard; the
  /// arrivals are copied.
  EngineShard(const ShardedConfig& config, std::uint32_t index,
              std::span<const Arrival> arrivals, dns::SharedPacketCache* l2);

  EngineShard(const EngineShard&) = delete;
  EngineShard& operator=(const EngineShard&) = delete;

  /// Advances this shard's simulated clock to `deadline` (one epoch's
  /// worth). Must not run concurrently with itself; the coordinator calls
  /// it from at most one pool worker at a time.
  void run_until(SimTime deadline);

  std::uint32_t index() const { return index_; }
  EngineStats engine_stats() const {
    EngineStats stats = engine_->stats();
    const net::LinkStats links = network_->link_totals();
    stats.link_packets = links.packets;
    stats.link_drops = links.tail_drops;
    stats.link_burst_losses = links.burst_losses;
    stats.link_queue_peak = links.queued_bytes_max;
    return stats;
  }
  const LoadReport& report() const { return client_.report(); }
  std::uint64_t events_executed() const { return sim_.events_executed(); }
  /// True once this shard is past the arrival window with no client query
  /// awaiting an answer: everything left in the event queue is engine
  /// housekeeping (idle timers, keep-alives). The coordinator then collapses
  /// the remaining settle window into a single epoch — the same events
  /// execute in the same order, it just stops barriering for a swarm that
  /// has nothing more to say. Pure function of sim state, so deterministic.
  bool drained() const {
    return sim_.now() >= config_.duration && client_.in_flight() == 0;
  }
  std::uint64_t stream_digest() const { return sim_.event_stream_digest(); }
  /// Commutative per-query outcome fingerprint: every terminal outcome
  /// (answered / servfail / timeout / shed) folds
  /// splitmix64(seed ^ sent_at, outcome class) into a SUM, so the digest is
  /// invariant to answer ordering, shard assignment, and delivery batching
  /// — it changes iff some query's outcome (or send time) changes. The
  /// batch-determinism ctest compares it across --batch-us settings, where
  /// the event-stream digest necessarily differs.
  std::uint64_t outcome_digest() const { return client_.outcome_digest(); }
  std::size_t arrivals_scheduled() const { return arrivals_scheduled_; }

 private:
  static void on_arrival(void* self, std::uint64_t client_and_name);

  const ShardedConfig& config_;
  std::uint32_t index_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  net::Host* host_ = nullptr;
  std::unique_ptr<net::UdpStack> udp_;
  std::unique_ptr<tcp::TcpStack> tcp_;
  tls::TicketStore tickets_;
  dox::DoqSessionCache doq_cache_;
  std::vector<std::unique_ptr<resolver::DoxResolver>> resolvers_;
  std::unique_ptr<ForwarderEngine> engine_;

  /// Swarm client state: one socket for every client on this shard.
  std::unique_ptr<net::UdpSocket> swarm_;
  net::Endpoint target_;
  SwarmClient client_;
  std::size_t arrivals_scheduled_ = 0;
};

}  // namespace doxlab::engine
