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
// The swarm client shares ONE socket across every client of the shard and
// stamps each query with its client's source address via send_to_from
// (the UDP stack has ~16k ephemeral ports; the engine drives millions of
// clients). Replies route back through the client prefix and demux by DNS
// transaction id, so per-client state is zero bytes.
//
// The per-query client path costs no heap event and no codec work: the
// arrival slice and the fixed-delay client timeouts each ride a monotone
// simulator lane (sim/simulator.h), a query is a copy of a pre-encoded
// per-name image with its id patched in, the pending table is a flat array
// indexed by DNS id, and answers decode into one reused scratch message.
//
// Optional inputs ride beside the legitimate load without touching it:
// attack arrivals on their own lanes and sockets (one per family), churn
// events as timed host/pool transitions, and a restart window (the shard
// fast-forwards its clock to the window's start). Unset, none of them
// schedules an event or binds a socket.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "dns/message.h"
#include "dns/packet_cache.h"
#include "dox/transport.h"
#include "engine/engine.h"
#include "net/network.h"
#include "resolver/resolver.h"
#include "stats/stats.h"
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

/// Abuse-traffic families (`doxperf abuse`). Each has a fixed zone and
/// source prefix:
///   * kRandomSubdomain — cache-busting flood: a fresh random label under
///     flood.example per query, from bots in 198.18.0.0/24;
///   * kWaterTorture — random labels under rotating subzones of
///     torture.example (the NXDOMAIN flood shape), bots in 198.18.1.0/24;
///   * kAmplification — small TXT queries for a 1200-byte answer whose
///     spoofed sources are the victim's 203.0.113.0/24, so the answers
///     backscatter towards the victim instead of the bot.
enum class AttackKind : std::uint8_t {
  kRandomSubdomain,
  kWaterTorture,
  kAmplification,
};
inline constexpr std::size_t kAttackKinds = 3;

std::string_view attack_kind_name(AttackKind kind);

/// One attack query: at `at`, from source offset `bits >> 56` of its
/// family's prefix; the low bits seed its random labels and DNS id.
struct AttackArrival {
  SimTime at = 0;
  std::uint64_t bits = 0;
};

/// The (spoofed) source an attack arrival of family `kind` is sent from.
net::IpAddress attack_source(AttackKind kind, std::uint64_t bits);

/// What came back to an attack family's sockets. Backscatter to spoofed
/// sources never returns, so sent minus answered covers silent drops too.
struct AttackReport {
  AttackKind kind = AttackKind::kRandomSubdomain;
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;   ///< non-error responses
  std::uint64_t refused = 0;    ///< REFUSED (the policy shed)
  std::uint64_t truncated = 0;  ///< TC=1 (policy slow-pathed the abuser)
};

/// The abuse scenario: the three attack families at these rates from
/// `start` to the end of the load window. Setting ShardedConfig::abuse also
/// (even with every rate 0, the quiet baseline)
///   * routes 198.18.0.0/16 to each shard host and 203.0.113.0/24 to a
///     victim host,
///   * duplicates the primary upstream into an "anycast" pool, and
///   * installs the chain refuse TXT, per-/24 rate-limit drop, refuse
///     flood.example, drop torture.example, route load.example -> anycast —
///     unless `engine.policy` already has rules.
struct AbuseMix {
  double flood_qps = 3000.0;
  double torture_qps = 1500.0;
  double amp_qps = 1000.0;
  SimTime start = 5 * kSecond;
  /// Per-/24 client-subnet budget for the rate-limit rule.
  std::uint32_t rate_limit_qps = 100;
};

/// Upstream transitions for resolver-churn campaigns:
///   * kOutage / kRecover — the upstream host goes dark (packets to it are
///     dropped at routing) and comes back; the pool finds out through
///     attempt timeouts and quarantine ("the resolver died");
///   * kWithdraw / kAnnounce — the upstream leaves (rejoins) the default
///     pool's candidate plan, like an anycast catchment moving away; no
///     timeout is paid ("the route moved").
enum class ChurnAction : std::uint8_t {
  kOutage,
  kRecover,
  kWithdraw,
  kAnnounce,
};

std::string_view churn_action_name(ChurnAction action);

struct ChurnEvent {
  SimTime at = 0;
  std::size_t upstream = 0;  ///< index into `upstream_one_way`
  ChurnAction action = ChurnAction::kOutage;
};

/// Client-side tallies of the legitimate load.
struct LoadReport {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;   ///< non-SERVFAIL responses
  std::uint64_t servfails = 0;  ///< client-visible SERVFAILs
  std::uint64_t timeouts = 0;   ///< gave up waiting
  /// Arrivals dropped before sending (the swarm's 16-bit transaction-id
  /// space was exhausted); sent + shed == arrivals offered.
  std::uint64_t shed = 0;
  std::vector<double> latency_ms;  ///< answered queries only

  /// Every *sent* query reached a terminal outcome (shed never went out).
  bool complete() const { return answered + servfails + timeouts == sent; }
  stats::Summary latency_summary() const {
    return stats::Summary::of(latency_ms);
  }
  /// Sums the counters and appends `other`'s latencies.
  void add(const LoadReport& other);
};

/// Throws std::invalid_argument unless a load has at least one client and
/// one name: every arrival draws one of each.
void check_load_shape(std::size_t clients, std::size_t names);

/// The one engine harness's inputs (see sharded.h for how a run uses them).
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
  /// Client source addressing: client i sends from
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
  /// Attack mixes over the legitimate load (unset: none).
  std::optional<AbuseMix> abuse;
  /// Upstream transitions, applied in every shard at their sim time.
  std::vector<ChurnEvent> churn;
  /// Restart the forwarder at this instant (0 = never): arrivals before it
  /// run in a first set of shards, which drains and is torn down; a fresh
  /// set, its clocks fast-forwarded to the restart, carries the rest. With
  /// `engine.snapshot_dir` set the fresh engines warm-start from disk.
  SimTime restart_at = 0;
  /// Width of the client-visible time-series buckets (0 = no series).
  SimTime bucket = 0;
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
  /// must outlive the client. With `bucket` > 0 every terminal outcome
  /// (shed excepted) is also booked into the series bucket of its send
  /// time.
  SwarmClient(sim::Simulator& sim, std::size_t names, SimTime timeout,
              std::uint64_t seed, SimTime bucket = 0);

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
  /// Per-bucket outcomes, bucket i covering sends in [i, i + 1) * bucket.
  const std::vector<LoadReport>& series() const { return series_; }
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
  void book_outcome(SimTime sent_at, std::uint64_t outcome,
                    double latency_ms = 0.0);
  static void on_timeout(void* self, std::uint64_t id);

  sim::Simulator& sim_;
  SimTime timeout_;
  std::uint64_t seed_;
  SimTime bucket_;
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
  std::vector<LoadReport> series_;
};

/// The part of a run one shard world covers: arrivals in [start, end) and
/// the shard's attack arrivals, one time-ordered slice per family. The
/// default is the whole load window with no attacks.
struct ShardWindow {
  SimTime start = 0;
  SimTime end = -1;  ///< < 0: the config's duration
  std::array<std::span<const AttackArrival>, kAttackKinds> attacks{};
};

class EngineShard {
 public:
  /// Builds the shard's world — its simulator fast-forwarded to
  /// `window.start` first — and queues its `arrivals` slice (which must be
  /// in time order and inside the window) on the simulator's arrival lane,
  /// the window's attacks on one lane per family, and the config's churn
  /// events that fall in the window. Churn events before `window.start`
  /// are applied at construction, in time order, so a restarted world
  /// inherits the upstream state the restart found (a restart does not
  /// heal a dead upstream). `l2` may be null (no shared cache).
  /// The ShardedConfig must outlive the shard; the arrivals are copied.
  EngineShard(const ShardedConfig& config, std::uint32_t index,
              std::span<const Arrival> arrivals, dns::SharedPacketCache* l2,
              const ShardWindow& window = {});

  EngineShard(const EngineShard&) = delete;
  EngineShard& operator=(const EngineShard&) = delete;

  /// Advances this shard's simulated clock to `deadline` (one epoch's
  /// worth). Must not run concurrently with itself; the coordinator calls
  /// it from at most one pool worker at a time.
  void run_until(SimTime deadline);

  /// Copies the engine stats into `out` when the clock reaches `at`.
  void probe_stats_at(SimTime at, EngineStats& out);

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
  const std::vector<LoadReport>& series() const { return client_.series(); }
  /// One report per attack family (empty without an abuse mix).
  std::vector<AttackReport> attack_reports() const;
  std::uint64_t events_executed() const { return sim_.events_executed(); }
  /// Churn events that fired at their sim time (replayed ones excluded).
  std::uint64_t churn_fired() const { return churn_fired_; }
  /// True once this shard is past its arrival window with no client query
  /// awaiting an answer: everything left in the event queue is engine
  /// housekeeping (idle timers, keep-alives). The coordinator then collapses
  /// the remaining settle window into a single epoch — the same events
  /// execute in the same order, it just stops barriering for a swarm that
  /// has nothing more to say. Pure function of sim state, so deterministic.
  bool drained() const {
    return sim_.now() >= arrival_end_ && client_.in_flight() == 0;
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
  /// One attack family's lane context: its socket and counters.
  struct AttackStream {
    EngineShard* shard = nullptr;
    AttackKind kind = AttackKind::kRandomSubdomain;
    std::unique_ptr<net::UdpSocket> socket;
    AttackReport report;
    dns::Message scratch;
  };

  /// One lane and socket per attack family, filled with the window's
  /// attack arrivals.
  void add_attack_streams(const ShardWindow& window);
  /// Applies the config's churn events before `start` and schedules those
  /// that fall in the window starting there.
  void schedule_churn(SimTime start);
  static void on_arrival(void* self, std::uint64_t client_and_name);
  static void on_attack(void* self, std::uint64_t bits);
  void apply(const ChurnEvent& event);

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
  std::vector<std::unique_ptr<AttackStream>> attacks_;
  SimTime arrival_end_ = 0;
  std::size_t arrivals_scheduled_ = 0;
  std::uint64_t churn_fired_ = 0;
};

}  // namespace doxlab::engine
