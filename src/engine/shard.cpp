#include "engine/shard.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <stdexcept>
#include <string>

#include "dns/message.h"
#include "util/rng.h"

namespace doxlab::engine {

namespace {

/// Seed-derivation lanes: each subsystem's stream is splitmix64(seed, lane)
/// so adding draws in one place never perturbs another. Lanes encode the
/// shard index but never the shard count — a shard's world is identical no
/// matter how many siblings it has.
constexpr std::uint64_t kNetworkLane = 0x5A000000ull;
constexpr std::uint64_t kResolverLane = 0x5B000000ull;

/// Each attack family's query zone and the /24 its sources sit in.
struct AttackFamily {
  std::string_view zone;
  net::IpAddress source_base;
};
constexpr std::array<AttackFamily, kAttackKinds> kFamilies = {{
    {"flood.example", net::IpAddress::from_octets(198, 18, 0, 0)},
    {"torture.example", net::IpAddress::from_octets(198, 18, 1, 0)},
    {"amp.example", net::IpAddress::from_octets(203, 0, 113, 0)},
}};

/// The canonical abuse chain, ordered the way an operator would stack it:
/// cheap protocol classifiers first, then volumetric limits, then
/// zone-specific shields, then routing.
policy::ChainConfig abuse_chain(const AbuseMix& abuse) {
  auto rule = [](const char* name, policy::MatcherKind matcher,
                 policy::ActionKind action) {
    policy::RuleConfig r;
    r.name = name;
    r.matcher = matcher;
    r.action = action;
    return r;
  };
  policy::ChainConfig chain;
  // Amplification defence: this testbed's clients never ask for TXT.
  chain.rules.push_back(rule("refuse-txt", policy::MatcherKind::kQType,
                             policy::ActionKind::kRefuse));
  chain.rules.back().qtype = dns::RRType::kTXT;
  // Volumetric backstop: per-/24 budget, silently drop the excess.
  chain.rules.push_back(rule("qps-per-24", policy::MatcherKind::kRateLimit,
                             policy::ActionKind::kDrop));
  chain.rules.back().rate_qps = abuse.rate_limit_qps;
  chain.rules.back().subnet_prefix_len = 24;
  // What leaks under the rate limit still never resolves.
  chain.rules.push_back(rule("refuse-flood-zone",
                             policy::MatcherKind::kQnameSuffix,
                             policy::ActionKind::kRefuse));
  chain.rules.back().suffixes = {"flood.example"};
  chain.rules.push_back(rule("drop-torture-zone",
                             policy::MatcherKind::kQnameSuffix,
                             policy::ActionKind::kDrop));
  chain.rules.back().suffixes = {"torture.example"};
  // Legit zone to the dedicated pool (same resolver, own connections).
  chain.rules.push_back(rule("route-load-anycast",
                             policy::MatcherKind::kQnameSuffix,
                             policy::ActionKind::kRoutePool));
  chain.rules.back().suffixes = {"load.example"};
  chain.rules.back().pool = "anycast";
  return chain;
}

}  // namespace

std::string_view attack_kind_name(AttackKind kind) {
  switch (kind) {
    case AttackKind::kRandomSubdomain: return "random-subdomain";
    case AttackKind::kWaterTorture: return "water-torture";
    case AttackKind::kAmplification: return "amplification";
  }
  return "?";
}

net::IpAddress attack_source(AttackKind kind, std::uint64_t bits) {
  return net::IpAddress(
      kFamilies[static_cast<std::size_t>(kind)].source_base.value() +
      static_cast<std::uint32_t>(bits >> 56));
}

std::string_view churn_action_name(ChurnAction action) {
  switch (action) {
    case ChurnAction::kOutage: return "outage";
    case ChurnAction::kRecover: return "recover";
    case ChurnAction::kWithdraw: return "withdraw";
    case ChurnAction::kAnnounce: return "announce";
  }
  return "unknown";
}

void LoadReport::add(const LoadReport& other) {
  sent += other.sent;
  answered += other.answered;
  servfails += other.servfails;
  timeouts += other.timeouts;
  shed += other.shed;
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
}

void check_load_shape(std::size_t clients, std::size_t names) {
  if (clients == 0) {
    throw std::invalid_argument("load needs at least one client (clients=0)");
  }
  if (names == 0) {
    throw std::invalid_argument("load needs at least one name (names=0)");
  }
}

net::IpAddress client_source(const ShardedConfig& config,
                             std::uint32_t index) {
  return net::IpAddress(
      config.client_base.value() +
      static_cast<std::uint32_t>(splitmix64(config.seed, index) %
                                 config.client_span));
}

std::uint32_t shard_of(const ShardedConfig& config, net::IpAddress source) {
  if (config.shards <= 1) return 0;
  return static_cast<std::uint32_t>(
      splitmix64(config.seed ^ 0xC11E47ull, source.value()) % config.shards);
}

SwarmClient::SwarmClient(sim::Simulator& sim, std::size_t names,
                         SimTime timeout, std::uint64_t seed, SimTime bucket)
    : sim_(sim),
      timeout_(std::max<SimTime>(0, timeout)),
      seed_(seed),
      bucket_(bucket),
      timeout_lane_(sim.add_lane(&SwarmClient::on_timeout, this)),
      pending_(std::size_t{1} << 16) {
  // Every query differs from name0's only in the first label, which
  // starts right after the 12-byte header (the question name is the first
  // name in the message, so nothing before or after it is compressed
  // against it). Splice each label into that one encoded template.
  constexpr std::size_t kHeaderBytes = 12;
  constexpr std::string_view kLabelPrefix = "name";
  const std::vector<std::uint8_t> tmpl =
      dns::make_query(0, dns::DnsName::parse("name0.load.example"),
                      dns::RRType::kA)
          .encode();
  const auto tail = std::span(tmpl).subspan(kHeaderBytes + 1 +
                                            tmpl[kHeaderBytes]);
  images_.reserve(names * (tmpl.size() + 8));
  image_offsets_.reserve(names + 1);
  image_offsets_.push_back(0);
  for (std::size_t i = 0; i < names; ++i) {
    char label[32];
    std::copy(kLabelPrefix.begin(), kLabelPrefix.end(), label);
    char* end =
        std::to_chars(label + kLabelPrefix.size(), std::end(label), i).ptr;
    images_.insert(images_.end(), tmpl.begin(), tmpl.begin() + kHeaderBytes);
    images_.push_back(static_cast<std::uint8_t>(end - label));
    images_.insert(images_.end(), label, end);
    images_.insert(images_.end(), tail.begin(), tail.end());
    image_offsets_.push_back(static_cast<std::uint32_t>(images_.size()));
  }
}

void SwarmClient::book_outcome(SimTime sent_at, std::uint64_t outcome,
                               double latency_ms) {
  // Commutative sum — see EngineShard::outcome_digest() for the invariance
  // contract.
  outcome_digest_ +=
      splitmix64(seed_ ^ static_cast<std::uint64_t>(sent_at), outcome);
  if (bucket_ <= 0 || outcome == kOutcomeShed) return;
  const auto index = static_cast<std::size_t>(sent_at / bucket_);
  if (index >= series_.size()) series_.resize(index + 1);
  LoadReport& bucket = series_[index];
  ++bucket.sent;
  switch (outcome) {
    case kOutcomeAnswered:
      ++bucket.answered;
      bucket.latency_ms.push_back(latency_ms);
      break;
    case kOutcomeServfail:
      ++bucket.servfails;
      break;
    default:
      ++bucket.timeouts;
      break;
  }
}

std::optional<util::Buffer> SwarmClient::start_query(
    std::uint32_t name_index) {
  // Transaction ids are a shard-global ring: with a 16-bit space and
  // short-lived queries, a still-pending id is skipped (deterministically)
  // rather than clobbered.
  std::uint16_t id = next_id_;
  while (pending_[id].sent_at != kIdle) {
    if (++id == 0) id = 1;
    if (id == next_id_) {
      // 65535 in flight: shed this arrival. Counted so the load report
      // reconciles — sent + shed == arrivals scheduled.
      ++report_.shed;
      book_outcome(sim_.now(), kOutcomeShed);
      return std::nullopt;
    }
  }
  next_id_ = static_cast<std::uint16_t>(id + 1);
  if (next_id_ == 0) next_id_ = 1;

  PendingQuery& query = pending_[id];
  query.sent_at = sim_.now();
  query.timeout =
      sim_.lane_push(timeout_lane_, sim_.now() + timeout_, id).position;
  ++in_flight_;
  ++report_.sent;

  const std::uint32_t begin = image_offsets_[name_index];
  util::Buffer wire = util::Buffer::copy_of(std::span(images_).subspan(
      begin, image_offsets_[name_index + 1] - begin));
  wire.data()[0] = static_cast<std::uint8_t>(id >> 8);
  wire.data()[1] = static_cast<std::uint8_t>(id & 0xFF);
  return wire;
}

void SwarmClient::on_timeout(void* self, std::uint64_t id) {
  // An answer cancels its query's timeout, so a timeout that fires always
  // finds its query still in flight.
  SwarmClient& client = *static_cast<SwarmClient*>(self);
  PendingQuery& query = client.pending_[id];
  client.book_outcome(query.sent_at, kOutcomeTimeout);
  query.sent_at = kIdle;
  --client.in_flight_;
  ++client.report_.timeouts;
}

void SwarmClient::on_response(std::span<const std::uint8_t> wire) {
  if (!dns::Message::decode_into(wire, scratch_) || !scratch_.qr) return;
  PendingQuery& query = pending_[scratch_.id];
  if (query.sent_at == kIdle) return;  // unknown id, or answered too late
  sim_.lane_cancel(sim::LaneTicket{query.timeout, timeout_lane_});
  if (scratch_.rcode == dns::RCode::kServFail) {
    ++report_.servfails;
    book_outcome(query.sent_at, kOutcomeServfail);
  } else {
    ++report_.answered;
    const double latency = to_ms(sim_.now() - query.sent_at);
    report_.latency_ms.push_back(latency);
    book_outcome(query.sent_at, kOutcomeAnswered, latency);
  }
  query.sent_at = kIdle;
  --in_flight_;
}

EngineShard::EngineShard(const ShardedConfig& config, std::uint32_t index,
                         std::span<const Arrival> arrivals,
                         dns::SharedPacketCache* l2,
                         const ShardWindow& window)
    : config_(config),
      index_(index),
      client_(sim_, config.names, config.client_timeout, config.seed,
              config.bucket),
      arrival_end_(window.end < 0 ? config.duration : window.end) {
  // A restarted world starts at the restart instant, so warm start and TTL
  // arithmetic see the true time rather than time zero.
  if (window.start > 0) sim_.run_until(window.start);
  network_ = std::make_unique<net::Network>(
      sim_, Rng(splitmix64(config.seed, kNetworkLane + index)));
  network_->set_loss_rate(0.0);
  network_->set_batch_window(config.batch_window);

  // The shard's host carries the engine listener, the swarm socket and the
  // attack sockets.
  host_ = &network_->add_host(
      "shard-" + std::to_string(index),
      net::IpAddress::from_octets(10, 1, 0,
                                  static_cast<std::uint8_t>(index + 1)),
      {50.11, 8.68}, net::Continent::kEurope);
  udp_ = std::make_unique<net::UdpStack>(*host_);
  tcp_ = std::make_unique<tcp::TcpStack>(*host_);
  if (config.bottleneck) {
    network_->set_host_ingress_link(host_->address(),
                                    network_->add_link(*config.bottleneck));
  }

  // Client sources live in their own prefix; answers to spoofed sources
  // must route back to this host's swarm socket. Cover the whole source
  // range [base, base + span - 1] with the narrowest containing prefix —
  // a hardcoded length would blackhole replies whenever client_span
  // outgrows it. Exact host addresses win over prefix routes in
  // Network::route_host, so a wide cover cannot hijack engine or upstream
  // traffic.
  const std::uint32_t base = config.client_base.value();
  const std::uint64_t last_wide =
      std::uint64_t{base} + std::max<std::uint32_t>(1, config.client_span) - 1;
  const auto last = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(last_wide, 0xFFFFFFFFull));
  network_->add_prefix_route(config.client_base,
                             32 - std::bit_width(base ^ last),
                             host_->address());
  if (config.abuse) {
    // Bots in 198.18.0.0/16 (RFC 2544 benchmarking space) hear their
    // answers here. The amplification victim's prefix routes to a host of
    // its own, so the backscatter lands there, never back at the bots.
    network_->add_prefix_route(net::IpAddress::from_octets(198, 18, 0, 0),
                               16, host_->address());
    const net::Host& victim = network_->add_host(
        "victim", net::IpAddress::from_octets(203, 0, 113, 1),
        {40.71, -74.01}, net::Continent::kNorthAmerica);
    network_->add_prefix_route(kFamilies[2].source_base, 24,
                               victim.address());
  }

  std::vector<UpstreamConfig> upstreams;
  for (std::size_t i = 0; i < config.upstream_one_way.size(); ++i) {
    resolver::ResolverProfile profile;
    profile.name = "upstream-" + std::to_string(i);
    profile.address = net::IpAddress::from_octets(
        10, 9, 0, static_cast<std::uint8_t>(i + 1));
    profile.location = {48.86, 2.35};
    profile.secret = 0xE0 + i;
    profile.drop_probability = 0.0;
    resolvers_.push_back(std::make_unique<resolver::DoxResolver>(
        *network_, profile,
        Rng(splitmix64(config.seed, kResolverLane + (index << 8) + i))));
    network_->set_path_override(host_->address(), profile.address,
                                config.upstream_one_way[i]);

    UpstreamConfig upstream;
    upstream.name = profile.name;
    upstream.address = profile.address;
    upstream.protocols = config.protocols;
    upstreams.push_back(std::move(upstream));
  }

  dox::TransportDeps deps;
  deps.sim = &sim_;
  deps.udp = udp_.get();
  deps.tcp = tcp_.get();
  deps.tickets = &tickets_;
  deps.doq_cache = &doq_cache_;

  EngineConfig engine_config = config.engine;
  engine_config.l2 = l2;
  engine_config.shard_index = index;
  if (config.abuse && !upstreams.empty()) {
    // The primary again as a dedicated "anycast" pool: the route rule
    // exercises named-pool routing at identical RTT.
    UpstreamConfig anycast = upstreams.front();
    anycast.name += "-anycast";
    anycast.pool = "anycast";
    upstreams.push_back(std::move(anycast));
    if (engine_config.policy.empty()) {
      engine_config.policy = abuse_chain(*config.abuse);
    }
  }
  // Per-shard chain instances can't share limiter state. Address-keyed
  // (/32) budgets are already shard-local — the source hash sends one
  // address's traffic to one shard — and coarser budgets are sliced
  // exactly across shards (see policy::scale_rate_limits).
  engine_config.policy = policy::scale_rate_limits(
      std::move(engine_config.policy), config.shards, index);
  engine_ = std::make_unique<ForwarderEngine>(sim_, *udp_, deps,
                                              std::move(upstreams),
                                              engine_config);
  target_ = net::Endpoint{host_->address(), engine_config.listen_port};

  swarm_ = udp_->bind_ephemeral();
  swarm_->on_datagram([this](const net::Endpoint&, util::Buffer payload) {
    client_.on_response(payload);
  });
  // Batched mode: one event drains a whole burst of answers through the
  // same per-response logic.
  swarm_->on_batch([this](std::span<net::Datagram> batch) {
    for (const net::Datagram& datagram : batch) {
      client_.on_response(datagram.payload);
    }
  });

  // The slice is in time order, so it queues on one monotone lane; each
  // push takes the sequence number an at() here would have taken.
  const std::uint32_t lane =
      sim_.add_lane(&EngineShard::on_arrival, this, arrivals.size());
  for (const Arrival& arrival : arrivals) {
    sim_.lane_push(lane, arrival.at,
                   (std::uint64_t{arrival.client} << 32) | arrival.name);
  }
  arrivals_scheduled_ = arrivals.size();

  if (config.abuse) add_attack_streams(window);
  if (!config.churn.empty()) schedule_churn(window.start);
}

void EngineShard::add_attack_streams(const ShardWindow& window) {
  for (std::size_t k = 0; k < kAttackKinds; ++k) {
    auto stream = std::make_unique<AttackStream>();
    stream->shard = this;
    stream->kind = static_cast<AttackKind>(k);
    stream->report.kind = stream->kind;
    stream->socket = udp_->bind_ephemeral();
    auto book = [s = stream.get()](std::span<const std::uint8_t> wire) {
      if (!dns::Message::decode_into(wire, s->scratch) || !s->scratch.qr) {
        return;
      }
      if (s->scratch.tc) {
        ++s->report.truncated;
      } else if (s->scratch.rcode == dns::RCode::kRefused) {
        ++s->report.refused;
      } else {
        ++s->report.answered;
      }
    };
    stream->socket->on_datagram(
        [book](const net::Endpoint&, util::Buffer payload) { book(payload); });
    stream->socket->on_batch([book](std::span<net::Datagram> batch) {
      for (const net::Datagram& datagram : batch) book(datagram.payload);
    });
    const std::uint32_t attack_lane = sim_.add_lane(
        &EngineShard::on_attack, stream.get(), window.attacks[k].size());
    for (const AttackArrival& attack : window.attacks[k]) {
      sim_.lane_push(attack_lane, attack.at, attack.bits);
    }
    attacks_.push_back(std::move(stream));
  }
}

void EngineShard::schedule_churn(SimTime start) {
  // A non-final window (the run before a restart) takes only the events
  // inside it; the final one also takes those after the load window. The
  // events before the window already happened: replay their net effect.
  const bool final_window = arrival_end_ >= config_.duration;
  std::vector<ChurnEvent> earlier;
  for (const ChurnEvent& event : config_.churn) {
    if (event.upstream >= resolvers_.size() ||
        (!final_window && event.at >= arrival_end_)) {
      continue;
    }
    if (event.at < start) {
      earlier.push_back(event);
      continue;
    }
    sim_.at(event.at, [this, event] {
      apply(event);
      ++churn_fired_;
    });
  }
  std::stable_sort(earlier.begin(), earlier.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) {
                     return a.at < b.at;
                   });
  for (const ChurnEvent& event : earlier) apply(event);
}

void EngineShard::run_until(SimTime deadline) { sim_.run_until(deadline); }

void EngineShard::probe_stats_at(SimTime at, EngineStats& out) {
  sim_.at(at, [this, &out] { out = engine_stats(); });
}

std::vector<AttackReport> EngineShard::attack_reports() const {
  std::vector<AttackReport> reports;
  for (const auto& stream : attacks_) reports.push_back(stream->report);
  return reports;
}

void EngineShard::apply(const ChurnEvent& event) {
  switch (event.action) {
    case ChurnAction::kOutage:
      resolvers_[event.upstream]->host().set_up(false);
      break;
    case ChurnAction::kRecover:
      resolvers_[event.upstream]->host().set_up(true);
      break;
    case ChurnAction::kWithdraw:
      engine_->pool(0).set_enabled(event.upstream, false);
      break;
    case ChurnAction::kAnnounce:
      engine_->pool(0).set_enabled(event.upstream, true);
      break;
  }
}

void EngineShard::on_arrival(void* self, std::uint64_t client_and_name) {
  EngineShard& shard = *static_cast<EngineShard*>(self);
  std::optional<util::Buffer> query = shard.client_.start_query(
      static_cast<std::uint32_t>(client_and_name & 0xFFFFFFFFu));
  if (!query) return;
  shard.swarm_->send_to_from(
      shard.target_,
      client_source(shard.config_,
                    static_cast<std::uint32_t>(client_and_name >> 32)),
      std::move(*query));
}

void EngineShard::on_attack(void* self, std::uint64_t bits) {
  // Attack queries are cold-path traffic: built and encoded per send, with
  // their labels and id taken from the arrival's random bits.
  AttackStream& stream = *static_cast<AttackStream*>(self);
  const AttackFamily& family = kFamilies[static_cast<std::size_t>(stream.kind)];
  const std::string label = std::to_string(bits & ((1u << 30) - 1));
  std::string qname;
  dns::RRType qtype = dns::RRType::kA;
  switch (stream.kind) {
    case AttackKind::kRandomSubdomain:
      qname = "r" + label + "." + std::string(family.zone);
      break;
    case AttackKind::kWaterTorture:
      qname = "w" + label + ".z" + std::to_string((bits >> 30) & 7) + "." +
              std::string(family.zone);
      break;
    case AttackKind::kAmplification:
      // Small query, big TXT answer: the resolver sizes the payload from
      // the leading label.
      qname = "txt1200." + std::string(family.zone);
      qtype = dns::RRType::kTXT;
      break;
  }
  const auto id = static_cast<std::uint16_t>(
      std::max<std::uint64_t>(1, (bits >> 33) & 0xFFFF));
  ++stream.report.sent;
  stream.socket->send_to_from(
      stream.shard->target_, attack_source(stream.kind, bits),
      util::Buffer::copy_of(
          dns::make_query(id, dns::DnsName::parse(qname), qtype).encode()));
}

}  // namespace doxlab::engine
