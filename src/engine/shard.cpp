#include "engine/shard.h"

#include <algorithm>
#include <bit>
#include <charconv>
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

}  // namespace

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
                         SimTime timeout, std::uint64_t seed)
    : sim_(sim),
      timeout_(std::max<SimTime>(0, timeout)),
      seed_(seed),
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

void SwarmClient::book_outcome(SimTime sent_at, std::uint64_t outcome) {
  // Commutative sum — see EngineShard::outcome_digest() for the invariance
  // contract.
  outcome_digest_ +=
      splitmix64(seed_ ^ static_cast<std::uint64_t>(sent_at), outcome);
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
    report_.latency_ms.push_back(to_ms(sim_.now() - query.sent_at));
    book_outcome(query.sent_at, kOutcomeAnswered);
  }
  query.sent_at = kIdle;
  --in_flight_;
}

EngineShard::EngineShard(const ShardedConfig& config, std::uint32_t index,
                         std::span<const Arrival> arrivals,
                         dns::SharedPacketCache* l2)
    : config_(config),
      index_(index),
      client_(sim_, config.names, config.client_timeout, config.seed) {
  network_ = std::make_unique<net::Network>(
      sim_, Rng(splitmix64(config.seed, kNetworkLane + index)));
  network_->set_loss_rate(0.0);
  network_->set_batch_window(config.batch_window);

  // The shard's host carries both the engine listener and the swarm socket
  // (mirroring run_scenario, where generator and engine share one host).
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
}

void EngineShard::run_until(SimTime deadline) { sim_.run_until(deadline); }

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

}  // namespace doxlab::engine
