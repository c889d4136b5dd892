#include "engine/load_gen.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "dns/message.h"

namespace doxlab::engine {

std::string_view attack_kind_name(AttackKind kind) {
  switch (kind) {
    case AttackKind::kRandomSubdomain: return "random-subdomain";
    case AttackKind::kWaterTorture: return "water-torture";
    case AttackKind::kAmplification: return "amplification";
  }
  return "?";
}

void check_load_shape(std::size_t clients, std::size_t names) {
  if (clients == 0) {
    throw std::invalid_argument("load needs at least one client (clients=0)");
  }
  if (names == 0) {
    throw std::invalid_argument("load needs at least one name (names=0)");
  }
}

LoadGenerator::LoadGenerator(sim::Simulator& sim, net::UdpStack& udp,
                             LoadConfig config)
    : sim_(sim), config_(std::move(config)), rng_(config_.seed) {
  check_load_shape(config_.clients, config_.names);
  clients_.reserve(config_.clients);
  for (std::size_t i = 0; i < config_.clients; ++i) {
    auto client = std::make_unique<Client>();
    client->socket = udp.bind_ephemeral();
    if (config_.client_span > 0) {
      // SplitMix64 on (seed, client index): stable per client, independent
      // of the arrival stream, collisions harmless (ports still demux).
      client->source = net::IpAddress(
          config_.client_base.value() +
          static_cast<std::uint32_t>(splitmix64(config_.seed, i) %
                                     config_.client_span));
    }
    client->socket->on_datagram([this, i](const net::Endpoint&,
                                          util::Buffer payload) {
      auto response = dns::Message::decode(payload);
      if (!response || !response->qr) return;
      Client& c = *clients_[i];
      auto it = c.pending.find(response->id);
      if (it == c.pending.end()) return;  // late answer after timeout
      it->second.timeout.cancel();
      if (response->rcode == dns::RCode::kServFail) {
        ++report_.servfails;
        if (config_.sample_hook) {
          config_.sample_hook(it->second.sent_at, QueryOutcome::kServfail,
                              0.0);
        }
      } else {
        ++report_.answered;
        const double latency = to_ms(sim_.now() - it->second.sent_at);
        report_.latency_ms.push_back(latency);
        if (config_.sample_hook) {
          config_.sample_hook(it->second.sent_at, QueryOutcome::kAnswered,
                              latency);
        }
      }
      c.pending.erase(it);
    });
    clients_.push_back(std::move(client));
  }

  // Zipf weights 1/rank^s, stored cumulatively for O(log n) sampling.
  name_cdf_.reserve(config_.names);
  double total = 0.0;
  for (std::size_t rank = 1; rank <= config_.names; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank),
                            config_.zipf_exponent);
    name_cdf_.push_back(total);
  }

  // Poisson arrivals: exponential inter-arrival gaps at the aggregate rate.
  const double mean_gap_us =
      static_cast<double>(kSecond) / std::max(config_.qps, 1e-9);
  SimTime at = sim_.now();
  while (true) {
    at += std::max<SimTime>(1, static_cast<SimTime>(
                                   rng_.exponential(mean_gap_us)));
    if (at >= sim_.now() + config_.duration) break;
    const std::size_t client = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(config_.clients) - 1));
    arrivals_.push_back(
        sim_.at(at, [this, client] { send_query(client); }));
  }

  // Attack mixes: each gets a socket, a private Rng stream (the 2^32 index
  // offset keeps it disjoint from client-address derivation), and its own
  // pre-scheduled Poisson arrivals — the legit schedule above is already
  // fixed, so attacks never perturb it.
  attacks_.reserve(config_.attacks.size());
  for (std::size_t k = 0; k < config_.attacks.size(); ++k) {
    auto state = std::make_unique<AttackState>(AttackState{
        config_.attacks[k],
        Rng(splitmix64(config_.seed, (std::uint64_t{1} << 32) + k)),
        udp.bind_ephemeral(),
        AttackReport{config_.attacks[k].kind}});
    state->socket->on_datagram([this, k](const net::Endpoint&,
                                         util::Buffer payload) {
      auto response = dns::Message::decode(payload);
      if (!response || !response->qr) return;
      AttackReport& r = attacks_[k]->report;
      if (response->tc) {
        ++r.truncated;
      } else if (response->rcode == dns::RCode::kRefused) {
        ++r.refused;
      } else {
        ++r.answered;
      }
    });

    const AttackConfig& attack = state->config;
    const double attack_gap_us =
        static_cast<double>(kSecond) / std::max(attack.qps, 1e-9);
    SimTime attack_at = sim_.now() + attack.start;
    const SimTime attack_end = attack_at + attack.duration;
    while (true) {
      attack_at += std::max<SimTime>(
          1, static_cast<SimTime>(state->rng.exponential(attack_gap_us)));
      if (attack_at >= attack_end) break;
      arrivals_.push_back(
          sim_.at(attack_at, [this, k] { send_attack(k); }));
    }
    attacks_.push_back(std::move(state));
  }
}

std::vector<AttackReport> LoadGenerator::attack_reports() const {
  std::vector<AttackReport> reports;
  reports.reserve(attacks_.size());
  for (const auto& attack : attacks_) reports.push_back(attack->report);
  return reports;
}

AttackReport LoadGenerator::attack_total() const {
  AttackReport total;
  for (const auto& attack : attacks_) {
    total.kind = attack->report.kind;
    total.sent += attack->report.sent;
    total.answered += attack->report.answered;
    total.refused += attack->report.refused;
    total.truncated += attack->report.truncated;
  }
  return total;
}

void LoadGenerator::send_attack(std::size_t attack_index) {
  AttackState& state = *attacks_[attack_index];
  const AttackConfig& attack = state.config;
  // Spoofed source for this packet: one of the configured addresses.
  const net::IpAddress source(
      attack.source_base.value() +
      static_cast<std::uint32_t>(state.rng.uniform_int(
          0, static_cast<std::int64_t>(attack.source_count) - 1)));

  std::string qname;
  dns::RRType qtype = dns::RRType::kA;
  switch (attack.kind) {
    case AttackKind::kRandomSubdomain:
      qname = "r" + std::to_string(state.rng.uniform_int(0, 1 << 30)) + "." +
              attack.zone;
      break;
    case AttackKind::kWaterTorture:
      qname = "w" + std::to_string(state.rng.uniform_int(0, 1 << 30)) +
              ".z" + std::to_string(state.rng.uniform_int(0, 7)) + "." +
              attack.zone;
      break;
    case AttackKind::kAmplification:
      // Small query, big TXT answer: the resolver sizes the payload from
      // the leading label.
      qname = "txt" + std::to_string(attack.amp_payload) + "." + attack.zone;
      qtype = dns::RRType::kTXT;
      break;
  }

  const std::uint16_t id =
      static_cast<std::uint16_t>(state.rng.uniform_int(1, 0xFFFF));
  dns::Message query =
      dns::make_query(id, dns::DnsName::parse(qname), qtype);
  ++state.report.sent;
  state.socket->send_to_from(config_.target, source,
                             util::Buffer::copy_of(query.encode()));
}

std::size_t LoadGenerator::sample_name() {
  const double u = rng_.uniform_real(0.0, name_cdf_.back());
  auto it = std::upper_bound(name_cdf_.begin(), name_cdf_.end(), u);
  return static_cast<std::size_t>(it - name_cdf_.begin());
}

void LoadGenerator::send_query(std::size_t client_index) {
  Client& client = *clients_[client_index];
  const std::size_t name_index = std::min(sample_name(), config_.names - 1);
  const dns::DnsName name = dns::DnsName::parse(
      "name" + std::to_string(name_index) + ".load.example");

  std::uint16_t id = client.next_id++;
  if (client.next_id == 0) client.next_id = 1;
  dns::Message query = dns::make_query(id, name, dns::RRType::kA);

  PendingQuery pending;
  pending.sent_at = sim_.now();
  pending.timeout = sim_.schedule(
      config_.client_timeout, [this, client_index, id, at = sim_.now()] {
        Client& c = *clients_[client_index];
        if (c.pending.erase(id) > 0) {
          ++report_.timeouts;
          if (config_.sample_hook) {
            config_.sample_hook(at, QueryOutcome::kTimeout, 0.0);
          }
        }
      });
  client.pending[id] = std::move(pending);

  ++report_.sent;
  if (config_.client_span > 0) {
    client.socket->send_to_from(config_.target, client.source,
                                util::Buffer::copy_of(query.encode()));
  } else {
    client.socket->send_to(config_.target, query.encode());
  }
}

}  // namespace doxlab::engine
