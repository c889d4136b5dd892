#include "scan/population.h"

#include <algorithm>
#include <cmath>

namespace doxlab::scan {

namespace {

/// AS names: the four the paper names explicitly, plus filler ASes.
struct AsQuota {
  const char* name;
  int asn;
  int verified_count;  // how many of the 313
};

std::vector<AsQuota> as_quotas() {
  // ORACLE 47 (15.0%), DIGITALOCEAN 20 (6.4%), MNGTNET 18 (5.8%),
  // OVHCLOUD 16 (5.1%); the remaining 212 spread over 103 ASes (<= 12 each).
  std::vector<AsQuota> quotas = {
      {"ORACLE", 31898, 47},
      {"DIGITALOCEAN", 14061, 20},
      {"MNGTNET", 50673, 18},
      {"OVHCLOUD", 16276, 16},
  };
  int remaining = 313 - 47 - 20 - 18 - 16;  // 212
  int asn = 64500;
  // 103 further ASes; sizes 12, 12, ... then tapering to 1.
  int index = 0;
  while (remaining > 0) {
    int size = std::max(1, std::min({12, remaining - (102 - index), 3}));
    // Mostly small ASes of 1-3 resolvers with a few larger ones up front.
    if (index < 10) size = std::min(remaining, 8);
    quotas.push_back(
        {"AS-MISC", asn + index, std::min(size, remaining)});
    remaining -= std::min(size, remaining);
    ++index;
  }
  return quotas;
}

quic::QuicVersion draw_quic_version(Rng& rng) {
  const double weights[] = {89.1, 8.5, 1.8, 0.6};
  switch (rng.weighted_index(weights)) {
    case 0: return quic::QuicVersion::kV1;
    case 1: return quic::QuicVersion::kDraft34;
    case 2: return quic::QuicVersion::kDraft32;
    default: return quic::QuicVersion::kDraft29;
  }
}

std::string draw_doq_alpn(Rng& rng) {
  const double weights[] = {87.4, 10.8, 1.8};
  switch (rng.weighted_index(weights)) {
    case 0: return "doq-i02";
    case 1: return "doq-i03";
    default: return "doq-i00";
  }
}

}  // namespace

const std::vector<std::pair<net::Continent, int>>& verified_continent_quota() {
  static const std::vector<std::pair<net::Continent, int>> kQuota = {
      {net::Continent::kEurope, 130},       {net::Continent::kAsia, 128},
      {net::Continent::kNorthAmerica, 49},  {net::Continent::kAfrica, 2},
      {net::Continent::kOceania, 2},        {net::Continent::kSouthAmerica, 2},
  };
  return kQuota;
}

int Population::verified_on(net::Continent c) const {
  int count = 0;
  for (std::size_t index : verified) {
    if (members_[index].profile.continent == c) ++count;
  }
  return count;
}

resolver::DoxResolver& Population::resolver(std::size_t index) {
  Member& member = members_.at(index);
  if (!member.instance) {
    member.instance = std::make_unique<::doxlab::resolver::DoxResolver>(
        *network_, member.profile, Rng(member.seed));
  }
  return *member.instance;
}

void Population::bring_up_all() {
  for (std::size_t i = 0; i < members_.size(); ++i) resolver(i);
}

Population build_population(net::Network& network, const PopulationConfig& cfg,
                            Rng& rng) {
  Population population;
  population.network_ = &network;
  const double scale = static_cast<double>(cfg.verified_dox) / 313.0;
  std::uint32_t next_address = cfg.base_address;
  std::uint64_t next_secret = 0xD0C0'0001;

  // AS assignment list for verified resolvers (scaled), consumed from the
  // front so the paper's headline ASes (ORACLE, ...) are represented at
  // every scale.
  std::size_t next_as = 0;
  std::vector<std::pair<std::string, int>> as_pool;
  for (const AsQuota& quota : as_quotas()) {
    const int scaled =
        std::max(1, static_cast<int>(std::lround(quota.verified_count *
                                                 scale)));
    for (int i = 0; i < scaled; ++i) {
      as_pool.emplace_back(quota.name, quota.asn);
    }
  }

  auto make_profile = [&](net::Continent continent,
                          bool verified) -> resolver::ResolverProfile {
    resolver::ResolverProfile profile;
    const auto& cities = net::cities_in(continent);
    const auto& city = cities[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(cities.size()) - 1))];
    profile.name = "resolver-" + std::to_string(next_address & 0xFFFFFF);
    profile.address = net::IpAddress(next_address++);
    // Scatter around the hub city.
    profile.location = {city.location.lat_deg + rng.uniform_real(-2.0, 2.0),
                        city.location.lon_deg + rng.uniform_real(-2.0, 2.0)};
    profile.continent = continent;
    profile.secret = next_secret++;
    profile.max_tls = rng.chance(0.99) ? tls::TlsVersion::kTls13
                                       : tls::TlsVersion::kTls12;
    profile.quic_version = draw_quic_version(rng);
    profile.doq_alpn = draw_doq_alpn(rng);
    profile.supports_0rtt = cfg.force_supports_0rtt.value_or(false);
    profile.supports_tfo = cfg.force_supports_tfo.value_or(false);
    profile.supports_keepalive =
        cfg.force_supports_keepalive.value_or(false);
    profile.validate_with_retry =
        cfg.force_validate_with_retry.value_or(false);
    profile.supports_doh3 = cfg.force_supports_doh3.value_or(false);
    profile.session_tickets = true;
    // Chain sizes straddle the 3x-amplification budget (~2.8 KB of
    // certificate next to the rest of the flight) so that a realistic
    // fraction of *full* handshakes stalls — the paper's preliminary-work
    // observation (~40%).
    profile.certificate_chain_size =
        static_cast<std::size_t>(rng.uniform_int(1500, 3800));
    profile.recursive_latency_mean =
        from_ms(rng.uniform_real(40.0, 150.0));
    profile.drop_probability = 0.002;
    if (verified && next_as < as_pool.size()) {
      const auto& [as_name, asn] = as_pool[next_as++];
      profile.as_name = as_name;
      profile.as_number = asn;
    } else {
      profile.as_name = "AS-DOQ-ONLY";
      profile.as_number = 65000 + static_cast<int>(next_secret % 500);
    }
    return profile;
  };

  // Verified resolvers per continent quota (scaled).
  for (const auto& [continent, quota] : verified_continent_quota()) {
    const int scaled = std::max(
        1, static_cast<int>(std::lround(quota * scale)));
    for (int i = 0; i < scaled; ++i) {
      auto profile = make_profile(continent, /*verified=*/true);
      population.verified.push_back(population.members_.size());
      const std::uint64_t seed = rng.fork_seed();
      population.members_.push_back({std::move(profile), seed, nullptr});
    }
  }

  if (!cfg.verified_only) {
    // The remaining DoQ resolvers with partial support. Per-protocol
    // support among the non-verified 903 (at paper scale): DoUDP 235,
    // DoTCP 393, DoT 836, DoH 419.
    const int verified_count = static_cast<int>(population.size());
    const int extra = std::max(0, cfg.total_doq - verified_count);
    const double p_udp = 235.0 / 903.0;
    const double p_tcp = 393.0 / 903.0;
    const double p_dot = 836.0 / 903.0;
    const double p_doh = 419.0 / 903.0;
    for (int i = 0; i < extra; ++i) {
      // Continent roughly follows the verified distribution.
      const auto& quota = verified_continent_quota();
      double weights[6];
      for (std::size_t c = 0; c < quota.size(); ++c) {
        weights[c] = quota[c].second;
      }
      const auto continent =
          quota[rng.weighted_index(std::span(weights, 6))].first;
      auto profile = make_profile(continent, /*verified=*/false);
      profile.supports_doudp = rng.chance(p_udp);
      profile.supports_dotcp = rng.chance(p_tcp);
      profile.supports_dot = rng.chance(p_dot);
      profile.supports_doh = rng.chance(p_doh);
      // Must not be a full-support resolver (those are the verified 313).
      if (profile.supports_doudp && profile.supports_dotcp &&
          profile.supports_dot && profile.supports_doh) {
        profile.supports_doudp = false;  // DoUDP support is the rarest
      }
      const std::uint64_t seed = rng.fork_seed();
      population.members_.push_back({std::move(profile), seed, nullptr});
    }
  }

  return population;
}

}  // namespace doxlab::scan
