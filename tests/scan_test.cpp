// Tests for the discovery pipeline: population construction matches the
// paper's distributions; the ZMap-style scan rediscovers exactly the
// planted resolvers (Fig. 1 funnel).
#include <gtest/gtest.h>

#include <bit>

#include "net/network.h"
#include "scan/population.h"
#include "scan/scanner.h"
#include "sim/simulator.h"

namespace doxlab::scan {
namespace {

TEST(Population, ContinentQuotaSumsTo313) {
  int total = 0;
  for (const auto& [continent, quota] : verified_continent_quota()) {
    total += quota;
  }
  EXPECT_EQ(total, 313);
}

TEST(Population, FullScaleCountsMatchPaper) {
  sim::Simulator sim;
  net::Network network(sim, Rng(3));
  PopulationConfig config;  // full scale: 313 verified / 1216 DoQ
  Rng rng(42);
  Population population = build_population(network, config, rng);

  EXPECT_EQ(population.verified.size(), 313u);
  EXPECT_EQ(population.size(), 1216u);

  // Continent distribution of the verified set (Fig. 1).
  EXPECT_EQ(population.verified_on(net::Continent::kEurope), 130);
  EXPECT_EQ(population.verified_on(net::Continent::kAsia), 128);
  EXPECT_EQ(population.verified_on(net::Continent::kNorthAmerica), 49);
  EXPECT_EQ(population.verified_on(net::Continent::kAfrica), 2);
  EXPECT_EQ(population.verified_on(net::Continent::kOceania), 2);
  EXPECT_EQ(population.verified_on(net::Continent::kSouthAmerica), 2);

  // Every verified resolver supports all five protocols.
  for (std::size_t index : population.verified) {
    const auto& p = population.profile(index);
    EXPECT_TRUE(p.supports_doudp && p.supports_dotcp && p.supports_dot &&
                p.supports_doh && p.supports_doq);
  }
  // No non-verified resolver supports all five.
  std::set<std::size_t> verified_set(population.verified.begin(),
                                     population.verified.end());
  for (std::size_t i = 0; i < population.size(); ++i) {
    if (verified_set.contains(i)) continue;
    const auto& p = population.profile(i);
    EXPECT_FALSE(p.supports_doudp && p.supports_dotcp && p.supports_dot &&
                 p.supports_doh);
  }
}

TEST(Population, ProtocolSupportMarginalsApproximatePaper) {
  sim::Simulator sim;
  net::Network network(sim, Rng(3));
  PopulationConfig config;
  Rng rng(42);
  Population population = build_population(network, config, rng);
  int doudp = 0, dotcp = 0, dot = 0, doh = 0;
  for (std::size_t i = 0; i < population.size(); ++i) {
    const auto& p = population.profile(i);
    doudp += p.supports_doudp;
    dotcp += p.supports_dotcp;
    dot += p.supports_dot;
    doh += p.supports_doh;
  }
  // Paper: 548 / 706 / 1149 / 732 of 1216 (tolerance: random draws).
  EXPECT_NEAR(doudp, 548, 60);
  EXPECT_NEAR(dotcp, 706, 60);
  EXPECT_NEAR(dot, 1149, 60);
  EXPECT_NEAR(doh, 732, 60);
}

TEST(Population, FeatureMixApproximatesPaper) {
  sim::Simulator sim;
  net::Network network(sim, Rng(3));
  PopulationConfig config;
  config.verified_only = true;
  Rng rng(42);
  Population population = build_population(network, config, rng);
  int v1 = 0, tls13 = 0, i02 = 0, zero_rtt = 0, tfo = 0, keepalive = 0;
  const int n = static_cast<int>(population.size());
  for (std::size_t i = 0; i < population.size(); ++i) {
    const auto& p = population.profile(i);
    v1 += p.quic_version == quic::QuicVersion::kV1;
    tls13 += p.max_tls == tls::TlsVersion::kTls13;
    i02 += p.doq_alpn == "doq-i02";
    zero_rtt += p.supports_0rtt;
    tfo += p.supports_tfo;
    keepalive += p.supports_keepalive;
    EXPECT_GE(p.certificate_chain_size, 1500u);
    EXPECT_LE(p.certificate_chain_size, 3800u);
  }
  EXPECT_NEAR(100.0 * v1 / n, 89.1, 5.0);
  EXPECT_NEAR(100.0 * tls13 / n, 99.0, 2.0);
  EXPECT_NEAR(100.0 * i02 / n, 87.4, 6.0);
  EXPECT_EQ(zero_rtt, 0);
  EXPECT_EQ(tfo, 0);
  EXPECT_EQ(keepalive, 0);
}

TEST(Population, AsQuotasMatchPaperHeadliners) {
  sim::Simulator sim;
  net::Network network(sim, Rng(3));
  PopulationConfig config;
  config.verified_only = true;
  Rng rng(42);
  Population population = build_population(network, config, rng);
  std::map<std::string, int> by_as;
  for (std::size_t index : population.verified) {
    ++by_as[population.profile(index).as_name];
  }
  EXPECT_EQ(by_as["ORACLE"], 47);
  EXPECT_EQ(by_as["DIGITALOCEAN"], 20);
  EXPECT_EQ(by_as["MNGTNET"], 18);
  EXPECT_EQ(by_as["OVHCLOUD"], 16);
}

/// FNV-1a over every field of every profile, in population order.
struct ProfileDigest {
  std::uint64_t h = 0xCBF29CE484222325ull;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001B3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void profile(const resolver::ResolverProfile& p) {
    str(p.name);
    u64(p.address.value());
    f64(p.location.lat_deg);
    f64(p.location.lon_deg);
    u64(static_cast<std::uint64_t>(p.continent));
    str(p.as_name);
    u64(static_cast<std::uint64_t>(p.as_number));
    for (bool b : {p.supports_doudp, p.supports_dotcp, p.supports_dot,
                   p.supports_doh, p.supports_doq, p.supports_doh3,
                   p.supports_0rtt, p.supports_tfo, p.supports_keepalive,
                   p.session_tickets, p.validate_with_retry}) {
      u64(b);
    }
    u64(static_cast<std::uint64_t>(p.max_tls));
    u64(static_cast<std::uint64_t>(p.quic_version));
    str(p.doq_alpn);
    u64(p.certificate_chain_size);
    u64(p.secret);
    u64(static_cast<std::uint64_t>(p.recursive_latency_mean));
    f64(p.drop_probability);
    u64(static_cast<std::uint64_t>(p.processing_delay));
  }
};

TEST(Population, SeedFortyTwoProfilesMatchPinnedDigest) {
  // Pinned from the builder that constructed every resolver eagerly: the
  // profile table, the verified indices and the parent stream's next draw
  // (which shows every child seed was drawn the same way) must not move.
  sim::Simulator sim;
  net::Network network(sim, Rng(3));
  Rng rng(42);
  const Population population = build_population(network, {}, rng);
  ASSERT_EQ(population.size(), 1216u);
  ProfileDigest digest;
  for (std::size_t i = 0; i < population.size(); ++i) {
    digest.profile(population.profile(i));
  }
  for (std::size_t index : population.verified) digest.u64(index);
  EXPECT_EQ(digest.h, 0x47477093796ba081ull);
  EXPECT_EQ(rng.engine()(), 0xcfd87dd184242319ull);
}

TEST(Population, BuildBringsNoResolverUp) {
  sim::Simulator sim;
  net::Network network(sim, Rng(3));
  PopulationConfig config;
  config.verified_dox = 48;
  config.total_doq = 120;
  Rng rng(42);
  const Population population = build_population(network, config, rng);
  ASSERT_EQ(population.size(), 120u);
  for (std::size_t i = 0; i < population.size(); ++i) {
    EXPECT_EQ(network.find_host(population.profile(i).address), nullptr);
  }
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Population, BringUpIsSideEffectFree) {
  sim::Simulator sim;
  net::Network network(sim, Rng(3));
  PopulationConfig config;
  config.verified_dox = 12;
  config.verified_only = true;
  Rng rng(42);
  Population population = build_population(network, config, rng);

  // Mid-run: some events already fired, some still pending.
  int fired = 0;
  for (int i = 1; i <= 6; ++i) sim.schedule(i * kMillisecond, [&] { ++fired; });
  sim.run_until(3 * kMillisecond);
  const std::size_t pending = sim.pending();
  const std::uint64_t executed = sim.events_executed();
  const std::uint64_t digest = sim.event_stream_digest();
  ASSERT_EQ(fired, 3);

  const std::size_t target = population.verified[5];
  resolver::DoxResolver& first = population.resolver(target);
  EXPECT_EQ(sim.pending(), pending);
  EXPECT_EQ(sim.events_executed(), executed);
  EXPECT_EQ(sim.event_stream_digest(), digest);
  EXPECT_EQ(first.profile().address, population.profile(target).address);

  // Exactly that resolver is on the network, and asking again is a no-op.
  for (std::size_t i = 0; i < population.size(); ++i) {
    EXPECT_EQ(network.find_host(population.profile(i).address) != nullptr,
              i == target);
  }
  EXPECT_EQ(&population.resolver(target), &first);
  EXPECT_EQ(&first.host(),
            network.find_host(population.profile(target).address));
  EXPECT_EQ(sim.pending(), pending);
  EXPECT_EQ(sim.events_executed(), executed);
}

TEST(Scanner, RediscoversPlantedPopulation) {
  sim::Simulator sim;
  net::Network network(sim, Rng(5));
  network.set_loss_rate(0.0);

  PopulationConfig config;
  config.verified_dox = 12;  // scaled-down world for test runtime
  config.total_doq = 40;
  Rng rng(42);
  Population population = build_population(network, config, rng);
  population.bring_up_all();  // the scan probes every planted resolver

  auto& scan_host = network.add_host(
      "scanner", net::IpAddress::from_octets(10, 9, 9, 9), {48.26, 11.67},
      net::Continent::kEurope);

  // Candidate space: all planted resolvers plus dark addresses.
  std::vector<net::IpAddress> candidates;
  for (std::size_t i = 0; i < population.size(); ++i) {
    candidates.push_back(population.profile(i).address);
  }
  const std::size_t live = candidates.size();
  for (int i = 0; i < 20; ++i) {
    candidates.push_back(net::IpAddress::from_octets(10, 200, 0,
                                                     std::uint8_t(i + 1)));
  }

  Ipv4Scanner scanner(network, scan_host, ScanConfig{});
  ScanReport report = scanner.run(candidates);

  EXPECT_EQ(report.addresses_probed, candidates.size());
  // Every live resolver answers the version probe; dark space stays silent.
  EXPECT_EQ(report.quic_hosts.size(), live);
  EXPECT_EQ(report.doq_resolvers.size(), live);
  // Exactly the verified subset supports all five protocols.
  EXPECT_EQ(report.verified_dox.size(), population.verified.size());
  // Per-protocol counts at least cover the verified subset.
  EXPECT_GE(report.doudp, static_cast<int>(population.verified.size()));
  EXPECT_GE(report.dot, report.doh);
}

}  // namespace
}  // namespace doxlab::scan
