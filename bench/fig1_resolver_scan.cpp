// Reproduces **Fig. 1** of the paper and the §2 discovery funnel: the
// ZMap-style IPv4 scan for QUIC responders on UDP 784/853/8853, DoQ ALPN
// verification, DNSPerf-style support probing for the other protocols, and
// the intersection yielding the verified DoX resolvers — with their
// continent and AS distributions.
//
// Usage: fig1_resolver_scan [--verified=N] [--doq=N] [--full]
#include <cstdio>
#include <map>

#include "bench_util.h"
#include "net/network.h"
#include "scan/population.h"
#include "scan/scanner.h"
#include "sim/simulator.h"
#include "stats/table.h"

using namespace doxlab;
using namespace doxlab::scan;

int main(int argc, char** argv) {
  const bool full = bench::flag_set(argc, argv, "--full");
  sim::Simulator sim;
  Rng rng(2022);
  net::Network network(sim, rng.fork());
  network.set_loss_rate(0.0);  // the paper's scan ran for a week; we don't
                               // model scan-probe loss

  PopulationConfig config;
  config.verified_dox = bench::flag_int(argc, argv, "--verified",
                                        full ? 313 : 80);
  config.total_doq =
      bench::flag_int(argc, argv, "--doq",
                      full ? 1216 : config.verified_dox * 1216 / 313);
  Rng pop_rng = rng.fork();
  Population population = build_population(network, config, pop_rng);
  population.bring_up_all();  // the scan probes every planted resolver

  auto& scan_host = network.add_host(
      "scanner-tum", net::IpAddress::from_octets(10, 9, 9, 9),
      {48.26, 11.67}, net::Continent::kEurope);  // Munich, like the paper

  std::vector<net::IpAddress> candidates;
  for (std::size_t i = 0; i < population.size(); ++i) {
    candidates.push_back(population.profile(i).address);
  }
  // Dark space: addresses that never answer (the scan's common case).
  const int dark = static_cast<int>(candidates.size()) * 2;
  for (int i = 0; i < dark; ++i) {
    candidates.push_back(net::IpAddress(0x0AC00000u + i));
  }

  Ipv4Scanner scanner(network, scan_host, ScanConfig{});
  ScanReport report = scanner.run(candidates);

  bench::banner("Sec. 2 discovery funnel (measured vs paper)");
  std::printf("addresses probed:        %8llu (x3 ports = %llu probes)\n",
              (unsigned long long)report.addresses_probed,
              (unsigned long long)report.probes_sent);
  std::printf("QUIC (VN) responders:    %8zu   paper: 1216 candidates\n",
              report.quic_hosts.size());
  std::printf("DoQ-verified (ALPN):     %8zu   paper: 1216\n",
              report.doq_resolvers.size());
  std::printf("  of which DoUDP:        %8d   paper:  548\n", report.doudp);
  std::printf("  of which DoTCP:        %8d   paper:  706\n", report.dotcp);
  std::printf("  of which DoT:          %8d   paper: 1149\n", report.dot);
  std::printf("  of which DoH:          %8d   paper:  732\n", report.doh);
  std::printf("verified DoX (all five): %8zu   paper:  313\n",
              report.verified_dox.size());

  bench::banner("Fig. 1 — verified resolvers per continent");
  stats::TextTable continents({"Continent", "Measured", "Paper"});
  const std::map<net::Continent, int> paper = {
      {net::Continent::kEurope, 130},      {net::Continent::kAsia, 128},
      {net::Continent::kNorthAmerica, 49}, {net::Continent::kAfrica, 2},
      {net::Continent::kOceania, 2},       {net::Continent::kSouthAmerica, 2},
  };
  for (net::Continent c : net::all_continents()) {
    continents.add_row({std::string(net::continent_code(c)),
                        std::to_string(population.verified_on(c)),
                        std::to_string(paper.at(c))});
  }
  std::printf("%s", continents.render().c_str());

  bench::banner("Fig. 1 — autonomous systems of the verified resolvers");
  std::map<std::string, int> by_as;
  int as_count = 0;
  std::map<int, bool> asn_seen;
  for (std::size_t index : population.verified) {
    const auto& profile = population.profile(index);
    ++by_as[profile.as_name];
    if (!asn_seen[profile.as_number]) {
      asn_seen[profile.as_number] = true;
      ++as_count;
    }
  }
  stats::TextTable as_table({"AS", "Resolvers"});
  for (const char* name : {"ORACLE", "DIGITALOCEAN", "MNGTNET", "OVHCLOUD"}) {
    as_table.add_row({name, std::to_string(by_as[name])});
  }
  as_table.add_row({"(other ASes)", std::to_string(by_as["AS-MISC"])});
  std::printf("%s", as_table.render().c_str());
  std::printf("distinct ASes: %d (paper: 107; others host <=12 each)\n",
              as_count);
  std::printf(
      "\nPaper reference: ORACLE 47 (15.0%%), DIGITALOCEAN 20 (6.4%%),\n"
      "MNGTNET 18 (5.8%%), OVHCLOUD 16 (5.1%%).\n");
  return 0;
}
