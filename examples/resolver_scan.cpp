// Runs the ZMap-style discovery pipeline against a small synthetic world —
// the paper's §2 methodology end to end: version-negotiation probing, DoQ
// ALPN verification, and per-protocol support probing.
//
//   ./build/examples/resolver_scan
#include <cstdio>

#include "net/network.h"
#include "scan/population.h"
#include "scan/scanner.h"
#include "sim/simulator.h"

using namespace doxlab;

int main() {
  sim::Simulator sim;
  Rng rng(2022);
  net::Network network(sim, rng.fork());
  network.set_loss_rate(0.0);

  // A scaled-down world: ~20 verified DoX resolvers among ~80 DoQ hosts.
  scan::PopulationConfig config;
  config.verified_dox = 20;
  config.total_doq = 80;
  Rng pop_rng = rng.fork();
  scan::Population population =
      scan::build_population(network, config, pop_rng);
  population.bring_up_all();  // the scan probes every planted resolver

  auto& scanner_host = network.add_host(
      "scanner", net::IpAddress::from_octets(10, 9, 9, 9), {48.26, 11.67},
      net::Continent::kEurope);

  std::vector<net::IpAddress> candidates;
  for (std::size_t i = 0; i < population.size(); ++i) {
    candidates.push_back(population.profile(i).address);
  }
  for (int i = 0; i < 100; ++i) {  // dark space
    candidates.push_back(net::IpAddress(0x0AC00000u + i));
  }

  scan::Ipv4Scanner scanner(network, scanner_host, scan::ScanConfig{});
  scan::ScanReport report = scanner.run(candidates);

  std::printf("probed %llu addresses (%llu QUIC probes on 3 ports)\n",
              (unsigned long long)report.addresses_probed,
              (unsigned long long)report.probes_sent);
  std::printf("version-negotiation responders: %zu\n",
              report.quic_hosts.size());
  std::printf("DoQ (ALPN verified):            %zu\n",
              report.doq_resolvers.size());
  std::printf("  + DoUDP: %d, DoTCP: %d, DoT: %d, DoH: %d\n", report.doudp,
              report.dotcp, report.dot, report.doh);
  std::printf("verified DoX resolvers:         %zu (planted: %zu)\n",
              report.verified_dox.size(), population.verified.size());
  return 0;
}
