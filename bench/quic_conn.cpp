// Long-lived QUIC connection bench: per-resolve cost against connection age.
//
// One dox::make_transport upstream is reused for thousands of queries
// against a DoxResolver, the way an engine shard's upstream pool reuses its
// connection to each resolver. Each resolve is timed in wall microseconds
// from resolve() until its handler fires, and two windows of the same run
// are compared: "fresh" (queries 0-999) and "deep" (queries 4000-4499, about
// the per-shard upstream resolve count of a 30 s long-tail engine run). DoT
// runs the same replay as a flat control.
//
// Gates (both modes):
//   * DoQ deep / fresh <= 1.5: a resolve on an old connection costs about
//     what it cost on a new one (received packet numbers and retired
//     streams are held as ranges, not per packet or per stream);
//   * after the run the resolver's QUIC connections hold 0 stream records
//     and the client transport 0 per-query records.
// The ratio uses window medians, which a single preempted resolve cannot
// move; window means are reported beside them.
//
// Usage: quic_conn [--seed=N] [--json] [--smoke]
// --smoke shortens both windows (fresh 0-99, deep 1000-1099); --json
// writes the committed BENCH_quic_conn.json baseline. Exits non-zero if a
// gate fails.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dox/transport.h"
#include "net/network.h"
#include "resolver/resolver.h"
#include "sim/simulator.h"
#include "tcp/tcp.h"
#include "util/rng.h"

using namespace doxlab;

namespace {

using Clock = std::chrono::steady_clock;

bool g_failed = false;

void gate(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) g_failed = true;
}

struct Windows {
  std::size_t fresh_from, fresh_count, deep_from, deep_count;
};

struct Replay {
  std::vector<double> us;  ///< wall microseconds per resolve, in order
  std::uint64_t failures = 0;
  std::size_t server_streams = 0;  ///< resolver QUIC stream records after
  std::size_t client_records = 0;  ///< transport per-query records after
};

/// Issues `queries` back-to-back A queries over one transport.
Replay replay(dox::DnsProtocol protocol, std::uint64_t seed,
              std::size_t queries) {
  sim::Simulator sim;
  net::Network network(sim, Rng(splitmix64(seed, 1)));
  network.set_loss_rate(0.0);
  net::Host& host = network.add_host(
      "client", net::IpAddress::from_octets(10, 1, 0, 1), {50.11, 8.68},
      net::Continent::kEurope);
  net::UdpStack udp(host);
  tcp::TcpStack tcp(host);
  tls::TicketStore tickets;
  dox::DoqSessionCache doq_cache;

  resolver::ResolverProfile profile;
  profile.name = "upstream-0";
  profile.address = net::IpAddress::from_octets(10, 9, 0, 1);
  profile.location = {48.86, 2.35};
  profile.secret = 0xE0;
  profile.drop_probability = 0.0;
  resolver::DoxResolver resolver(network, profile,
                                 Rng(splitmix64(seed, 2)));
  network.set_path_override(host.address(), profile.address, from_ms(25));

  dox::TransportDeps deps;
  deps.sim = &sim;
  deps.udp = &udp;
  deps.tcp = &tcp;
  deps.tickets = &tickets;
  deps.doq_cache = &doq_cache;
  dox::TransportOptions options;
  options.resolver = net::Endpoint{profile.address, dox::default_port(protocol)};
  auto transport = dox::make_transport(protocol, deps, options);

  Replay out;
  out.us.reserve(queries);
  for (std::size_t q = 0; q < queries; ++q) {
    const auto name = dns::DnsName::parse(
        "n" + std::to_string(splitmix64(seed, 100 + q) % 20000) + ".example");
    bool done = false;
    const auto start = Clock::now();
    transport->resolve(
        dns::Question{name, dns::RRType::kA, dns::RRClass::kIN},
        [&](dox::QueryResult result) {
          done = true;
          if (!result.ok()) ++out.failures;
        });
    while (!done && sim.step()) {
    }
    out.us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count());
    if (!done) ++out.failures;
  }
  // Let the last answer's ACKs land so both endpoints settle.
  sim.run_until(sim.now() + kSecond);
  out.server_streams = resolver.quic_live_streams();
  out.client_records = dox::doq_open_query_records(*transport);
  return out;
}

double mean_of(const std::vector<double>& v, std::size_t from,
               std::size_t count) {
  return std::accumulate(v.begin() + static_cast<long>(from),
                         v.begin() + static_cast<long>(from + count), 0.0) /
         static_cast<double>(count);
}

double median_of(const std::vector<double>& v, std::size_t from,
                 std::size_t count) {
  std::vector<double> w(v.begin() + static_cast<long>(from),
                        v.begin() + static_cast<long>(from + count));
  std::nth_element(w.begin(), w.begin() + static_cast<long>(count / 2),
                   w.end());
  return w[count / 2];
}

struct Summary {
  double fresh_mean, deep_mean, fresh_median, deep_median, ratio;
};

Summary summarize(const char* label, const Replay& r, const Windows& w) {
  Summary s{};
  s.fresh_mean = mean_of(r.us, w.fresh_from, w.fresh_count);
  s.deep_mean = mean_of(r.us, w.deep_from, w.deep_count);
  s.fresh_median = median_of(r.us, w.fresh_from, w.fresh_count);
  s.deep_median = median_of(r.us, w.deep_from, w.deep_count);
  s.ratio = s.deep_median / s.fresh_median;
  std::printf("%-4s %12.2f %12.2f %12.2f %12.2f %10.3f\n", label,
              s.fresh_mean, s.deep_mean, s.fresh_median, s.deep_median,
              s.ratio);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::flag_set(argc, argv, "--smoke");
  const bool json = bench::flag_set(argc, argv, "--json");
  const auto seed =
      static_cast<std::uint64_t>(bench::flag_int(argc, argv, "--seed", 7));
  const Windows w = smoke ? Windows{0, 100, 1000, 100}
                          : Windows{0, 1000, 4000, 500};
  const std::size_t queries = w.deep_from + w.deep_count;

  bench::banner("Long-lived upstream connection: us per resolve vs age");
  std::printf("seed %llu, %zu queries per connection; fresh = queries "
              "%zu-%zu, deep = %zu-%zu\n\n",
              static_cast<unsigned long long>(seed), queries, w.fresh_from,
              w.fresh_from + w.fresh_count - 1, w.deep_from,
              w.deep_from + w.deep_count - 1);
  const Replay doq = replay(dox::DnsProtocol::kDoQ, seed, queries);
  const Replay dot = replay(dox::DnsProtocol::kDoT, seed, queries);

  std::printf("%-4s %12s %12s %12s %12s %10s\n", "", "fresh mean",
              "deep mean", "fresh p50", "deep p50", "deep/fresh");
  const Summary q = summarize("DoQ", doq, w);
  const Summary t = summarize("DoT", dot, w);

  std::printf("\nGates:\n");
  gate(doq.failures == 0 && dot.failures == 0, "every query answered");
  char what[128];
  std::snprintf(what, sizeof(what), "DoQ deep/fresh %.3f <= 1.5", q.ratio);
  gate(q.ratio <= 1.5, what);
  gate(doq.server_streams == 0,
       "resolver holds 0 QUIC stream records after the run (" +
           std::to_string(doq.server_streams) + ")");
  gate(doq.client_records == 0,
       "DoQ transport holds 0 per-query records after the run (" +
           std::to_string(doq.client_records) + ")");

  if (json) {
    bench::JsonReporter report;
    report.metric("doq", "us_per_query_fresh_mean", q.fresh_mean);
    report.metric("doq", "us_per_query_deep_mean", q.deep_mean);
    report.metric("doq", "us_per_query_fresh_p50", q.fresh_median);
    report.metric("doq", "us_per_query_deep_p50", q.deep_median);
    report.metric("doq", "deep_over_fresh", q.ratio);
    report.metric("doq", "server_live_streams_after",
                  static_cast<double>(doq.server_streams));
    report.metric("doq", "client_open_records_after",
                  static_cast<double>(doq.client_records));
    report.metric("dot", "us_per_query_fresh_mean", t.fresh_mean);
    report.metric("dot", "us_per_query_deep_mean", t.deep_mean);
    report.metric("dot", "us_per_query_fresh_p50", t.fresh_median);
    report.metric("dot", "us_per_query_deep_p50", t.deep_median);
    report.metric("dot", "deep_over_fresh", t.ratio);
    const char* path = "BENCH_quic_conn.json";
    if (!report.write_file(path)) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    std::printf("\nwrote %s\n", path);
  }

  std::printf("\nquic_conn: %s\n", g_failed ? "FAIL" : "PASS");
  return g_failed ? 1 : 0;
}
