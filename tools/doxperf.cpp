// doxperf — a dnsperf-style command-line front end for the doxlab testbed.
//
// Runs the paper's measurement methodology (cache warming, session
// resumption, token reuse) over a synthetic resolver population and prints
// the single-query and/or web-performance reports. Everything is
// deterministic for a given --seed.
//
// Examples:
//   doxperf                                  # single-query study, defaults
//   doxperf --protocols=doq,doh --reps=4
//   doxperf --web --resolvers=24             # web study (FCP/PLT CDFs)
//   doxperf --no-resumption --protocols=doq  # preliminary-work behaviour
//   doxperf --0rtt --pad --csv=out.csv
//   doxperf engine --clients=2000 --qps=3000  # forwarder-engine load run
//   doxperf campaign --jobs=8 --reps=4        # parallel measurement sweep
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/sharded.h"
#include "measure/csv.h"
#include "measure/report.h"
#include "measure/single_query.h"
#include "measure/web_study.h"
#include "net/geo.h"
#include "runner/campaign.h"
#include "stats/stats.h"
#include "util/strings.h"

using namespace doxlab;
using namespace doxlab::measure;

namespace {

const char* kUsage = R"(doxperf — DNS-over-X measurement testbed CLI

  --protocols=LIST   comma list of doudp,dotcp,dot,doh,doq,doh3 (default:
                     the paper's five)
  --resolvers=N      verified resolvers in the population (default 48)
  --reps=N           repetitions per combination (default 1)
  --qname=NAME       query name (default google.com)
  --seed=N           study seed (default 42)
  --web              run the web study (FCP/PLT) instead of single queries
  --pages=LIST       web: comma list of page names (default: all ten)
  --loads=N          web: measured loads per combination (default 4)
  --no-resumption    disable TLS session resumption (preliminary-work mode)
  --no-token         do not present QUIC address-validation tokens
  --0rtt             resolvers accept TLS/QUIC 0-RTT (future-work mode)
  --doh3             resolvers additionally serve DNS over HTTP/3
  --pad              RFC 8467 padding on encrypted transports
  --fix-dot          use the fixed dnsproxy DoT connection reuse (web)
  --csv=FILE         write raw records as CSV
  --failure-csv=FILE write the per-protocol x error-class failure report
  --help             this text

campaign subcommand — the same studies sharded over a thread pool
(doxperf campaign ...). Output is bit-identical for any --jobs value:
  --jobs=N           worker threads (default 1; 0 = all hardware threads)
  plus the study flags above (--web, --protocols, --resolvers, --reps, ...)

engine subcommand — forwarder-engine load run (doxperf engine ...): one
scenario partitioned across N shard worlds driven by the thread pool,
clients source-hashed onto shards, per-shard L1 caches over one shared L2
packet cache:
  --shards=N         shard count, 1-255 (default 1)
  --clients=N        simulated stub clients (default 1000000)
  --qps=N            aggregate Poisson query rate (default 20000)
  --seconds=N        arrival window length (default 10)
  --names=N          distinct query names, Zipf-popular (default 200)
  --seed=N           scenario seed (default 42)
  --no-coalesce      resolve each concurrent identical query upstream
  --no-stale         disable RFC 8767 serve-stale
  --kill-primary     take the primary upstream down at half the window
  --snapshot-dir=DIR persistent snapshot tier: replay DIR/shard-N.snap into
                     the caches at startup (warm start) and append every
                     successful resolve (default: disabled)
  --l2-stale         serve RFC 8767 stale answers straight from the shared
                     L2 (one background refresh per stale hit)
  --threads=N        pool worker threads (default 0 = hardware threads)
  --epoch-ms=N       epoch barrier interval for L2 sweeps (default 100)
  --l2-capacity=N    shared packet-cache entries, 0 disables (default 65536)
  --batch-us=N       coalesce UDP datagrams per host within an N-us window
                     into one batch event, 0 = per-datagram (default 0)
  --wire-cache=N     raw-wire packet-cache entries fronting the L1, 0
                     disables (default 0)
  --bottleneck-mbps=N     finite-rate ingress link on each shard host, 0
                     disables (default 0)
  --bottleneck-queue-kb=N tail-drop queue depth for that link (default 64)
  --shard-csv=FILE   per-shard stats rows (deterministic columns only)
Integer flags take plain non-negative decimals; anything else (a sign,
junk, overflow) prints `doxperf: <msg>` and exits 2.

adverse subcommand — the adverse-path study (doxperf adverse ...): the
single-query sweep repeated per link profile (baseline / burstloss /
bufferbloat / handover / lte) with real congestion control (TCP NewReno,
QUIC RFC 9002) on every transport. Bit-identical for any --jobs value:
  --jobs=N           worker threads (default 1; 0 = all hardware threads)
  --resolvers=N      verified resolvers (default 12)
  --reps=N           repetitions per combination (default 3)
  --profiles=LIST    comma list of the profiles above (default: all five)
  --csv=FILE         raw per-record rows with a profile column
  --smoke            tiny deterministic run (CI)

abuse subcommand — engine load plus attack mixes shed by the policy chain
(doxperf abuse ...): the engine flags above (defaults 1000 clients, 2000
qps, 10 s), and
  --flood-qps=N      random-subdomain flood rate (default 3000)
  --torture-qps=N    water-torture rate (default 1500)
  --amp-qps=N        spoofed-source TXT amplification rate (default 1000)
  --rate-limit=N     per-/24 client-subnet budget, qps (default 100)
  --policy-csv=FILE  write the per-rule hit-counter report
  --smoke            small deterministic run (sanitizer CI)

churn subcommand — resolver-churn availability campaign (doxperf churn
...): scripted upstream outages/recoveries and anycast-style route flaps
under live load, with the answerable rate and tail latency bucketed into a
time series through every transition:
  the engine flags above (defaults 500 clients, 1000 qps, 60 s), and
  --bucket-ms=N      time-series bucket width (default 1000)
  --restart-at=N     restart the forwarder at second N (0 = never); with
                     --snapshot-dir the new engine warm-starts from disk
  --churn-csv=FILE   write the bucket series as CSV
  --smoke            tiny deterministic run (CI)
The transition schedule: primary outage at 20% of the horizon, recovery
at 50%, secondary withdraw at 60%, re-announce at 80%.
)";

/// The text after `name=` in the last matching argument (a repeated flag
/// overrides the earlier one), or null.
const char* find_flag(int argc, char** argv, const char* name) {
  const std::size_t length = std::strlen(name);
  for (int i = argc - 1; i >= 1; --i) {
    if (std::strncmp(argv[i], name, length) == 0 && argv[i][length] == '=') {
      return argv[i] + length + 1;
    }
  }
  return nullptr;
}

std::string flag_value(int argc, char** argv, const char* name,
                       const char* fallback) {
  const char* value = find_flag(argc, argv, name);
  return value != nullptr ? value : fallback;
}

bool flag_set(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

std::vector<dox::DnsProtocol> parse_protocols(const std::string& list) {
  std::vector<dox::DnsProtocol> out;
  for (const std::string& raw : split(list, ',')) {
    const std::string name = to_lower(raw);
    if (name == "doudp" || name == "udp") {
      out.push_back(dox::DnsProtocol::kDoUdp);
    } else if (name == "dotcp" || name == "tcp") {
      out.push_back(dox::DnsProtocol::kDoTcp);
    } else if (name == "dot") {
      out.push_back(dox::DnsProtocol::kDoT);
    } else if (name == "doh") {
      out.push_back(dox::DnsProtocol::kDoH);
    } else if (name == "doq") {
      out.push_back(dox::DnsProtocol::kDoQ);
    } else if (name == "doh3") {
      out.push_back(dox::DnsProtocol::kDoH3);
    } else if (!name.empty()) {
      std::fprintf(stderr, "unknown protocol: %s\n", name.c_str());
      std::exit(2);
    }
  }
  return out;
}

/// The value of `--flag=N`, or `fallback` when the flag is absent. N must
/// be a plain decimal integer in [0, max]: a sign, junk, an empty value or
/// overflow throws std::invalid_argument, which main() reports as
/// `doxperf: <msg>` with exit code 2.
std::uint64_t flag_count(int argc, char** argv, const char* name,
                         std::uint64_t fallback,
                         std::uint64_t max = 1'000'000'000) {
  const char* text = find_flag(argc, argv, name);
  if (text == nullptr) return fallback;
  const char* end = text + std::strlen(text);
  std::uint64_t value = 0;
  const auto [stop, error] = std::from_chars(text, end, value);
  if (text == end || error != std::errc() || stop != end || value > max) {
    throw std::invalid_argument(std::string(name) + "=" + text +
                                ": expected an integer in [0, " +
                                std::to_string(max) + "]");
  }
  return value;
}

/// `flag_count` for the flags that land in an int.
int flag_int(int argc, char** argv, const char* name, int fallback) {
  return static_cast<int>(flag_count(argc, argv, name,
                                     static_cast<std::uint64_t>(fallback)));
}

/// Per-shard stats rows. Only simulation-derived (deterministic) columns —
/// no wall-clock timing — so two runs with the same seed and shard count
/// produce bit-identical files (the engine_shards_determinism ctest).
std::string shard_csv(const engine::ShardedResult& result) {
  std::string out =
      "shard,arrivals,sent,answered,servfails,timeouts,shed,queries,"
      "cache_hits,stale_hits,misses,coalesced,wire_hits,wire_lookups,"
      "l2_hits,l2_lookups,upstream_resolves,link_packets,link_drops,"
      "link_queue_peak,l1_lookups,l1_evictions,l1_entries,l1_bytes,"
      "wire_evictions,wire_entries,wire_bytes,snapshot_hits,"
      "snapshot_lookups,snapshot_entries,snapshot_bytes,events,digest,"
      "outcomes\n";
  char line[1024];
  for (const auto& shard : result.shards) {
    std::snprintf(
        line, sizeof(line),
        "%u,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
        "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
        "%llu,%llu,%llu,%llu,%llu,%llu,%016llx,%016llx\n",
        shard.index, static_cast<unsigned long long>(shard.arrivals),
        static_cast<unsigned long long>(shard.load.sent),
        static_cast<unsigned long long>(shard.load.answered),
        static_cast<unsigned long long>(shard.load.servfails),
        static_cast<unsigned long long>(shard.load.timeouts),
        static_cast<unsigned long long>(shard.load.shed),
        static_cast<unsigned long long>(shard.engine.queries),
        static_cast<unsigned long long>(shard.engine.cache_hits),
        static_cast<unsigned long long>(shard.engine.stale_hits),
        static_cast<unsigned long long>(shard.engine.misses),
        static_cast<unsigned long long>(shard.engine.coalesced),
        static_cast<unsigned long long>(shard.engine.wire_hits),
        static_cast<unsigned long long>(shard.engine.wire_lookups),
        static_cast<unsigned long long>(shard.engine.l2_hits),
        static_cast<unsigned long long>(shard.engine.l2_lookups),
        static_cast<unsigned long long>(shard.engine.upstream_resolves),
        static_cast<unsigned long long>(shard.engine.link_packets),
        static_cast<unsigned long long>(shard.engine.link_drops),
        static_cast<unsigned long long>(shard.engine.link_queue_peak),
        static_cast<unsigned long long>(shard.engine.l1_lookups),
        static_cast<unsigned long long>(shard.engine.l1_evictions),
        static_cast<unsigned long long>(shard.engine.l1_entries),
        static_cast<unsigned long long>(shard.engine.l1_bytes),
        static_cast<unsigned long long>(shard.engine.wire_evictions),
        static_cast<unsigned long long>(shard.engine.wire_entries),
        static_cast<unsigned long long>(shard.engine.wire_bytes),
        static_cast<unsigned long long>(shard.engine.snapshot_hits),
        static_cast<unsigned long long>(shard.engine.snapshot_lookups),
        static_cast<unsigned long long>(shard.engine.snapshot_entries),
        static_cast<unsigned long long>(shard.engine.snapshot_bytes),
        static_cast<unsigned long long>(shard.events),
        static_cast<unsigned long long>(shard.stream_digest),
        static_cast<unsigned long long>(shard.outcome_digest));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "merged,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,%016llx,%016llx\n",
                static_cast<unsigned long long>(result.merged_digest),
                static_cast<unsigned long long>(result.outcome_digest));
  out += line;
  return out;
}

/// Defaults of the load flags every engine subcommand shares.
struct LoadDefaults {
  std::uint64_t clients;
  std::uint64_t qps;
  std::uint64_t seconds;
};

/// The engine flags shared by `engine`, `abuse` and `churn` (see kUsage).
engine::ShardedConfig engine_flags(int argc, char** argv,
                                   const LoadDefaults& defaults) {
  engine::ShardedConfig config;
  config.shards = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, flag_count(argc, argv, "--shards", 1, 255)));
  config.seed = flag_count(argc, argv, "--seed", 42, UINT64_MAX);
  config.clients =
      flag_count(argc, argv, "--clients", defaults.clients, UINT32_MAX);
  config.qps = static_cast<double>(
      flag_count(argc, argv, "--qps", defaults.qps));
  config.duration = static_cast<SimTime>(flag_count(
                        argc, argv, "--seconds", defaults.seconds, 1'000'000)) *
                    kSecond;
  config.names = flag_count(argc, argv, "--names", 200, UINT32_MAX);
  config.threads = flag_int(argc, argv, "--threads", 0);
  config.epoch = flag_int(argc, argv, "--epoch-ms", 100) * kMillisecond;
  config.l2_capacity = flag_count(argc, argv, "--l2-capacity", 1 << 16);
  config.batch_window = flag_int(argc, argv, "--batch-us", 0) * kMicrosecond;
  config.engine.coalesce = !flag_set(argc, argv, "--no-coalesce");
  config.engine.serve_stale = !flag_set(argc, argv, "--no-stale");
  config.engine.wire_cache_capacity =
      flag_count(argc, argv, "--wire-cache", 0);
  config.engine.snapshot_dir = flag_value(argc, argv, "--snapshot-dir", "");
  config.engine.l2_serve_stale = flag_set(argc, argv, "--l2-stale");
  // Short TTLs keep refresh traffic flowing past the initial warmup.
  config.engine.max_ttl = 1;
  const std::uint64_t bottleneck_mbps =
      flag_count(argc, argv, "--bottleneck-mbps", 0);
  if (bottleneck_mbps > 0) {
    net::LinkConfig link;
    link.rate_bps = static_cast<double>(bottleneck_mbps) * 1e6;
    link.queue_bytes = flag_count(argc, argv, "--bottleneck-queue-kb", 64,
                                  1'000'000) *
                       1024;
    config.bottleneck = link;
  }
  if (flag_set(argc, argv, "--kill-primary")) {
    config.churn.push_back(
        {config.duration / 2, 0, engine::ChurnAction::kOutage});
  }
  return config;
}

void print_client_side(const engine::ShardedResult& result) {
  const auto latency = result.load.latency_summary();
  std::printf("client side    answered %llu  servfail %llu  timeout %llu  "
              "shed %llu\n",
              static_cast<unsigned long long>(result.load.answered),
              static_cast<unsigned long long>(result.load.servfails),
              static_cast<unsigned long long>(result.load.timeouts),
              static_cast<unsigned long long>(result.load.shed));
  std::printf("latency        p50 %.2f  p95 %.2f  p99 %.2f  max %.2f ms\n",
              latency.median, latency.p95, latency.p99, latency.max);
}

void print_upstream(const engine::EngineStats& e) {
  std::printf("upstream       resolves %llu  attempts %llu  failovers %llu"
              "  stale refreshes %llu  servfails %llu\n",
              static_cast<unsigned long long>(e.upstream_resolves),
              static_cast<unsigned long long>(e.upstream_attempts),
              static_cast<unsigned long long>(e.failovers),
              static_cast<unsigned long long>(e.stale_refreshes),
              static_cast<unsigned long long>(e.servfails_sent));
}

void print_snapshot(const engine::ShardedConfig& config,
                    const engine::EngineStats& e) {
  if (config.engine.snapshot_dir.empty()) return;
  std::printf("snapshot tier  hit %llu / %llu lookups  warm-loaded %llu  "
              "entries %llu (%llu bytes)\n",
              static_cast<unsigned long long>(e.snapshot_hits),
              static_cast<unsigned long long>(e.snapshot_lookups),
              static_cast<unsigned long long>(e.snapshot_warm_loaded),
              static_cast<unsigned long long>(e.snapshot_entries),
              static_cast<unsigned long long>(e.snapshot_bytes));
}

/// `doxperf engine` — the forwarder engine under multi-client load, on
/// --shards shard worlds (default 1).
int run_engine(int argc, char** argv) {
  const engine::ShardedConfig config =
      engine_flags(argc, argv, {1'000'000, 20'000, 10});
  const auto result = engine::run_sharded(config);
  const auto& e = result.engine;
  std::printf("forwarder engine: %u shards, %zu clients, %zu names, %.0f qps "
              "offered for %llu s (seed %llu)\n",
              config.shards, config.clients, config.names, config.qps,
              static_cast<unsigned long long>(config.duration / kSecond),
              static_cast<unsigned long long>(config.seed));
  std::printf("  epoch %llu ms, %llu epochs, L2 capacity %zu, coalescing "
              "%s, serve-stale %s, batch window %llu us, wire cache %zu, "
              "primary %s\n",
              static_cast<unsigned long long>(config.epoch / kMillisecond),
              static_cast<unsigned long long>(result.epochs),
              config.l2_capacity, config.engine.coalesce ? "on" : "off",
              config.engine.serve_stale ? "on" : "off",
              static_cast<unsigned long long>(config.batch_window),
              config.engine.wire_cache_capacity,
              config.churn.empty() ? "up" : "killed mid-run");
  std::printf("\nthroughput     %9.0f qps critical-path (%.0f qps wall on "
              "this host)\n",
              result.effective_qps(), result.wall_qps());
  std::printf("timing         wall %.1f ms  critical path %.1f ms  sweeps "
              "%.2f ms\n",
              result.wall_ms, result.critical_path_ms, result.sweep_ms);
  std::uint64_t events = 0;
  for (const auto& shard : result.shards) events += shard.events;
  std::printf("queries        %llu processed, %llu arrivals, %llu sim "
              "events\n",
              static_cast<unsigned long long>(e.queries),
              static_cast<unsigned long long>(result.total_arrivals),
              static_cast<unsigned long long>(events));
  print_client_side(result);
  std::printf("L1 cache       hit %llu  stale %llu  miss %llu  evictions "
              "%llu\n",
              static_cast<unsigned long long>(e.cache_hits),
              static_cast<unsigned long long>(e.stale_hits),
              static_cast<unsigned long long>(e.misses),
              static_cast<unsigned long long>(e.cache_evictions));
  std::printf("wire cache     hit %llu / %llu lookups\n",
              static_cast<unsigned long long>(e.wire_hits),
              static_cast<unsigned long long>(e.wire_lookups));
  std::printf("L2 cache       hit %llu / %llu lookups  deferred %llu  "
              "applied %llu  lock-miss %llu  size %zu\n",
              static_cast<unsigned long long>(result.l2.hits),
              static_cast<unsigned long long>(result.l2.hits +
                                              result.l2.misses),
              static_cast<unsigned long long>(result.l2.deferred_inserts),
              static_cast<unsigned long long>(result.l2.applied_inserts),
              static_cast<unsigned long long>(result.l2.lock_misses),
              result.l2.size);
  print_snapshot(config, e);
  std::printf("coalescing     joined %llu in-flight resolves (%.0f%% of "
              "misses)\n",
              static_cast<unsigned long long>(e.coalesced),
              100.0 * e.coalesce_rate());
  print_upstream(e);
  std::printf("failure classes");
  for (util::ErrorClass cls : util::kAllErrorClasses) {
    if (cls == util::ErrorClass::kNone) continue;
    std::printf("  %s %llu", std::string(util::error_class_name(cls)).c_str(),
                static_cast<unsigned long long>(
                    e.upstream_errors.count(cls)));
  }
  std::printf("\nper shard      arrivals [");
  for (const auto& shard : result.shards) {
    std::printf("%s%llu", shard.index == 0 ? "" : " ",
                static_cast<unsigned long long>(shard.arrivals));
  }
  std::printf("]  digest %016llx\n",
              static_cast<unsigned long long>(result.merged_digest));
  std::printf("               busy ms [");
  for (const auto& shard : result.shards) {
    std::printf("%s%.1f", shard.index == 0 ? "" : " ", shard.busy_ms);
  }
  std::printf("]\n");

  const std::string csv_path = flag_value(argc, argv, "--shard-csv", "");
  if (!csv_path.empty()) {
    write_file(csv_path, shard_csv(result));
    std::printf("shard report -> %s\n", csv_path.c_str());
  }
  return 0;
}

/// `doxperf abuse` — the abuse-scenario family: legit load plus the three
/// attack mixes, shed by the canonical policy chain.
int run_abuse(int argc, char** argv) {
  const bool smoke = flag_set(argc, argv, "--smoke");
  engine::ShardedConfig config = engine_flags(
      argc, argv, smoke ? LoadDefaults{200, 500, 5} : LoadDefaults{1000, 2000, 10});
  engine::AbuseMix& abuse = config.abuse.emplace();
  abuse.flood_qps = static_cast<double>(
      flag_count(argc, argv, "--flood-qps", smoke ? 800 : 3000));
  abuse.torture_qps = static_cast<double>(
      flag_count(argc, argv, "--torture-qps", smoke ? 400 : 1500));
  abuse.amp_qps = static_cast<double>(
      flag_count(argc, argv, "--amp-qps", smoke ? 300 : 1000));
  abuse.start = (smoke ? 1 : 2) * kSecond;
  abuse.rate_limit_qps = static_cast<std::uint32_t>(
      flag_count(argc, argv, "--rate-limit", 100, UINT32_MAX));

  const auto result = engine::run_sharded(config);
  const auto& e = result.engine;
  std::printf("abuse scenario: %u shards, %zu clients at %.0f legit qps for "
              "%llu s (seed %llu)\n",
              config.shards, config.clients, config.qps,
              static_cast<unsigned long long>(config.duration / kSecond),
              static_cast<unsigned long long>(config.seed));
  for (const auto& attack : result.attacks) {
    std::printf("  %-17s sent %7llu  answered %6llu  refused %6llu  "
                "truncated %6llu\n",
                std::string(engine::attack_kind_name(attack.kind)).c_str(),
                static_cast<unsigned long long>(attack.sent),
                static_cast<unsigned long long>(attack.answered),
                static_cast<unsigned long long>(attack.refused),
                static_cast<unsigned long long>(attack.truncated));
  }
  std::printf("policy         evaluated %llu  dropped %llu  refused %llu  "
              "truncated %llu  routed %llu\n",
              static_cast<unsigned long long>(e.policy_evaluations),
              static_cast<unsigned long long>(e.policy_dropped),
              static_cast<unsigned long long>(e.policy_refused),
              static_cast<unsigned long long>(e.policy_truncated),
              static_cast<unsigned long long>(e.policy_routed));
  for (const auto& rule : e.policy_rules) {
    std::printf("  %-18s %-13s %-10s %8llu hits\n", rule.name.c_str(),
                std::string(policy::matcher_kind_name(rule.matcher)).c_str(),
                std::string(policy::action_kind_name(rule.action)).c_str(),
                static_cast<unsigned long long>(rule.matches));
  }
  std::printf("attack shed    %.1f%%\n", 100.0 * result.attack_shed_rate());
  print_client_side(result);

  const std::string policy_csv_path =
      flag_value(argc, argv, "--policy-csv", "");
  if (!policy_csv_path.empty()) {
    write_file(policy_csv_path, policy::policy_csv(e.policy_rules));
    std::printf("policy report -> %s\n", policy_csv_path.c_str());
  }
  return 0;
}

/// `doxperf churn` — the resolver-churn availability campaign: scripted
/// outages/recoveries and route flaps, answerable-rate + tail-latency time
/// series through every transition, optional mid-run forwarder restart
/// with snapshot warm start.
int run_churn(int argc, char** argv) {
  const bool smoke = flag_set(argc, argv, "--smoke");
  engine::ShardedConfig config = engine_flags(
      argc, argv, smoke ? LoadDefaults{100, 300, 8} : LoadDefaults{500, 1000, 60});
  config.bucket = flag_int(argc, argv, "--bucket-ms", 1000) * kMillisecond;
  config.restart_at = static_cast<SimTime>(flag_count(
                          argc, argv, "--restart-at", 0, 1'000'000)) *
                      kSecond;
  // Default transition schedule, scaled to the horizon: the primary dies
  // and recovers (timeout-discovered), the second upstream is withdrawn
  // and re-announced (plan-level, no timeout paid). It goes in front of
  // --kill-primary's outage, which therefore fires after the recovery at
  // the same instant and keeps the primary down from half the window.
  const SimTime horizon = config.duration;
  config.churn.insert(
      config.churn.begin(),
      {{horizon / 5, 0, engine::ChurnAction::kOutage},
       {horizon / 2, 0, engine::ChurnAction::kRecover},
       {horizon * 3 / 5, 1, engine::ChurnAction::kWithdraw},
       {horizon * 4 / 5, 1, engine::ChurnAction::kAnnounce}});
  std::stable_sort(config.churn.begin(), config.churn.end(),
                   [](const engine::ChurnEvent& a,
                      const engine::ChurnEvent& b) { return a.at < b.at; });

  const auto result = engine::run_sharded(config);
  const auto& e = result.engine;
  std::printf("churn campaign: %u shards, %zu clients, %.0f qps offered for "
              "%llu s (seed %llu)\n",
              config.shards, config.clients, config.qps,
              static_cast<unsigned long long>(horizon / kSecond),
              static_cast<unsigned long long>(config.seed));
  for (const auto& event : config.churn) {
    std::printf("  t=%5.1fs upstream-%zu %s\n",
                static_cast<double>(event.at) / kSecond, event.upstream,
                std::string(engine::churn_action_name(event.action))
                    .c_str());
  }
  std::uint64_t fired = 0;
  for (const auto& shard : result.shards) fired += shard.churn_fired;
  std::printf("  churn events fired: %llu across all shards\n",
              static_cast<unsigned long long>(fired));
  if (config.restart_at > 0) {
    std::printf("  t=%5.1fs forwarder restart (%s; warm-loaded %llu)\n",
                static_cast<double>(config.restart_at) / kSecond,
                config.engine.snapshot_dir.empty() ? "cold"
                                                   : "snapshot warm start",
                static_cast<unsigned long long>(e.snapshot_warm_loaded));
  }
  std::printf("\n%8s %8s %8s %9s %9s %12s %9s %9s\n", "bucket_s", "sent",
              "answered", "servfails", "timeouts", "answer_rate", "p50_ms",
              "p99_ms");
  for (const auto& bucket : result.series) {
    std::printf("%8.1f %8llu %8llu %9llu %9llu %12.4f %9.2f %9.2f\n",
                static_cast<double>(bucket.start) / kSecond,
                static_cast<unsigned long long>(bucket.sent),
                static_cast<unsigned long long>(bucket.answered),
                static_cast<unsigned long long>(bucket.servfails),
                static_cast<unsigned long long>(bucket.timeouts),
                bucket.answer_rate(), bucket.p50_ms, bucket.p99_ms);
  }
  std::printf("\n");
  print_client_side(result);
  print_upstream(e);
  print_snapshot(config, e);

  const std::string csv_path = flag_value(argc, argv, "--churn-csv", "");
  if (!csv_path.empty()) {
    write_file(csv_path, engine::series_csv(result));
    std::printf("churn series -> %s\n", csv_path.c_str());
  }
  return 0;
}

/// One adverse-path link profile: a name plus the access-link shape every
/// vantage point gets (nullopt = the pinned geo-latency baseline).
struct AdverseProfile {
  const char* name;
  std::optional<net::LinkConfig> link;
};

/// The profile family for `doxperf adverse` — LTE-flavoured impairments
/// from the web-performance literature the paper draws on.
std::vector<AdverseProfile> adverse_profiles() {
  std::vector<AdverseProfile> out;
  out.push_back({"baseline", std::nullopt});

  // Gilbert-Elliott burst loss alone: ~7% stationary loss in ~4-packet
  // bursts, the regime where one lost TCP segment stalls the whole stream
  // but QUIC only delays the affected one.
  net::LinkConfig burst;
  burst.burst_loss = net::GilbertElliott{};
  out.push_back({"burstloss", burst});

  // Bufferbloat: a 10 Mbit/s bottleneck with a deep FIFO — no loss, but
  // queueing delay inflates every RTT once the link saturates.
  net::LinkConfig bloat;
  bloat.rate_bps = 10e6;
  bloat.queue_bytes = 256 * 1024;
  out.push_back({"bufferbloat", bloat});

  // Handover: scripted RTT steps, +80 ms one-way between t=1s and t=3s
  // (a radio handover mid-measurement).
  net::LinkConfig handover;
  handover.delay_steps = {{0, 0}, {1 * kSecond, from_ms(80)},
                          {3 * kSecond, 0}};
  out.push_back({"handover", handover});

  // LTE composite: constrained rate, moderate queue, burst loss and one
  // handover step together.
  net::LinkConfig lte;
  lte.rate_bps = 8e6;
  lte.queue_bytes = 96 * 1024;
  lte.burst_loss = net::GilbertElliott{};
  lte.delay_steps = {{0, 0}, {2 * kSecond, from_ms(60)}, {4 * kSecond, 0}};
  out.push_back({"lte", lte});
  return out;
}

/// `doxperf adverse` — the single-query sweep per link profile, with real
/// congestion control on every transport. Runs on the campaign runner, so
/// output is a pure function of the seed (never of --jobs).
int run_adverse(int argc, char** argv) {
  const bool smoke = flag_set(argc, argv, "--smoke");
  runner::CampaignConfig campaign;
  campaign.seed = flag_count(argc, argv, "--seed", 42, UINT64_MAX);
  campaign.jobs = flag_int(argc, argv, "--jobs", 1);
  campaign.population.verified_only = true;
  campaign.population.verified_dox =
      flag_int(argc, argv, "--resolvers", smoke ? 4 : 12);

  std::vector<dox::DnsProtocol> protocols{std::begin(dox::kAllProtocols),
                                          std::end(dox::kAllProtocols)};
  const std::string protocol_list = flag_value(argc, argv, "--protocols", "");
  if (!protocol_list.empty()) protocols = parse_protocols(protocol_list);

  SingleQueryConfig sq;
  sq.protocols = protocols;
  sq.qname = flag_value(argc, argv, "--qname", "google.com");
  sq.repetitions = flag_int(argc, argv, "--reps", smoke ? 1 : 3);
  sq.tcp_congestion = cc::CcAlgorithm::kNewReno;
  sq.quic_enable_cc = true;

  std::vector<AdverseProfile> profiles = adverse_profiles();
  const std::string profile_list = flag_value(argc, argv, "--profiles", "");
  if (!profile_list.empty()) {
    std::vector<AdverseProfile> chosen;
    for (const std::string& raw : split(profile_list, ',')) {
      const std::string name = to_lower(raw);
      bool found = false;
      for (const AdverseProfile& p : profiles) {
        if (name == p.name) {
          chosen.push_back(p);
          found = true;
        }
      }
      if (!found) {
        std::fprintf(stderr, "unknown profile: %s\n", name.c_str());
        return 2;
      }
    }
    profiles = std::move(chosen);
  }

  std::string csv = "profile,protocol,vp,resolver,rep,success,"
                    "handshake_ms,resolve_ms,total_ms\n";
  std::printf("adverse-path study: %d resolvers, %d reps, seed %llu "
              "(TCP NewReno, QUIC RFC 9002 CC)\n\n",
              campaign.population.verified_dox, sq.repetitions,
              static_cast<unsigned long long>(campaign.seed));
  std::printf("%-12s %-6s %6s %6s %9s %9s %9s\n", "profile", "proto", "n",
              "fail%", "p50 ms", "p95 ms", "hs p50");
  for (const AdverseProfile& profile : profiles) {
    campaign.access_link = profile.link;
    const auto records = runner::run_single_query_campaign(campaign, sq);
    for (dox::DnsProtocol protocol : protocols) {
      std::vector<double> resolve_ms;
      std::vector<double> handshake_ms;
      std::size_t n = 0;
      std::size_t failures = 0;
      for (const auto& record : records) {
        if (record.protocol != protocol) continue;
        ++n;
        if (!record.success) {
          ++failures;
          continue;
        }
        resolve_ms.push_back(to_ms(record.resolve_time));
        handshake_ms.push_back(to_ms(record.handshake_time));
      }
      const auto p50 = stats::percentile(resolve_ms, 50.0);
      const auto p95 = stats::percentile(resolve_ms, 95.0);
      const auto hs50 = stats::percentile(handshake_ms, 50.0);
      std::printf("%-12s %-6s %6zu %6.1f %9.2f %9.2f %9.2f\n", profile.name,
                  std::string(dox::protocol_name(protocol)).c_str(), n,
                  n ? 100.0 * static_cast<double>(failures) /
                          static_cast<double>(n)
                    : 0.0,
                  p50.value_or(0.0), p95.value_or(0.0), hs50.value_or(0.0));
    }
    for (const auto& record : records) {
      char line[256];
      std::snprintf(line, sizeof(line), "%s,%s,%d,%d,%d,%d,%.3f,%.3f,%.3f\n",
                    profile.name,
                    std::string(dox::protocol_name(record.protocol)).c_str(),
                    record.vp, record.resolver, record.rep,
                    record.success ? 1 : 0, to_ms(record.handshake_time),
                    to_ms(record.resolve_time), to_ms(record.total_time));
      csv += line;
    }
    std::printf("\n");
  }
  const std::string csv_path = flag_value(argc, argv, "--csv", "");
  if (!csv_path.empty()) {
    write_file(csv_path, csv);
    std::printf("raw records -> %s\n", csv_path.c_str());
  }
  return 0;
}

/// `doxperf campaign` — the measurement studies sharded across a
/// work-stealing pool; reports the same tables plus wall-clock timing.
int run_campaign(int argc, char** argv) {
  runner::CampaignConfig campaign;
  campaign.seed = flag_count(argc, argv, "--seed", 42, UINT64_MAX);
  campaign.jobs = flag_int(argc, argv, "--jobs", 1);
  campaign.population.verified_only = true;
  campaign.population.verified_dox = flag_int(argc, argv, "--resolvers", 48);
  if (flag_set(argc, argv, "--0rtt")) {
    campaign.population.force_supports_0rtt = true;
  }
  if (flag_set(argc, argv, "--doh3")) {
    campaign.population.force_supports_doh3 = true;
  }

  std::vector<dox::DnsProtocol> protocols{std::begin(dox::kAllProtocols),
                                          std::end(dox::kAllProtocols)};
  const std::string protocol_list = flag_value(argc, argv, "--protocols", "");
  if (!protocol_list.empty()) protocols = parse_protocols(protocol_list);

  std::vector<std::string> vp_names;
  for (const net::City& city : net::vantage_point_cities()) {
    vp_names.push_back(city.name);
  }
  const std::string csv_path = flag_value(argc, argv, "--csv", "");
  const auto started = std::chrono::steady_clock::now();
  const auto wall_seconds = [&started] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         started)
        .count();
  };

  if (flag_set(argc, argv, "--web")) {
    WebStudyConfig web;
    web.protocols = protocols;
    web.max_resolvers = std::min<int>(
        campaign.population.verified_dox,
        flag_int(argc, argv, "--resolvers", 48));
    web.loads_per_combo = flag_int(argc, argv, "--loads", 4);
    web.repetitions = flag_int(argc, argv, "--reps", 1);
    web.dot_buggy_reuse = !flag_set(argc, argv, "--fix-dot");
    web.attempt_0rtt = true;
    const std::string pages = flag_value(argc, argv, "--pages", "");
    if (!pages.empty()) web.pages = split(pages, ',');

    auto records = runner::run_web_campaign(campaign, web);
    std::printf("%s", render_fig3(fig3_relative(records)).c_str());
    std::printf("%s",
                render_fig4(fig4_cells(records, vp_names), vp_names).c_str());
    std::printf("campaign: %zu records in %.2f s (--jobs %d)\n",
                records.size(), wall_seconds(), campaign.jobs);
    if (!csv_path.empty()) {
      write_file(csv_path, web_csv(records));
      std::printf("raw records -> %s\n", csv_path.c_str());
    }
    return 0;
  }

  SingleQueryConfig sq;
  sq.protocols = protocols;
  sq.qname = flag_value(argc, argv, "--qname", "google.com");
  sq.repetitions = flag_int(argc, argv, "--reps", 1);
  sq.use_session_resumption = !flag_set(argc, argv, "--no-resumption");
  sq.use_address_token = !flag_set(argc, argv, "--no-token");
  sq.pad_encrypted = flag_set(argc, argv, "--pad");

  auto records = runner::run_single_query_campaign(campaign, sq);
  std::printf("%s\n", render_table1(table1_sizes(records), nullptr).c_str());
  std::printf("%s",
              render_fig2(fig2_handshake_resolve(records, vp_names)).c_str());
  std::printf("%s", render_mix(protocol_mix(records)).c_str());
  std::printf("campaign: %zu records in %.2f s (--jobs %d)\n",
              records.size(), wall_seconds(), campaign.jobs);
  if (!csv_path.empty()) {
    write_file(csv_path, single_query_csv(records));
    std::printf("raw records -> %s\n", csv_path.c_str());
  }
  const std::string failure_csv =
      flag_value(argc, argv, "--failure-csv", "");
  if (!failure_csv.empty()) {
    write_file(failure_csv, failure_rate_csv(records));
    std::printf("failure report -> %s\n", failure_csv.c_str());
  }
  return 0;
}

}  // namespace

int run(int argc, char** argv);

int main(int argc, char** argv) {
  if (flag_set(argc, argv, "--help") || flag_set(argc, argv, "-h")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  try {
    if (argc > 1 && std::strcmp(argv[1], "engine") == 0) {
      return run_engine(argc, argv);
    }
    if (argc > 1 && std::strcmp(argv[1], "abuse") == 0) {
      return run_abuse(argc, argv);
    }
    if (argc > 1 && std::strcmp(argv[1], "churn") == 0) {
      return run_churn(argc, argv);
    }
    if (argc > 1 && std::strcmp(argv[1], "campaign") == 0) {
      return run_campaign(argc, argv);
    }
    if (argc > 1 && std::strcmp(argv[1], "adverse") == 0) {
      return run_adverse(argc, argv);
    }
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "doxperf: %s\n", e.what());
    return 2;
  }
}

int run(int argc, char** argv) {

  TestbedConfig config;
  config.seed = flag_count(argc, argv, "--seed", 42, UINT64_MAX);
  config.population.verified_only = true;
  config.population.verified_dox =
      flag_int(argc, argv, "--resolvers", 48);
  if (flag_set(argc, argv, "--0rtt")) {
    config.population.force_supports_0rtt = true;
  }
  if (flag_set(argc, argv, "--doh3")) {
    config.population.force_supports_doh3 = true;
  }

  std::vector<dox::DnsProtocol> protocols{std::begin(dox::kAllProtocols),
                                          std::end(dox::kAllProtocols)};
  const std::string protocol_list = flag_value(argc, argv, "--protocols", "");
  if (!protocol_list.empty()) protocols = parse_protocols(protocol_list);

  Testbed testbed(config);
  std::vector<std::string> vp_names;
  for (auto& vp : testbed.vantage_points()) vp_names.push_back(vp->name);
  const std::string csv_path = flag_value(argc, argv, "--csv", "");

  if (flag_set(argc, argv, "--web")) {
    WebStudyConfig web;
    web.protocols = protocols;
    web.max_resolvers = std::min<int>(
        config.population.verified_dox,
        flag_int(argc, argv, "--resolvers", 48));
    web.loads_per_combo = flag_int(argc, argv, "--loads", 4);
    web.dot_buggy_reuse = !flag_set(argc, argv, "--fix-dot");
    web.attempt_0rtt = true;
    const std::string pages = flag_value(argc, argv, "--pages", "");
    if (!pages.empty()) web.pages = split(pages, ',');

    WebStudy study(testbed, web);
    auto records = study.run();
    std::printf("%s", render_fig3(fig3_relative(records)).c_str());
    std::printf("%s",
                render_fig4(fig4_cells(records, vp_names), vp_names).c_str());
    if (!csv_path.empty()) {
      write_file(csv_path, web_csv(records));
      std::printf("raw records -> %s\n", csv_path.c_str());
    }
    return 0;
  }

  SingleQueryConfig sq;
  sq.protocols = protocols;
  sq.qname = flag_value(argc, argv, "--qname", "google.com");
  sq.repetitions = flag_int(argc, argv, "--reps", 1);
  sq.use_session_resumption = !flag_set(argc, argv, "--no-resumption");
  sq.use_address_token = !flag_set(argc, argv, "--no-token");
  sq.pad_encrypted = flag_set(argc, argv, "--pad");

  SingleQueryStudy study(testbed, sq);
  auto records = study.run();

  std::printf("%s\n", render_table1(table1_sizes(records), nullptr).c_str());
  std::printf("%s",
              render_fig2(fig2_handshake_resolve(records, vp_names)).c_str());
  std::printf("%s", render_mix(protocol_mix(records)).c_str());
  if (!csv_path.empty()) {
    write_file(csv_path, single_query_csv(records));
    std::printf("raw records -> %s\n", csv_path.c_str());
  }
  const std::string failure_csv =
      flag_value(argc, argv, "--failure-csv", "");
  if (!failure_csv.empty()) {
    write_file(failure_csv, failure_rate_csv(records));
    std::printf("failure report -> %s\n", failure_csv.c_str());
  }
  return 0;
}
