// Scaling bench for the sharded forwarder engine (src/engine/sharded.h):
// one scenario, the same offered load, partitioned across N = 1/2/4/8
// shard worlds.
//
// Reports, per shard count:
//   * critical-path qps — queries processed divided by the sum over epochs
//     of the slowest shard's busy time plus the serial L2 sweep. This is
//     the wall time an N-core machine would see, measured exactly even on
//     a single-core CI container (each shard's epoch slice is timed
//     individually), so the scaling claim is hardware-independent.
//   * wall qps on this host, for reference.
//   * speedup vs N=1 on the critical-path metric.
// and proves three invariants:
//   * the offered load is identical for every N (same arrivals, same
//     queries processed — resharding only repartitions the schedule);
//   * per-shard event streams are bit-identical across repeated runs
//     (merged simulator digests equal);
//   * the cached L1 fast path still performs zero heap allocations per
//     query with the shared L2 attached.
//
// A second sweep re-runs the scenario with the raw-wire cache enabled at
// delivery-batch windows of 0/50/200 us and pins the answered totals and
// summed per-query outcome digests across windows: batching may reshape the
// event schedule but must not change any query's outcome.
//
// Writes BENCH_engine_scale.json with --json. Usage:
//   engine_scale [--seed=N] [--clients=N] [--qps=N] [--seconds=N]
//                [--json] [--smoke]
// --smoke runs a reduced workload and exits non-zero if the 4-shard
// within-run speedup (serialized shard work / critical path — both sides
// measured in the same run, so host frequency drift cancels) falls below
// 3.0x, the load varies across N, reruns diverge, or the cached path
// allocates (the CI gate).
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "bench_util.h"
#include "counting_new.h"
#include "dox/transport.h"
#include "engine/sharded.h"
#include "net/network.h"
#include "resolver/resolver.h"
#include "stats/stats.h"
#include "tcp/tcp.h"

namespace {

using namespace doxlab;

/// Steady-state heap allocations per cached query through a ForwarderEngine
/// with the shared L2 attached — the sharded configuration must not cost
/// the L1 fast path its zero-allocation property (the L2 is only probed on
/// L1 misses). Mirrors micro_components' byte-path probe.
double measure_cached_allocs_with_l2(int queries) {
  sim::Simulator sim;
  net::Network network(sim, Rng(33));
  net::Host& host = network.add_host(
      "client", net::IpAddress::from_octets(10, 1, 0, 1), {50.11, 8.68},
      net::Continent::kEurope);
  net::UdpStack udp(host);
  tcp::TcpStack tcp(host);
  tls::TicketStore tickets;
  dox::DoqSessionCache doq_cache;
  network.set_loss_rate(0.0);

  resolver::ResolverProfile profile;
  profile.name = "upstream";
  profile.address = net::IpAddress::from_octets(10, 2, 0, 1);
  profile.location = {48.86, 2.35};
  profile.secret = 0xAA;
  profile.drop_probability = 0.0;
  resolver::DoxResolver upstream(network, profile, Rng(1));
  network.set_path_override(host.address(), profile.address, from_ms(10));

  dox::TransportDeps deps;
  deps.sim = &sim;
  deps.udp = &udp;
  deps.tcp = &tcp;
  deps.tickets = &tickets;
  deps.doq_cache = &doq_cache;
  engine::UpstreamConfig upstream_config;
  upstream_config.name = profile.name;
  upstream_config.address = profile.address;
  upstream_config.protocols = {dox::DnsProtocol::kDoUdp};

  dns::SharedPacketCache l2(1024, 1);
  engine::EngineConfig config;
  config.l2 = &l2;
  config.shard_index = 0;
  engine::ForwarderEngine engine(sim, udp, deps, {upstream_config}, config);

  auto socket = udp.bind_ephemeral();
  std::uint64_t answered = 0;
  socket->on_datagram(
      [&](const net::Endpoint&, util::Buffer) { ++answered; });
  const dns::Message query = dns::make_query(
      0x77, dns::DnsName::parse("cached.example.com"), dns::RRType::kA);
  const util::Buffer query_wire = query.encode_buffer();
  const net::Endpoint engine_ep{host.address(), 53};

  for (int i = 0; i < 1024; ++i) {
    socket->send_to(engine_ep, query_wire);
    sim.run_until(sim.now() + (i == 0 ? kSecond : kMillisecond));
  }

  const std::uint64_t before = answered;
  const std::uint64_t allocs0 = g_heap_allocs.load();
  for (int i = 0; i < queries; ++i) {
    socket->send_to(engine_ep, query_wire);
    sim.run_until(sim.now() + kMillisecond);
  }
  const std::uint64_t allocs = g_heap_allocs.load() - allocs0;
  if (answered - before != static_cast<std::uint64_t>(queries)) {
    std::fprintf(stderr, "l2 cached probe: %llu/%d queries answered\n",
                 static_cast<unsigned long long>(answered - before),
                 queries);
    return -1.0;
  }
  return static_cast<double>(allocs) / queries;
}

struct ScaleRow {
  std::uint32_t shards = 0;
  double effective_qps = 0.0;
  double wall_qps = 0.0;
  double critical_path_ms = 0.0;
  double busy_sum_ms = 0.0;
  double sweep_ms = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t answered = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t wire_hits = 0;
  std::uint64_t lock_misses = 0;
  std::uint64_t digest = 0;
  std::uint64_t outcome_digest = 0;
  double p99_ms = 0.0;

  /// Within-run speedup: how much shorter the critical path is than
  /// serializing the same run's shard work. Numerator and denominator come
  /// from the same process instant, so CPU frequency drift and cache state
  /// cancel — this is the ratio the CI gate checks, because cross-run qps
  /// comparisons wobble on a shared single-core container.
  double vs_serial() const {
    return critical_path_ms <= 0.0 ? 0.0 : busy_sum_ms / critical_path_ms;
  }
};

ScaleRow run_once(const engine::ShardedConfig& config) {
  const auto result = engine::run_sharded(config);
  ScaleRow row;
  row.shards = config.shards;
  row.effective_qps = result.effective_qps();
  row.wall_qps = result.wall_qps();
  row.critical_path_ms = result.critical_path_ms;
  row.sweep_ms = result.sweep_ms;
  row.queries = result.engine.queries;
  row.answered = result.load.answered;
  row.l2_hits = result.engine.l2_hits;
  row.wire_hits = result.engine.wire_hits;
  row.lock_misses = result.l2.lock_misses;
  row.digest = result.merged_digest;
  row.outcome_digest = result.outcome_digest;
  row.p99_ms = result.load.latency_summary().p99;
  for (const auto& shard : result.shards) row.busy_sum_ms += shard.busy_ms;
  row.busy_sum_ms += result.sweep_ms;  // serial work serializes either way
  return row;
}

/// Best-of-N to shed scheduler and frequency noise (same idiom as
/// micro_components): the simulated results are bit-identical across reps —
/// which doubles as the run-to-run determinism check — so only the timing
/// differs, and the fastest rep is the least-perturbed measurement.
ScaleRow run_best(const engine::ShardedConfig& config, int reps,
                  bool* deterministic) {
  ScaleRow best = run_once(config);
  for (int rep = 1; rep < reps; ++rep) {
    const ScaleRow row = run_once(config);
    if (row.digest != best.digest || row.queries != best.queries ||
        row.l2_hits != best.l2_hits) {
      *deterministic = false;
    }
    if (row.critical_path_ms < best.critical_path_ms) best = row;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::flag_set(argc, argv, "--smoke");
  const bool json = bench::flag_set(argc, argv, "--json");

  engine::ShardedConfig base;
  base.seed =
      static_cast<std::uint64_t>(bench::flag_int(argc, argv, "--seed", 42));
  base.clients = static_cast<std::size_t>(
      bench::flag_int(argc, argv, "--clients", smoke ? 100000 : 1000000));
  base.qps = bench::flag_int(argc, argv, "--qps", 20000);
  base.duration =
      bench::flag_int(argc, argv, "--seconds", smoke ? 3 : 10) * kSecond;
  base.names = 200;
  base.engine.max_ttl = 1;  // keep refresh traffic flowing past warmup

  bench::banner("Engine scale — one scenario across N shard worlds");
  std::printf("%zu clients, %.0f qps offered for %llu s (seed %llu)\n",
              base.clients, base.qps,
              static_cast<unsigned long long>(base.duration / kSecond),
              static_cast<unsigned long long>(base.seed));

  const std::vector<std::uint32_t> counts = {1, 2, 4, 8};
  const int reps = 3;
  bool deterministic = true;
  std::vector<ScaleRow> rows;
  for (std::uint32_t n : counts) {
    engine::ShardedConfig config = base;
    config.shards = n;
    rows.push_back(run_best(config, reps, &deterministic));
  }

  std::printf("\n%7s %14s %12s %10s %9s %10s %8s %10s\n", "shards",
              "critical qps", "wall qps", "vs serial", "vs N=1", "l2 hits",
              "p99 ms", "lock-miss");
  for (const ScaleRow& row : rows) {
    std::printf("%7u %14.0f %12.0f %9.2fx %8.2fx %10llu %8.2f %10llu\n",
                row.shards, row.effective_qps, row.wall_qps, row.vs_serial(),
                row.effective_qps / rows.front().effective_qps,
                static_cast<unsigned long long>(row.l2_hits), row.p99_ms,
                static_cast<unsigned long long>(row.lock_misses));
  }

  // Batch-window sweep: the same scenario with the wire cache on, across
  // delivery-batching windows. Batching only reshapes the event schedule —
  // it must not change any individual query's outcome — so for every shard
  // count the answered total and the commutative per-query outcome digest
  // are pinned across windows.
  const std::vector<std::uint32_t> batch_counts =
      smoke ? std::vector<std::uint32_t>{1, 4}
            : std::vector<std::uint32_t>{1, 2, 4, 8};
  const std::vector<std::uint64_t> windows =
      smoke ? std::vector<std::uint64_t>{0, 200}
            : std::vector<std::uint64_t>{0, 50, 200};
  struct BatchRow {
    std::uint32_t shards = 0;
    std::uint64_t window_us = 0;
    ScaleRow row;
  };
  std::vector<BatchRow> batch_rows;
  for (std::uint32_t n : batch_counts) {
    for (std::uint64_t w : windows) {
      engine::ShardedConfig config = base;
      config.shards = n;
      config.batch_window = static_cast<SimTime>(w) * kMicrosecond;
      config.engine.wire_cache_capacity = 4096;
      batch_rows.push_back({n, w, run_once(config)});
    }
  }

  std::printf("\nbatch sweep (wire cache on, %zu-entry):\n", std::size_t{4096});
  std::printf("%7s %9s %14s %12s %10s %10s  %s\n", "shards", "batch us",
              "critical qps", "wall qps", "wire hits", "answered",
              "outcome digest");
  for (const BatchRow& b : batch_rows) {
    std::printf("%7u %9llu %14.0f %12.0f %10llu %10llu  %016llx\n", b.shards,
                static_cast<unsigned long long>(b.window_us),
                b.row.effective_qps, b.row.wall_qps,
                static_cast<unsigned long long>(b.row.wire_hits),
                static_cast<unsigned long long>(b.row.answered),
                static_cast<unsigned long long>(b.row.outcome_digest));
  }

  const double allocs = measure_cached_allocs_with_l2(smoke ? 1000 : 4000);
  std::printf("\ncached-query heap allocations with L2 attached: %.4f\n",
              allocs);

  bool ok = true;
  bool batch_invariant = true;
  for (std::size_t i = 0; i < batch_rows.size(); ++i) {
    const BatchRow& b = batch_rows[i];
    const BatchRow& zero = batch_rows[i - i % windows.size()];
    if (b.row.answered != zero.row.answered ||
        b.row.outcome_digest != zero.row.outcome_digest) {
      std::fprintf(stderr,
                   "FAIL: batching changed outcomes at %u shards "
                   "(window %llu us: %llu answered digest %016llx vs "
                   "%llu answered digest %016llx)\n",
                   b.shards, static_cast<unsigned long long>(b.window_us),
                   static_cast<unsigned long long>(b.row.answered),
                   static_cast<unsigned long long>(b.row.outcome_digest),
                   static_cast<unsigned long long>(zero.row.answered),
                   static_cast<unsigned long long>(zero.row.outcome_digest));
      batch_invariant = false;
      ok = false;
    }
  }
  for (const ScaleRow& row : rows) {
    if (row.queries != rows.front().queries ||
        row.answered != rows.front().answered) {
      std::fprintf(stderr,
                   "FAIL: load varies with shard count (%u shards: %llu "
                   "queries vs %llu)\n",
                   row.shards,
                   static_cast<unsigned long long>(row.queries),
                   static_cast<unsigned long long>(rows.front().queries));
      ok = false;
    }
  }
  const ScaleRow& four = rows[2];
  if (!deterministic) {
    std::fprintf(stderr, "FAIL: reruns diverged (digest/query mismatch "
                         "across repetitions)\n");
    ok = false;
  }
  if (four.vs_serial() < 3.0) {
    std::fprintf(stderr, "FAIL: 4-shard speedup %.2fx < 3.0x\n",
                 four.vs_serial());
    ok = false;
  }
  if (allocs < 0.0 || allocs > 0.01) {
    std::fprintf(stderr, "FAIL: cached query allocates with L2 (%.4f/op)\n",
                 allocs);
    ok = false;
  }

  if (json) {
    bench::JsonReporter reporter;
    for (const ScaleRow& row : rows) {
      const std::string bench = "shards_" + std::to_string(row.shards);
      reporter.metric(bench, "critical_path_qps", row.effective_qps);
      reporter.metric(bench, "wall_qps", row.wall_qps);
      reporter.metric(bench, "speedup_vs_1",
                      row.effective_qps / rows.front().effective_qps);
      reporter.metric(bench, "speedup_vs_serial", row.vs_serial());
      reporter.metric(bench, "critical_path_ms", row.critical_path_ms);
      reporter.metric(bench, "shard_busy_sum_ms", row.busy_sum_ms);
      reporter.metric(bench, "sweep_ms", row.sweep_ms);
      reporter.metric(bench, "queries", static_cast<double>(row.queries));
      reporter.metric(bench, "l2_hits", static_cast<double>(row.l2_hits));
      reporter.metric(bench, "l2_lock_misses",
                      static_cast<double>(row.lock_misses));
      reporter.metric(bench, "p99_ms", row.p99_ms);
    }
    for (const BatchRow& b : batch_rows) {
      const std::string bench = "batch_N" + std::to_string(b.shards) + "_w" +
                                std::to_string(b.window_us);
      reporter.metric(bench, "critical_path_qps", b.row.effective_qps);
      reporter.metric(bench, "wall_qps", b.row.wall_qps);
      reporter.metric(bench, "answered", static_cast<double>(b.row.answered));
      reporter.metric(bench, "wire_hits",
                      static_cast<double>(b.row.wire_hits));
      reporter.metric(bench, "p99_ms", b.row.p99_ms);
    }
    reporter.metric("invariants", "cached_allocs_with_l2", allocs);
    reporter.metric("invariants", "rerun_digest_match",
                    deterministic ? 1.0 : 0.0);
    reporter.metric("invariants", "batch_outcome_match",
                    batch_invariant ? 1.0 : 0.0);
    const char* path = "BENCH_engine_scale.json";
    if (reporter.write_file(path)) {
      std::printf("\nbaseline -> %s\n", path);
    } else {
      std::fprintf(stderr, "failed to write %s\n", path);
      return 1;
    }
  }

  std::printf("\nengine scale: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
