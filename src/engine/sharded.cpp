#include "engine/sharded.h"

#include <ctime>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace doxlab::engine {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// CPU time consumed by the CALLING thread, in milliseconds. Shard busy
/// time is charged in thread CPU time, not wall time: when the host has
/// fewer cores than shards the OS interleaves the workers, and a wall
/// clock would bill every shard for its neighbours' timeslices — thread
/// CPU time measures only the work this shard actually did, so the
/// critical-path metric is meaningful on any host.
double thread_cpu_ms() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
#else
  return std::chrono::duration<double, std::milli>(
             Clock::now().time_since_epoch())
      .count();
#endif
}

/// The global arrival schedule: Poisson arrivals at the aggregate rate, a
/// uniform client and a Zipf name per arrival, generated in one pass so the
/// offered load is a function of the seed alone — never of the shard count
/// that will replay it. Each arrival goes straight to the slice of the
/// shard that owns its client's source address (slices stay in time
/// order); returns the total number of arrivals.
std::size_t generate_slices(const ShardedConfig& config,
                            std::vector<std::vector<Arrival>>& slices) {
  check_load_shape(config.clients, config.names);
  Rng rng(config.seed);

  std::vector<double> name_cdf;
  name_cdf.reserve(config.names);
  double total = 0.0;
  for (std::size_t rank = 1; rank <= config.names; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank), config.zipf_exponent);
    name_cdf.push_back(total);
  }

  const auto expected = static_cast<std::size_t>(
      config.qps * (static_cast<double>(config.duration) / kSecond) * 1.1);
  for (auto& slice : slices) slice.reserve(expected / slices.size() + 16);
  const double mean_gap_us =
      static_cast<double>(kSecond) / std::max(config.qps, 1e-9);
  std::size_t count = 0;
  SimTime at = 0;
  while (true) {
    at += std::max<SimTime>(
        1, static_cast<SimTime>(rng.exponential(mean_gap_us)));
    if (at >= config.duration) break;
    Arrival arrival;
    arrival.at = at;
    arrival.client = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(config.clients) - 1));
    const double u = rng.uniform_real(0.0, name_cdf.back());
    const auto it = std::upper_bound(name_cdf.begin(), name_cdf.end(), u);
    arrival.name = static_cast<std::uint32_t>(
        std::min<std::size_t>(it - name_cdf.begin(), config.names - 1));
    slices[shard_of(config, client_source(config, arrival.client))]
        .push_back(arrival);
    ++count;
  }
  return count;
}

using AttackSlices = std::array<std::vector<AttackArrival>, kAttackKinds>;

/// Each attack family's arrivals: a Poisson stream from `abuse.start` to
/// the end of the load window, drawn from the family's own Rng
/// (splitmix64(seed, 2^32 + family)), so enabling an attack never moves
/// the legitimate schedule. Each arrival goes to the shard that owns its
/// spoofed source.
void generate_attacks(const ShardedConfig& config,
                      std::vector<AttackSlices>& slices) {
  const AbuseMix& abuse = *config.abuse;
  const std::array<double, kAttackKinds> rates = {
      abuse.flood_qps, abuse.torture_qps, abuse.amp_qps};
  for (std::size_t k = 0; k < kAttackKinds; ++k) {
    if (rates[k] <= 0.0) continue;
    const auto kind = static_cast<AttackKind>(k);
    Rng rng(splitmix64(config.seed, (std::uint64_t{1} << 32) + k));
    const double mean_gap_us = static_cast<double>(kSecond) / rates[k];
    SimTime at = abuse.start;
    while (true) {
      at += std::max<SimTime>(
          1, static_cast<SimTime>(rng.exponential(mean_gap_us)));
      if (at >= config.duration) break;
      const std::uint64_t bits = rng.engine()();
      slices[shard_of(config, attack_source(kind, bits))][k].push_back(
          {at, bits});
    }
  }
}

/// The entries of a time-ordered slice with `at` in [start, end).
template <typename T>
std::span<const T> in_window(const std::vector<T>& slice, SimTime start,
                             SimTime end) {
  auto by_time = [](const T& entry, SimTime t) { return entry.at < t; };
  const auto first =
      std::lower_bound(slice.begin(), slice.end(), start, by_time);
  const auto last = std::lower_bound(first, slice.end(), end, by_time);
  return {first, last};
}

/// Stats probes into one set of shards: merged into `out` at `at`.
struct Probe {
  SimTime at = 0;
  EngineStats* out = nullptr;
};

/// Builds one set of shard worlds over the arrivals in [start, end), runs
/// the epoch loop until `end` plus the settle slack, and folds the outcome
/// into `result` and `series`. The last window frees each slice once its
/// shard holds a copy.
void run_world(const ShardedConfig& config, SimTime start, SimTime end,
               std::vector<std::vector<Arrival>>& slices,
               std::vector<AttackSlices>& attacks,
               const std::vector<Probe>& probes, Clock::time_point wall_start,
               std::vector<LoadReport>& series,
               ShardedResult& result) {
  const auto n = static_cast<std::uint32_t>(slices.size());
  const bool last_window = end >= config.duration;
  dns::SharedPacketCache l2(config.l2_capacity, n);
  dns::SharedPacketCache* l2_ptr = config.l2_capacity > 0 ? &l2 : nullptr;
  if (config.engine.l2_serve_stale && config.engine.serve_stale) {
    // Stale serving needs expired entries to survive the barrier sweeps for
    // the whole stale window.
    l2.set_stale_retention(config.engine.max_stale);
  }

  std::vector<std::unique_ptr<EngineShard>> shards;
  shards.reserve(n);
  std::vector<EngineStats> probed(probes.size() * n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ShardWindow window{start, end, {}};
    for (std::size_t k = 0; k < kAttackKinds && !attacks.empty(); ++k) {
      window.attacks[k] = in_window(attacks[i][k], start, end);
    }
    shards.push_back(std::make_unique<EngineShard>(
        config, i, in_window(slices[i], start, end), l2_ptr, window));
    if (last_window) {
      // The shard's lanes hold their own copies.
      slices[i] = {};
      if (!attacks.empty()) attacks[i] = {};
    }
    for (std::size_t p = 0; p < probes.size(); ++p) {
      shards[i]->probe_stats_at(probes[p].at, probed[p * n + i]);
    }
  }

  util::ThreadPool pool(config.threads);
  std::vector<double> busy_ms(n, 0.0);
  std::vector<double> epoch_busy_ms(n, 0.0);

  // Arrival window plus settle slack: client timeout and a full pool
  // fallback walk for the stragglers.
  const SimTime stop = end + config.client_timeout + 15 * kSecond;
  const SimTime epoch = std::max<SimTime>(1, config.epoch);
  SimTime deadline = start;
  while (deadline < stop) {
    // Epoch-barrier while the swarms are active; once every shard is past
    // the arrival window with no query in flight, the rest of the settle
    // window collapses into one final epoch (event streams are unchanged —
    // a shard executes its queue in the same order however it is sliced).
    const bool all_drained = std::all_of(
        shards.begin(), shards.end(),
        [](const auto& shard) { return shard->drained(); });
    deadline = all_drained ? stop : std::min(stop, deadline + epoch);
    // Parallel phase: every shard runs to the epoch boundary. Each worker
    // writes only its own busy slot — no sharing, no synchronization needed
    // beyond the pool's own completion barrier.
    pool.parallel_for(n, [&](std::size_t i) {
      const double cpu_start = thread_cpu_ms();
      shards[i]->run_until(deadline);
      epoch_busy_ms[i] = thread_cpu_ms() - cpu_start;
    });
    double slowest = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) {
      busy_ms[i] += epoch_busy_ms[i];
      slowest = std::max(slowest, epoch_busy_ms[i]);
    }
    // Serial phase: merge the shards' deferred L2 inserts. All shard clocks
    // sit exactly at `deadline`, so that is the sweep's notion of now.
    const double sweep_start = thread_cpu_ms();
    if (l2_ptr != nullptr) l2_ptr->sweep(deadline);
    const double swept = thread_cpu_ms() - sweep_start;
    result.sweep_ms += swept;
    result.critical_path_ms += slowest + swept;
    ++result.epochs;
  }

  for (std::uint32_t i = 0; i < n; ++i) {
    const EngineShard& shard = *shards[i];
    ShardOutcome outcome;
    outcome.index = i;
    outcome.engine = shard.engine_stats();
    outcome.load = shard.report();
    outcome.arrivals = shard.arrivals_scheduled();
    outcome.events = shard.events_executed();
    outcome.churn_fired = shard.churn_fired();
    outcome.stream_digest = shard.stream_digest();
    outcome.outcome_digest = shard.outcome_digest();
    outcome.busy_ms = busy_ms[i];

    result.engine.add(outcome.engine);
    result.load.add(outcome.load);
    result.merged_digest =
        (result.merged_digest * 0x100000001B3ull) ^ outcome.stream_digest;
    result.outcome_digest += outcome.outcome_digest;
    result.shards.push_back(std::move(outcome));

    for (const AttackReport& report : shard.attack_reports()) {
      AttackReport& sum = result.attacks[static_cast<std::size_t>(report.kind)];
      sum.sent += report.sent;
      sum.answered += report.answered;
      sum.refused += report.refused;
      sum.truncated += report.truncated;
    }
    const std::vector<LoadReport>& buckets = shard.series();
    if (series.size() < buckets.size()) series.resize(buckets.size());
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      series[b].add(buckets[b]);
    }
    for (std::size_t p = 0; p < probes.size(); ++p) {
      probes[p].out->add(probed[p * n + i]);
    }
  }
  result.l2 = l2.stats();
  result.wall_ms = ms_since(wall_start);
}

}  // namespace

double ShardedResult::attack_shed_rate() const {
  std::uint64_t sent = 0, answered = 0;
  for (const AttackReport& a : attacks) {
    sent += a.sent;
    answered += a.answered;
  }
  return sent == 0 ? 0.0
                   : static_cast<double>(sent - answered) /
                         static_cast<double>(sent);
}

ShardedResult run_sharded(const ShardedConfig& config) {
  const std::uint32_t n = std::max<std::uint32_t>(1, config.shards);
  const auto wall_start = Clock::now();

  std::vector<std::vector<Arrival>> slices(n);
  const std::size_t total_arrivals = generate_slices(config, slices);
  std::vector<AttackSlices> attacks(config.abuse ? n : 0);
  if (config.abuse) generate_attacks(config, attacks);

  ShardedResult result;
  for (std::size_t k = 0; config.abuse && k < kAttackKinds; ++k) {
    result.attacks.push_back(AttackReport{static_cast<AttackKind>(k)});
  }
  std::vector<LoadReport> series;
  const SimTime restart = config.restart_at;
  if (restart <= 0 || restart >= config.duration) {
    run_world(config, 0, config.duration, slices, attacks, {}, wall_start,
              series, result);
  } else {
    // The first set of shards runs the arrivals before the restart and
    // drains; the second, fast-forwarded to the restart, runs the rest.
    run_world(config, 0, restart, slices, attacks,
              {{std::max<SimTime>(0, restart - kRestartWindow),
                &result.pre_window_start},
               {restart, &result.pre_restart}},
              wall_start, series, result);
    run_world(config, restart, config.duration, slices, attacks,
              {{restart + kRestartWindow, &result.post_first_epoch}},
              wall_start, series, result);
  }

  // The shared tier's occupancy is stamped once onto the merged stats (the
  // per-shard rows carry only each shard's own hit/lookup counters), so the
  // merge never multi-counts one table.
  result.engine.l2_evictions = result.l2.expired_evicted;
  result.engine.l2_entries = result.l2.size;
  result.engine.l2_bytes = result.l2.bytes;
  result.total_arrivals = total_arrivals;

  const SimTime bucket = std::max<SimTime>(1, config.bucket);
  for (std::size_t b = 0; b < series.size(); ++b) {
    SeriesBucket out;
    out.start = static_cast<SimTime>(b) * bucket;
    out.sent = series[b].sent;
    out.answered = series[b].answered;
    out.servfails = series[b].servfails;
    out.timeouts = series[b].timeouts;
    if (!series[b].latency_ms.empty()) {
      const stats::Summary summary = series[b].latency_summary();
      out.p50_ms = summary.median;
      out.p99_ms = summary.p99;
    }
    result.series.push_back(out);
  }

  const LoadReport& load = result.load;
  if (!load.complete()) {
    throw std::logic_error(
        "run_sharded: answered + servfails + timeouts != sent");
  }
  if (load.sent + load.shed != result.total_arrivals) {
    throw std::logic_error("run_sharded: sent + shed != arrivals");
  }
  return result;
}

std::string series_csv(const ShardedResult& result) {
  std::string csv =
      "bucket_s,sent,answered,servfails,timeouts,answer_rate,p50_ms,"
      "p99_ms\n";
  char line[160];
  for (const SeriesBucket& bucket : result.series) {
    std::snprintf(line, sizeof(line),
                  "%.3f,%llu,%llu,%llu,%llu,%.6f,%.3f,%.3f\n",
                  static_cast<double>(bucket.start) / kSecond,
                  static_cast<unsigned long long>(bucket.sent),
                  static_cast<unsigned long long>(bucket.answered),
                  static_cast<unsigned long long>(bucket.servfails),
                  static_cast<unsigned long long>(bucket.timeouts),
                  bucket.answer_rate(), bucket.p50_ms, bucket.p99_ms);
    csv += line;
  }
  return csv;
}

}  // namespace doxlab::engine
