// The engine harness: one scenario spread across all cores. Every engine
// experiment — load, abuse, churn, restart — runs through `run_sharded`,
// at any shard count.
//
// `run_sharded` draws ONE global arrival schedule from the seed (Poisson
// arrivals, uniform clients, Zipf names), assigns every simulated client a
// source address, hashes sources onto shards (splitmix64 — see
// engine/shard.h), and builds one EngineShard world per shard. Each
// arrival is written straight into its shard's time-ordered slice (no
// intermediate full schedule), and each shard copies its slice onto its
// simulator's arrival lane, after which the slice is freed. The offered
// load is therefore *identical for every shard count*: changing --shards
// only repartitions the same arrivals.
//
// The optional inputs enter at fixed points:
//   * attacks — each family's arrivals come from its own splitmix64
//     stream, go to the shard that owns their (spoofed) source, and ride
//     that shard's attack lanes; their reports are summed across shards;
//   * churn — every event is scheduled in every shard, on that shard's
//     replica of the upstream (or its default pool);
//   * restart — the schedule is split at `restart_at`; a first set of
//     shards runs the earlier arrivals and drains, a fresh set (new L2,
//     engines warm-started from shard-<i>.snap) runs the rest. Stats
//     probes around the restart are per-shard EngineStats merged with
//     EngineStats::add;
//   * series — SwarmClient books every terminal outcome into the bucket of
//     its send time; buckets merge by summing counts and pooling
//     latencies, so the series is deterministic at any shard count.
// With none of them set, no extra draw, event, lane or socket exists.
//
// Execution is epoch-barriered on a util::ThreadPool:
//
//   epoch k:  every shard runs its simulator to k * epoch   (parallel)
//   barrier:  SharedPacketCache::sweep merges the shards' deferred
//             L2 inserts and reaps expired entries            (serial)
//
// Between barriers the L2 table is read-only and lookups lock it *shared*
// (readers never exclude each other; only the barrier-time sweep locks
// exclusively), so the try-locks always succeed and every per-shard event
// stream is a pure function of (seed, shard index, epoch state) —
// bit-identical run to run regardless of how the OS schedules the worker
// threads. That is the determinism contract the engine_shards ctests pin
// via the simulator's event-stream digests.
//
// Scaling is reported two ways, because a CI container may have a single
// core: `wall_ms` is real elapsed time, while `critical_path_ms` charges
// each epoch its *slowest shard* plus the serial sweep — the wall time an
// N-core machine would see. bench/engine_scale gates on the critical-path
// metric so the near-linear-scaling check is hardware-independent.
#pragma once

#include <string>
#include <vector>

#include "engine/shard.h"

namespace doxlab::engine {

/// Per-shard outcome. Everything except `busy_ms` is deterministic for a
/// fixed (seed, shard count) — busy_ms is measured wall time and is kept
/// out of the pinned CSV columns.
struct ShardOutcome {
  std::uint32_t index = 0;
  EngineStats engine;
  LoadReport load;
  std::uint64_t arrivals = 0;      ///< schedule entries assigned here
  std::uint64_t events = 0;        ///< simulator events executed
  std::uint64_t churn_fired = 0;   ///< churn events fired at their time
  std::uint64_t stream_digest = 0; ///< sim event-stream fingerprint
  /// Commutative per-query outcome fingerprint (see
  /// EngineShard::outcome_digest): batching-invariant where the event
  /// stream digest is not.
  std::uint64_t outcome_digest = 0;
  double busy_ms = 0.0;            ///< cpu time across all epochs
};

/// One bucket of the client-visible series: the queries sent in
/// [start, start + bucket) that reached a terminal outcome, with latency
/// percentiles over the answered ones.
struct SeriesBucket {
  SimTime start = 0;
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t servfails = 0;
  std::uint64_t timeouts = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;

  double answer_rate() const {
    return sent == 0 ? 0.0
                     : static_cast<double>(answered) /
                           static_cast<double>(sent);
  }
};

struct ShardedResult {
  /// One row per shard, in shard order (a restarted run lists the first
  /// set of shards, then the second).
  std::vector<ShardOutcome> shards;
  /// Per-shard EngineStats merged via EngineStats::add, in shard order.
  EngineStats engine;
  /// Per-shard load reports summed; latencies concatenated in shard order.
  LoadReport load;
  /// The shared L2 of the last (serving) set of shards.
  dns::SharedPacketCache::Stats l2;
  std::uint64_t epochs = 0;
  std::uint64_t total_arrivals = 0;
  /// Per-shard digests folded in shard order (FNV-style) — the one number
  /// the determinism test compares across runs.
  std::uint64_t merged_digest = 0;
  /// Per-shard outcome digests SUMMED (commutative), so the merged value is
  /// invariant to shard count and batching — the batch-determinism test's
  /// cross-setting comparator.
  std::uint64_t outcome_digest = 0;
  double wall_ms = 0.0;           ///< real elapsed time (this machine)
  double critical_path_ms = 0.0;  ///< sum over epochs of slowest shard
  double sweep_ms = 0.0;          ///< serial L2 sweep time (inside critical)

  /// One report per attack family, summed across shards (abuse runs).
  std::vector<AttackReport> attacks;
  /// The client-visible time series (config.bucket > 0), in time order;
  /// empty buckets inside the horizon appear explicitly.
  std::vector<SeriesBucket> series;
  /// Restart runs: merged stats kRestartWindow before the restart and at
  /// it (their difference is the steady-state window), and the fresh
  /// shards' stats kRestartWindow after it (they start from zero, so this
  /// IS the first-epoch window).
  EngineStats pre_window_start;
  EngineStats pre_restart;
  EngineStats post_first_epoch;

  /// Queries the engines processed per critical-path second — the
  /// hardware-independent scaling metric bench/engine_scale gates on.
  double effective_qps() const {
    return critical_path_ms <= 0.0
               ? 0.0
               : static_cast<double>(engine.queries) /
                     (critical_path_ms / 1000.0);
  }
  double wall_qps() const {
    return wall_ms <= 0.0 ? 0.0
                          : static_cast<double>(engine.queries) /
                                (wall_ms / 1000.0);
  }
  /// Fraction of attack queries shed (refused/dropped/truncated). Sent
  /// minus observed responses covers silent drops AND spoofed-source
  /// backscatter that never returns to the bots.
  double attack_shed_rate() const;
};

/// Width of the stats windows compared around a restart.
inline constexpr SimTime kRestartWindow = 1 * kSecond;

/// Draws the arrival slices and builds the shard worlds, runs the epoch
/// loop to completion (duration + client timeout + settle slack; twice
/// around a restart), and returns the merged result. Throws
/// std::logic_error if the client accounting does not reconcile:
/// answered + servfails + timeouts == sent and sent + shed == arrivals.
ShardedResult run_sharded(const ShardedConfig& config);

/// The series as CSV:
/// `bucket_s,sent,answered,servfails,timeouts,answer_rate,p50_ms,p99_ms`.
std::string series_csv(const ShardedResult& result);

}  // namespace doxlab::engine
