// The sharded engine coordinator: one scenario spread across all cores.
//
// `run_sharded` draws ONE global arrival schedule from the seed (the same
// Poisson/Zipf process LoadGenerator uses), assigns every simulated client
// a source address, hashes sources onto shards (splitmix64 — see
// engine/shard.h), and builds one EngineShard world per shard. Each
// arrival is written straight into its shard's time-ordered slice (no
// intermediate full schedule), and each shard copies its slice onto its
// simulator's arrival lane, after which the slice is freed. The offered
// load is therefore *identical for every shard count*: changing --shards
// only repartitions the same arrivals.
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
// stream is a pure
// function of (seed, shard index, epoch state) — bit-identical run to run
// regardless of how the OS schedules the worker threads. That is the
// determinism contract the engine_shards ctests pin via the simulator's
// event-stream digests.
//
// Scaling is reported two ways, because a CI container may have a single
// core: `wall_ms` is real elapsed time, while `critical_path_ms` charges
// each epoch its *slowest shard* plus the serial sweep — the wall time an
// N-core machine would see. bench/engine_scale gates on the critical-path
// metric so the near-linear-scaling check is hardware-independent.
#pragma once

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
  std::uint64_t stream_digest = 0; ///< sim event-stream fingerprint
  /// Commutative per-query outcome fingerprint (see
  /// EngineShard::outcome_digest): batching-invariant where the event
  /// stream digest is not.
  std::uint64_t outcome_digest = 0;
  double busy_ms = 0.0;            ///< cpu time across all epochs
};

struct ShardedResult {
  std::vector<ShardOutcome> shards;
  /// Per-shard EngineStats merged via EngineStats::add, in shard order.
  EngineStats engine;
  /// Per-shard load reports summed; latencies concatenated in shard order.
  LoadReport load;
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
};

/// Draws the arrival slices and builds the shard worlds, runs the epoch
/// loop to completion (duration + client timeout + settle slack), and
/// returns the merged result.
ShardedResult run_sharded(const ShardedConfig& config);

}  // namespace doxlab::engine
