// The three benchmark workloads and the layer ledgers the traced run
// builds from them. Each workload has an untraced run (end-to-end metrics)
// and a traced run (per-layer metrics); see perfbench/README.md.
#pragma once

#include <string>
#include <vector>

#include "bench.h"
#include "engine/shard.h"
#include "measure/single_query.h"
#include "measure/web_study.h"
#include "runner/campaign.h"
#include "trace.h"

namespace perfbench {

/// Seed of engine input `index` of a run started with --seed `seed`: an
/// untraced engine run cycles through several inputs, the traced run uses
/// input 0.
std::uint64_t input_seed(std::uint64_t seed, std::size_t index);

/// `engine_hot` or `engine_longtail`, seeded; `smoke` shrinks it to a
/// run of well under a second.
doxlab::engine::ShardedConfig engine_config(const std::string& workload,
                                            std::uint64_t seed, bool smoke);

struct CampaignSpec {
  doxlab::runner::CampaignConfig campaign;
  doxlab::measure::SingleQueryConfig single_query;
  doxlab::measure::WebStudyConfig web;
};
CampaignSpec campaign_spec(std::uint64_t seed, bool smoke);

/// Untraced end-to-end runs: repeat the workload until `options.seconds`
/// is used up (at least twice, so the determinism checks have a pair) and
/// report medians over the repeats.
RunResult run_engine(const Options& options, Gate& gate);
RunResult run_campaign(const Options& options, Gate& gate);

/// One layer ledger: per-layer metrics plus the wall time of the measured
/// calls made untraced and traced, whose ratio is the tracing overhead.
struct Ledger {
  Metrics metrics;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  std::uint64_t calls = 0;
};
Ledger engine_ledger(const doxlab::engine::ShardedConfig& config, Gate& gate,
                     Tracer& tracer);
Ledger campaign_ledger(const CampaignSpec& spec, Gate& gate, Tracer& tracer);

}  // namespace perfbench
