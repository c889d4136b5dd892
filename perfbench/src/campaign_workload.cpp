// paper_campaign: the Fig. 2 / Table 1 single-query matrix and the
// Fig. 3 / 4 web matrix through runner::run_{single_query,web}_campaign,
// plus the traced per-cell loop of the traced run.
#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <ctime>
#include <memory>
#include <numeric>
#include <type_traits>

#include "heap.h"
#include "measure/sampling.h"
#include "measure/testbed.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace doxlab;

/// One cell of a campaign matrix, in the runner's schedule order.
struct Cell {
  int rep = 0;
  int vp = 0;
  std::size_t resolver = 0;
  dox::DnsProtocol protocol = dox::DnsProtocol::kDoUdp;
};

/// The runner's rep -> vp -> resolver -> protocol enumeration, from a
/// campaign-seeded prototype testbed.
template <typename Study>
std::vector<Cell> cells_of(const runner::CampaignConfig& campaign,
                           const Study& study) {
  measure::TestbedConfig config;
  config.seed = campaign.seed;
  config.population_seed = campaign.seed;
  config.population = campaign.population;
  config.loss_rate = campaign.loss_rate;
  measure::Testbed prototype(config);
  const std::vector<std::size_t> resolvers = measure::sample_resolvers(
      prototype.population().verified, study.max_resolvers);
  const int vps = static_cast<int>(prototype.vantage_points().size());
  std::vector<Cell> cells;
  for (int rep = 0; rep < study.repetitions; ++rep) {
    for (int vp = 0; vp < vps; ++vp) {
      for (std::size_t resolver : resolvers) {
        for (dox::DnsProtocol protocol : study.protocols) {
          cells.push_back(Cell{rep, vp, resolver, protocol});
        }
      }
    }
  }
  return cells;
}

/// The testbed the runner builds for cell `index` (derive_run_seed).
measure::TestbedConfig cell_testbed(const runner::CampaignConfig& campaign,
                                    std::size_t index) {
  measure::TestbedConfig config;
  config.seed = runner::derive_run_seed(campaign.seed, index);
  config.population_seed = campaign.seed;
  config.population = campaign.population;
  config.loss_rate = campaign.loss_rate;
  config.access_link = campaign.access_link;
  return config;
}

std::string protocol_key(dox::DnsProtocol protocol) {
  std::string key(dox::protocol_name(protocol));
  for (char& c : key) c = static_cast<char>(std::tolower(c));
  return key;
}

std::uint64_t digest(const std::vector<measure::SingleQueryRecord>& records) {
  Fnv fnv;
  for (const auto& r : records) {
    fnv.add(static_cast<std::uint64_t>(r.vp));
    fnv.add(static_cast<std::uint64_t>(r.resolver));
    fnv.add(static_cast<std::uint64_t>(r.protocol));
    fnv.add(static_cast<std::uint64_t>(r.rep));
    fnv.add(static_cast<std::uint64_t>(r.success));
    fnv.add(static_cast<std::uint64_t>(r.error_class));
    fnv.add(static_cast<std::uint64_t>(r.handshake_time));
    fnv.add(static_cast<std::uint64_t>(r.resolve_time));
    fnv.add(static_cast<std::uint64_t>(r.total_time));
    fnv.add(r.bytes.total_c2r);
    fnv.add(r.bytes.total_r2c);
    fnv.add(r.alpn);
    fnv.add(static_cast<std::uint64_t>(r.session_resumed));
    fnv.add(static_cast<std::uint64_t>(r.used_0rtt));
    fnv.add(static_cast<std::uint64_t>(r.udp_retransmissions));
  }
  return fnv.value();
}

std::uint64_t digest(const std::vector<measure::WebRecord>& records) {
  Fnv fnv;
  for (const auto& r : records) {
    fnv.add(static_cast<std::uint64_t>(r.vp));
    fnv.add(static_cast<std::uint64_t>(r.resolver));
    fnv.add(static_cast<std::uint64_t>(r.protocol));
    fnv.add(r.page);
    fnv.add(static_cast<std::uint64_t>(r.rep));
    fnv.add(static_cast<std::uint64_t>(r.load));
    fnv.add(static_cast<std::uint64_t>(r.success));
    fnv.add(static_cast<std::uint64_t>(r.fcp));
    fnv.add(static_cast<std::uint64_t>(r.plt));
    fnv.add(static_cast<std::uint64_t>(r.dns_queries));
    fnv.add(static_cast<std::uint64_t>(r.dns_retransmissions));
  }
  return fnv.value();
}

struct CampaignCall {
  std::vector<measure::SingleQueryRecord> single_query;
  std::vector<measure::WebRecord> web;
  double call_s = 0.0;
  double single_query_s = 0.0;
  std::uint64_t allocations = 0;
  std::uint64_t peak_bytes = 0;
  std::uint64_t single_query_peak_bytes = 0;

  std::uint64_t records() const { return single_query.size() + web.size(); }
  /// DNS queries the records measured: one per single-query record, and
  /// every lookup of every page load.
  std::uint64_t queries() const {
    std::uint64_t n = single_query.size();
    for (const auto& r : web) n += static_cast<std::uint64_t>(r.dns_queries);
    return n;
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const auto& r : single_query) n += r.success ? 0 : 1;
    for (const auto& r : web) n += r.success ? 0 : 1;
    return n;
  }
};

CampaignCall call_campaign(const CampaignSpec& spec) {
  CampaignCall call;
  heap::reset_peak();
  const std::uint64_t baseline = heap::live_bytes();
  const std::uint64_t allocations = heap::allocations();
  const auto start = Clock::now();
  call.single_query =
      runner::run_single_query_campaign(spec.campaign, spec.single_query);
  call.single_query_s = seconds_since(start);
  call.single_query_peak_bytes = heap::peak_bytes() - baseline;
  call.web = runner::run_web_campaign(spec.campaign, spec.web);
  call.call_s = seconds_since(start);
  call.allocations = heap::allocations() - allocations;
  call.peak_bytes = heap::peak_bytes() - baseline;
  return call;
}

struct Matrix {
  std::vector<Cell> single_query;
  std::vector<Cell> web;
  std::size_t web_records_per_cell = 0;
};

Matrix matrix_of(const CampaignSpec& spec) {
  Matrix m;
  m.single_query = cells_of(spec.campaign, spec.single_query);
  m.web = cells_of(spec.campaign, spec.web);
  const std::size_t pages =
      spec.web.pages.empty() ? 10 : spec.web.pages.size();
  m.web_records_per_cell =
      pages * static_cast<std::size_t>(spec.web.loads_per_combo);
  return m;
}

void check_campaign(const CampaignCall& call, const Matrix& matrix,
                    Gate& gate) {
  gate.check(call.single_query.size() == matrix.single_query.size(),
             "campaign: single-query records != matrix size " +
                 std::to_string(matrix.single_query.size()));
  gate.check(call.web.size() == matrix.web.size() * matrix.web_records_per_cell,
             "campaign: web records != matrix size");
}

/// Per-testbed build and teardown times, pooled over a run's repeats.
struct WorldSamples {
  std::vector<double> build_s;
  std::vector<double> teardown_s;
};

/// CPU time of the calling thread, in seconds. Unlike wall time it leaves
/// out time the hypervisor steals from the CPU.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Builds (and destroys) every cell's testbed of both matrices, one cell
/// per task on the runner's thread budget, appending each one's build and
/// teardown CPU time; returns the cell count. The runner builds its
/// testbeds on that budget too, and timing them on both threads samples two
/// CPUs: timed on one thread, a run stuck on a slow CPU moved the figures by
/// 20%.
std::size_t time_worlds(const CampaignSpec& spec, const Matrix& matrix,
                        WorldSamples& samples) {
  const std::size_t cells = matrix.single_query.size() + matrix.web.size();
  const std::size_t first = samples.build_s.size();
  samples.build_s.resize(first + cells);
  samples.teardown_s.resize(first + cells);
  util::ThreadPool pool(spec.campaign.jobs);
  pool.parallel_for(cells, [&](std::size_t cell) {
    // Each matrix numbers its cells from 0, as the runner does.
    const std::size_t index = cell < matrix.single_query.size()
                                  ? cell
                                  : cell - matrix.single_query.size();
    const measure::TestbedConfig config = cell_testbed(spec.campaign, index);
    const double t0 = thread_cpu_s();
    auto testbed = std::make_unique<measure::Testbed>(config);
    const double t1 = thread_cpu_s();
    testbed.reset();
    const double t2 = thread_cpu_s();
    samples.build_s[first + cell] = t1 - t0;
    samples.teardown_s[first + cell] = t2 - t1;
  });
  return cells;
}

/// The runner's per-cell loop, repeated by the benchmark with spans:
/// testbed build, study run, teardown.
template <typename Study, typename Record>
std::vector<Record> traced_cells(const CampaignSpec& spec,
                                 const std::vector<Cell>& cells,
                                 const Study& study, const char* layer,
                                 Tracer& tracer,
                                 std::vector<std::vector<double>>& study_ms,
                                 std::vector<double>& build_ms) {
  std::vector<std::vector<Record>> shards(cells.size());
  std::vector<double> cell_study_ms(cells.size(), 0.0);
  std::vector<double> cell_build_ms(cells.size(), 0.0);
  util::ThreadPool pool(spec.campaign.jobs);
  const std::string cell_span = std::string(layer) + ".cell";
  const std::string run_span = std::string(layer) + ".study";
  pool.parallel_for(cells.size(), [&](std::size_t index) {
    Tracer::Scope span(&tracer, cell_span);
    const Cell& cell = cells[index];
    std::unique_ptr<measure::Testbed> testbed;
    auto t0 = Clock::now();
    {
      Tracer::Scope build(&tracer, "testbed.build");
      testbed = std::make_unique<measure::Testbed>(
          cell_testbed(spec.campaign, index));
    }
    cell_build_ms[index] = seconds_since(t0) * 1e3;
    Study cell_study = study;
    cell_study.repetitions = 1;
    cell_study.rep_base = cell.rep;
    cell_study.only_vp = cell.vp;
    cell_study.only_resolver = static_cast<int>(cell.resolver);
    cell_study.protocols = {cell.protocol};
    cell_study.max_resolvers = 0;
    t0 = Clock::now();
    {
      Tracer::Scope run(&tracer, run_span);
      if constexpr (std::is_same_v<Study, measure::SingleQueryConfig>) {
        shards[index] = measure::SingleQueryStudy(*testbed, cell_study).run();
      } else {
        shards[index] = measure::WebStudy(*testbed, cell_study).run();
      }
    }
    cell_study_ms[index] = seconds_since(t0) * 1e3;
    Tracer::Scope teardown(&tracer, "testbed.teardown");
    testbed.reset();
  });
  for (std::size_t i = 0; i < cells.size(); ++i) {
    study_ms[static_cast<std::size_t>(cells[i].protocol)].push_back(
        cell_study_ms[i]);
    build_ms.push_back(cell_build_ms[i]);
  }
  std::vector<Record> merged;
  for (auto& shard : shards) {
    for (auto& record : shard) merged.push_back(std::move(record));
  }
  return merged;
}

void push_cell_percentiles(const char* layer,
                           const std::vector<std::vector<double>>& study_ms,
                           Metrics& out) {
  for (dox::DnsProtocol protocol : dox::kAllProtocols) {
    const auto& samples = study_ms[static_cast<std::size_t>(protocol)];
    const std::string base =
        std::string(layer) + ".cell_ms." + protocol_key(protocol);
    out.push_back({base + ".p50", percentile(samples, 50.0), "ms"});
    out.push_back({base + ".p99", percentile(samples, 99.0), "ms"});
  }
}

}  // namespace

CampaignSpec campaign_spec(std::uint64_t seed, bool smoke) {
  CampaignSpec spec;
  spec.campaign.seed = seed;
  spec.campaign.jobs = 1;
  // The population holds 48 verified resolvers (doxperf campaign's
  // default); the single-query matrix uses all of them, the web matrix 24.
  spec.campaign.population.verified_dox = smoke ? 8 : 48;
  spec.single_query.repetitions = smoke ? 1 : 4;
  spec.single_query.max_resolvers = smoke ? 2 : 48;
  spec.web.loads_per_combo = smoke ? 1 : 4;
  spec.web.repetitions = 1;
  spec.web.max_resolvers = smoke ? 1 : 24;
  if (smoke) spec.web.pages = {"google.com", "wikipedia.org"};
  return spec;
}

RunResult run_campaign(const Options& options, Gate& gate) {
  // Repeats alternate between two inputs, the campaign seeded with --seed
  // and with a seed derived from it, so the simulated-latency figures pool
  // 2 x 5,760 single-query records: one seed's p99 sits near the edge of a
  // retry cluster and moved by 15% from seed to seed. Input 0 always runs
  // twice, and every repeat must reproduce its input's first records.
  const std::array<CampaignSpec, 2> specs = {
      campaign_spec(options.seed, options.smoke),
      campaign_spec(input_seed(options.seed, 1), options.smoke)};
  require_thread_budget(specs[0].campaign.jobs + 1, gate);
  const std::array<Matrix, 2> matrices = {matrix_of(specs[0]),
                                          matrix_of(specs[1])};

  struct Digests {
    bool seen = false;
    std::uint64_t single_query = 0;
    std::uint64_t web = 0;
  };
  std::array<Digests, 2> digests;
  std::vector<double> records_per_s, queries_per_s, peak_mb;
  WorldSamples worlds;
  std::size_t cells = 0;
  std::vector<double> total_ms;
  RunResult run;
  const auto start = Clock::now();
  double last_rep_s = 0.0;
  while (run.attempted < 2 * 3 ||
         seconds_since(start) + last_rep_s <= options.seconds) {
    const auto rep_start = Clock::now();
    const std::size_t input = (run.attempted / 2) % 2;
    const CampaignSpec& spec = specs[input];
    const std::size_t first = worlds.build_s.size();
    // Testbed cost does not depend on the seed, so setup and teardown
    // always time input 0's cells.
    cells = time_worlds(specs[0], matrices[0], worlds);
    const double rep_build_s = std::accumulate(
        worlds.build_s.begin() + static_cast<std::ptrdiff_t>(first),
        worlds.build_s.end(), 0.0);
    const double rep_teardown_s = std::accumulate(
        worlds.teardown_s.begin() + static_cast<std::ptrdiff_t>(first),
        worlds.teardown_s.end(), 0.0);
    const CampaignCall call = call_campaign(spec);
    check_campaign(call, matrices[input], gate);
    Digests& expect = digests[input];
    if (!expect.seen) {
      expect = {true, digest(call.single_query), digest(call.web)};
      for (const auto& r : call.single_query) {
        if (r.success) total_ms.push_back(to_ms(r.total_time));
      }
    } else {
      gate.check(digest(call.single_query) == expect.single_query,
                 "campaign: single-query record digest differs between "
                 "repeats of a seed");
      gate.check(digest(call.web) == expect.web,
                 "campaign: web record digest differs between repeats");
    }
    records_per_s.push_back(static_cast<double>(call.records()) /
                            call.call_s);
    queries_per_s.push_back(static_cast<double>(call.queries()) /
                            call.call_s);
    peak_mb.push_back(static_cast<double>(call.peak_bytes) / 1e6);
    run.attempted += 2;
    std::printf(
        "rep %llu: calls %.3f s (single-query %.3f s, peak heap %.1f MB), "
        "%llu records (%llu failed), %.0f records/s, %.0f queries/s, "
        "testbed builds %.3f s, teardowns %.3f s, peak heap %.1f MB\n",
        static_cast<unsigned long long>(run.attempted / 2), call.call_s,
        call.single_query_s,
        static_cast<double>(call.single_query_peak_bytes) / 1e6,
        static_cast<unsigned long long>(call.records()),
        static_cast<unsigned long long>(call.failed()), records_per_s.back(),
        queries_per_s.back(), rep_build_s, rep_teardown_s,
        peak_mb.back());
    std::fflush(stdout);
    last_rep_s = seconds_since(rep_start);
  }

  // Setup is the cell count times the 25th percentile of the per-testbed
  // build times pooled over the run. Each build takes well under a
  // millisecond, so it sees the host in one state: on a shared host the
  // per-testbed times split into a fast and a slow mode about 1.4x apart,
  // and a median that falls between the two moved the run figure by 20-25%
  // from one run to the next.
  const auto n = static_cast<double>(cells);
  const double build_p25 = percentile(worlds.build_s, 25.0);
  const double teardown_p25 = percentile(worlds.teardown_s, 25.0);
  std::printf(
      "testbeds: %zu builds and teardowns over %zu cells, per testbed p25 "
      "%.1f / %.1f us, p50 %.1f / %.1f us\n",
      worlds.build_s.size(), cells, build_p25 * 1e6, teardown_p25 * 1e6,
      percentile(worlds.build_s, 50.0) * 1e6,
      percentile(worlds.teardown_s, 50.0) * 1e6);
  std::sort(total_ms.begin(), total_ms.end());
  std::printf(
      "simulated latency of %zu successful single queries: p50 %.3f ms\n",
      total_ms.size(), percentile_sorted(total_ms, 50.0));
  run.metrics = {
      {"queries_per_s", median(queries_per_s), "1/s"},
      {"records_per_s", median(records_per_s), "1/s"},
      {"setup_s", n * build_p25, "s"},
      {"peak_heap_mb", *std::max_element(peak_mb.begin(), peak_mb.end()),
       "MB"},
      {"sim_mean_ms",
       total_ms.empty() ? 0.0
                        : std::accumulate(total_ms.begin(), total_ms.end(),
                                          0.0) /
                              static_cast<double>(total_ms.size()),
       "ms"},
      {"sim_p99_ms", percentile_sorted(total_ms, 99.0), "ms"},
      {"sim_p9999_ms", percentile_sorted(total_ms, 99.99), "ms"},
  };
  return run;
}

Ledger campaign_ledger(const CampaignSpec& spec, Gate& gate, Tracer& tracer) {
  require_thread_budget(spec.campaign.jobs + 1, gate);
  Ledger ledger;
  const Matrix matrix = matrix_of(spec);

  // Untraced and traced passes in ABBA order (untraced, traced, traced,
  // untraced), so a host that speeds up or slows down during the run does
  // not bias the tracing overhead.
  std::vector<std::vector<double>> sq_ms(std::size(dox::kExtendedProtocols));
  std::vector<std::vector<double>> web_ms(std::size(dox::kExtendedProtocols));
  std::vector<double> build_ms;
  auto traced_pass = [&] {
    const auto start = Clock::now();
    std::vector<measure::SingleQueryRecord> sq;
    std::vector<measure::WebRecord> web;
    {
      Tracer::Scope span(&tracer, "campaign.traced");
      {
        Tracer::Scope calls(&tracer, "runner.single_query_campaign");
        sq = traced_cells<measure::SingleQueryConfig,
                          measure::SingleQueryRecord>(
            spec, matrix.single_query, spec.single_query, "sq", tracer, sq_ms,
            build_ms);
      }
      {
        Tracer::Scope calls(&tracer, "runner.web_campaign");
        web = traced_cells<measure::WebStudyConfig, measure::WebRecord>(
            spec, matrix.web, spec.web, "web", tracer, web_ms, build_ms);
      }
    }
    ledger.traced_s += seconds_since(start);
    return std::pair{digest(sq), digest(web)};
  };
  const CampaignCall untraced = call_campaign(spec);
  check_campaign(untraced, matrix, gate);
  const auto untraced_digests =
      std::pair{digest(untraced.single_query), digest(untraced.web)};
  gate.check(traced_pass() == untraced_digests,
             "campaign: traced cell loop differs from the runner's records");
  gate.check(traced_pass() == untraced_digests,
             "campaign: traced cell loop differs from the runner's records");
  const CampaignCall again = call_campaign(spec);
  gate.check(std::pair{digest(again.single_query), digest(again.web)} ==
                 untraced_digests,
             "campaign: record digest differs between repeats of a seed");
  ledger.untraced_s = untraced.call_s + again.call_s;
  ledger.calls = 8;

  Metrics& out = ledger.metrics;
  out.push_back({"testbed.build_ms", median(build_ms), "ms"});
  push_cell_percentiles("sq", sq_ms, out);
  push_cell_percentiles("web", web_ms, out);
  const double busy_ms =
      tracer.total_ms("sq.cell") + tracer.total_ms("web.cell");
  const int threads = spec.campaign.jobs + 1;
  out.push_back({"runner.parallel_efficiency",
                 busy_ms / (threads * ledger.traced_s * 1e3), "ratio"});
  out.push_back({"campaign.allocs_per_record",
                 static_cast<double>(untraced.allocations) /
                     static_cast<double>(
                         std::max<std::uint64_t>(1, untraced.records())),
                 "count"});
  out.push_back({"failed_ratio",
                 static_cast<double>(untraced.failed()) /
                     static_cast<double>(
                         std::max<std::uint64_t>(1, untraced.records())),
                 "ratio"});
  return ledger;
}

}  // namespace perfbench
