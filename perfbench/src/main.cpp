// perfbench: the repository's benchmark binary.
//
//   perfbench --workload <engine_hot|engine_longtail|paper_campaign>
//             --seed <n> --seconds <s> --trace <0|1> [--smoke]
//             [--out-dir <dir>]
//
// Untraced (--trace 0): repeats the workload for --seconds and reports the
// end-to-end metrics (medians over the repeats). Traced (--trace 1): one
// untraced and one traced pass plus layer replays, reporting the per-layer
// metrics and writing the spans as JSON under --out-dir. Either way the
// correctness gate runs, and a failed check exits 1 without a result line.
// The last line of standard output is the JSON result.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>

#include "bench.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<engine_hot|engine_longtail|paper_campaign> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]\n",
               message);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = std::stoi(value()) != 0;
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--out-dir") {
        options.out_dir = value();
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  static const std::set<std::string> kWorkloads = {
      "engine_hot", "engine_longtail", "paper_campaign"};
  if (kWorkloads.count(options.workload) == 0) usage("unknown workload");
  return options;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_host(const char* when) {
  const HostSample host = sample_host();
  std::printf("host %s: nproc %u, loadavg %s, steal ticks %llu\n", when,
              host.nproc, host.loadavg.c_str(),
              static_cast<unsigned long long>(host.steal_ticks));
}

/// The traced run: the workload's own ledger, then a small fixed slice of
/// the other layer family so every per-layer metric is measured on every
/// workload (the slice's figures are named as such in the trace file).
RunResult run_traced(const Options& options, Gate& gate,
                     std::vector<std::string>& notes, Tracer& tracer) {
  const bool engine_workload = options.workload != "paper_campaign";
  Ledger main;
  Ledger slice;
  if (engine_workload) {
    main = engine_ledger(engine_config(options.workload,
                                       input_seed(options.seed, 0),
                                       options.smoke),
                         gate, tracer);
    Tracer::Scope span(&tracer, "slice.campaign");
    slice = campaign_ledger(campaign_spec(options.seed, /*smoke=*/true), gate,
                            tracer);
    notes.push_back(
        "testbed/sq/web/runner/campaign metrics come from the smoke-sized "
        "campaign slice");
  } else {
    main = campaign_ledger(campaign_spec(options.seed, options.smoke), gate,
                           tracer);
    Tracer::Scope span(&tracer, "slice.engine");
    slice = engine_ledger(engine_config("engine_hot",
                                        input_seed(options.seed, 0),
                                        /*smoke=*/true),
                          gate, tracer);
    notes.push_back(
        "sharded/sim/dns/wire/l1/l2/engine/upstream metrics come from the "
        "smoke-sized engine_hot slice");
  }
  RunResult run;
  run.attempted = main.calls + slice.calls;
  run.metrics = main.metrics;
  std::set<std::string> seen;
  for (const Metric& m : run.metrics) seen.insert(m.name);
  for (const Metric& m : slice.metrics) {
    if (seen.insert(m.name).second) run.metrics.push_back(m);
  }
  const double overhead = main.traced_s / main.untraced_s - 1.0;
  run.metrics.push_back({"trace.overhead_ratio", overhead, "ratio"});
  std::printf(
      "tracing overhead (%s): traced %.3f s vs untraced %.3f s = %+.2f%%, "
      "%zu spans\n",
      options.workload.c_str(), main.traced_s, main.untraced_s,
      100.0 * overhead, tracer.size());
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  // Keep freed memory in the process: every repeat after the first reuses
  // pages already mapped instead of faulting in (and the kernel zeroing)
  // hundreds of MB again, which is slow and varies with the host's memory
  // pressure. Allocation calls themselves are unchanged and still timed.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, -1);
  std::printf("perfbench %s seed %llu seconds %g trace %d%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.smoke ? " (smoke)" : "");
  print_host("before");

  Gate gate;
  RunResult run;
  std::vector<std::string> notes;
  try {
    if (options.trace) {
      Tracer tracer;
      run = run_traced(options, gate, notes, tracer);
      const std::string path = options.out_dir + "/trace_" +
                               options.workload + "_seed" +
                               std::to_string(options.seed) + ".json";
      gate.check(tracer.write_json(path, options.workload, options.seed,
                                   run.metrics, notes),
                 "could not write " + path);
      std::printf("trace written to %s\n", path.c_str());
      for (const auto& [name, self] : tracer.self_times()) {
        std::printf(
            "  span %-32s count %6llu  total %10.2f ms  self %10.2f ms\n",
            name.c_str(), static_cast<unsigned long long>(self.count),
            self.total_ms, self.self_ms);
      }
    } else if (options.workload == "paper_campaign") {
      run = run_campaign(options, gate);
    } else {
      run = run_engine(options, gate);
    }
  } catch (const std::exception& e) {
    gate.check(false, std::string("exception: ") + e.what());
  }
  print_host("after");
  for (const Metric& m : run.metrics) {
    gate.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }

  if (!gate.ok()) {
    for (const std::string& failure : gate.failures()) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", failure.c_str());
    }
    return 1;
  }
  for (const Metric& m : run.metrics) {
    std::printf("%-36s %20s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(run.attempted) +
                     ", \"failed\": 0, \"metrics\": {";
  for (std::size_t i = 0; i < run.metrics.size(); ++i) {
    const Metric& m = run.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
