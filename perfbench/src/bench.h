// Shared vocabulary of the benchmark binary: options, metric lists, the
// correctness gate, timing and order statistics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs: the whole benchmark, gate included, in a few seconds.
  bool smoke = false;
  /// Directory (inside the checkout) that receives the trace JSON.
  std::string out_dir = ".bench_build/perfbench-out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// The correctness gate: every failed check is kept, and any failure makes
/// the run exit non-zero without a result line.
class Gate {
 public:
  void check(bool ok, const std::string& what) {
    if (!ok && std::find(failures_.begin(), failures_.end(), what) ==
                   failures_.end()) {
      failures_.push_back(what);
    }
  }
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// What one workload run hands back to main().
struct RunResult {
  std::uint64_t attempted = 0;  ///< measured calls into the program
  Metrics metrics;
};

double median(std::vector<double> values);
/// Nearest-rank percentile (p in [0, 100]) of unsorted samples.
double percentile(std::vector<double> values, double p);
/// Nearest-rank percentile of already sorted samples.
double percentile_sorted(const std::vector<double>& sorted, double p);

/// FNV-1a fold over record fields, for the record digests the gate compares.
class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  void add(const std::string& s) {
    add(s.size());
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001B3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Host facts recorded with every run so a noisy run can be spotted.
struct HostSample {
  unsigned nproc = 0;
  std::string loadavg;
  std::uint64_t steal_ticks = 0;
};
HostSample sample_host();

/// Asserts the thread budget: `threads` running at once must fit the host.
void require_thread_budget(int threads, Gate& gate);

}  // namespace perfbench
