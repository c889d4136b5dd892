// In-memory span recorder for the traced run. Spans are recorded only in
// the benchmark's own code, around its calls into the program's layers;
// they are kept in memory and written out once, at the end of the run,
// together with each span name's self time (its duration minus the part of
// it that child spans on the same thread cover).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;  ///< since the tracer was created
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;   ///< index of the enclosing span, -1 for none
    std::uint32_t thread = 0;   ///< small per-tracer thread number
  };

  /// Opens a span on construction and closes it on destruction. A null
  /// tracer makes it a no-op, so traced and untraced code paths are one.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int64_t index_ = -1;
    std::int64_t saved_parent_ = -1;
  };

  struct SelfTime {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  Tracer();

  /// Per-name totals and self times over every recorded span.
  std::map<std::string, SelfTime> self_times() const;
  /// Sum of the durations of every span called `name`, in milliseconds.
  double total_ms(const std::string& name) const;
  std::size_t size() const;

  /// Writes spans, self times, metrics and host facts as one JSON document.
  bool write_json(const std::string& path, const std::string& workload,
                  std::uint64_t seed, const Metrics& metrics,
                  const std::vector<std::string>& notes) const;

 private:
  std::int64_t now_ns() const;
  std::uint32_t thread_number();

  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::map<std::uint64_t, std::uint32_t> threads_;  // guarded by mu_
};

}  // namespace perfbench
