#include "bench.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(sorted.size())));
  return sorted[index - 1];
}

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, p);
}

HostSample sample_host() {
  HostSample host;
  host.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::ifstream loadavg("/proc/loadavg");
  std::getline(loadavg, host.loadavg);
  std::ifstream stat("/proc/stat");
  std::string line;
  if (std::getline(stat, line)) {
    // cpu user nice system idle iowait irq softirq steal ...
    std::istringstream fields(line);
    std::string label;
    std::uint64_t value = 0;
    fields >> label;
    for (int i = 0; i < 8 && fields >> value; ++i) {
      if (i == 7) host.steal_ticks = value;
    }
  }
  return host;
}

void require_thread_budget(int threads, Gate& gate) {
  const unsigned nproc = sample_host().nproc;
  gate.check(threads >= 1 && static_cast<unsigned>(threads) <= nproc,
             "thread budget: " + std::to_string(threads) +
                 " running threads exceed nproc " + std::to_string(nproc));
}

}  // namespace perfbench
