#include "trace.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

namespace {

// The innermost open span of each thread, per tracer. One tracer is alive
// at a time in this program, so a single thread-local slot suffices.
thread_local std::int64_t t_current = -1;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::uint32_t Tracer::thread_number() {
  const std::uint64_t id =
      std::hash<std::thread::id>()(std::this_thread::get_id());
  auto [it, inserted] =
      threads_.try_emplace(id, static_cast<std::uint32_t>(threads_.size()));
  return it->second;
}

Tracer::Scope::Scope(Tracer* tracer, std::string name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = std::move(name);
  span.parent = t_current;
  span.start_ns = tracer_->now_ns();
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  span.thread = tracer_->thread_number();
  index_ = static_cast<std::int64_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  saved_parent_ = t_current;
  t_current = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const std::int64_t end = tracer_->now_ns();
  t_current = saved_parent_;
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ns = end;
}

std::map<std::string, Tracer::SelfTime> Tracer::self_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double ms =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    SelfTime& entry = out[spans_[i].name];
    ++entry.count;
    entry.total_ms += ms;
    entry.self_ms += ms - child_ms[i];
  }
  return out;
}

double Tracer::total_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) {
      total += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    }
  }
  return total;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::write_json(const std::string& path, const std::string& workload,
                        std::uint64_t seed, const Metrics& metrics,
                        const std::vector<std::string>& notes) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  if (!out) return false;
  const HostSample host = sample_host();
  out << "{\"workload\":" << json_string(workload) << ",\"seed\":" << seed
      << ",\"host\":{\"nproc\":" << host.nproc
      << ",\"loadavg\":" << json_string(host.loadavg)
      << ",\"steal_ticks\":" << host.steal_ticks << "}";
  out << ",\"notes\":[";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    out << (i ? "," : "") << json_string(notes[i]);
  }
  out << "],\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? "," : "") << json_string(metrics[i].name)
        << ":{\"value\":" << json_number(metrics[i].value)
        << ",\"unit\":" << json_string(metrics[i].unit) << "}";
  }
  out << "},\"self_ms\":{";
  bool first = true;
  for (const auto& [name, self] : self_times()) {
    out << (first ? "" : ",") << json_string(name)
        << ":{\"count\":" << self.count
        << ",\"total_ms\":" << json_number(self.total_ms)
        << ",\"self_ms\":" << json_number(self.self_ms) << "}";
    first = false;
  }
  out << "},\"spans\":[";
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << i
        << ",\"name\":" << json_string(s.name) << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"thread\":" << s.thread << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
