#include "util/rng.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace doxlab {

Rng Rng::fork() { return Rng(fork_seed()); }

std::uint64_t Rng::fork_seed() {
  // Mix two draws so that sibling forks differ even for adjacent seeds.
  std::uint64_t a = engine_();
  std::uint64_t b = engine_();
  return a ^ (b << 1) ^ 0x9E3779B97F4A7C15ull;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double Rng::uniform_real(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

bool Rng::chance(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return std::bernoulli_distribution(p)(engine_);
}

double Rng::normal(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

double Rng::lognormal(double mu, double sigma) {
  return std::lognormal_distribution<double>(mu, sigma)(engine_);
}

double Rng::exponential(double mean) {
  assert(mean > 0);
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  assert(!weights.empty());
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  assert(total > 0);
  double x = uniform_real(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0) return i;
  }
  return weights.size() - 1;
}

}  // namespace doxlab
