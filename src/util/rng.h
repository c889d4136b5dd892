// Deterministic random number generation for the simulation.
//
// Every source of randomness in doxlab (latency jitter, packet loss, feature
// assignment across the resolver population, workload schedules) draws from
// an `Rng` that is ultimately seeded from the study seed, which makes every
// experiment reproducible bit-for-bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace doxlab {

/// SplitMix64 finalizer (Steele et al., "Fast splittable PRNGs"): `seed`
/// selects the stream, the (1-based) `index` walks it. Well-spread and
/// collision-free in practice, so independent per-entity seeds (campaign
/// cells, load-generator client addresses, attack bots) can all be derived
/// from one study seed without coordination.
constexpr std::uint64_t splitmix64(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Seedable RNG with the distribution helpers the simulation needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Derives an independent child generator; used to give each subsystem its
  /// own stream so adding draws in one place does not perturb another.
  /// Equivalent to `Rng(fork_seed())`.
  Rng fork();

  /// The seed `fork()` would give its child, advancing this stream exactly
  /// as `fork()` does. Lets a caller keep a child stream as 8 bytes and
  /// pay for seeding the engine only if the stream is ever drawn from.
  std::uint64_t fork_seed();

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Bernoulli trial with probability `p` of returning true.
  bool chance(double p);

  /// Normal distribution (mean, stddev).
  double normal(double mean, double stddev);

  /// Log-normal distribution parameterized by the *underlying* normal.
  double lognormal(double mu, double sigma);

  /// Exponential distribution with the given mean.
  double exponential(double mean);

  /// Picks an index in [0, weights.size()) proportionally to `weights`.
  /// Precondition: weights is non-empty and sums to a positive value.
  std::size_t weighted_index(std::span<const double> weights);

  /// Shuffles a vector in place.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace doxlab
