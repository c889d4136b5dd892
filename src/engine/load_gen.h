// Multi-client stub load generator for the forwarder engine.
//
// Simulates thousands of stub clients on one host: query arrivals form a
// Poisson process at an aggregate rate, each arrival is issued by a
// uniformly-chosen client against a Zipf-distributed name population (web
// DNS traffic is heavily skewed towards a few hot names — the property that
// makes coalescing and caching pay). Every query's client-visible latency
// is recorded, along with SERVFAIL and timeout counts, so a run reports
// sustained qps and p50/p95/p99 through src/stats.
//
// On top of the legitimate load, the generator can run *attack mixes* — the
// abuse-traffic families a production forwarder's policy pipeline exists to
// shed: random-subdomain cache-busting floods, NXDOMAIN water torture, and
// spoofed-source amplification (TXT queries stamped with victim addresses
// via UdpSocket::send_to_from). Each attack draws from its own
// splitmix64-derived Rng stream, so enabling an attack never perturbs the
// legitimate arrival schedule — the no-attack and under-attack runs stay
// sample-for-sample comparable.
//
// Deterministic: all randomness comes from the seeded Rng, and arrivals are
// pre-scheduled on the simulator.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/udp.h"
#include "sim/simulator.h"
#include "stats/stats.h"
#include "util/rng.h"

namespace doxlab::engine {

/// Abuse-traffic families (the scenario knob behind `doxperf abuse`).
enum class AttackKind : std::uint8_t {
  /// Cache-busting flood: a fresh random label under `zone` per query, so
  /// every query misses the cache and reaches the upstream path.
  kRandomSubdomain,
  /// Water torture: random labels under rotating subzones of `zone` — the
  /// classic NXDOMAIN flood shape against one victim domain.
  kWaterTorture,
  /// Reflection/amplification: small TXT queries whose spoofed sources are
  /// the victim's addresses, so answers (the amplified payload) backscatter
  /// towards the victim instead of the bot.
  kAmplification,
};

std::string_view attack_kind_name(AttackKind kind);

struct AttackConfig {
  AttackKind kind = AttackKind::kRandomSubdomain;
  /// Poisson arrival rate of attack queries.
  double qps = 1000.0;
  /// Attack window, offset from generator construction.
  SimTime start = 0;
  SimTime duration = 10 * kSecond;
  /// Zone the attack queries live under (one policy suffix rule covers the
  /// whole family).
  std::string zone = "flood.example";
  /// Spoofed sources: base + [0, source_count). For floods this is the
  /// botnet's subnet; for amplification it is the victim's prefix.
  net::IpAddress source_base;
  std::uint32_t source_count = 256;
  /// kAmplification: requested TXT payload bytes (the resolver sizes the
  /// answer from a leading "txt<bytes>" label).
  std::size_t amp_payload = 1200;
};

/// What came back to the attack socket. With spoofed sources outside the
/// generator host's prefix these counters stay at `sent` only — the
/// backscatter lands on (or is dropped towards) the victim.
struct AttackReport {
  AttackKind kind = AttackKind::kRandomSubdomain;
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;   ///< non-error responses
  std::uint64_t refused = 0;    ///< REFUSED (the policy shed)
  std::uint64_t truncated = 0;  ///< TC=1 (policy slow-pathed the abuser)
};

/// Terminal fate of one legitimate query (churn time-series hook).
enum class QueryOutcome : std::uint8_t { kAnswered, kServfail, kTimeout };

struct LoadConfig {
  /// Simulated stub clients (each gets its own ephemeral socket).
  std::size_t clients = 1000;
  /// Aggregate Poisson arrival rate, queries per second.
  double qps = 2000.0;
  /// Arrival window; queries issued in [start, start + duration).
  SimTime duration = 30 * kSecond;
  /// Distinct query names ("nameN.load.example").
  std::size_t names = 500;
  /// Zipf popularity exponent (1.0 ~ web-like skew).
  double zipf_exponent = 1.0;
  /// A client gives up on an unanswered query after this long.
  SimTime client_timeout = 8 * kSecond;
  std::uint64_t seed = 7;
  /// Where queries go (the engine's stub endpoint).
  net::Endpoint target;
  /// Per-client source addressing: with `client_span` > 0, client i sends
  /// from `client_base + splitmix64(seed, i) % client_span` — assignment is
  /// deterministic and independent of the arrival stream. The network needs
  /// a prefix route for that subnet pointing at the generator's host so
  /// answers find their way back. 0 keeps the host's own address (the
  /// pre-policy behaviour).
  net::IpAddress client_base;
  std::uint32_t client_span = 0;
  /// Abuse mixes layered on top of the legitimate load.
  std::vector<AttackConfig> attacks;
  /// Called once per legitimate query at its terminal outcome, keyed by the
  /// *send* time so bucketed series line up with the event that was live
  /// when the query went out. `latency_ms` is meaningful for kAnswered
  /// only. Null (the default) changes nothing.
  std::function<void(SimTime sent_at, QueryOutcome outcome,
                     double latency_ms)>
      sample_hook;
};

struct LoadReport {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;   ///< non-SERVFAIL responses
  std::uint64_t servfails = 0;  ///< client-visible SERVFAILs
  std::uint64_t timeouts = 0;   ///< gave up waiting
  /// Arrivals dropped before sending (the sharded swarm's 16-bit
  /// transaction-id space was exhausted); sent + shed == arrivals offered.
  std::uint64_t shed = 0;
  std::vector<double> latency_ms;  ///< answered queries only

  /// Every *sent* query reached a terminal outcome (shed never went out).
  bool complete() const { return answered + servfails + timeouts == sent; }
  stats::Summary latency_summary() const {
    return stats::Summary::of(latency_ms);
  }
};

/// Throws std::invalid_argument unless a load has at least one client and
/// one name: every arrival draws one of each. Shared by LoadGenerator and
/// the sharded engine's arrival schedule.
void check_load_shape(std::size_t clients, std::size_t names);

class LoadGenerator {
 public:
  /// Creates the client sockets and pre-schedules every arrival on `sim`.
  /// Run the simulator afterwards; the report is complete once every query
  /// was answered or timed out (config.duration + client_timeout suffices).
  LoadGenerator(sim::Simulator& sim, net::UdpStack& udp, LoadConfig config);

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  const LoadReport& report() const { return report_; }
  const LoadConfig& config() const { return config_; }
  /// Per-attack counters, in `config.attacks` order.
  std::vector<AttackReport> attack_reports() const;
  /// All attacks summed (kind is the first attack's, meaningless mixed).
  AttackReport attack_total() const;
  /// The source address client `index` sends from.
  net::IpAddress client_source(std::size_t index) const {
    return clients_[index]->source;
  }

 private:
  struct PendingQuery {
    SimTime sent_at = 0;
    sim::Timer timeout;
  };
  struct Client {
    std::unique_ptr<net::UdpSocket> socket;
    net::IpAddress source;  ///< assigned source (unset: host address)
    std::uint16_t next_id = 1;
    std::unordered_map<std::uint16_t, PendingQuery> pending;
  };
  struct AttackState {
    AttackConfig config;
    Rng rng;  ///< private stream: splitmix64(seed, 2^32 + attack index)
    std::unique_ptr<net::UdpSocket> socket;
    AttackReport report;
  };

  void send_query(std::size_t client_index);
  void send_attack(std::size_t attack_index);
  /// Samples a name index from the Zipf popularity distribution.
  std::size_t sample_name();

  sim::Simulator& sim_;
  LoadConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::unique_ptr<AttackState>> attacks_;
  /// Cumulative Zipf weights for binary-search sampling.
  std::vector<double> name_cdf_;
  std::vector<sim::Timer> arrivals_;
  LoadReport report_;
};

}  // namespace doxlab::engine
