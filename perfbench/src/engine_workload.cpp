// engine_hot and engine_longtail: the sharded forwarder engine driven
// through engine::run_sharded, plus the engine-side layer replays of the
// traced run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>

#include "dns/cache.h"
#include "dns/message.h"
#include "dns/packet_cache.h"
#include "dns/wire_cache.h"
#include "dox/transport.h"
#include "engine/sharded.h"
#include "heap.h"
#include "net/network.h"
#include "resolver/resolver.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace doxlab;
using engine::Arrival;
using engine::ShardedConfig;
using engine::ShardedResult;

/// Replays time at most this many operations of the workload's own
/// arrival sequence.
constexpr std::size_t kReplayOps = 200'000;
/// DoQ/DoT replays: "fresh" is the first kFreshQueries queries on one
/// connection; "deep" the kDeepQueries after kDeepStart, which is about the
/// per-shard upstream resolve count of engine_longtail (15.9k resolves over
/// 4 shards).
constexpr std::size_t kFreshQueries = 1000;
constexpr std::size_t kDeepStart = 4000;
constexpr std::size_t kDeepQueries = 500;

/// Distinct inputs an untraced engine run cycles through.
constexpr std::size_t kEngineSeeds = 8;

volatile std::uint64_t g_sink = 0;



double ms_of(double seconds) { return seconds * 1e3; }

/// The global arrival schedule, generated the way run_sharded generates
/// its own (Poisson arrivals, uniform clients, Zipf names), so the worlds
/// the benchmark builds for setup_s carry the same load as the measured
/// call.
std::vector<Arrival> make_schedule(const ShardedConfig& config) {
  Rng rng(config.seed);
  std::vector<double> name_cdf;
  name_cdf.reserve(config.names);
  double total = 0.0;
  for (std::size_t rank = 1; rank <= config.names; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank), config.zipf_exponent);
    name_cdf.push_back(total);
  }
  std::vector<Arrival> schedule;
  schedule.reserve(static_cast<std::size_t>(
      config.qps * (static_cast<double>(config.duration) / kSecond) * 1.1));
  const double mean_gap_us =
      static_cast<double>(kSecond) / std::max(config.qps, 1e-9);
  SimTime at = 0;
  while (true) {
    at += std::max<SimTime>(
        1, static_cast<SimTime>(rng.exponential(mean_gap_us)));
    if (at >= config.duration) break;
    Arrival arrival;
    arrival.at = at;
    arrival.client = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(config.clients) - 1));
    const double u = rng.uniform_real(0.0, name_cdf.back());
    const auto it = std::upper_bound(name_cdf.begin(), name_cdf.end(), u);
    arrival.name = static_cast<std::uint32_t>(
        std::min<std::size_t>(it - name_cdf.begin(), config.names - 1));
    schedule.push_back(arrival);
  }
  return schedule;
}

std::uint32_t shard_count(const ShardedConfig& config) {
  return std::max<std::uint32_t>(1, config.shards);
}

std::vector<std::vector<Arrival>> slice(const ShardedConfig& config,
                                        const std::vector<Arrival>& schedule) {
  std::vector<std::vector<Arrival>> slices(shard_count(config));
  for (const Arrival& arrival : schedule) {
    slices[engine::shard_of(config,
                            engine::client_source(config, arrival.client))]
        .push_back(arrival);
  }
  return slices;
}

/// Builds the shared L2 and every shard world through their public
/// constructors (what run_sharded does before its epoch loop), then tears
/// them down; returns the construction time in seconds. Only construction
/// is setup; schedule generation is input.
double build_worlds(const ShardedConfig& config,
                    const std::vector<std::vector<Arrival>>& slices,
                    Tracer* tracer) {
  std::unique_ptr<dns::SharedPacketCache> l2;
  std::vector<std::unique_ptr<engine::EngineShard>> shards;
  const auto start = Clock::now();
  {
    Tracer::Scope span(tracer, "sharded.build");
    l2 = std::make_unique<dns::SharedPacketCache>(config.l2_capacity,
                                                  shard_count(config));
    if (config.engine.l2_serve_stale && config.engine.serve_stale) {
      l2->set_stale_retention(config.engine.max_stale);
    }
    for (std::uint32_t i = 0; i < shard_count(config); ++i) {
      shards.push_back(std::make_unique<engine::EngineShard>(
          config, i, slices[i], config.l2_capacity > 0 ? l2.get() : nullptr));
    }
  }
  const double build_s = seconds_since(start);
  Tracer::Scope span(tracer, "sharded.teardown");
  shards.clear();
  l2.reset();
  return build_s;
}

struct EngineCall {
  ShardedResult result;
  double call_s = 0.0;
  std::uint64_t allocations = 0;
  std::uint64_t peak_bytes = 0;
};

EngineCall call_engine(const ShardedConfig& config, Tracer* tracer) {
  EngineCall call;
  heap::reset_peak();
  const std::uint64_t baseline = heap::live_bytes();
  const std::uint64_t allocations = heap::allocations();
  const auto start = Clock::now();
  {
    Tracer::Scope span(tracer, "engine.run_sharded");
    call.result = engine::run_sharded(config);
  }
  call.call_s = seconds_since(start);
  call.allocations = heap::allocations() - allocations;
  call.peak_bytes = heap::peak_bytes() - baseline;
  return call;
}

std::uint64_t finished(const ShardedResult& r) {
  return r.load.answered + r.load.servfails + r.load.timeouts + r.load.shed;
}

/// The engine's accounting identities. A shed arrival never leaves the
/// client, so it is counted against arrivals rather than sent queries.
void check_engine(const ShardedResult& r, std::size_t schedule_size,
                  Gate& gate) {
  const engine::LoadReport& load = r.load;
  gate.check(load.answered + load.servfails + load.timeouts == load.sent,
             "engine: sent != answered + servfail + timeout");
  gate.check(load.sent + load.shed == r.total_arrivals,
             "engine: arrivals != sent + shed");
  gate.check(load.sent == r.engine.queries,
             "engine: sent != EngineStats.queries");
  gate.check(r.total_arrivals == schedule_size,
             "engine: arrivals differ from the benchmark's own schedule");
  gate.check(load.latency_ms.size() == load.answered,
             "engine: latency samples != answered");
  gate.check(r.total_arrivals > 0, "engine: empty schedule");
}

std::vector<dns::DnsName> make_names(std::size_t count) {
  std::vector<dns::DnsName> names;
  names.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    names.push_back(
        dns::DnsName::parse("name" + std::to_string(i) + ".load.example"));
  }
  return names;
}

std::vector<dns::ResourceRecord> answer_for(const dns::DnsName& name,
                                            std::uint32_t index) {
  return {dns::make_a(name, 300, 0x0A640000u + index)};
}

std::vector<std::uint8_t> response_wire(const dns::DnsName& name,
                                        std::uint32_t index,
                                        std::uint16_t id) {
  dns::Message response =
      dns::make_response(dns::make_query(id, name, dns::RRType::kA));
  response.answers = answer_for(name, index);
  return response.encode();
}

/// steady_clock read cost, subtracted from per-operation timings.
double clock_overhead_ns() {
  constexpr int kReads = 100'000;
  const auto start = Clock::now();
  Clock::time_point last{};
  for (int i = 0; i < kReads; ++i) last = Clock::now();
  g_sink = g_sink + static_cast<std::uint64_t>(last.time_since_epoch().count());
  return seconds_since(start) * 1e9 / kReads;
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Swarm-client codec: the query build + encode + copy into a datagram
/// buffer that EngineShard::send_query does, and the full Message::decode
/// that EngineShard::on_response does.
void replay_codec(const std::vector<dns::DnsName>& names,
                  const std::vector<Arrival>& seq, Metrics& out) {
  std::uint16_t id = 1;
  std::uint64_t allocations = heap::allocations();
  auto start = Clock::now();
  for (const Arrival& arrival : seq) {
    const dns::Message query =
        dns::make_query(id++, names[arrival.name], dns::RRType::kA);
    const util::Buffer datagram = util::Buffer::copy_of(query.encode());
    g_sink = g_sink + datagram.size();
  }
  const double n = static_cast<double>(seq.size());
  out.push_back({"dns.query_encode_ns", seconds_since(start) * 1e9 / n, "ns"});
  out.push_back({"dns.query_encode_allocs",
                 static_cast<double>(heap::allocations() - allocations) / n,
                 "count"});

  std::vector<std::vector<std::uint8_t>> wires(names.size());
  for (const Arrival& arrival : seq) {
    if (wires[arrival.name].empty()) {
      wires[arrival.name] =
          response_wire(names[arrival.name], arrival.name, 7);
    }
  }
  allocations = heap::allocations();
  start = Clock::now();
  for (const Arrival& arrival : seq) {
    const auto response = dns::Message::decode(wires[arrival.name]);
    g_sink = g_sink + (response ? response->id : 0);
  }
  out.push_back(
      {"dns.response_decode_ns", seconds_since(start) * 1e9 / n, "ns"});
  out.push_back({"dns.response_decode_allocs",
                 static_cast<double>(heap::allocations() - allocations) / n,
                 "count"});
}

/// Raw-wire cache hit path (probe + materialize) on the workload's own
/// query images, with the cache filled in first-appearance order up to its
/// capacity (the engine's own capacity, or the engine_hot 4096 when the
/// workload runs with the wire cache off).
void replay_wire(const ShardedConfig& config,
                 const std::vector<dns::DnsName>& names,
                 const std::vector<Arrival>& seq, Gate& gate, Metrics& out) {
  dns::WireCacheConfig wire_config;
  wire_config.capacity = config.engine.wire_cache_capacity > 0
                             ? config.engine.wire_cache_capacity
                             : 4096;
  dns::WireCache cache(wire_config);
  // Query images of the names that made it into the cache; empty for the
  // rest (first seen after the cache filled).
  std::vector<std::vector<std::uint8_t>> images(names.size());
  std::vector<bool> seen(names.size(), false);
  for (const Arrival& arrival : seq) {
    if (seen[arrival.name]) continue;
    seen[arrival.name] = true;
    auto image =
        dns::make_query(0, names[arrival.name], dns::RRType::kA).encode();
    if (cache.insert(image,
                     response_wire(names[arrival.name], arrival.name, 0), 0)) {
      images[arrival.name] = std::move(image);
    }
  }
  std::uint64_t probes = 0;
  std::uint64_t hits = 0;
  std::uint16_t id = 1;
  const std::uint64_t allocations = heap::allocations();
  const auto start = Clock::now();
  for (const Arrival& arrival : seq) {
    std::vector<std::uint8_t>& image = images[arrival.name];
    if (image.empty()) continue;
    image[0] = static_cast<std::uint8_t>(id >> 8);
    image[1] = static_cast<std::uint8_t>(id & 0xFF);
    ++id;
    ++probes;
    dns::WireCache::Hit hit;
    if (cache.probe(image, kSecond, hit)) {
      ++hits;
      const util::Buffer answer = cache.materialize(hit, image);
      g_sink = g_sink + answer.size();
    }
  }
  const double elapsed_ns = seconds_since(start) * 1e9;
  gate.check(hits > 0 && hits == probes,
             "wire replay: a probe of a cached query image missed");
  const double n = static_cast<double>(std::max<std::uint64_t>(1, hits));
  out.push_back({"wire.probe_hit_ns", elapsed_ns / n, "ns"});
  out.push_back({"wire.probe_allocs",
                 static_cast<double>(heap::allocations() - allocations) / n,
                 "count"});
}

/// L1 (dns::Cache) at the engine's capacity: every arrival looks up, a miss
/// inserts. Each operation is timed on its own.
void replay_l1(const ShardedConfig& config,
               const std::vector<dns::DnsName>& names,
               const std::vector<Arrival>& seq, double clock_ns,
               Metrics& out) {
  dns::Cache cache;
  cache.set_capacity(config.engine.cache_capacity);
  double lookup_ns = 0.0;
  double insert_ns = 0.0;
  std::uint64_t inserts = 0;
  for (const Arrival& arrival : seq) {
    const dns::DnsName& name = names[arrival.name];
    auto t0 = Clock::now();
    const bool hit =
        cache.lookup_ref(name, dns::RRType::kA, arrival.at).has_value();
    auto t1 = Clock::now();
    lookup_ns += ns_between(t0, t1);
    if (!hit) {
      const auto records = answer_for(name, arrival.name);
      t0 = Clock::now();
      cache.insert(name, dns::RRType::kA, records, arrival.at);
      t1 = Clock::now();
      insert_ns += ns_between(t0, t1);
      ++inserts;
    }
  }
  out.push_back({"l1.lookup_ns",
                 std::max(0.0, lookup_ns / static_cast<double>(seq.size()) -
                                   clock_ns),
                 "ns"});
  out.push_back(
      {"l1.insert_ns",
       std::max(0.0, insert_ns / static_cast<double>(
                                     std::max<std::uint64_t>(1, inserts)) -
                         clock_ns),
       "ns"});
}

/// Shared L2: every arrival looks up from its shard, a miss parks a
/// deferred insert, and the epoch-boundary sweep merges them.
void replay_l2(const ShardedConfig& config,
               const std::vector<dns::DnsName>& names,
               const std::vector<Arrival>& seq, double clock_ns,
               Metrics& out) {
  dns::SharedPacketCache l2(config.l2_capacity > 0 ? config.l2_capacity
                                                   : std::size_t{1} << 16,
                            shard_count(config));
  const SimTime epoch = std::max<SimTime>(1, config.epoch);
  SimTime next_sweep = epoch;
  double lookup_ns = 0.0;
  double sweep_ns = 0.0;
  for (const Arrival& arrival : seq) {
    while (arrival.at >= next_sweep) {
      const auto t0 = Clock::now();
      l2.sweep(next_sweep);
      sweep_ns += ns_between(t0, Clock::now());
      next_sweep += epoch;
    }
    const std::uint32_t shard = engine::shard_of(
        config, engine::client_source(config, arrival.client));
    const dns::DnsName& name = names[arrival.name];
    dns::PacketCacheHit hit;
    const auto t0 = Clock::now();
    const bool found = l2.lookup(shard, name, dns::RRType::kA, arrival.at, hit);
    lookup_ns += ns_between(t0, Clock::now());
    if (!found) {
      l2.insert(shard, name, dns::RRType::kA, answer_for(name, arrival.name),
                arrival.at);
    }
  }
  const auto t0 = Clock::now();
  l2.sweep(next_sweep);
  sweep_ns += ns_between(t0, Clock::now());
  const auto applied = std::max<std::uint64_t>(1, l2.stats().applied_inserts);
  out.push_back({"l2.lookup_ns",
                 std::max(0.0, lookup_ns / static_cast<double>(seq.size()) -
                                   clock_ns),
                 "ns"});
  out.push_back({"l2.sweep_ns_per_insert",
                 sweep_ns / static_cast<double>(applied), "ns"});
}

/// One client arrival plus arming and cancelling its timeout timer, at the
/// workload's in-flight depth: arrivals are pre-scheduled (as the shard
/// pre-schedules its slice) and each cancels the timer armed `depth`
/// arrivals earlier, i.e. one in-flight query's lifetime ago.
double replay_timer_cycle(const ShardedConfig& config, std::size_t depth,
                          std::size_t ops) {
  sim::Simulator sim;
  std::vector<sim::Timer> ring(std::max<std::size_t>(1, depth));
  std::size_t next = 0;
  const SimTime gap = std::max<SimTime>(
      1, static_cast<SimTime>(static_cast<double>(kSecond) /
                              std::max(config.qps, 1.0)));
  const SimTime timeout = config.client_timeout;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    sim.at(static_cast<SimTime>(i + 1) * gap, [&ring, &next, &sim, timeout] {
      ring[next].cancel();
      ring[next] = sim.schedule(timeout, [] {});
      next = (next + 1) % ring.size();
    });
  }
  sim.run_until(static_cast<SimTime>(ops + 1) * gap);
  const double elapsed_ns = seconds_since(start) * 1e9;
  g_sink = g_sink + sim.events_executed();
  return elapsed_ns / static_cast<double>(ops);
}

/// Wall microseconds per query over ONE upstream connection opened with
/// dox::make_transport, queries issued back to back, the way an engine
/// shard's upstream pool reuses its connection to each resolver.
std::vector<double> replay_upstream(dox::DnsProtocol protocol,
                                    std::uint64_t seed,
                                    const std::vector<dns::DnsName>& names,
                                    std::size_t queries, Gate& gate) {
  sim::Simulator sim;
  net::Network network(sim, Rng(splitmix64(seed, 0x5C000000ull)));
  network.set_loss_rate(0.0);
  net::Host& host = network.add_host(
      "client", net::IpAddress::from_octets(10, 1, 0, 1), {50.11, 8.68},
      net::Continent::kEurope);
  net::UdpStack udp(host);
  tcp::TcpStack tcp(host);
  tls::TicketStore tickets;
  dox::DoqSessionCache doq_cache;

  resolver::ResolverProfile profile;
  profile.name = "upstream-0";
  profile.address = net::IpAddress::from_octets(10, 9, 0, 1);
  profile.location = {48.86, 2.35};
  profile.secret = 0xE0;
  profile.drop_probability = 0.0;
  resolver::DoxResolver resolver(network, profile,
                                 Rng(splitmix64(seed, 0x5D000000ull)));
  network.set_path_override(host.address(), profile.address, from_ms(25));

  dox::TransportDeps deps;
  deps.sim = &sim;
  deps.udp = &udp;
  deps.tcp = &tcp;
  deps.tickets = &tickets;
  deps.doq_cache = &doq_cache;
  dox::TransportOptions options;
  options.resolver =
      net::Endpoint{profile.address, dox::default_port(protocol)};
  auto transport = dox::make_transport(protocol, deps, options);

  std::vector<double> us;
  us.reserve(queries);
  std::uint64_t failures = 0;
  for (std::size_t q = 0; q < queries; ++q) {
    bool done = false;
    const auto start = Clock::now();
    transport->resolve(
        dns::Question{names[q % names.size()], dns::RRType::kA,
                      dns::RRClass::kIN},
        [&](dox::QueryResult result) {
          done = true;
          if (!result.ok()) ++failures;
        });
    while (!done && sim.step()) {
    }
    us.push_back(seconds_since(start) * 1e6);
    if (!done) ++failures;
  }
  gate.check(failures == 0, "upstream replay: " +
                                std::string(dox::protocol_name(protocol)) +
                                " queries failed");
  return us;
}

double mean_of(const std::vector<double>& v, std::size_t from,
               std::size_t count) {
  from = std::min(from, v.size());
  const std::size_t to = std::min(v.size(), from + count);
  if (to <= from) return 0.0;
  return std::accumulate(v.begin() + static_cast<std::ptrdiff_t>(from),
                         v.begin() + static_cast<std::ptrdiff_t>(to), 0.0) /
         static_cast<double>(to - from);
}

bool smoke_sized(const ShardedConfig& config) {
  return config.duration < 10 * kSecond;
}

void replay_upstreams(const ShardedConfig& config,
                      const std::vector<dns::DnsName>& names, Tracer& tracer,
                      Gate& gate, Metrics& out) {
  const bool smoke = smoke_sized(config);
  const std::size_t fresh = smoke ? 100 : kFreshQueries;
  const std::size_t deep_start = smoke ? 200 : kDeepStart;
  const std::size_t deep = smoke ? 50 : kDeepQueries;
  std::vector<double> doq;
  std::vector<double> dot;
  {
    Tracer::Scope span(&tracer, "replay.upstream.doq");
    doq = replay_upstream(dox::DnsProtocol::kDoQ, config.seed, names,
                          deep_start + deep, gate);
  }
  {
    Tracer::Scope span(&tracer, "replay.upstream.dot");
    dot = replay_upstream(dox::DnsProtocol::kDoT, config.seed, names,
                          deep_start + deep, gate);
  }
  out.push_back({"upstream.doq.us_per_query_fresh", mean_of(doq, 0, fresh),
                 "us"});
  out.push_back({"upstream.doq.us_per_query_deep",
                 mean_of(doq, deep_start, deep), "us"});
  out.push_back({"upstream.dot.us_per_query_deep",
                 mean_of(dot, deep_start, deep), "us"});
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

std::uint64_t input_seed(std::uint64_t seed, std::size_t index) {
  return splitmix64(seed, 0x9E0000ull + index);
}

ShardedConfig engine_config(const std::string& workload, std::uint64_t seed,
                            bool smoke) {
  ShardedConfig config;
  config.seed = seed;
  config.threads = 1;
  config.clients = 1'000'000;
  if (workload == "engine_hot") {
    config.shards = 4;
    config.qps = 110'000.0;
    config.duration = 10 * kSecond;
    config.names = 500;
    config.engine.wire_cache_capacity = 4096;
  } else {
    config.shards = 4;
    config.qps = 5'000.0;
    config.duration = 30 * kSecond;
    config.names = 20'000;
    config.engine.wire_cache_capacity = 0;
  }
  if (smoke) {
    config.clients = 10'000;
    config.qps /= 20.0;
    config.duration = 2 * kSecond;
    config.names = std::min<std::size_t>(config.names, 2'000);
  }
  return config;
}

RunResult run_engine(const Options& options, Gate& gate) {
  // ThreadPool(n) runs n workers plus the parallel_for caller.
  require_thread_budget(
      engine_config(options.workload, 0, options.smoke).threads + 1, gate);

  // Repeats cycle through kEngineSeeds input seeds derived from --seed, so
  // the simulated-latency figures average several inputs (one input's
  // cold-start tail moves engine_hot's p99 by about 10%). Input 0 always
  // runs twice, and every repeat must reproduce its input's first run
  // exactly.
  struct Input {
    std::uint64_t outcome_digest = 0;
    std::uint64_t stream_digest = 0;
    double mean_ms = 0.0, p50_ms = 0.0, p99_ms = 0.0, p9999_ms = 0.0;
  };
  std::vector<Input> inputs;
  std::vector<double> qps, setup_s, peak_mb;
  RunResult run;
  const auto start = Clock::now();
  double last_rep_s = 0.0;
  while (run.attempted < kEngineSeeds + 1 ||
         seconds_since(start) + last_rep_s <= options.seconds) {
    const auto rep_start = Clock::now();
    const std::size_t input = run.attempted % kEngineSeeds;
    const ShardedConfig config = engine_config(
        options.workload, input_seed(options.seed, input), options.smoke);
    std::size_t schedule_size = 0;
    {
      const std::vector<Arrival> schedule = make_schedule(config);
      schedule_size = schedule.size();
      setup_s.push_back(
          build_worlds(config, slice(config, schedule), nullptr));
    }
    const EngineCall call = call_engine(config, nullptr);
    const ShardedResult& r = call.result;
    check_engine(r, schedule_size, gate);
    if (input == inputs.size()) {
      std::vector<double> sorted = r.load.latency_ms;
      std::sort(sorted.begin(), sorted.end());
      Input first;
      first.outcome_digest = r.outcome_digest;
      first.stream_digest = r.merged_digest;
      first.mean_ms = mean_of(sorted, 0, sorted.size());
      first.p50_ms = percentile_sorted(sorted, 50.0);
      first.p99_ms = percentile_sorted(sorted, 99.0);
      first.p9999_ms = percentile_sorted(sorted, 99.99);
      inputs.push_back(first);
      std::printf(
          "input %zu (seed %llu): %zu latency samples, mean %.3f p50 %.3f "
          "p99 %.3f p99.99 %.3f ms\n",
          input, static_cast<unsigned long long>(config.seed), sorted.size(),
          first.mean_ms, first.p50_ms, first.p99_ms, first.p9999_ms);
    } else {
      gate.check(r.outcome_digest == inputs[input].outcome_digest,
                 "engine: outcome_digest differs between repeats of a seed");
      gate.check(r.merged_digest == inputs[input].stream_digest,
                 "engine: event-stream digest differs between repeats");
    }
    // The first call is a warm-up: it faults in the heap every later call
    // reuses, so only its outputs count, not its timings.
    if (run.attempted > 0) {
      qps.push_back(static_cast<double>(finished(r)) / call.call_s);
    }
    peak_mb.push_back(static_cast<double>(call.peak_bytes) / 1e6);
    ++run.attempted;
    std::printf(
        "rep %llu: call %.3f s (run_sharded wall %.1f ms), %.0f queries/s, "
        "setup %.1f ms, teardown %.1f ms, peak heap %.1f MB, %llu arrivals\n",
        static_cast<unsigned long long>(run.attempted), call.call_s,
        r.wall_ms, static_cast<double>(finished(r)) / call.call_s,
        ms_of(setup_s.back()),
        ms_of(call.call_s - r.wall_ms / 1e3), peak_mb.back(),
        static_cast<unsigned long long>(r.total_arrivals));
    std::fflush(stdout);
    last_rep_s = seconds_since(rep_start);
  }

  // Each statistic is averaged over the inputs after dropping the highest
  // and the lowest: a rare cold start that stretches one input's tail
  // would otherwise move p99.99 by 10%.
  auto trimmed_mean = [&inputs](double Input::*field) {
    std::vector<double> values;
    for (const Input& input : inputs) values.push_back(input.*field);
    std::sort(values.begin(), values.end());
    return mean_of(values, 1, values.size() - 2);
  };
  std::printf("simulated latency over %zu inputs: p50 %.3f ms\n",
              inputs.size(), trimmed_mean(&Input::p50_ms));
  run.metrics = {
      {"queries_per_s", median(qps), "1/s"},
      // The engine's record is the per-query outcome (answered, servfail,
      // timeout or shed), so its record rate is its query rate.
      {"records_per_s", median(qps), "1/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_heap_mb", median(peak_mb), "MB"},
      {"sim_mean_ms", trimmed_mean(&Input::mean_ms), "ms"},
      {"sim_p99_ms", trimmed_mean(&Input::p99_ms), "ms"},
      {"sim_p9999_ms", trimmed_mean(&Input::p9999_ms), "ms"},
  };
  return run;
}

Ledger engine_ledger(const ShardedConfig& config, Gate& gate, Tracer& tracer) {
  require_thread_budget(config.threads + 1, gate);
  Ledger ledger;
  Metrics& out = ledger.metrics;

  // A traced replica of run_sharded's setup first (it also warms the heap
  // for the calls), so build and epoch-loop time can be told apart; then
  // the call untraced, which is also the source of every count (spans
  // allocate).
  std::vector<Arrival> schedule;
  double schedule_s = 0.0;
  double build_s = 0.0;
  {
    Tracer::Scope span(&tracer, "engine.setup_replica");
    const auto schedule_start = Clock::now();
    std::vector<std::vector<Arrival>> slices;
    {
      Tracer::Scope gen(&tracer, "sharded.schedule");
      schedule = make_schedule(config);
      slices = slice(config, schedule);
    }
    schedule_s = seconds_since(schedule_start);
    build_s = build_worlds(config, slices, &tracer);
  }
  const EngineCall untraced = call_engine(config, nullptr);
  check_engine(untraced.result, schedule.size(), gate);
  // Then traced, traced, untraced (ABBA order), so a host that speeds up or
  // slows down during the run does not bias the tracing overhead.
  auto again = [&](Tracer* spans) {
    const EngineCall call = call_engine(config, spans);
    check_engine(call.result, schedule.size(), gate);
    gate.check(call.result.outcome_digest == untraced.result.outcome_digest,
               "engine: outcome digest differs between calls of one input");
    return call.call_s;
  };
  ledger.traced_s = again(&tracer) + again(&tracer);
  ledger.untraced_s = untraced.call_s + again(nullptr);
  ledger.calls = 4;

  const ShardedResult& r = untraced.result;
  const engine::EngineStats& e = r.engine;
  const std::uint64_t queries = std::max<std::uint64_t>(1, e.queries);
  double busy_ms = 0.0;
  double max_busy_ms = 0.0;
  std::uint64_t events = 0;
  for (const engine::ShardOutcome& shard : r.shards) {
    busy_ms += shard.busy_ms;
    max_busy_ms = std::max(max_busy_ms, shard.busy_ms);
    events += shard.events;
  }
  const double mean_busy_ms = busy_ms / static_cast<double>(r.shards.size());
  const double loop_ms =
      std::max(1e-3, r.wall_ms - ms_of(schedule_s) - ms_of(build_s));
  const int running_threads = config.threads + 1;

  out.push_back({"sharded.build_ms", ms_of(build_s), "ms"});
  out.push_back(
      {"sharded.teardown_ms", ms_of(untraced.call_s) - r.wall_ms, "ms"});
  out.push_back({"sharded.busy_ms", busy_ms, "ms"});
  out.push_back({"sharded.sweep_ms", r.sweep_ms, "ms"});
  out.push_back({"sharded.parallel_efficiency",
                 busy_ms / (running_threads * loop_ms), "ratio"});
  out.push_back({"sharded.imbalance", max_busy_ms / mean_busy_ms, "ratio"});
  out.push_back(
      {"sharded.epochs", static_cast<double>(r.epochs), "count"});
  out.push_back({"sim.events_per_query", ratio(events, queries), "count"});
  out.push_back({"sim.ns_per_event",
                 busy_ms * 1e6 / static_cast<double>(std::max<std::uint64_t>(
                                     1, events)),
                 "ns"});

  // Layer replays on the workload's own inputs.
  const std::vector<dns::DnsName> names = make_names(config.names);
  const std::vector<Arrival> seq(
      schedule.begin(),
      schedule.begin() + static_cast<std::ptrdiff_t>(
                             std::min(schedule.size(), kReplayOps)));
  schedule.clear();
  schedule.shrink_to_fit();
  const double clock_ns = clock_overhead_ns();
  {
    const double mean_latency_ms =
        mean_of(r.load.latency_ms, 0, r.load.latency_ms.size());
    const auto depth = static_cast<std::size_t>(std::max(
        1.0, std::round(config.qps * mean_latency_ms / 1e3)));
    Tracer::Scope span(&tracer, "replay.sim.timer_cycle");
    out.push_back({"sim.timer_cycle_ns",
                   replay_timer_cycle(config, depth, seq.size()), "ns"});
    std::printf("timer-cycle replay at in-flight depth %zu\n", depth);
  }
  {
    Tracer::Scope span(&tracer, "replay.dns.codec");
    replay_codec(names, seq, out);
  }
  out.push_back({"wire.hit_ratio", ratio(e.wire_hits, e.wire_lookups),
                 "ratio"});
  {
    Tracer::Scope span(&tracer, "replay.dns.wire");
    replay_wire(config, names, seq, gate, out);
  }
  out.push_back({"l1.hit_ratio", ratio(e.cache_hits, e.l1_lookups), "ratio"});
  out.push_back(
      {"l1.stale_ratio", ratio(e.stale_hits, e.l1_lookups), "ratio"});
  out.push_back({"l1.miss_ratio", ratio(e.l2_lookups, e.l1_lookups), "ratio"});
  out.push_back({"l1.evictions_per_kquery",
                 1e3 * ratio(e.l1_evictions, queries), "count"});
  {
    Tracer::Scope span(&tracer, "replay.dns.l1");
    replay_l1(config, names, seq, clock_ns, out);
  }
  out.push_back({"l2.hit_ratio", ratio(e.l2_hits, e.l2_lookups), "ratio"});
  out.push_back({"l2.deferred_per_kquery",
                 1e3 * ratio(r.l2.deferred_inserts, queries), "count"});
  out.push_back(
      {"l2.lock_misses", static_cast<double>(r.l2.lock_misses), "count"});
  {
    Tracer::Scope span(&tracer, "replay.dns.l2");
    replay_l2(config, names, seq, clock_ns, out);
  }
  out.push_back(
      {"engine.coalesced_ratio", ratio(e.coalesced, queries), "ratio"});
  out.push_back({"engine.upstream_per_kquery",
                 1e3 * ratio(e.upstream_resolves, queries), "count"});
  out.push_back({"engine.attempts_per_resolve",
                 ratio(e.upstream_attempts, e.upstream_resolves), "ratio"});
  out.push_back({"engine.allocs_per_query",
                 ratio(untraced.allocations, queries), "count"});
  const std::uint64_t sources =
      e.wire_hits + e.cache_hits + e.stale_hits + e.l2_hits +
      e.snapshot_hits + e.coalesced + e.misses + e.policy_refused +
      e.policy_dropped + e.policy_truncated;
  out.push_back({"engine.unattributed_answers",
                 static_cast<double>(e.queries) - static_cast<double>(sources),
                 "count"});
  replay_upstreams(config, names, tracer, gate, out);
  out.push_back({"failed_ratio",
                 ratio(r.load.servfails + r.load.timeouts + r.load.shed,
                       std::max<std::uint64_t>(1, r.total_arrivals)),
                 "ratio"});
  return ledger;
}

}  // namespace perfbench
