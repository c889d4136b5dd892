// Microbenchmarks of the library's hot components (google-benchmark):
// wire codecs (DNS, QUIC, HPACK, TLS records), the event loop, and a full
// in-simulation DoQ query round trip. These quantify the cost of the
// simulation substrate itself, not the paper's results.
//
// The sim-core suite additionally measures the slab/SBO event loop against
// the seed's shared_ptr+std::function implementation (bench/legacy_sim.h)
// and writes the numbers to BENCH_sim_core.json — the committed hot-path
// baseline. The byte-path suite does the same for the pooled zero-copy
// send/receive path (util::Buffer + in-place framing + scratch decode) vs
// the seed's copy chain, writing BENCH_byte_path.json; it also counts heap
// allocations per forwarded cached query through the full forwarder engine.
// The campaign-world suite times one paper_campaign cell's world: a
// `measure::Testbed` over 48 verified resolvers, built and torn down,
// writing BENCH_campaign_world.json.
// Extra flags (stripped before google-benchmark sees them):
//   --smoke        run only the sim-core, byte-path and campaign-world
//                  suites, briefly, and exit non-zero on a regression (CI
//                  guard)
//   --json[=PATH]  write BENCH_sim_core.json (default name),
//                  BENCH_byte_path.json and BENCH_campaign_world.json after
//                  the run
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench_util.h"
#include "counting_new.h"
#include "dns/message.h"
#include "dns/wire_cache.h"
#include "engine/engine.h"
#include "h2/hpack.h"
#include "legacy_dns.h"
#include "legacy_sim.h"
#include "measure/testbed.h"
#include "net/network.h"
#include "quic/wire.h"
#include "resolver/resolver.h"
#include "sim/simulator.h"
#include "tls/wire.h"
#include "util/buffer.h"

namespace {

using namespace doxlab;

void BM_DnsEncodeQuery(benchmark::State& state) {
  const auto name = dns::DnsName::parse("www.google.com");
  for (auto _ : state) {
    auto wire = dns::make_query(0x1234, name, dns::RRType::kA).encode();
    benchmark::DoNotOptimize(wire);
  }
}
BENCHMARK(BM_DnsEncodeQuery);

void BM_DnsDecodeResponse(benchmark::State& state) {
  auto query = dns::make_query(1, dns::DnsName::parse("google.com"),
                               dns::RRType::kA);
  auto response = dns::make_response(query);
  response.answers.push_back(
      dns::make_a(dns::DnsName::parse("google.com"), 300, 0x8080404));
  const auto wire = response.encode();
  for (auto _ : state) {
    auto decoded = dns::Message::decode(wire);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_DnsDecodeResponse);

void BM_DnsNameCompression(benchmark::State& state) {
  std::vector<dns::DnsName> names;
  for (int i = 0; i < 8; ++i) {
    names.push_back(
        dns::DnsName::parse("host" + std::to_string(i) + ".cdn.example.com"));
  }
  for (auto _ : state) {
    ByteWriter w;
    dns::NameCompressor nc;
    for (const auto& name : names) nc.write(w, name);
    benchmark::DoNotOptimize(w.size());
  }
}
BENCHMARK(BM_DnsNameCompression);

void BM_QuicDatagramRoundTrip(benchmark::State& state) {
  quic::QuicPacket packet;
  packet.type = quic::PacketType::kInitial;
  packet.frames.push_back(
      quic::Frame::crypto(0, std::vector<std::uint8_t>(300, 0xAB)));
  std::vector<quic::QuicPacket> packets = {packet};
  for (auto _ : state) {
    auto wire = quic::encode_datagram(packets, true);
    auto decoded = quic::decode_datagram(wire);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_QuicDatagramRoundTrip);

void BM_HpackRequestBlock(benchmark::State& state) {
  const std::vector<h2::Header> headers = {
      {":method", "POST"},
      {":scheme", "https"},
      {":authority", "resolver-9.9.9.9"},
      {":path", "/dns-query"},
      {"content-type", "application/dns-message"},
      {"content-length", "51"},
  };
  for (auto _ : state) {
    h2::HpackEncoder encoder;  // fresh table = first-request cost
    auto block = encoder.encode(headers);
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK(BM_HpackRequestBlock);

void BM_TlsClientHello(benchmark::State& state) {
  tls::TlsWire wire;
  tls::ClientHello ch;
  ch.sni = "resolver.example";
  ch.alpn = {"doq"};
  ch.psk = tls::SessionTicket{};
  for (auto _ : state) {
    auto record = wire.client_hello_record(ch);
    benchmark::DoNotOptimize(record);
  }
}
BENCHMARK(BM_TlsClientHello);

void BM_EventLoopScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(i, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
}
BENCHMARK(BM_EventLoopScheduleRun);

// Steady-state variants: the simulator (and its slab) persists across
// batches, the shape of a real study where one simulator drains millions
// of events. The *Legacy twins run the seed implementation for comparison.
template <typename Sim>
void event_loop_steady(benchmark::State& state, Sim& sim) {
  long long sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(i, [&sink] { ++sink; });
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
}

void BM_EventLoopSteady(benchmark::State& state) {
  sim::Simulator sim;
  event_loop_steady(state, sim);
}
BENCHMARK(BM_EventLoopSteady);

void BM_EventLoopSteadyLegacy(benchmark::State& state) {
  bench::legacy::Simulator sim;
  event_loop_steady(state, sim);
}
BENCHMARK(BM_EventLoopSteadyLegacy);

template <typename Sim, typename TimerT>
void event_loop_cancel_drain(benchmark::State& state, Sim& sim) {
  long long sink = 0;
  std::vector<TimerT> timers;
  timers.reserve(1000);
  for (auto _ : state) {
    timers.clear();
    for (int i = 0; i < 1000; ++i) {
      timers.push_back(sim.schedule(i, [&sink] { ++sink; }));
    }
    // Disarm 75% — the retransmission-timers-cancelled-by-ACKs pattern
    // that exercises lazy-cancel compaction.
    for (int i = 0; i < 1000; ++i) {
      if (i % 4 != 0) timers[i].cancel();
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
}

void BM_EventLoopCancelDrain(benchmark::State& state) {
  sim::Simulator sim;
  event_loop_cancel_drain<sim::Simulator, sim::Timer>(state, sim);
}
BENCHMARK(BM_EventLoopCancelDrain);

void BM_EventLoopCancelDrainLegacy(benchmark::State& state) {
  bench::legacy::Simulator sim;
  event_loop_cancel_drain<bench::legacy::Simulator, bench::legacy::Timer>(
      state, sim);
}
BENCHMARK(BM_EventLoopCancelDrainLegacy);

void BM_FullDoqQuery(benchmark::State& state) {
  // One warmed DoQ query per iteration, full stack, in simulated time.
  measure::TestbedConfig config;
  config.population.verified_only = true;
  config.population.verified_dox = 6;
  measure::Testbed testbed(config);
  auto& sim = testbed.simulator();
  auto& vp = *testbed.vantage_points()[0];
  const dns::Question question{dns::DnsName::parse("google.com"),
                               dns::RRType::kA, dns::RRClass::kIN};
  dox::TransportOptions options;
  options.resolver = testbed.resolver_endpoint(testbed.population().verified[0],
                                               dox::DnsProtocol::kDoQ);
  for (auto _ : state) {
    auto transport = dox::make_transport(dox::DnsProtocol::kDoQ,
                                         vp.deps(sim), options);
    bool done = false;
    transport->resolve(question, [&](dox::QueryResult) { done = true; });
    testbed.run_until_flag(done);
    transport->reset_sessions();
    sim.run_until(sim.now() + 100 * kMillisecond);
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_FullDoqQuery);

// ---------------------------------------------------------------------------
// sim-core suite: steady-state ns/event and allocations/event for the new
// slab/SBO simulator vs the frozen seed implementation, reported to
// BENCH_sim_core.json. Timed by hand (not google-benchmark) so one run
// yields exactly the numbers the JSON baseline commits.

struct SimCoreSample {
  double ns_per_op = 0;
  double allocs_per_op = 0;      // global operator new count delta
  double eventfn_heap_per_op = 0;  // EventFn SBO fallbacks (new sim only)
};

/// Schedule `batch` small-capture events and drain, `trials` times.
template <typename Sim>
SimCoreSample measure_fire(Sim& sim, int trials, int batch) {
  long long sink = 0;
  const std::uint64_t allocs0 = g_heap_allocs.load();
  const std::uint64_t sbo0 = sim::EventFn::heap_allocations();
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < trials; ++t) {
    for (int i = 0; i < batch; ++i) sim.schedule(i, [&sink] { ++sink; });
    sim.run();
  }
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(sink);
  const double ops = static_cast<double>(trials) * batch;
  SimCoreSample sample;
  sample.ns_per_op =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / ops;
  sample.allocs_per_op =
      static_cast<double>(g_heap_allocs.load() - allocs0) / ops;
  sample.eventfn_heap_per_op =
      static_cast<double>(sim::EventFn::heap_allocations() - sbo0) / ops;
  return sample;
}

/// Schedule, cancel 75%, drain — the lazy-cancel + compaction path.
template <typename Sim, typename TimerT>
SimCoreSample measure_cancel(Sim& sim, int trials, int batch) {
  long long sink = 0;
  std::vector<TimerT> timers;
  timers.reserve(batch);
  const std::uint64_t allocs0 = g_heap_allocs.load();
  const std::uint64_t sbo0 = sim::EventFn::heap_allocations();
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < trials; ++t) {
    timers.clear();
    for (int i = 0; i < batch; ++i) {
      timers.push_back(sim.schedule(i, [&sink] { ++sink; }));
    }
    for (int i = 0; i < batch; ++i) {
      if (i % 4 != 0) timers[i].cancel();
    }
    sim.run();
  }
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(sink);
  const double ops = static_cast<double>(trials) * batch;
  SimCoreSample sample;
  sample.ns_per_op =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / ops;
  sample.allocs_per_op =
      static_cast<double>(g_heap_allocs.load() - allocs0) / ops;
  sample.eventfn_heap_per_op =
      static_cast<double>(sim::EventFn::heap_allocations() - sbo0) / ops;
  return sample;
}

/// engine_hot's client-timeout pattern: the clock advances one arrival gap
/// (110k qps), the query answered `kLaneDepth` arrivals ago cancels its
/// timeout, and a fresh query arms one a fixed 8 s ahead. `arm(sim)`
/// returns a handle, `disarm(sim, handle)` cancels it. The first `warmup`
/// cycles are untimed; the same in-flight window carries on into the timed
/// ones.
constexpr std::size_t kLaneDepth = 300;  // 110k qps x 2.8 ms mean latency
constexpr SimTime kLaneGap = 9;  // us between arrivals at 110k qps
constexpr SimTime kLaneTimeout = 8 * kSecond;

template <typename Handle, typename Arm, typename Disarm>
SimCoreSample measure_timeout_cycle(sim::Simulator& sim, int ops, Arm&& arm,
                                    Disarm&& disarm) {
  std::vector<Handle> in_flight(kLaneDepth);
  std::size_t next = 0;
  auto cycle = [&] {
    sim.run_until(sim.now() + kLaneGap);
    disarm(sim, in_flight[next]);
    in_flight[next] = arm(sim);
    next = next + 1 == kLaneDepth ? 0 : next + 1;
  };
  for (int i = 0; i < ops / 10 + 10; ++i) cycle();
  const std::uint64_t allocs0 = g_heap_allocs.load();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < ops; ++i) cycle();
  const auto t1 = std::chrono::steady_clock::now();
  SimCoreSample sample;
  sample.ns_per_op =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / ops;
  sample.allocs_per_op =
      static_cast<double>(g_heap_allocs.load() - allocs0) / ops;
  return sample;
}

SimCoreSample measure_timeout_heap(int ops) {
  sim::Simulator sim;
  long long sink = 0;
  return measure_timeout_cycle<sim::Timer>(
      sim, ops,
      [&sink](sim::Simulator& s) {
        return s.schedule(kLaneTimeout, [&sink] { ++sink; });
      },
      [](sim::Simulator&, sim::Timer& timer) { timer.cancel(); });
}

SimCoreSample measure_timeout_lane(int ops) {
  sim::Simulator sim;
  long long sink = 0;
  const std::uint32_t lane = sim.add_lane(
      [](void* out, std::uint64_t) { ++*static_cast<long long*>(out); },
      &sink);
  return measure_timeout_cycle<sim::LaneTicket>(
      sim, ops,
      [lane](sim::Simulator& s) {
        return s.lane_push(lane, s.now() + kLaneTimeout, 0);
      },
      [](sim::Simulator& s, sim::LaneTicket ticket) {
        s.lane_cancel(ticket);
      });
}

/// The lane's timeout cycle must cost at most this fraction of the heap's.
constexpr double kLaneGate = 0.5;

struct SimCoreResults {
  SimCoreSample fire_new, fire_legacy;
  SimCoreSample cancel_new, cancel_legacy;
  SimCoreSample timeout_lane, timeout_heap;
};

/// Keeps the faster timing (machine noise only ever slows a run down);
/// allocation counts are identical across passes.
void keep_best(SimCoreSample& best, const SimCoreSample& sample) {
  if (best.ns_per_op == 0 || sample.ns_per_op < best.ns_per_op) best = sample;
}

SimCoreResults run_sim_core_suite(int trials) {
  // Queue depth 256: study simulators run shallow queues (in-flight packets
  // and timers), so deep-heap sift costs — identical in both
  // implementations — should not dominate the comparison.
  constexpr int kBatch = 256;
  constexpr int kPasses = 3;  // best-of-N to shed scheduler noise
  const int warmup = trials / 10 + 10;
  SimCoreResults r;
  for (int pass = 0; pass < kPasses; ++pass) {
    {
      sim::Simulator sim;
      measure_fire(sim, warmup, kBatch);
      keep_best(r.fire_new, measure_fire(sim, trials, kBatch));
    }
    {
      bench::legacy::Simulator sim;
      measure_fire(sim, warmup, kBatch);
      keep_best(r.fire_legacy, measure_fire(sim, trials, kBatch));
    }
    {
      sim::Simulator sim;
      measure_cancel<sim::Simulator, sim::Timer>(sim, warmup, kBatch);
      keep_best(r.cancel_new, measure_cancel<sim::Simulator, sim::Timer>(
                                  sim, trials, kBatch));
    }
    {
      bench::legacy::Simulator sim;
      measure_cancel<bench::legacy::Simulator, bench::legacy::Timer>(
          sim, warmup, kBatch);
      keep_best(
          r.cancel_legacy,
          measure_cancel<bench::legacy::Simulator, bench::legacy::Timer>(
              sim, trials, kBatch));
    }
    keep_best(r.timeout_heap, measure_timeout_heap(trials * 1000));
    keep_best(r.timeout_lane, measure_timeout_lane(trials * 1000));
  }
  return r;
}

void report_sim_core(const SimCoreResults& r, bench::JsonReporter& json) {
  const double fire_speedup = r.fire_legacy.ns_per_op / r.fire_new.ns_per_op;
  const double cancel_speedup =
      r.cancel_legacy.ns_per_op / r.cancel_new.ns_per_op;
  bench::banner("sim-core: slab/SBO event loop vs seed implementation");
  std::printf("schedule/fire     %7.1f ns/event  (legacy %7.1f)  %0.2fx\n",
              r.fire_new.ns_per_op, r.fire_legacy.ns_per_op, fire_speedup);
  std::printf("schedule/cancel   %7.1f ns/op     (legacy %7.1f)  %0.2fx\n",
              r.cancel_new.ns_per_op, r.cancel_legacy.ns_per_op,
              cancel_speedup);
  std::printf("allocations/event %7.4f           (legacy %7.4f)\n",
              r.fire_new.allocs_per_op, r.fire_legacy.allocs_per_op);
  std::printf("EventFn SBO heap fallbacks/event: %.4f\n",
              r.fire_new.eventfn_heap_per_op);
  const double lane_ratio =
      r.timeout_lane.ns_per_op / r.timeout_heap.ns_per_op;
  std::printf("timeout arm+cancel %6.1f ns lane  (heap %6.1f)  %0.2fx of "
              "heap, depth %zu\n",
              r.timeout_lane.ns_per_op, r.timeout_heap.ns_per_op, lane_ratio,
              kLaneDepth);

  json.metric("sim_core_fire", "ns_per_event", r.fire_new.ns_per_op);
  json.metric("sim_core_fire", "ns_per_event_legacy",
              r.fire_legacy.ns_per_op);
  json.metric("sim_core_fire", "events_per_sec",
              1e9 / r.fire_new.ns_per_op);
  json.metric("sim_core_fire", "speedup_vs_legacy", fire_speedup);
  json.metric("sim_core_fire", "heap_allocs_per_event",
              r.fire_new.allocs_per_op);
  json.metric("sim_core_fire", "heap_allocs_per_event_legacy",
              r.fire_legacy.allocs_per_op);
  json.metric("sim_core_fire", "eventfn_heap_fallbacks_per_event",
              r.fire_new.eventfn_heap_per_op);
  json.metric("sim_core_cancel", "ns_per_op", r.cancel_new.ns_per_op);
  json.metric("sim_core_cancel", "ns_per_op_legacy",
              r.cancel_legacy.ns_per_op);
  json.metric("sim_core_cancel", "speedup_vs_legacy", cancel_speedup);
  json.metric("sim_core_cancel", "heap_allocs_per_op",
              r.cancel_new.allocs_per_op);
  json.metric("sim_core_cancel", "heap_allocs_per_op_legacy",
              r.cancel_legacy.allocs_per_op);
  json.metric("sim_core_lane", "ns_per_cycle", r.timeout_lane.ns_per_op);
  json.metric("sim_core_lane", "ns_per_cycle_heap", r.timeout_heap.ns_per_op);
  json.metric("sim_core_lane", "lane_vs_heap", lane_ratio);
  json.metric("sim_core_lane", "gate_lane_vs_heap_max", kLaneGate);
  json.metric("sim_core_lane", "heap_allocs_per_cycle",
              r.timeout_lane.allocs_per_op);
  json.metric("sim_core_lane", "in_flight_depth",
              static_cast<double>(kLaneDepth));
}

// ---------------------------------------------------------------------------
// byte-path suite: the pooled zero-copy send/receive path vs the seed's
// copy-chain (vector encode, per-hop payload copy, allocating decode),
// reported to BENCH_byte_path.json. Timed by hand like the sim-core suite.

struct BytePathSample {
  double ns_per_op = 0;
  double allocs_per_op = 0;  // global operator new count delta
};

/// Times `op` over `trials` iterations, reporting ns and allocations per op.
template <typename Op>
BytePathSample measure_ops(int trials, Op&& op) {
  const std::uint64_t allocs0 = g_heap_allocs.load();
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < trials; ++t) op();
  const auto t1 = std::chrono::steady_clock::now();
  BytePathSample sample;
  sample.ns_per_op =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / trials;
  sample.allocs_per_op =
      static_cast<double>(g_heap_allocs.load() - allocs0) / trials;
  return sample;
}

/// The study's DoUDP exchange: the 59-byte query and 63-byte response, in
/// both today's codec and the frozen seed codec (bench/legacy_dns.h). The
/// constructor asserts both produce identical wire bytes, so the two sides
/// of the comparison do identical protocol work.
struct DoudpMessages {
  dns::Message query;
  dns::Message response;
  bench::legacy::Message legacy_query;
  bench::legacy::Message legacy_response;

  DoudpMessages() {
    query = dns::make_query(0x1234, dns::DnsName::parse("google.com"),
                            dns::RRType::kA);
    response = dns::make_response(query);
    response.answers.push_back(
        dns::make_a(dns::DnsName::parse("google.com"), 300, 0x08080404));
    legacy_query = *bench::legacy::decode(query.encode());
    legacy_response = *bench::legacy::decode(response.encode());
    if (bench::legacy::encode(legacy_query) != query.encode() ||
        bench::legacy::encode(legacy_response) != response.encode()) {
      std::fprintf(stderr, "legacy codec fixture diverged from current\n");
      std::abort();
    }
  }
};

/// Seed path: vector encode (std::map suffix compression), a per-hop
/// payload copy (the old net::Packet payload vector), then the decode that
/// built a std::vector<std::string> per name.
BytePathSample measure_roundtrip_legacy(int trials) {
  DoudpMessages m;
  return measure_ops(trials, [&] {
    std::vector<std::uint8_t> query_wire = bench::legacy::encode(m.legacy_query);
    std::vector<std::uint8_t> delivered_q(query_wire);  // hop copy
    auto decoded_q = bench::legacy::decode(delivered_q);
    benchmark::DoNotOptimize(decoded_q);
    std::vector<std::uint8_t> response_wire =
        bench::legacy::encode(m.legacy_response);
    std::vector<std::uint8_t> delivered_r(response_wire);  // hop copy
    auto decoded_r = bench::legacy::decode(delivered_r);
    benchmark::DoNotOptimize(decoded_r);
  });
}

/// Pooled path: one slab per message, moved through the hop, decoded into
/// reusable scratch storage.
BytePathSample measure_roundtrip_pooled(int trials) {
  DoudpMessages m;
  dns::Message scratch_q, scratch_r;
  return measure_ops(trials, [&] {
    util::Buffer query_wire = m.query.encode_buffer();
    util::Buffer delivered_q = std::move(query_wire);  // zero-copy hop
    dns::Message::decode_into(delivered_q, scratch_q);
    benchmark::DoNotOptimize(scratch_q.id);
    util::Buffer response_wire = m.response.encode_buffer();
    util::Buffer delivered_r = std::move(response_wire);  // zero-copy hop
    dns::Message::decode_into(delivered_r, scratch_r);
    benchmark::DoNotOptimize(scratch_r.id);
  });
}

/// Seed DoT framing chain: encode vector, copy into a length-prefixed
/// vector, copy again into a TLS application-data record vector.
BytePathSample measure_dot_frame_legacy(int trials) {
  DoudpMessages m;
  return measure_ops(trials, [&] {
    std::vector<std::uint8_t> msg = bench::legacy::encode(m.legacy_query);
    std::vector<std::uint8_t> prefixed;
    prefixed.reserve(2 + msg.size());
    prefixed.push_back(static_cast<std::uint8_t>(msg.size() >> 8));
    prefixed.push_back(static_cast<std::uint8_t>(msg.size() & 0xFF));
    prefixed.insert(prefixed.end(), msg.begin(), msg.end());
    std::vector<std::uint8_t> record;
    record.reserve(tls::kRecordHeaderBytes + prefixed.size() +
                   tls::kAeadTagBytes);
    const std::size_t record_len = prefixed.size() + tls::kAeadTagBytes;
    record.push_back(0x17);
    record.push_back(0x03);
    record.push_back(0x03);
    record.push_back(static_cast<std::uint8_t>(record_len >> 8));
    record.push_back(static_cast<std::uint8_t>(record_len & 0xFF));
    record.insert(record.end(), prefixed.begin(), prefixed.end());
    record.insert(record.end(), tls::kAeadTagBytes, 0);
    benchmark::DoNotOptimize(record);
  });
}

/// Pooled DoT framing: the length prefix and TLS record header are
/// prepended into the message's headroom in place — one slab end to end.
BytePathSample measure_dot_frame_pooled(int trials) {
  DoudpMessages m;
  tls::TlsWire wire;
  constexpr std::size_t kDotHeadroom = 2 + tls::kRecordHeaderBytes;
  return measure_ops(trials, [&] {
    util::Buffer msg = m.query.encode_buffer(kDotHeadroom);
    const std::size_t len = msg.size();
    std::uint8_t* prefix = msg.prepend(2);
    prefix[0] = static_cast<std::uint8_t>(len >> 8);
    prefix[1] = static_cast<std::uint8_t>(len & 0xFF);
    util::Buffer record = wire.seal_application_data(std::move(msg));
    benchmark::DoNotOptimize(record.size());
  });
}

/// The engine's Message-path cached answer, componentized: decode the query
/// into scratch, rebuild the response in scratch (id echo + record copies),
/// re-encode into a pooled buffer. This is the per-hit work the wire cache
/// eliminates, with the same fixture on both sides.
BytePathSample measure_message_cached(int trials) {
  DoudpMessages m;
  const std::vector<std::uint8_t> query_wire = m.query.encode();
  dns::Message scratch_q, scratch_r;
  return measure_ops(trials, [&] {
    dns::Message::decode_into(query_wire, scratch_q);
    scratch_r.id = scratch_q.id;
    scratch_r.qr = true;
    scratch_r.ra = true;
    scratch_r.rcode = dns::RCode::kNoError;
    scratch_r.questions = scratch_q.questions;
    scratch_r.answers = m.response.answers;  // the cached records
    scratch_r.authorities.clear();
    scratch_r.additionals.clear();
    util::Buffer out = scratch_r.encode_buffer();
    benchmark::DoNotOptimize(out.size());
  });
}

/// The raw-wire fast path for the same exchange: normalized-hash probe plus
/// copy-and-patch materialize — no Message anywhere.
BytePathSample measure_wire_cached(int trials) {
  DoudpMessages m;
  dns::WireCache cache({});
  const std::vector<std::uint8_t> query_wire = m.query.encode();
  if (!cache.insert(query_wire, m.response.encode(), 0)) {
    std::fprintf(stderr, "wire-cache fixture refused the insert\n");
    std::abort();
  }
  return measure_ops(trials, [&] {
    dns::WireCache::Hit hit;
    if (!cache.probe(query_wire, kSecond, hit)) std::abort();
    util::Buffer out = cache.materialize(hit, query_wire);
    benchmark::DoNotOptimize(out.size());
  });
}

/// Heap allocations per forwarded cached DoUDP query through the full
/// forwarder engine (stub socket -> UDP -> decode -> cache hit -> encode ->
/// UDP -> stub socket), measured steady-state after warm-up. With
/// `wire_capacity` > 0 the steady-state hits take the raw-wire fast path
/// instead of the Message path.
double measure_engine_cached_allocs(int queries, std::size_t wire_capacity) {
  sim::Simulator sim;
  net::Network network(sim, Rng(33));
  net::Host& host = network.add_host(
      "client", net::IpAddress::from_octets(10, 1, 0, 1), {50.11, 8.68},
      net::Continent::kEurope);
  net::UdpStack udp(host);
  tcp::TcpStack tcp(host);
  tls::TicketStore tickets;
  dox::DoqSessionCache doq_cache;
  network.set_loss_rate(0.0);

  resolver::ResolverProfile profile;
  profile.name = "upstream";
  profile.address = net::IpAddress::from_octets(10, 2, 0, 1);
  profile.location = {48.86, 2.35};
  profile.secret = 0xAA;
  profile.drop_probability = 0.0;
  resolver::DoxResolver upstream(network, profile, Rng(1));
  network.set_path_override(host.address(), profile.address, from_ms(10));

  dox::TransportDeps deps;
  deps.sim = &sim;
  deps.udp = &udp;
  deps.tcp = &tcp;
  deps.tickets = &tickets;
  deps.doq_cache = &doq_cache;
  engine::UpstreamConfig upstream_config;
  upstream_config.name = profile.name;
  upstream_config.address = profile.address;
  upstream_config.protocols = {dox::DnsProtocol::kDoUdp};
  engine::EngineConfig config;
  config.wire_cache_capacity = wire_capacity;
  engine::ForwarderEngine engine(sim, udp, deps, {upstream_config}, config);

  auto socket = udp.bind_ephemeral();
  std::uint64_t answered = 0;
  socket->on_datagram(
      [&](const net::Endpoint&, util::Buffer) { ++answered; });
  const dns::Message query = dns::make_query(
      0x77, dns::DnsName::parse("cached.example.com"), dns::RRType::kA);
  const util::Buffer query_wire = query.encode_buffer();
  const net::Endpoint engine_ep{host.address(), 53};

  // Warm-up: the first query resolves upstream and fills the cache; the
  // rest drive every scratch vector and the buffer pool to their
  // steady-state high-water marks.
  for (int i = 0; i < 1024; ++i) {
    socket->send_to(engine_ep, query_wire);
    sim.run_until(sim.now() + (i == 0 ? kSecond : kMillisecond));
  }

  const std::uint64_t before = answered;
  const std::uint64_t allocs0 = g_heap_allocs.load();
  for (int i = 0; i < queries; ++i) {
    socket->send_to(engine_ep, query_wire);
    sim.run_until(sim.now() + kMillisecond);
  }
  const std::uint64_t allocs = g_heap_allocs.load() - allocs0;
  if (answered - before != static_cast<std::uint64_t>(queries)) {
    std::fprintf(stderr,
                 "byte-path engine probe: %llu/%d cached queries answered\n",
                 static_cast<unsigned long long>(answered - before), queries);
    return -1.0;
  }
  return static_cast<double>(allocs) / queries;
}

struct BytePathResults {
  BytePathSample roundtrip_new, roundtrip_legacy;
  BytePathSample frame_new, frame_legacy;
  BytePathSample wire_cached, message_cached;
  double engine_allocs_per_query = 0;
  double engine_wire_allocs_per_query = 0;
};

void keep_best(BytePathSample& best, const BytePathSample& sample) {
  if (best.ns_per_op == 0 || sample.ns_per_op < best.ns_per_op) best = sample;
}

BytePathResults run_byte_path_suite(int trials) {
  constexpr int kPasses = 3;  // best-of-N to shed scheduler noise
  const int warmup = trials / 10 + 10;
  BytePathResults r;
  for (int pass = 0; pass < kPasses; ++pass) {
    measure_roundtrip_pooled(warmup);
    keep_best(r.roundtrip_new, measure_roundtrip_pooled(trials));
    measure_roundtrip_legacy(warmup);
    keep_best(r.roundtrip_legacy, measure_roundtrip_legacy(trials));
    measure_dot_frame_pooled(warmup);
    keep_best(r.frame_new, measure_dot_frame_pooled(trials));
    measure_dot_frame_legacy(warmup);
    keep_best(r.frame_legacy, measure_dot_frame_legacy(trials));
    measure_wire_cached(warmup);
    keep_best(r.wire_cached, measure_wire_cached(trials));
    measure_message_cached(warmup);
    keep_best(r.message_cached, measure_message_cached(trials));
  }
  r.engine_allocs_per_query =
      measure_engine_cached_allocs(/*queries=*/1000, /*wire_capacity=*/0);
  r.engine_wire_allocs_per_query =
      measure_engine_cached_allocs(/*queries=*/1000, /*wire_capacity=*/4096);
  return r;
}

void report_byte_path(const BytePathResults& r, bench::JsonReporter& json) {
  const double rt_speedup =
      r.roundtrip_legacy.ns_per_op / r.roundtrip_new.ns_per_op;
  const double frame_speedup =
      r.frame_legacy.ns_per_op / r.frame_new.ns_per_op;
  bench::banner("byte-path: pooled zero-copy stack vs seed copy chain");
  std::printf("DoUDP encode->deliver->decode %8.1f ns/op (legacy %8.1f)  "
              "%0.2fx\n",
              r.roundtrip_new.ns_per_op, r.roundtrip_legacy.ns_per_op,
              rt_speedup);
  std::printf("  allocations/op              %8.4f       (legacy %8.4f)\n",
              r.roundtrip_new.allocs_per_op, r.roundtrip_legacy.allocs_per_op);
  std::printf("DoT in-place framing          %8.1f ns/op (legacy %8.1f)  "
              "%0.2fx\n",
              r.frame_new.ns_per_op, r.frame_legacy.ns_per_op, frame_speedup);
  std::printf("  allocations/op              %8.4f       (legacy %8.4f)\n",
              r.frame_new.allocs_per_op, r.frame_legacy.allocs_per_op);
  const double wire_speedup =
      r.message_cached.ns_per_op / r.wire_cached.ns_per_op;
  const double wire_cached_qps = 1e9 / r.wire_cached.ns_per_op;
  std::printf("wire-cache hit (probe+patch)  %8.1f ns/op (msg    %8.1f)  "
              "%0.2fx\n",
              r.wire_cached.ns_per_op, r.message_cached.ns_per_op,
              wire_speedup);
  std::printf("  allocations/op              %8.4f       (msg    %8.4f)\n",
              r.wire_cached.allocs_per_op, r.message_cached.allocs_per_op);
  std::printf("  wire-cached throughput      %8.0f hits/s single-thread\n",
              wire_cached_qps);
  std::printf("engine cached-query heap allocations/query: %.4f "
              "(wire path %.4f)\n",
              r.engine_allocs_per_query, r.engine_wire_allocs_per_query);

  json.metric("byte_path_roundtrip", "ns_per_op", r.roundtrip_new.ns_per_op);
  json.metric("byte_path_roundtrip", "ns_per_op_legacy",
              r.roundtrip_legacy.ns_per_op);
  json.metric("byte_path_roundtrip", "speedup_vs_legacy", rt_speedup);
  json.metric("byte_path_roundtrip", "heap_allocs_per_op",
              r.roundtrip_new.allocs_per_op);
  json.metric("byte_path_roundtrip", "heap_allocs_per_op_legacy",
              r.roundtrip_legacy.allocs_per_op);
  json.metric("byte_path_dot_frame", "ns_per_op", r.frame_new.ns_per_op);
  json.metric("byte_path_dot_frame", "ns_per_op_legacy",
              r.frame_legacy.ns_per_op);
  json.metric("byte_path_dot_frame", "speedup_vs_legacy", frame_speedup);
  json.metric("byte_path_wire_cache", "ns_per_hit", r.wire_cached.ns_per_op);
  json.metric("byte_path_wire_cache", "ns_per_hit_message_path",
              r.message_cached.ns_per_op);
  json.metric("byte_path_wire_cache", "speedup_vs_message_path",
              wire_speedup);
  json.metric("byte_path_wire_cache", "wire_cached_qps", wire_cached_qps);
  json.metric("byte_path_wire_cache", "heap_allocs_per_hit",
              r.wire_cached.allocs_per_op);
  json.metric("byte_path_engine", "heap_allocs_per_cached_query",
              r.engine_allocs_per_query);
  json.metric("byte_path_engine", "heap_allocs_per_wire_cached_query",
              r.engine_wire_allocs_per_query);
}

// ---------------------------------------------------------------------------
// campaign-world suite: one campaign cell's testbed (48 verified resolvers,
// campaign-seeded population, per-cell run seed, as the campaign runner
// configures it), built and torn down, reported to
// BENCH_campaign_world.json. A cell measures one resolver, so the build
// must bring none up. The eager twin brings every resolver up right after
// construction — the world every cell built before resolvers came up on
// demand — so before/after come from the same run on the same host.

/// Heap allocations per build of the eager world, recorded from the
/// builder that constructed every resolver with the population; the gate
/// allows at most kWorldAllocGate of it.
constexpr double kEagerWorldAllocsPerBuild = 2252;
constexpr double kWorldAllocGate = 0.25;

struct WorldSample {
  double build_us_p50 = 0;
  double teardown_us_p50 = 0;
  double allocs_per_build = 0;   // global operator new count, construction
  std::size_t resolvers_up = 0;  // resolver hosts up after construction
};

double p50(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

WorldSample measure_campaign_world(int builds, bool eager) {
  measure::TestbedConfig config;
  config.population_seed = 42;
  config.population.verified_dox = 48;
  std::vector<double> build_us, teardown_us;
  std::uint64_t allocs = 0;
  WorldSample sample;
  for (int b = 0; b < builds; ++b) {
    config.seed = splitmix64(42, static_cast<std::uint64_t>(b));
    const std::uint64_t allocs0 = g_heap_allocs.load();
    const auto t0 = std::chrono::steady_clock::now();
    auto testbed = std::make_unique<measure::Testbed>(config);
    if (eager) testbed->population().bring_up_all();
    const auto t1 = std::chrono::steady_clock::now();
    allocs += g_heap_allocs.load() - allocs0;
    const scan::Population& population = testbed->population();
    for (std::size_t i = 0; i < population.size(); ++i) {
      sample.resolvers_up +=
          testbed->network().find_host(population.profile(i).address) !=
          nullptr;
    }
    const auto t2 = std::chrono::steady_clock::now();
    testbed.reset();
    const auto t3 = std::chrono::steady_clock::now();
    build_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    teardown_us.push_back(
        std::chrono::duration<double, std::micro>(t3 - t2).count());
  }
  sample.build_us_p50 = p50(build_us);
  sample.teardown_us_p50 = p50(teardown_us);
  sample.allocs_per_build = static_cast<double>(allocs) / builds;
  return sample;
}

struct WorldResults {
  WorldSample on_demand, eager;
};

/// Keeps the faster build timing; host counts add up over every pass.
void keep_best(WorldSample& best, const WorldSample& sample) {
  const std::size_t up = best.resolvers_up + sample.resolvers_up;
  if (best.build_us_p50 == 0 || sample.build_us_p50 < best.build_us_p50) {
    best = sample;
  }
  best.resolvers_up = up;
}

WorldResults run_campaign_world_suite(int builds) {
  constexpr int kPasses = 3;  // best-of-N to shed scheduler noise
  WorldResults r;
  for (int pass = 0; pass < kPasses; ++pass) {
    keep_best(r.on_demand, measure_campaign_world(builds, /*eager=*/false));
    keep_best(r.eager, measure_campaign_world(builds, /*eager=*/true));
  }
  return r;
}

void report_campaign_world(const WorldResults& r, bench::JsonReporter& json) {
  const WorldSample& w = r.on_demand;
  bench::banner("campaign-world: one cell's testbed, 48 verified resolvers");
  std::printf("testbed build      %8.1f us p50  (eager %8.1f)\n",
              w.build_us_p50, r.eager.build_us_p50);
  std::printf("testbed teardown   %8.1f us p50  (eager %8.1f)\n",
              w.teardown_us_p50, r.eager.teardown_us_p50);
  std::printf("allocations/build  %8.1f        (eager %8.1f; gate %.2fx of "
              "the recorded %.0f)\n",
              w.allocs_per_build, r.eager.allocs_per_build, kWorldAllocGate,
              kEagerWorldAllocsPerBuild);
  std::printf("resolver hosts up after construction: %zu\n", w.resolvers_up);
  json.metric("testbed_build", "build_us_p50", w.build_us_p50);
  json.metric("testbed_build", "build_us_p50_eager", r.eager.build_us_p50);
  json.metric("testbed_build", "teardown_us_p50", w.teardown_us_p50);
  json.metric("testbed_build", "teardown_us_p50_eager",
              r.eager.teardown_us_p50);
  json.metric("testbed_build", "heap_allocs_per_build", w.allocs_per_build);
  json.metric("testbed_build", "heap_allocs_per_build_eager",
              r.eager.allocs_per_build);
  json.metric("testbed_build", "heap_allocs_per_build_eager_recorded",
              kEagerWorldAllocsPerBuild);
  json.metric("testbed_build", "gate_allocs_vs_eager_max", kWorldAllocGate);
  json.metric("testbed_build", "resolver_hosts_up",
              static_cast<double>(w.resolvers_up));
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool write_json = false;
  std::string json_path = "BENCH_sim_core.json";
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json", 6) == 0) {
      write_json = true;
      if (argv[i][6] == '=') json_path = argv[i] + 7;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());

  if (smoke) {
    // CI guard: short run, only the sim-core and byte-path suites. Fails
    // on a hot-path regression — allocations crept back in or a speedup
    // collapsed. The gates (1.3x) are deliberately looser than the
    // committed baselines (>=2x) to keep noisy shared runners from flaking.
    const SimCoreResults r = run_sim_core_suite(/*trials=*/300);
    const BytePathResults b = run_byte_path_suite(/*trials=*/3000);
    const WorldResults world = run_campaign_world_suite(/*builds=*/300);
    bench::JsonReporter json;
    report_sim_core(r, json);
    bench::JsonReporter byte_json;
    report_byte_path(b, byte_json);
    bench::JsonReporter world_json;
    report_campaign_world(world, world_json);
    if (write_json && !json.write_file(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    bool ok = true;
    if (r.fire_new.allocs_per_op > 0.01 ||
        r.fire_new.eventfn_heap_per_op > 0.0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: event hot path allocates (%.4f heap, %.4f "
                   "SBO fallback per event)\n",
                   r.fire_new.allocs_per_op, r.fire_new.eventfn_heap_per_op);
      ok = false;
    }
    const double fire_speedup =
        r.fire_legacy.ns_per_op / r.fire_new.ns_per_op;
    if (fire_speedup < 1.3) {
      std::fprintf(stderr,
                   "SMOKE FAIL: schedule/fire speedup %.2fx < 1.3x floor\n",
                   fire_speedup);
      ok = false;
    }
    const double rt_speedup =
        b.roundtrip_legacy.ns_per_op / b.roundtrip_new.ns_per_op;
    if (rt_speedup < 1.3) {
      std::fprintf(stderr,
                   "SMOKE FAIL: byte-path round-trip speedup %.2fx < 1.3x "
                   "floor\n",
                   rt_speedup);
      ok = false;
    }
    if (b.engine_allocs_per_query < 0 ||
        b.engine_allocs_per_query > 0.01) {
      std::fprintf(stderr,
                   "SMOKE FAIL: cached engine query allocates (%.4f heap "
                   "allocations per query; gate 0.01)\n",
                   b.engine_allocs_per_query);
      ok = false;
    }
    const double wire_speedup =
        b.message_cached.ns_per_op / b.wire_cached.ns_per_op;
    if (wire_speedup < 2.0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: wire-cache hit speedup %.2fx < 2.0x floor "
                   "over the Message cached path\n",
                   wire_speedup);
      ok = false;
    }
    if (b.wire_cached.allocs_per_op > 0.01) {
      std::fprintf(stderr,
                   "SMOKE FAIL: wire-cache hit allocates (%.4f heap "
                   "allocations per hit; gate 0.01)\n",
                   b.wire_cached.allocs_per_op);
      ok = false;
    }
    if (b.engine_wire_allocs_per_query < 0 ||
        b.engine_wire_allocs_per_query > 0.01) {
      std::fprintf(stderr,
                   "SMOKE FAIL: wire-cached engine query allocates (%.4f "
                   "heap allocations per query; gate 0.01)\n",
                   b.engine_wire_allocs_per_query);
      ok = false;
    }
    const double lane_ratio =
        r.timeout_lane.ns_per_op / r.timeout_heap.ns_per_op;
    if (lane_ratio > kLaneGate || r.timeout_lane.allocs_per_op > 0.01) {
      std::fprintf(stderr,
                   "SMOKE FAIL: lane timeout cycle %.2fx of the heap cycle "
                   "(gate %.2fx), %.4f heap allocations per cycle\n",
                   lane_ratio, kLaneGate, r.timeout_lane.allocs_per_op);
      ok = false;
    }
    const WorldSample& w = world.on_demand;
    if (w.allocs_per_build > kWorldAllocGate * kEagerWorldAllocsPerBuild ||
        w.resolvers_up != 0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: campaign-cell testbed build takes %.1f heap "
                   "allocations (gate %.0f) and left %zu resolver hosts up "
                   "(gate 0)\n",
                   w.allocs_per_build,
                   kWorldAllocGate * kEagerWorldAllocsPerBuild,
                   w.resolvers_up);
      ok = false;
    }
    std::printf("\nhot-path smoke: %s\n", ok ? "OK" : "REGRESSION");
    return ok ? 0 : 1;
  }

  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                             passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const SimCoreResults r = run_sim_core_suite(/*trials=*/2000);
  bench::JsonReporter json;
  report_sim_core(r, json);
  const BytePathResults b = run_byte_path_suite(/*trials=*/20000);
  bench::JsonReporter byte_json;
  report_byte_path(b, byte_json);
  const WorldResults world = run_campaign_world_suite(/*builds=*/2000);
  bench::JsonReporter world_json;
  report_campaign_world(world, world_json);
  if (write_json) {
    if (!json.write_file(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("sim-core baseline -> %s\n", json_path.c_str());
    if (!byte_json.write_file("BENCH_byte_path.json")) {
      std::fprintf(stderr, "failed to write BENCH_byte_path.json\n");
      return 1;
    }
    std::printf("byte-path baseline -> BENCH_byte_path.json\n");
    if (!world_json.write_file("BENCH_campaign_world.json")) {
      std::fprintf(stderr, "failed to write BENCH_campaign_world.json\n");
      return 1;
    }
    std::printf("campaign-world baseline -> BENCH_campaign_world.json\n");
  }
  return 0;
}
