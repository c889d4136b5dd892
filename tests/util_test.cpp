// Unit tests for util: byte codec (incl. QUIC varints), pooled buffers,
// RNG, strings.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "util/buffer.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/types.h"

namespace doxlab {
namespace {

TEST(Bytes, ScalarRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0102030405060708ull);
  ByteReader r(w.view());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0102030405060708ull);
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, BigEndianLayout) {
  ByteWriter w;
  w.u16(0x0102);
  EXPECT_EQ(w.view()[0], 0x01);
  EXPECT_EQ(w.view()[1], 0x02);
}

TEST(Bytes, ReadPastEndReturnsNullopt) {
  ByteWriter w;
  w.u8(1);
  ByteReader r(w.view());
  EXPECT_TRUE(r.u8().has_value());
  EXPECT_FALSE(r.u8().has_value());
  EXPECT_FALSE(r.u16().has_value());
  EXPECT_FALSE(r.u32().has_value());
  EXPECT_FALSE(r.u64().has_value());
  EXPECT_FALSE(r.varint().has_value());
}

struct VarintCase {
  std::uint64_t value;
  std::size_t encoded_size;
};

class VarintTest : public ::testing::TestWithParam<VarintCase> {};

TEST_P(VarintTest, RoundTripAndSize) {
  const auto& param = GetParam();
  ByteWriter w;
  w.varint(param.value);
  EXPECT_EQ(w.size(), param.encoded_size);
  ByteReader r(w.view());
  EXPECT_EQ(r.varint(), param.value);
  EXPECT_TRUE(r.at_end());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, VarintTest,
    ::testing::Values(VarintCase{0, 1}, VarintCase{63, 1}, VarintCase{64, 2},
                      VarintCase{16383, 2}, VarintCase{16384, 4},
                      VarintCase{1073741823, 4}, VarintCase{1073741824, 8},
                      VarintCase{4611686018427387903ull, 8}));

TEST(Bytes, VarintTruncatedRejected) {
  ByteWriter w;
  w.varint(70000);  // 4-byte encoding
  auto data = w.take();
  data.pop_back();
  ByteReader r(data);
  EXPECT_FALSE(r.varint().has_value());
}

TEST(Bytes, PatchU16) {
  ByteWriter w;
  w.u16(0);
  w.bytes(std::string_view("abc"));
  w.patch_u16(0, 3);
  ByteReader r(w.view());
  EXPECT_EQ(r.u16(), 3);
}

TEST(Bytes, SeekAndHex) {
  ByteWriter w;
  w.u32(0x00FF10AB);
  ByteReader r(w.view());
  EXPECT_TRUE(r.seek(2));
  EXPECT_EQ(r.u8(), 0x10);
  EXPECT_FALSE(r.seek(99));
  EXPECT_EQ(to_hex(w.view()), "00ff10ab");
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000000), b.uniform_int(0, 1000000));
  }
}

TEST(Rng, ForkDivergesFromParentStream) {
  Rng a(42);
  Rng child = a.fork();
  Rng b(42);
  Rng child_b = b.fork();
  // Forks of identical parents match each other...
  EXPECT_EQ(child.uniform_int(0, 1 << 30), child_b.uniform_int(0, 1 << 30));
  // ...and children differ from a fresh engine with the parent seed.
  Rng c(42);
  bool any_diff = false;
  Rng child2 = a.fork();
  for (int i = 0; i < 10; ++i) {
    if (child2.uniform_int(0, 1 << 30) != c.uniform_int(0, 1 << 30)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, ForkSeedMatchesForkAndAdvancesParentIdentically) {
  // fork() and Rng(fork_seed()) must be interchangeable: same child
  // stream, same parent state afterwards, across seeds and interleavings.
  for (std::uint64_t s = 1; s <= 32; ++s) {
    const std::uint64_t seed = splitmix64(0xF0'4C, s);
    Rng a(seed), b(seed);
    for (int round = 0; round < 4; ++round) {
      // Interleave ordinary draws so forks land at varied stream offsets.
      for (std::uint64_t i = 0; i < s % 5; ++i) {
        ASSERT_EQ(a.uniform_int(0, 1 << 20), b.uniform_int(0, 1 << 20));
      }
      Rng child_a = a.fork();
      Rng child_b(b.fork_seed());
      for (int i = 0; i < 8; ++i) {
        ASSERT_EQ(child_a.engine()(), child_b.engine()())
            << "seed " << seed << " round " << round;
      }
    }
    for (int i = 0; i < 4; ++i) ASSERT_EQ(a.engine()(), b.engine()());
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(7);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, UniformIntBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, WeightedIndexRespectsZeroWeights) {
  Rng rng(7);
  const double weights[] = {0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.weighted_index(weights), 1u);
  }
}

TEST(Rng, WeightedIndexApproximatesWeights) {
  Rng rng(7);
  const double weights[] = {1.0, 3.0};
  int counts[2] = {0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_NEAR(double(counts[1]) / counts[0], 3.0, 0.5);
}

TEST(Strings, SplitJoin) {
  auto parts = split("a.b..c", '.');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, "."), "a.b..c");
}

TEST(Strings, CaseAndPadding) {
  EXPECT_EQ(to_lower("GooGLE.Com"), "google.com");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_right("abcdef", 4), "abcd");
  EXPECT_EQ(pad_left("7", 3), "  7");
  EXPECT_TRUE(ends_with("google.com", ".com"));
  EXPECT_FALSE(ends_with("com", ".com"));
}

TEST(Buffer, PrependFillsHeadroomInPlace) {
  util::Buffer buf = util::Buffer::allocate(16, /*headroom=*/8);
  std::memcpy(buf.append(5), "hello", 5);
  ASSERT_EQ(buf.size(), 5u);
  EXPECT_EQ(buf.headroom(), 8u);
  const std::uint8_t* payload = buf.data();

  std::uint8_t* front = buf.prepend(3);
  std::memcpy(front, "abc", 3);
  // In-place: the payload bytes did not move, the view grew leftwards.
  EXPECT_EQ(buf.data() + 3, payload);
  EXPECT_EQ(buf.headroom(), 5u);
  ASSERT_EQ(buf.size(), 8u);
  EXPECT_EQ(std::memcmp(buf.data(), "abchello", 8), 0);
}

TEST(Buffer, PrependBeyondHeadroomReallocatesCorrectly) {
  util::Buffer buf = util::Buffer::allocate(8, /*headroom=*/2);
  std::memcpy(buf.append(4), "data", 4);
  std::uint8_t* front = buf.prepend(6);  // only 2 bytes of headroom
  std::memcpy(front, "header", 6);
  ASSERT_EQ(buf.size(), 10u);
  EXPECT_EQ(std::memcmp(buf.data(), "headerdata", 10), 0);
}

TEST(Buffer, SharedPrependCopiesOnWrite) {
  util::Buffer a = util::Buffer::allocate(16, /*headroom=*/8);
  std::memcpy(a.append(4), "body", 4);
  util::Buffer b = a;  // refbump share
  EXPECT_FALSE(a.unique());

  std::memcpy(b.prepend(2), "xy", 2);
  // The writer got its own slab; the original view is untouched.
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(std::memcmp(a.data(), "body", 4), 0);
  ASSERT_EQ(b.size(), 6u);
  EXPECT_EQ(std::memcmp(b.data(), "xybody", 6), 0);
  EXPECT_TRUE(a.unique());
  EXPECT_TRUE(b.unique());
}

TEST(Buffer, SharedHandoffAcrossThreads) {
  // The L2 packet cache publishes share()d buffers produced on one shard
  // thread to readers on others. This pins the handoff: bytes survive the
  // move, the consumer's copies retain/release the slab atomically, and the
  // last release happens off the producing thread without corruption.
  constexpr int kRounds = 64;
  std::vector<util::Buffer> produced;
  for (int i = 0; i < kRounds; ++i) {
    util::Buffer buffer = util::Buffer::allocate(64);
    std::memset(buffer.append(16), 'a' + (i % 26), 16);
    buffer.share();
    produced.push_back(std::move(buffer));
  }

  std::atomic<int> bad_bytes{0};
  std::thread consumer([&] {
    for (int i = 0; i < kRounds; ++i) {
      util::Buffer copy = produced[i];  // atomic retain on a foreign slab
      const char expected = static_cast<char>('a' + (i % 26));
      for (std::size_t b = 0; b < copy.size(); ++b) {
        if (static_cast<char>(copy.data()[b]) != expected) ++bad_bytes;
      }
    }
  });
  consumer.join();
  EXPECT_EQ(bad_bytes.load(), 0);

  // Producer still holds valid sole references after the consumer drained.
  for (int i = 0; i < kRounds; ++i) {
    ASSERT_EQ(produced[i].size(), 16u);
    EXPECT_TRUE(produced[i].unique());
  }
}

TEST(Buffer, ConcurrentRetainReleaseOnSharedSlab) {
  // Two threads hammering copies of one shared buffer: the atomic refcount
  // must neither double-free nor leak (run under TSan this is the race
  // detector's target).
  util::Buffer original = util::Buffer::allocate(64);
  std::memcpy(original.append(5), "hello", 5);
  original.share();

  std::atomic<bool> start{false};
  std::atomic<int> mismatches{0};
  auto hammer = [&] {
    while (!start.load(std::memory_order_acquire)) {
    }
    for (int i = 0; i < 20000; ++i) {
      util::Buffer copy = original;
      if (copy.size() != 5 || std::memcmp(copy.data(), "hello", 5) != 0) {
        ++mismatches;
      }
    }
  };
  std::thread a(hammer);
  std::thread b(hammer);
  start.store(true, std::memory_order_release);
  a.join();
  b.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(original.unique());
  EXPECT_EQ(std::memcmp(original.data(), "hello", 5), 0);
}

TEST(BufferPool, CrossThreadLastReleaseRecyclesIntoReleasersPool) {
  util::BufferPool& home = util::BufferPool::local();
  home.trim();
  const auto before = home.stats();

  util::Buffer buffer = util::Buffer::allocate(128);
  std::memcpy(buffer.append(4), "data", 4);
  buffer.share();

  std::thread worker([moved = std::move(buffer)]() mutable {
    util::BufferPool& pool = util::BufferPool::local();
    const auto empty = pool.stats();
    EXPECT_EQ(std::memcmp(moved.data(), "data", 4), 0);
    moved = util::Buffer();  // last reference dies on this thread...
    EXPECT_EQ(pool.stats().cached, empty.cached + 1);  // ...and parks here
    pool.trim();
  });
  worker.join();

  // Nothing came back to the producing thread's free list.
  EXPECT_EQ(home.stats().cached, before.cached);
}

TEST(BufferPool, RecyclesSlabsFromFreeList) {
  util::BufferPool& pool = util::BufferPool::local();
  pool.trim();
  const auto before = pool.stats();

  { util::Buffer one = util::Buffer::allocate(100); }
  // The released slab sits on the free list and satisfies the next alloc.
  { util::Buffer two = util::Buffer::allocate(100); }

  const auto after = pool.stats();
  EXPECT_EQ(after.fresh_allocs, before.fresh_allocs + 1);
  EXPECT_GE(after.reuses, before.reuses + 1);
  EXPECT_GE(after.cached, 1u);

  pool.trim();
  EXPECT_EQ(pool.stats().cached, 0u);
}

TEST(BufferPool, HighWaterMarkTracksConcurrentSlabs) {
  util::BufferPool& pool = util::BufferPool::local();
  pool.trim();
  const auto before = pool.stats();

  std::vector<util::Buffer> live;
  for (int i = 0; i < 4; ++i) live.push_back(util::Buffer::allocate(64));
  const auto peak = pool.stats();
  EXPECT_GE(peak.outstanding, before.outstanding + 4);
  EXPECT_GE(peak.high_water, before.outstanding + 4);

  live.clear();
  // High-water is sticky: it keeps the peak after the slabs drain.
  EXPECT_GE(pool.stats().high_water, peak.high_water);
  pool.trim();
}

TEST(BufferPool, OversizeAllocationsBypassThePool) {
  util::BufferPool& pool = util::BufferPool::local();
  const auto before = pool.stats();
  { util::Buffer big = util::Buffer::allocate(util::BufferPool::kMaxPooledBytes + 1); }
  const auto after = pool.stats();
  EXPECT_EQ(after.oversize, before.oversize + 1);
  EXPECT_EQ(after.cached, before.cached);  // oversize slabs are never parked
}

TEST(Types, TimeConversions) {
  EXPECT_EQ(to_ms(1500), 1.5);
  EXPECT_EQ(from_ms(1.5), 1500);
  EXPECT_EQ(kSecond, 1000 * kMillisecond);
  EXPECT_EQ(kDay, 24 * kHour);
}

}  // namespace
}  // namespace doxlab
