// SpscRing — deterministic edge cases (wraparound, full, empty, capacity
// rounding, move-only payloads) plus the two-thread stress test the threaded
// line card and the server shards stand on: millions of blocking push/pop
// ops with strict order and checksum verification. Run the suite under
// -fsanitize=thread to prove the ring's acquire/release protocol racefree.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "common/spsc_ring.hpp"

namespace p5 {
namespace {

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(256).capacity(), 256u);
  EXPECT_EQ(SpscRing<int>(257).capacity(), 512u);
}

TEST(SpscRing, EmptyRingPopsNothing) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size_approx(), 0u);
  EXPECT_FALSE(ring.try_pop().has_value());
  EXPECT_EQ(ring.push_stalls(), 0u);
}

TEST(SpscRing, FullRingRejectsAndCountsStalls) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int(i)));
  EXPECT_EQ(ring.size_approx(), 4u);
  EXPECT_FALSE(ring.try_push(99));
  EXPECT_FALSE(ring.try_push(100));
  EXPECT_EQ(ring.push_stalls(), 2u);
  // One slot freed -> exactly one more push fits.
  EXPECT_EQ(ring.try_pop().value(), 0);
  EXPECT_TRUE(ring.try_push(4));
  EXPECT_FALSE(ring.try_push(5));
  EXPECT_EQ(ring.push_stalls(), 3u);
}

TEST(SpscRing, FailedPushLeavesValueIntact) {
  SpscRing<std::unique_ptr<int>> ring(2);
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(1)));
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(2)));
  auto v = std::make_unique<int>(3);
  EXPECT_FALSE(ring.try_push(std::move(v)));
  ASSERT_NE(v, nullptr);  // not consumed by the failed push
  EXPECT_EQ(*v, 3);
  EXPECT_EQ(*ring.try_pop().value(), 1);
  EXPECT_TRUE(ring.try_push(std::move(v)));
  EXPECT_EQ(v, nullptr);  // consumed by the successful push
}

TEST(SpscRing, WraparoundPreservesFifoOrder) {
  // Capacity 8; run the indices far past several wraps with a mixed
  // push/pop cadence and check strict FIFO at every step.
  SpscRing<u64> ring(8);
  u64 next_push = 0, next_pop = 0;
  for (int round = 0; round < 1000; ++round) {
    const std::size_t burst = 1 + (round % 8);
    for (std::size_t i = 0; i < burst; ++i)
      if (ring.try_push(u64(next_push))) ++next_push;
    const std::size_t drain = 1 + ((round * 3) % 8);
    for (std::size_t i = 0; i < drain; ++i) {
      auto v = ring.try_pop();
      if (!v) break;
      ASSERT_EQ(*v, next_pop);
      ++next_pop;
    }
  }
  while (auto v = ring.try_pop()) {
    ASSERT_EQ(*v, next_pop);
    ++next_pop;
  }
  EXPECT_EQ(next_pop, next_push);
  EXPECT_GT(next_push, 2000u);  // well past wraparound
}

TEST(SpscRing, DrainAfterInterleavedTraffic) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(ring.try_push(int(i)));
  EXPECT_EQ(ring.try_pop().value(), 0);
  EXPECT_EQ(ring.try_pop().value(), 1);
  for (int i = 3; i < 6; ++i) ASSERT_TRUE(ring.try_push(int(i)));  // wraps, now full
  EXPECT_FALSE(ring.try_push(99));
  for (int expect = 2; expect < 6; ++expect) EXPECT_EQ(ring.try_pop().value(), expect);
  EXPECT_FALSE(ring.try_pop().has_value());
  EXPECT_TRUE(ring.empty());
}

/// The stress payload: a value plus a marker that must travel with it (a
/// stale or torn slot betrays itself on the consumer side).
struct Item {
  u64 seq = 0;
  u64 tag = 0;  ///< seq * kTagMult, checked on the consumer side
};
constexpr u64 kTagMult = 0x9E3779B97F4A7C15ull;

TEST(SpscRing, TwoThreadStressMillionsOfOpsKeepOrderAndChecksum) {
  constexpr u64 kItems = 2'000'000;
  SpscRing<Item> ring(1024);

  u64 producer_sum = 0, consumer_sum = 0;
  bool order_ok = true;

  std::thread producer([&] {
    for (u64 i = 0; i < kItems; ++i) {
      producer_sum += i ^ (i * kTagMult);
      ring.push(Item{i, i * kTagMult});
    }
  });
  std::thread consumer([&] {
    for (u64 i = 0; i < kItems; ++i) {
      const Item it = ring.pop();
      order_ok = order_ok && it.seq == i && it.tag == i * kTagMult;
      consumer_sum += it.seq ^ it.tag;
    }
  });
  producer.join();
  consumer.join();

  EXPECT_TRUE(order_ok);
  EXPECT_EQ(producer_sum, consumer_sum);
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, TwoThreadStressWithHeapPayloads) {
  // Same protocol with an allocating payload: TSan/ASan-visible if a slot
  // is handed over before its contents are published.
  constexpr u64 kItems = 200'000;
  SpscRing<std::unique_ptr<u64>> ring(64);

  std::thread producer([&] {
    for (u64 i = 0; i < kItems; ++i) ring.push(std::make_unique<u64>(i));
  });
  u64 mismatches = 0;
  std::thread consumer([&] {
    for (u64 i = 0; i < kItems; ++i) {
      const auto p = ring.pop();
      if (!p || *p != i) ++mismatches;
    }
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace p5
