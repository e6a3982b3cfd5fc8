// Unit tests of perfbench's own helpers: the percentile helpers, span
// self-time subtraction, the datagram checker, the server stream's loop
// splice and its in-order check. Build and run:
//
//   cmake -S perfbench -B <build> && cmake --build <build> --target perfbench_tests
//   <build>/perfbench_tests
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bench_core.hpp"
#include "inputs.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRankOnUnsortedInput) {
  std::vector<double> v = {4, 1, 3, 2};
  EXPECT_EQ(percentile(v, 50), 2);
  EXPECT_EQ(percentile(v, 75), 3);
  EXPECT_EQ(percentile(v, 100), 4);
  EXPECT_EQ(percentile(v, 0), 1);
  std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 50), 0);
}

TEST(Percentile, HighestSupportedNeedsTenSamplesBeyond) {
  std::vector<double> v = one_to(1000);
  std::reverse(v.begin(), v.end());
  const TailPercentile t = highest_supported_percentile(v);
  EXPECT_EQ(t.pct, 99.0);  // p99.9 would rest on a single sample
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 1000u);

  std::vector<double> big = one_to(10000);
  const TailPercentile b = highest_supported_percentile(big);
  EXPECT_EQ(b.pct, 99.9);  // rank 9990 exactly, despite 99.9 not being exact in binary
  EXPECT_EQ(b.beyond, 10u);
  EXPECT_EQ(b.value, 9990);
}

TEST(Percentile, TooFewSamplesSupportNothing) {
  std::vector<double> few = one_to(19);
  EXPECT_EQ(highest_supported_percentile(few).pct, 0.0);
  std::vector<double> twenty = one_to(20);
  const TailPercentile t = highest_supported_percentile(twenty);
  EXPECT_EQ(t.pct, 50.0);
  EXPECT_EQ(t.value, 10);
  EXPECT_EQ(t.beyond, 10u);
  std::vector<double> empty;
  EXPECT_EQ(highest_supported_percentile(empty).samples, 0u);
}

TEST(Histogram, BucketsAreExactLowAndUnderAPermilleHigh) {
  for (u32 v : {0u, 1u, 1023u, 1024u, 2047u}) {
    EXPECT_EQ(LatencyHistogram::bucket_of(v), v);
    EXPECT_EQ(LatencyHistogram::lower_edge(v), v);
  }
  for (u32 v : {2048u, 2049u, 123457u, 40'000'000u, 0xFFFFFFFFu}) {
    const std::size_t b = LatencyHistogram::bucket_of(v);
    EXPECT_LE(LatencyHistogram::lower_edge(b), v);
    EXPECT_GT(LatencyHistogram::lower_edge(b) + LatencyHistogram::width(b), v);
    EXPECT_LE(LatencyHistogram::width(b) / v, 1.0 / 1024);
    EXPECT_EQ(LatencyHistogram::lower_edge(b + 1), LatencyHistogram::lower_edge(b) +
                                                       LatencyHistogram::width(b));
  }
}

TEST(Histogram, PooledPercentilesMatchTheSortedSample) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile_us(50), 0);
  for (u32 ns = 1; ns <= 1000; ++ns) h.add(ns * 1000);  // 1..1000 us
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.percentile_us(50), 500, 500 * 1e-3);
  EXPECT_NEAR(h.percentile_us(99), 990, 990 * 1e-3);
  const TailPercentile t = h.highest_supported();
  EXPECT_EQ(t.pct, 99.0);  // the same ladder as the sample version
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_NEAR(t.value, 990, 990 * 1e-3);
}

TEST(Median, EvenAndOdd) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
}

TEST(Spans, SelfTimeSubtractsDirectChildrenOnly) {
  // parent [0,100) holds A [10,30) and B [40,70); B holds C [50,60).
  const std::vector<Span> spans = {
      {0, -1, 0, 100}, {1, 0, 10, 30}, {1, 0, 40, 70}, {2, 2, 50, 60}};
  const std::vector<i64> self = span_self_times(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 10);
}

TEST(Spans, TracerRecordsNestingAndFolds) {
  Tracer t(2);
  {
    ScopedSpan ignored(t, 0);  // disabled: nothing recorded
  }
  t.set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    ScopedSpan outer(t, 0);
    ScopedSpan inner(t, 1);
  }
  t.fold();
  EXPECT_EQ(t.totals(0).count, 3u);
  EXPECT_EQ(t.totals(1).count, 3u);
  EXPECT_EQ(t.totals(1).self_ns, t.totals(1).total_ns);
  EXPECT_EQ(t.totals(0).self_ns, t.totals(0).total_ns - t.totals(1).total_ns);
  EXPECT_GE(t.totals(0).self_ns, 0);
}

TEST(LatencyLog, CopiesRangesAndDetectsLapping) {
  LatencyLog log(8);
  for (int i = 1; i <= 5; ++i) log.record(i * 1000);
  std::vector<double> out;
  ASSERT_TRUE(log.copy_us(1, 4, out));
  EXPECT_EQ(out, (std::vector<double>{2, 3, 4}));
  LatencyHistogram pool;
  out.clear();
  ASSERT_TRUE(log.copy_us(0, 2, out, &pool));
  EXPECT_EQ(pool.count(), 2u);
  EXPECT_EQ(pool.percentile_us(100), 2);
  for (int i = 0; i < 10; ++i) log.record(1);
  out.clear();
  EXPECT_FALSE(log.copy_us(0, log.written(), out));
}

TEST(Datagrams, CheckIsByteExactAndCarriesTheSequence) {
  DatagramSpec spec;
  spec.mix = SizeMix::kImix;
  spec.escape_density = 0.25;
  spec.templates = 32;
  const DatagramSet set(spec, 7);
  const DatagramSet same(spec, 7);
  for (p5::u64 seq : {0ull, 31ull, 32ull, 100000ull}) {
    const p5::Bytes p = set.make(seq);
    EXPECT_EQ(p, same.make(seq));  // same seed, same inputs
    p5::u64 got = 0;
    ASSERT_TRUE(set.check(p, got));
    EXPECT_EQ(got, seq);
    p5::Bytes bad = p;
    bad.back() ^= 0x01;
    EXPECT_FALSE(set.check(bad, got));
    EXPECT_GT(set.wire_bytes(seq), p.size() + 8);  // flags, header, FCS
  }
  EXPECT_NE(DatagramSet(spec, 8).make(5), set.make(5));
}

TEST(SinkStream, LoopSpliceLosesNoDatagram) {
  DatagramSpec spec;
  spec.fixed_bytes = 512;
  spec.templates = 96;
  const DatagramSet set(spec, 3);
  const SinkStream s = encode_sink_stream(set, 96, p5::sonet::kSts3c);
  ASSERT_EQ(s.chunk_of.size(), 96u);
  // Opens and closes in idle fill: no datagram completes in the first two
  // or the last chunk.
  EXPECT_GE(s.chunk_of.front(), 2u);
  EXPECT_LT(s.chunk_of.back(), s.chunks.size() - 1);
  for (std::size_t i = 1; i < s.chunk_of.size(); ++i) EXPECT_GE(s.chunk_of[i], s.chunk_of[i - 1]);
  // Replayed back to back into one endpoint that reaps after every chunk.
  EXPECT_EQ(replay_sink_stream(s, set, p5::sonet::kSts3c, 3), 3 * 96u);
}

TEST(SinkOrder, FlagsDuplicatesReorderingAndUnsentChunks) {
  DatagramSpec spec;
  spec.fixed_bytes = 512;
  spec.templates = 96;
  const DatagramSet set(spec, 3);
  const SinkStream s = encode_sink_stream(set, 96, p5::sonet::kSts3c);
  // The client's window keeps it less than a segment ahead of the deliveries.
  const p5::u64 sent = s.chunk_of[10] + 1;
  ASSERT_LT(sent, s.chunks.size());
  SinkOrder o;
  EXPECT_EQ(o.accept(s, 0, sent), s.chunk_of[0]);
  EXPECT_EQ(o.accept(s, 3, sent), s.chunk_of[3]);  // 1 and 2 lost: still in order
  EXPECT_FALSE(o.accept(s, 3, sent));              // duplicate
  EXPECT_FALSE(o.accept(s, 2, sent));              // reordered
  EXPECT_FALSE(o.accept(s, 96, sent));             // not in the segment
  EXPECT_FALSE(o.accept(s, 11, s.chunk_of[11]));   // its chunk not sent yet
  EXPECT_EQ(o.accept(s, 4, sent), s.chunk_of[4]);  // the rejections moved nothing
  // The next segment starts with a smaller number.
  const p5::u64 next = s.chunks.size() + s.chunk_of[1];
  EXPECT_EQ(o.accept(s, 1, next + 1), next);
  EXPECT_EQ(o.loops, 1u);
}

TEST(Report, JsonLineCarriesEveryMetricWithItsUnit) {
  Report r;
  r.add("goodput_MBps", 123.5, "MB/s");
  r.add("setup_s", 0.25, "s");
  EXPECT_EQ(r.json_line(true, 10, 1),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {"
            "\"goodput_MBps\": {\"value\": 123.5, \"unit\": \"MB/s\"}, "
            "\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace perfbench
