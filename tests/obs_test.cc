// Unit tests of the observability layer: histogram bucketing and merging,
// percentile math, trace-ring wraparound accounting and name tables.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/stats.h"
#include "src/obs/telemetry.h"

namespace cortenmm {
namespace {

TEST(LatencyHistogramTest, BucketBoundaries) {
  // Log-linear buckets: values below kLatencySubBuckets are exact, above
  // that each power-of-two octave splits into kLatencySubBuckets linear
  // sub-buckets (12.5% relative resolution).
  EXPECT_EQ(LatencyHistogram::BucketFor(0), 0);
  EXPECT_EQ(LatencyHistogram::BucketFor(1), 1);
  EXPECT_EQ(LatencyHistogram::BucketFor(7), 7);
  EXPECT_EQ(LatencyHistogram::BucketFor(8), 8);
  EXPECT_EQ(LatencyHistogram::BucketFor(15), 15);
  // [16, 18) share the first sub-bucket of the 2^4 octave.
  EXPECT_EQ(LatencyHistogram::BucketFor(16), 16);
  EXPECT_EQ(LatencyHistogram::BucketFor(17), 16);
  EXPECT_EQ(LatencyHistogram::BucketFor(18), 17);
  // The 2^9 octave ends at bucket 63; 1024 starts a new octave.
  EXPECT_EQ(LatencyHistogram::BucketFor(1023), 63);
  EXPECT_EQ(LatencyHistogram::BucketFor(1024), 64);
  EXPECT_EQ(LatencyHistogram::BucketFor(1151), 64);
  EXPECT_EQ(LatencyHistogram::BucketFor(1152), 65);
  // The top bucket absorbs everything beyond 2^47.
  EXPECT_EQ(LatencyHistogram::BucketFor(~0ull), LatencyHistogram::kBuckets - 1);
  EXPECT_EQ(LatencyHistogram::BucketLowerBound(10), 10u);
  EXPECT_EQ(LatencyHistogram::BucketLowerBound(64), 1024u);
  EXPECT_EQ(LatencyHistogram::BucketLowerBound(65), 1152u);
  // Round-trip: every bucket's lower bound maps back to that bucket.
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
    EXPECT_EQ(LatencyHistogram::BucketFor(LatencyHistogram::BucketLowerBound(b)), b);
  }
}

TEST(LatencyHistogramTest, RecordAccumulates) {
  LatencyHistogram h;
  h.Record(0);
  h.Record(5);
  h.Record(5);
  h.Record(1000);
  EXPECT_EQ(h.TotalCount(), 4u);
  EXPECT_EQ(h.SumNanos(), 1010u);
  EXPECT_EQ(h.MaxNanos(), 1000u);
  EXPECT_EQ(h.BucketCount(LatencyHistogram::BucketFor(5)), 2u);
  h.Reset();
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.MaxNanos(), 0u);
}

TEST(LatencyHistogramTest, SnapshotMergesMultipleHistograms) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(10);
  a.Record(100);
  b.Record(10);
  b.Record(5000);

  HistogramSnapshot merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_EQ(merged.TotalCount(), 4u);
  EXPECT_EQ(merged.sum_ns, 10u + 100u + 10u + 5000u);
  EXPECT_EQ(merged.max_ns, 5000u);
  EXPECT_EQ(merged.counts[LatencyHistogram::BucketFor(10)], 2u);
}

TEST(LatencyHistogramTest, PercentileMath) {
  LatencyHistogram h;
  EXPECT_EQ(h.Percentile(0.5), 0u);  // Empty histogram.

  // 100 samples in the [64, 128) bucket: every percentile interpolates
  // within that bucket, so the result is bounded by it.
  for (int i = 0; i < 100; ++i) {
    h.Record(64);
  }
  uint64_t p50 = h.Percentile(0.5);
  EXPECT_GE(p50, 64u);
  EXPECT_LT(p50, 128u);
  EXPECT_LE(h.Percentile(0.10), p50);
  EXPECT_LE(p50, h.Percentile(0.99));

  // Add one huge outlier: p50 stays in the small bucket, the max percentile
  // (rank 101 of 101) lands in the outlier's bucket.
  h.Record(1u << 20);
  EXPECT_LT(h.Percentile(0.5), 128u);
  EXPECT_GE(h.Percentile(1.0), 1u << 20);
}

TEST(LatencyHistogramTest, PercentileInterpolatesWithinBucket) {
  LatencyHistogram h;
  // Two buckets: 10 samples in [4,8), 10 in [8,16).
  for (int i = 0; i < 10; ++i) {
    h.Record(4);
    h.Record(8);
  }
  // p25 must land in the first bucket, p75 in the second.
  EXPECT_LT(h.Percentile(0.25), 8u);
  EXPECT_GE(h.Percentile(0.75), 8u);
  EXPECT_LT(h.Percentile(0.75), 16u);
}

TEST(TraceRingTest, RecordsAndMergesSorted) {
  // A TraceRing embeds every CPU's ring (several MB) — heap-allocate it, as
  // Telemetry::Instance() does.
  auto ring_storage = std::make_unique<TraceRing>();
  TraceRing& ring = *ring_storage;
  ring.Record(TraceKind::kAcquireEnd, 1, 2);
  ring.Record(TraceKind::kShootdown, 3, 4);
  EXPECT_EQ(ring.Recorded(), 2u);
  EXPECT_EQ(ring.Dropped(), 0u);

  std::vector<TraceEvent> events = ring.MergeSorted();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_LE(events[0].ns, events[1].ns);
  EXPECT_EQ(events[0].kind, TraceKind::kAcquireEnd);
  EXPECT_EQ(events[0].arg0, 1u);
  EXPECT_EQ(events[1].kind, TraceKind::kShootdown);
  EXPECT_EQ(events[1].arg1, 4u);

  ring.Reset();
  EXPECT_EQ(ring.Recorded(), 0u);
  EXPECT_TRUE(ring.MergeSorted().empty());
}

TEST(TraceRingTest, WraparoundOverwritesOldestAndCountsDrops) {
  auto ring_storage = std::make_unique<TraceRing>();
  TraceRing& ring = *ring_storage;
  // All events land on this thread's CPU slot, so overflowing kCapacity
  // overwrites the oldest events of that slot.
  const uint64_t total = TraceRing::kCapacity + 100;
  for (uint64_t i = 0; i < total; ++i) {
    ring.Record(TraceKind::kAcquireRetry, i, 0);
  }
  EXPECT_EQ(ring.Recorded(), total);
  EXPECT_EQ(ring.Dropped(), 100u);

  std::vector<TraceEvent> events = ring.MergeSorted();
  EXPECT_EQ(events.size(), TraceRing::kCapacity);
  // The survivors are the newest kCapacity events: 100 .. total-1.
  uint64_t min_arg = ~0ull;
  for (const TraceEvent& e : events) {
    min_arg = std::min(min_arg, e.arg0);
  }
  EXPECT_EQ(min_arg, 100u);
}

TEST(TraceRingTest, CapacityIsConfigurable) {
  auto ring_storage = std::make_unique<TraceRing>();
  TraceRing& ring = *ring_storage;
  EXPECT_EQ(ring.Capacity(), TraceRing::kCapacity);

  // Shrink: a quiescent resize frees the buffers; the next Record allocates
  // at the new size, and overflow is measured against it.
  constexpr uint64_t kSmall = 256;
  ring.SetCapacity(kSmall);
  EXPECT_EQ(ring.Capacity(), kSmall);
  const uint64_t total = kSmall + 100;
  for (uint64_t i = 0; i < total; ++i) {
    ring.Record(TraceKind::kAcquireRetry, i, 0);
  }
  EXPECT_EQ(ring.Recorded(), total);
  EXPECT_EQ(ring.Dropped(), 100u);
  EXPECT_EQ(ring.MergeSorted().size(), kSmall);

  // Grow: the same event count now fits with zero drops.
  ring.SetCapacity(2 * total);
  for (uint64_t i = 0; i < total; ++i) {
    ring.Record(TraceKind::kAcquireRetry, i, 0);
  }
  EXPECT_EQ(ring.Dropped(), 0u);
  EXPECT_EQ(ring.MergeSorted().size(), total);

  // Values are clamped to at least one slot.
  ring.SetCapacity(0);
  EXPECT_GE(ring.Capacity(), 1u);
}

TEST(TelemetryTest, RecordAndMergeAcrossThreads) {
  Telemetry& t = Telemetry::Instance();
  t.Reset();
  t.RecordOp(MmOp::kMmap, 100);
  std::thread other([&] { t.RecordOp(MmOp::kMmap, 300); });
  other.join();

  HistogramSnapshot merged = t.MergedOp(MmOp::kMmap);
  EXPECT_EQ(merged.TotalCount(), 2u);
  EXPECT_EQ(merged.sum_ns, 400u);

  t.RecordPhase(LockPhase::kMcsAcquire, 50);
  EXPECT_EQ(t.MergedPhase(LockPhase::kMcsAcquire).TotalCount(), 1u);

  t.Reset();
  EXPECT_EQ(t.MergedOp(MmOp::kMmap).TotalCount(), 0u);
  EXPECT_EQ(t.MergedPhase(LockPhase::kMcsAcquire).TotalCount(), 0u);
}

TEST(TelemetryTest, DumpJsonContainsRecordedSections) {
  Telemetry& t = Telemetry::Instance();
  t.Reset();
  t.RecordOp(MmOp::kMunmap, 123);
  t.RecordPhase(LockPhase::kShootdownWait, 77);
  t.Trace(TraceKind::kShootdown, 8, 2);

  std::string json = t.DumpJson("unit");
  EXPECT_NE(json.find("\"label\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"munmap\""), std::string::npos);
  EXPECT_NE(json.find("\"shootdown_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"p50_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":1"), std::string::npos);
  // Empty histograms are omitted.
  EXPECT_EQ(json.find("\"fork\""), std::string::npos);
  t.Reset();
}

TEST(TelemetryTest, ScopedTimersRecordOncePerOutermostEntry) {
  Telemetry& t = Telemetry::Instance();
  t.Reset();
  {
    ScopedOpTimer outer(MmOp::kMmap);
    // Nested facade delegation (MmapAnon -> fixed-placement helper) must not
    // double-count the entry.
    ScopedOpTimer inner(MmOp::kMmap);
  }
  EXPECT_EQ(t.MergedOp(MmOp::kMmap).TotalCount(), 1u);
  {
    ScopedPhaseTimer phase(LockPhase::kRwDescent);
  }
  EXPECT_EQ(t.MergedPhase(LockPhase::kRwDescent).TotalCount(), 1u);
  t.Reset();
}

TEST(TelemetryClockTest, MonotonicNonZeroProgress) {
  uint64_t a = TelemetryNowNanos();
  uint64_t b = TelemetryNowNanos();
  EXPECT_LE(a, b);
}

TEST(NameTableTest, EveryMmOpHasAName) {
  for (int i = 0; i < static_cast<int>(MmOp::kCount); ++i) {
    const char* name = MmOpName(static_cast<MmOp>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u) << "MmOp " << i;
  }
}

TEST(NameTableTest, EveryLockPhaseHasAName) {
  for (int i = 0; i < static_cast<int>(LockPhase::kCount); ++i) {
    const char* name = LockPhaseName(static_cast<LockPhase>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u) << "LockPhase " << i;
  }
}

TEST(NameTableTest, EveryTraceKindHasAName) {
  for (int i = 0; i < static_cast<int>(TraceKind::kCount); ++i) {
    const char* name = TraceKindName(static_cast<TraceKind>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u) << "TraceKind " << i;
  }
}

TEST(NameTableTest, EveryCounterHasADistinctName) {
  std::vector<std::string> seen;
  for (int i = 0; i < static_cast<int>(Counter::kCount); ++i) {
    const char* name = CounterName(static_cast<Counter>(i));
    ASSERT_NE(name, nullptr);
    std::string s(name);
    EXPECT_GT(s.size(), 0u) << "Counter " << i;
    for (const std::string& prev : seen) {
      EXPECT_NE(prev, s) << "duplicate counter name at " << i;
    }
    seen.push_back(s);
  }
}

TEST(StatsDomainTest, TotalSumsEverySlot) {
  StatsDomain stats;
  stats.Add(Counter::kPageFaults, 3);
  std::thread other([&] { stats.Add(Counter::kPageFaults, 4); });
  other.join();
  EXPECT_EQ(stats.Total(Counter::kPageFaults), 7u);
  std::string report = stats.Report();
  EXPECT_NE(report.find(CounterName(Counter::kPageFaults)), std::string::npos);
  stats.Reset();
  EXPECT_EQ(stats.Total(Counter::kPageFaults), 0u);
}

}  // namespace
}  // namespace cortenmm
