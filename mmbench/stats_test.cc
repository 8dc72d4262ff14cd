// Tests of the benchmark's own statistics (mmbench/stats.h): histogram
// resolution, the percentile rule, per-1k-op normalisation, ratio bases,
// quantiles, percentiles over merged per-thread histograms, and the layer
// split's residual and fit check. Exits non-zero on failure.
#include <cmath>
#include <cstdio>
#include <vector>

#include "mmbench/stats.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

using mmbench::Hist;

void TestHistogramResolution() {
  for (uint64_t v = 0; v < 128; ++v) {
    CHECK(Hist::LowerBound(Hist::BucketFor(v)) == v);  // Small values are exact.
  }
  for (uint64_t v = 128; v < (uint64_t{1} << 40); v = v * 3 / 2 + 7) {
    int b = Hist::BucketFor(v);
    uint64_t lo = Hist::LowerBound(b);
    CHECK(lo <= v && v < lo + Hist::Width(b));
    CHECK(static_cast<double>(Hist::Width(b)) / static_cast<double>(lo) <= 1.0 / 64 + 1e-12);
    CHECK(Hist::BucketFor(lo) == b);
  }
  CHECK(Hist::BucketFor(~uint64_t{0}) == Hist::kBuckets - 1);
}

void TestNearestRankPercentile() {
  Hist h;
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Record(v);
  }
  CHECK(h.Percentile(0.5) == 50.0);
  CHECK(h.Percentile(0.99) == 99.0);
  CHECK(h.Percentile(1.0) == 100.0);
  CHECK(h.Percentile(0.001) == 1.0);
  CHECK(Near(h.Mean(), 50.5, 1e-12));
  CHECK(Hist().Percentile(0.5) == 0.0);

  // Large values land within the bucket's 1/64 resolution.
  Hist big;
  for (int i = 0; i < 1000; ++i) {
    big.Record(1000000);
  }
  CHECK(Near(big.Percentile(0.99), 1000000.0, 1000000.0 / 64));
}

void TestTenSamplesBeyond() {
  // p99 needs 1000 samples: ceil(0.99 * 1000) = 990 leaves 10 beyond.
  CHECK(mmbench::HasTenBeyond(1000, 0.99));
  CHECK(!mmbench::HasTenBeyond(999, 0.99));
  CHECK(mmbench::MinSamplesForTail(0.99) == 1000);
  CHECK(mmbench::MinSamplesForTail(0.5) == 20);
  CHECK(!mmbench::HasTenBeyond(0, 0.5));
}

void TestPerKopAndRatios() {
  CHECK(mmbench::PerKop(5, 1000) == 5.0);
  CHECK(mmbench::PerKop(3, 1500) == 2.0);
  CHECK(mmbench::PerKop(7, 0) == 0.0);  // Empty base: 0, not a division by zero.
  CHECK(mmbench::Ratio(1, 4) == 0.25);
  CHECK(mmbench::Ratio(3, 0) == 0.0);
  // A hit ratio takes hits over hits + misses, never over the hits alone.
  CHECK(mmbench::Ratio(90, 90 + 10) == 0.9);
}

void TestMedianAndQuantiles() {
  CHECK(mmbench::Median({3, 1, 2}) == 2.0);
  CHECK(mmbench::Median({4, 1, 3, 2}) == 2.5);
  CHECK(mmbench::Median({}) == 0.0);
  CHECK(mmbench::Quantile({5, 1, 4, 2, 3}, 0.25) == 2.0);
  CHECK(mmbench::Quantile({4, 1, 3, 2}, 0.25) == 1.75);
  CHECK(mmbench::Quantile({4, 1, 3, 2}, 0.75) == 3.25);
  CHECK(mmbench::Quantile({7}, 0.25) == 7.0);
}

void TestMergedPercentiles() {
  // An op's percentiles are taken over every sample of every thread: the
  // merged histograms equal one histogram of all samples, so a stalled
  // stretch (here one thread's 2% of samples at 100x) sets the p99 in full.
  Hist a;
  Hist b;
  Hist all;
  for (uint64_t i = 0; i < 5000; ++i) {
    uint64_t ns = i % 100 + 1;
    a.Record(ns);
    all.Record(ns);
    uint64_t slow = i < 200 ? ns * 100 : ns;
    b.Record(slow);
    all.Record(slow);
  }
  a.Merge(b);
  CHECK(a.count() == all.count());
  CHECK(a.sum() == all.sum());
  CHECK(a.Percentile(0.5) == all.Percentile(0.5));
  CHECK(a.Percentile(0.99) == all.Percentile(0.99));
  CHECK(a.Percentile(0.99) > 99.0 * 50);
}

void TestUnattributedResidual() {
  mmbench::Attribution a;
  a.op_mean = 1000;
  a.parts = {120, 300, 80};
  CHECK(a.Attributed() == 500);
  CHECK(a.Residual() == 500);
  CHECK(a.Attributed() + a.Residual() == a.op_mean);
  // A facade op faster than its replayed layers leaves a negative residual.
  a.parts = {700, 400};
  CHECK(a.Residual() == -100);
}

void TestPartsFitWhole() {
  CHECK(mmbench::PartsFitWhole({120, 300, 80}, 1000));
  CHECK(mmbench::PartsFitWhole({600, 400}, 1000));  // Exactly covered.
  // Overlapping or double-charged spans exceed the interval they lie in.
  CHECK(!mmbench::PartsFitWhole({700, 400}, 1000));
  CHECK(!mmbench::PartsFitWhole({600, 400.01}, 1000));
  // No interval timed: nothing can fit.
  CHECK(!mmbench::PartsFitWhole({}, 0));
  CHECK(mmbench::PartsFitWhole({}, 1));
}

}  // namespace

int main() {
  TestHistogramResolution();
  TestNearestRankPercentile();
  TestTenSamplesBeyond();
  TestPerKopAndRatios();
  TestMedianAndQuantiles();
  TestMergedPercentiles();
  TestUnattributedResidual();
  TestPartsFitWhole();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("mmbench stats: all checks passed\n");
  return 0;
}
