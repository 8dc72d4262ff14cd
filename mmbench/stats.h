// The benchmark's own statistics: a fine log-linear latency histogram, the
// percentile rule, per-1k-op normalisation, ratios with an explicit base,
// quantiles, and the unattributed residual and fit check of a layer split.
// Header-only so stats_test.cc can check every rule without linking the
// program.
#ifndef MMBENCH_STATS_H_
#define MMBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace mmbench {

// Log-linear histogram: every power-of-two octave is split into 64 linear
// sub-buckets, so any recorded value is known to within 1/64 (1.6%). Values
// below 128 ns get one bucket each and are exact.
class Hist {
 public:
  static constexpr int kSubBits = 6;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kMaxMsb = 47;  // 2^47 ns ~ 39 hours tops out any span.
  static constexpr int kBuckets = ((kMaxMsb - kSubBits + 1) << kSubBits) + kSub;

  static int BucketFor(uint64_t ns) {
    if (ns < 2 * static_cast<uint64_t>(kSub)) {
      return static_cast<int>(ns);
    }
    int msb = 63 - __builtin_clzll(ns);
    if (msb > kMaxMsb) {
      return kBuckets - 1;
    }
    int shift = msb - kSubBits;
    return (shift << kSubBits) + static_cast<int>(ns >> shift);
  }
  static uint64_t LowerBound(int bucket) {
    if (bucket < 2 * kSub) {
      return static_cast<uint64_t>(bucket);
    }
    int shift = (bucket >> kSubBits) - 1;
    uint64_t sub = static_cast<uint64_t>(bucket - (shift << kSubBits));
    return sub << shift;
  }
  static uint64_t Width(int bucket) {
    return bucket < 2 * kSub ? 1 : uint64_t{1} << ((bucket >> kSubBits) - 1);
  }

  void Record(uint64_t ns) {
    ++counts_[BucketFor(ns)];
    ++count_;
    sum_ += ns;
  }
  void Merge(const Hist& other) {
    for (int b = 0; b < kBuckets; ++b) {
      counts_[b] += other.counts_[b];
    }
    count_ += other.count_;
    sum_ += other.sum_;
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  double Mean() const { return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_; }

  // Nearest-rank percentile: the value of the ceil(p * n)-th smallest sample,
  // placed inside its bucket as if the bucket's samples were spread evenly
  // (each at the middle of its share). 0 when empty.
  double Percentile(double p) const {
    if (count_ == 0) {
      return 0.0;
    }
    uint64_t rank = static_cast<uint64_t>(std::ceil(p * static_cast<double>(count_)));
    rank = std::clamp<uint64_t>(rank, 1, count_);
    uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      if (counts_[b] == 0) {
        continue;
      }
      if (seen + counts_[b] >= rank) {
        double within =
            (static_cast<double>(rank - seen) - 0.5) / static_cast<double>(counts_[b]);
        if (Width(b) == 1) {
          return static_cast<double>(LowerBound(b));
        }
        return static_cast<double>(LowerBound(b)) + within * static_cast<double>(Width(b));
      }
      seen += counts_[b];
    }
    return static_cast<double>(LowerBound(kBuckets - 1));
  }

 private:
  uint64_t counts_[kBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

// The tail percentile reported for a timing: the highest that still has at
// least ten samples beyond it. With n samples, p qualifies when
// n - ceil(p * n) >= 10.
inline bool HasTenBeyond(uint64_t n, double p) {
  uint64_t rank = static_cast<uint64_t>(std::ceil(p * static_cast<double>(n)));
  return n >= rank && n - rank >= 10;
}
// Fewest samples for which p qualifies (1000 for p = 0.99).
inline uint64_t MinSamplesForTail(double p) {
  uint64_t n = 1;
  while (!HasTenBeyond(n, p)) {
    ++n;
  }
  return n;
}

// Events per 1000 operations. The base is the operations the counter's window
// completed; an empty window reports 0 rather than dividing by zero.
inline double PerKop(uint64_t events, uint64_t ops) {
  return ops == 0 ? 0.0 : 1000.0 * static_cast<double>(events) / static_cast<double>(ops);
}

// |part| / |base|, 0 when the base is empty (nothing to be a share of).
inline double Ratio(double part, double base) { return base == 0.0 ? 0.0 : part / base; }

// The q-quantile of |v|, interpolating linearly between order statistics
// (q = 0.5 is the median). 0 when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// A layer split of one operation type: the op's mean latency and the mean
// per-op time of each layer span on its path. The unattributed residual is
// what the layers do not cover.
struct Attribution {
  double op_mean = 0.0;
  std::vector<double> parts;

  double Attributed() const {
    double sum = 0.0;
    for (double part : parts) {
      sum += part;
    }
    return sum;
  }
  double Residual() const { return op_mean - Attributed(); }
};

// Spans timed inside one interval, each corrected for one clock read, add up
// to no more than the interval's own (corrected) time. |enclosing| is the
// mean of that interval per op; |parts| the per-op means of the spans in it.
// The slack covers rounding only.
inline bool PartsFitWhole(const std::vector<double>& parts, double enclosing) {
  double sum = 0.0;
  for (double part : parts) {
    sum += part;
  }
  return enclosing > 0.0 && sum <= enclosing * (1 + 1e-9) + 1e-6;
}

}  // namespace mmbench

#endif  // MMBENCH_STATS_H_
