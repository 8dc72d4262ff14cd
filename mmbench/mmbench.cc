// The repository benchmark program.
//
//   mmbench --workload <lifecycle-1t|contended-4t> --seed <n>
//           --seconds <s> --trace <0|1> [--setup-only]
//
// --trace 0 measures the end-to-end metrics: set-up time, completed facade
// ops per second, p50/p99 latency of mmap, munmap, mprotect, fault and fork,
// and the page-table + metadata memory overhead. --trace 1 measures the
// per-layer split instead: an untraced and a traced facade phase (their
// throughput difference is the tracing overhead; counter and telemetry
// deltas come from the traced one), then a split phase in which every second
// step replays its ops through the layer functions, one span per call, while
// the others run through the facade. --setup-only times set-up alone and
// exits.
//
// Every run checks its outputs: every written word reads back, fork's COW
// isolation holds both ways, every page table is well formed at teardown and
// no frame leaked once the magazines, RCU and LATR are drained. The last line
// of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <pthread.h>
#include <sched.h>

#include <array>
#include <barrier>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "mmbench/bench.h"
#include "src/common/cpu.h"
#include "src/common/stats.h"
#include "src/common/topology.h"
#include "src/pmm/buddy.h"
#include "src/pmm/phys_mem.h"
#include "src/sync/rcu.h"
#include "src/tlb/shootdown.h"
#include "src/verif/wf_checker.h"

namespace mmbench {
namespace {

using cortenmm::Counter;

// Simulated physical memory: room for contended-4t's 128 MiB resident set on
// node 0 (half the arena with the default two nodes) plus PT pages, magazines
// and depots, without spilling to the remote node.
constexpr size_t kArenaBytes = size_t{512} << 20;
constexpr double kTailP = 0.99;
// Forks in a ForkBurst: about five seconds of forking. Fork runs in fast and
// slow host phases that last seconds, and a burst of 2000 or 8000 forks read
// its median up to 1.5x apart between runs.
constexpr uint64_t kForkBurst = 16000;
// Completions are counted per segment this long; the window grows by whole
// segments.
constexpr double kSegmentSeconds = 0.1;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  bool setup_only = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--setup-only") {
      a->setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      long s = std::strtol(value.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || s < 1 || s > 600) {
        return false;
      }
      a->seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      a->trace = value == "1" ? 1 : 0;
    } else {
      return false;
    }
  }
  return IsWorkloadName(a->workload) && have_seed &&
         (a->setup_only || (a->seconds > 0 && a->trace >= 0));
}

// --- Host CPUs ------------------------------------------------------------------

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  if (cpus.empty()) {
    cpus.push_back(0);
  }
  return cpus;
}

void PinThisThread(int host_cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(host_cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

std::string CpuModel() {
#if defined(__x86_64__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
  }
  return out;
}

// --- Worker team --------------------------------------------------------------

// N workers, each pinned to its own host CPU and bound to simulated CPU t; the
// calling thread is worker 0. Run() executes one phase on all of them.
class Team {
 public:
  Team(int n, const std::vector<int>& host_cpus) : barrier_(n) {
    for (int t = 1; t < n; ++t) {
      int host = host_cpus[static_cast<size_t>(t) % host_cpus.size()];
      workers_.emplace_back([this, t, host] {
        PinThisThread(host);
        cortenmm::BindThisThreadToCpu(t);
        for (;;) {
          barrier_.arrive_and_wait();
          if (quit_) {
            return;
          }
          (*phase_)(t);
          barrier_.arrive_and_wait();
        }
      });
    }
  }
  ~Team() {
    quit_ = true;
    barrier_.arrive_and_wait();
    for (std::thread& worker : workers_) {
      worker.join();
    }
  }
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  void Run(const std::function<void(int)>& phase) {
    phase_ = &phase;
    barrier_.arrive_and_wait();
    phase(0);
    barrier_.arrive_and_wait();
  }

 private:
  std::barrier<> barrier_;
  const std::function<void(int)>* phase_ = nullptr;
  bool quit_ = false;
  std::vector<std::thread> workers_;
};

// --- Measurement --------------------------------------------------------------

struct Counters {
  std::array<uint64_t, static_cast<size_t>(Counter::kCount)> v{};

  static Counters Now() {
    Counters c;
    for (size_t i = 0; i < c.v.size(); ++i) {
      c.v[i] = cortenmm::GlobalStats().Total(static_cast<Counter>(i));
    }
    return c;
  }
  uint64_t Delta(const Counters& before, Counter k) const {
    return v[static_cast<size_t>(k)] - before.v[static_cast<size_t>(k)];
  }
};

// A measured loop split into equal segments.
struct Window {
  uint64_t t0 = 0;
  uint64_t seg_ns = 0;
  int segments = 0;

  double SegSeconds() const { return static_cast<double>(seg_ns) * 1e-9; }
};

// Runs Step on every worker until the window's last segment ends. With
// |min_samples| > 0 the window grows by a second at a time (up to twice its
// length) until each op in |ops| has that many samples, so every reported
// tail percentile has ten samples beyond it.
Window MeasureLoop(Team& team, Workload& wl, std::vector<Ctx>& ctx,
                   std::vector<Recorder>* recs, double seconds,
                   const std::vector<int>& ops, uint64_t min_samples) {
  Window w;
  w.segments = std::max(1, static_cast<int>(seconds / kSegmentSeconds + 0.5));
  w.seg_ns = static_cast<uint64_t>(kSegmentSeconds * 1e9);
  w.t0 = Now();
  int max_segments = min_samples > 0 ? 2 * w.segments : w.segments;
  if (recs != nullptr) {
    for (size_t t = 0; t < recs->size(); ++t) {
      (*recs)[t].Start(w.t0, w.seg_ns, static_cast<size_t>(max_segments) + 1);
      ctx[t].rec = &(*recs)[t];
    }
  }
  uint64_t deadline = 0;
  std::function<void(int)> phase = [&](int t) {
    while (Now() < deadline) {
      wl.Step(ctx[t]);
    }
  };
  for (;;) {
    deadline = w.t0 + static_cast<uint64_t>(w.segments) * w.seg_ns;
    team.Run(phase);
    if (recs == nullptr || min_samples == 0 || w.segments >= max_segments) {
      break;
    }
    bool enough = true;
    for (int op : ops) {
      uint64_t n = 0;
      for (const Recorder& r : *recs) {
        n += r.count(op);
      }
      enough = enough && n >= min_samples;
    }
    if (enough) {
      break;
    }
    w.segments = std::min(max_segments, w.segments + static_cast<int>(1 / kSegmentSeconds));
  }
  for (Ctx& c : ctx) {
    c.rec = nullptr;
  }
  return w;
}

// Ops completed in the window per second of it.
double OpsPerSecond(const std::vector<Recorder>& recs, const Window& w) {
  std::vector<double> per;
  uint64_t total = 0;
  for (int s = 0; s < w.segments; ++s) {
    uint64_t ops = 0;
    for (const Recorder& r : recs) {
      ops += r.SegmentOps(static_cast<size_t>(s));
    }
    total += ops;
    per.push_back(static_cast<double>(ops) / w.SegSeconds());
  }
  std::printf("segment ops/s over %d segments of %.1f s: min %.0f median %.0f max %.0f; "
              "overall %.0f\n",
              w.segments, w.SegSeconds(), Quantile(per, 0), Median(per), Quantile(per, 1),
              static_cast<double>(total) / (w.SegSeconds() * w.segments));
  return static_cast<double>(total) / (w.SegSeconds() * w.segments);
}

// |op|'s latencies over every thread.
Hist MergedLatency(const std::vector<Recorder>& recs, int op) {
  Hist all;
  for (const Recorder& r : recs) {
    all.Merge(r.latency(op));
  }
  return all;
}

// Median gap between two back-to-back Now() calls.
uint64_t MeasureClockCost() {
  std::vector<double> gaps;
  for (int i = 0; i < 20001; ++i) {
    uint64_t a = Now();
    uint64_t b = Now();
    gaps.push_back(static_cast<double>(b - a));
  }
  return static_cast<uint64_t>(Median(gaps));
}

uint64_t QuiescedFreeFrames() {
  cortenmm::TlbSystem::Instance().DrainAll();
  cortenmm::Rcu::Instance().DrainAll();
  cortenmm::BuddyAllocator::Instance().FlushCpuCaches();
  return cortenmm::BuddyAllocator::Instance().FreeFrameCount();
}

void CheckLeaks(Ctx& c, uint64_t baseline) {
  cortenmm::LeakReport leaks = cortenmm::CheckFrameLeaks(baseline);
  if (!leaks.ok) {
    c.Fail("frame leak: leaked=" + std::to_string(leaks.leaked) +
           " stranded_cached=" + std::to_string(leaks.stranded_cached) +
           " stranded_anon=" + std::to_string(leaks.stranded_anon) +
           " misplaced_home=" + std::to_string(leaks.misplaced_home));
  }
}

double PtMetaOverheadPct(const std::vector<PtMetaSample>& samples) {
  double sum = 0;
  for (const PtMetaSample& s : samples) {
    sum += Ratio(s.pt_bytes + s.meta_bytes, s.resident_bytes);
  }
  return samples.empty() ? 0.0 : 100.0 * sum / static_cast<double>(samples.size());
}

double BytesPerResidentMib(const std::vector<PtMetaSample>& samples, bool meta) {
  double sum = 0;
  for (const PtMetaSample& s : samples) {
    sum += Ratio(meta ? s.meta_bytes : s.pt_bytes, s.resident_bytes / double(1 << 20));
  }
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

double HistMean(const cortenmm::HistogramSnapshot& h) {
  return Ratio(static_cast<double>(h.sum_ns), static_cast<double>(h.TotalCount()));
}
double PhaseMean(cortenmm::LockPhase phase) {
  return HistMean(cortenmm::Telemetry::Instance().MergedPhase(phase));
}
double BatchMean(cortenmm::BatchStat stat) {
  return HistMean(cortenmm::Telemetry::Instance().MergedBatch(stat));
}

void MergeTracer(Tracer* into, const Tracer& from) {
  for (int s = 0; s < kNumSpans; ++s) {
    into->total[s] += from.total[s];
    into->calls[s] += from.calls[s];
  }
  into->lock.Merge(from.lock);
  for (int op = 0; op <= kNumOps; ++op) {
    for (int s = 0; s < kNumSpans; ++s) {
      into->part[op][s] += from.part[op][s];
    }
  }
  for (int op = 0; op < kNumOps; ++op) {
    into->ops[op] += from.ops[op];
    into->op_latency[op].Merge(from.op_latency[op]);
    into->replay_ops[op] += from.replay_ops[op];
    into->replay_ns[op] += from.replay_ns[op];
  }
}

// --- Output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const std::vector<Ctx>& ctx, bool correct, const std::vector<Metric>& metrics) {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const Ctx& c : ctx) {
    attempted += c.attempted;
    failed += c.failed;
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-36s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("failed_op_ratio %.6g (%" PRIu64 " of %" PRIu64 " ops)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)), failed,
              attempted);
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            FormatValue(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string Fingerprint(const Args& a, int threads, size_t allowed_cpus) {
  std::string s = "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                  ", \"allowed_cpus\": " + std::to_string(allowed_cpus) +
                  ", \"worker_threads\": " + std::to_string(threads) +
                  ", \"cpu_model\": \"" + JsonEscape(CpuModel()) + "\"" +
                  ", \"build_type\": \"" MMBENCH_BUILD_TYPE "\"" +
                  ", \"telemetry\": " + std::to_string(CORTENMM_TELEMETRY) +
                  ", \"faultinj\": " + std::to_string(CORTENMM_FAULTINJ) +
                  ", \"nodes\": " + std::to_string(cortenmm::NodeTopology::Instance().nodes()) +
                  ", \"arena_mib\": " +
                  std::to_string(cortenmm::PhysMem::Instance().bytes() >> 20) +
                  ", \"workload\": \"" + a.workload + "\", \"seed\": " +
                  std::to_string(a.seed) + ", \"seconds\": " + std::to_string(a.seconds) +
                  ", \"trace\": " + std::to_string(a.trace) + "}";
  return s;
}

// --- The two kinds of run ------------------------------------------------------

// Runs the workload's ForkBurst on worker 0 while the other workers wait.
void RunForkBurst(Team& team, Workload& wl, Ctx& c) {
  team.Run([&](int t) {
    if (t == 0) {
      wl.ForkBurst(c, kForkBurst);
    }
  });
}

int RunEndToEnd(const Args& a, Workload& wl, Team& team, std::vector<Ctx>& ctx,
                double setup_s, uint64_t baseline) {
  team.Run([&](int t) { wl.Warmup(ctx[t]); });
  std::vector<Recorder> recs(ctx.size());
  Window w = MeasureLoop(team, wl, ctx, &recs, a.seconds, {kMmap, kMunmap, kMprotect, kFault},
                         MinSamplesForTail(kTailP));
  double ops_s = OpsPerSecond(recs, w);

  // The forks of a workload whose loop does not fork, recorded on their own.
  Recorder burst;
  burst.Start(Now(), ~uint64_t{0} / 2, 1);
  ctx[0].rec = &burst;
  RunForkBurst(team, wl, ctx[0]);
  ctx[0].rec = nullptr;

  std::vector<Metric> m;
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"ops_per_s", ops_s, "1/s"});
  const std::pair<int, const char*> timed[] = {
      {kMmap, "mmap"}, {kMunmap, "munmap"}, {kMprotect, "mprotect"}, {kFault, "fault"}};
  for (const auto& [op, name] : timed) {
    Hist lat = MergedLatency(recs, op);
    m.push_back({std::string(name) + "_p50_ns", lat.Percentile(0.5), "ns"});
    m.push_back({std::string(name) + "_p99_ns", lat.Percentile(kTailP), "ns"});
  }
  Hist fork = MergedLatency(recs, kFork);
  fork.Merge(burst.latency(kFork));
  m.push_back({"fork_p50_us", fork.Percentile(0.5) / 1000.0, "us"});
  m.push_back({"fork_p99_us", fork.Percentile(kTailP) / 1000.0, "us"});
  m.push_back({"pt_meta_overhead_pct", PtMetaOverheadPct(wl.pt_meta_samples()), "%"});

  for (int op = 0; op < kNumOps; ++op) {
    uint64_t n = MergedLatency(recs, op).count() + burst.count(op);
    std::printf("samples %-8s %" PRIu64 "\n", OpName(op), n);
    if (n < MinSamplesForTail(kTailP)) {
      ctx[0].Fail(std::string("too few samples for p99: ") + OpName(op));
    }
  }
  wl.Teardown(ctx[0]);
  CheckLeaks(ctx[0], baseline);
  bool correct = true;
  for (const Ctx& c : ctx) {
    correct = correct && c.failed == 0;
    if (!c.first_failure.empty()) {
      std::printf("first failure (thread %d): %s\n", c.thread, c.first_failure.c_str());
    }
  }
  PrintResult(ctx, correct, m);
  return 0;
}

struct Split {
  const char* op_name;
  std::vector<int> spans;  // The span kind of each part.
  Attribution attribution;
  // Mean of the timed interval every part's spans lie in: the op's own
  // latency where the parts were timed inside it (fork, ring), else the
  // replayed op timed whole.
  double enclosing_mean = 0;
};

// |op|'s layer split over the spans charged to it in |tr|. With |replayed|
// the parts are per replayed op and the op mean is that of the facade ops
// the same phase interleaved with them; otherwise parts and mean come from
// the same facade or ring ops.
Split SplitOp(int op, const Tracer& tr, bool replayed, double scale) {
  Split s;
  s.op_name = OpName(op);
  s.attribution.op_mean = tr.op_latency[op].Mean() / scale;
  double n = static_cast<double>(replayed ? tr.replay_ops[op] : tr.ops[op]);
  for (int id = 0; id < kNumSpans; ++id) {
    double part = Ratio(tr.part[op][id], n) / scale;
    if (part != 0) {
      s.spans.push_back(id);
      s.attribution.parts.push_back(part);
    }
  }
  s.enclosing_mean = replayed ? Ratio(tr.replay_ns[op], n) / scale : s.attribution.op_mean;
  return s;
}

const char* SpanName(int id) {
  static const char* const kNames[] = {
      "core.va_alloc", "core.va_free",   "core.lock",      "core.mark",        "core.unmap",
      "core.protect",  "core.map",       "core.release",   "pmm.frame_alloc",  "pmm.frame_free",
      "pmm.zero",      "tlb.flush",      "ring.submit",    "ring.drain_barrier", "ring.reap",
      "sim.access",    "fork.clone",     "fork.teardown",  "fork.cow_fault"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) == kNumSpans);
  return kNames[id];
}

// One traced phase: every worker's spans merged, and the counter deltas and
// completed ops (the per-1k-op base) over the same window.
struct TracedPhase {
  std::unique_ptr<Tracer> spans = std::make_unique<Tracer>();
  Counters before;
  Counters after;
  uint64_t ops = 0;
  uint64_t accesses = 0;  // MmuSim accesses.
  double ops_per_s = 0;

  double PerKop(Counter k) const { return mmbench::PerKop(after.Delta(before, k), ops); }
  double Delta(Counter k) const { return static_cast<double>(after.Delta(before, k)); }
};

TracedPhase RunTracedPhase(Team& team, Workload& wl, std::vector<Ctx>& ctx, double seconds) {
  TracedPhase phase;
  std::vector<Tracer> per_thread(ctx.size());
  std::vector<Recorder> recs(ctx.size());
  for (size_t t = 0; t < ctx.size(); ++t) {
    phase.ops -= ctx[t].ops_done;
    phase.accesses -= ctx[t].sim_accesses;
    ctx[t].tr = &per_thread[t];
  }
  phase.before = Counters::Now();
  Window w = MeasureLoop(team, wl, ctx, &recs, seconds, {}, 0);
  phase.after = Counters::Now();
  for (size_t t = 0; t < ctx.size(); ++t) {
    phase.ops += ctx[t].ops_done;
    phase.accesses += ctx[t].sim_accesses;
    ctx[t].tr = nullptr;
    MergeTracer(phase.spans.get(), per_thread[t]);
  }
  phase.ops_per_s = OpsPerSecond(recs, w);
  return phase;
}

// Prints |s|'s split and returns whether its parts fit inside the interval
// they were timed in: spans that overlap, are charged to the wrong op or
// are mis-corrected for the clock add up to more than it.
bool CheckSplit(const char* label, const Split& s, const char* unit) {
  const Attribution& at = s.attribution;
  std::printf("%s %-8s op_mean=%.1f", label, s.op_name, at.op_mean);
  for (size_t i = 0; i < at.parts.size(); ++i) {
    std::printf(" %s=%.1f", SpanName(s.spans[i]), at.parts[i]);
  }
  std::printf(" unattributed=%.1f enclosing=%.1f (%s)\n", at.Residual(), s.enclosing_mean,
              unit);
  return at.op_mean > 0 && PartsFitWhole(at.parts, s.enclosing_mean);
}

int RunTraced(const Args& a, std::unique_ptr<Workload>& wl, Team& team, std::vector<Ctx>& ctx,
              uint64_t baseline) {
  const double phase_s = a.seconds / 4.0;
  team.Run([&](int t) { wl->Warmup(ctx[t]); });

  // 1. Untraced facade phase: the reference throughput.
  std::vector<Recorder> recs(ctx.size());
  Window wu = MeasureLoop(team, *wl, ctx, &recs, phase_s, {}, 0);
  const double untraced_ops_s = OpsPerSecond(recs, wu);

  // 2. Traced facade phase: spans around facade and MmuSim calls, plus
  //    counter and telemetry deltas over the same window.
  cortenmm::Telemetry::Instance().Reset();
  TracedPhase facade = RunTracedPhase(team, *wl, ctx, phase_s);
  // Telemetry means are read now, before later phases add to the histograms.
  const double rcu_traversal = PhaseMean(cortenmm::LockPhase::kAdvRcuTraversal);
  const double cna_acquire = PhaseMean(cortenmm::LockPhase::kMcsAcquire);
  const double dfs_lock = PhaseMean(cortenmm::LockPhase::kDfsSubtreeLock);
  const double rcu_sync = PhaseMean(cortenmm::LockPhase::kRcuSynchronize);
  const double shootdown_wait = PhaseMean(cortenmm::LockPhase::kShootdownWait);
  const double ranges_per_shootdown = BatchMean(cortenmm::BatchStat::kShootdownRanges);
  const std::vector<PtMetaSample> samples = wl->pt_meta_samples();
  // The forks of a workload whose loop does not fork, traced on their own
  // and charged to the facade phase's fork split.
  auto burst = std::make_unique<Tracer>();
  ctx[0].tr = burst.get();
  RunForkBurst(team, *wl, ctx[0]);
  ctx[0].tr = nullptr;
  MergeTracer(facade.spans.get(), *burst);

  // 3. Split phase: every second step replays its ops through the layer
  //    functions, interleaved with facade steps in the same address space.
  wl->StartSplit();
  TracedPhase split = RunTracedPhase(team, *wl, ctx, phase_s);
  wl->Teardown(ctx[0]);
  wl.reset();

  // 4. contended-4t only: the same op stream through the per-CPU rings, for
  //    the ring layer (lifecycle-1t's allocator-chosen mmaps do not fuse).
  TracedPhase ring;
  if (a.workload == "contended-4t") {
    std::unique_ptr<Workload> rings = MakeRingPhase(a.seed);
    rings->Setup();
    team.Run([&](int t) { rings->Warmup(ctx[t]); });
    ring = RunTracedPhase(team, *rings, ctx, phase_s);
    rings->Teardown(ctx[0]);
  }
  CheckLeaks(ctx[0], baseline);

  const Tracer& F = *facade.spans;
  const Tracer& R = *split.spans;
  const Tracer& G = *ring.spans;
  auto per_kop = [&](Counter k) { return facade.PerKop(k); };
  auto delta = [&](Counter k) { return facade.Delta(k); };
  auto mean = [](const Tracer& tr, SpanId id) { return tr.Mean(id); };

  // Layer splits: each op's facade mean over its replayed layer spans, both
  // from the split phase; fork over its own spans in the traced phase; in
  // the ring phase an op over the Submit, DrainBarrier and Reap calls
  // between its submit and its reap (checked and printed, not reported).
  bool attribution_ok = true;
  std::vector<Split> splits;
  for (int op : {kMmap, kMunmap, kMprotect, kFault}) {
    splits.push_back(SplitOp(op, R, /*replayed=*/true, 1.0));
  }
  splits.push_back(SplitOp(kFork, F, /*replayed=*/false, 1000.0));
  for (const Split& s : splits) {
    bool holds = CheckSplit("attribution", s, s.op_name == OpName(kFork) ? "us" : "ns");
    if (!holds) {
      ctx[0].Fail(std::string("attribution check failed for ") + s.op_name);
    }
    attribution_ok = attribution_ok && holds;
  }
  if (ring.ops > 0) {
    for (int op : {kMmap, kMunmap, kMprotect, kFault}) {
      bool holds = CheckSplit("ring attribution", SplitOp(op, G, /*replayed=*/false, 1.0), "ns");
      if (!holds) {
        ctx[0].Fail(std::string("ring attribution check failed for ") + OpName(op));
      }
      attribution_ok = attribution_ok && holds;
    }
  }

  std::vector<Metric> m = {
      {"core.va_alloc_ns", mean(R, kVaAlloc), "ns"},
      {"core.va_free_ns", mean(R, kVaFree), "ns"},
      {"core.lock_ns", mean(R, kLock), "ns"},
      {"core.lock_p99_ns", R.lock.Percentile(kTailP), "ns"},
      {"core.mark_ns", mean(R, kMark), "ns"},
      {"core.unmap_ns", mean(R, kUnmap), "ns"},
      {"core.protect_ns", mean(R, kProtect), "ns"},
      {"core.map_ns", mean(R, kMap), "ns"},
      {"core.release_ns", mean(R, kRelease), "ns"},
      {"core.fused_txns_per_kop", ring.PerKop(Counter::kFusedTxns), "count"},
      {"sync.rcu_traversal_ns", rcu_traversal, "ns"},
      {"sync.cna_acquire_ns", cna_acquire, "ns"},
      {"sync.dfs_lock_ns", dfs_lock, "ns"},
      {"sync.rcu_sync_ns", rcu_sync, "ns"},
      {"sync.lock_retries_per_kop", per_kop(Counter::kLockRetries), "count"},
      {"sync.cna_batched_handoffs_per_kop", per_kop(Counter::kCnaBatchedHandoffs), "count"},
      {"sync.rcu_retired_per_kop", per_kop(Counter::kRcuRetired), "count"},
      {"pt.pages_allocated_per_kop", per_kop(Counter::kPtPagesAllocated), "count"},
      {"pt.pages_freed_per_kop", per_kop(Counter::kPtPagesFreed), "count"},
      {"pt.pt_bytes_per_resident_mib", BytesPerResidentMib(samples, false), "B/MiB"},
      {"pt.meta_bytes_per_resident_mib", BytesPerResidentMib(samples, true), "B/MiB"},
      {"pmm.frame_alloc_ns", mean(R, kFrameAlloc), "ns"},
      {"pmm.frame_free_ns", mean(R, kFrameFree), "ns"},
      {"pmm.zero_ns", mean(R, kZero), "ns"},
      {"pmm.mag_hit_ratio",
       Ratio(delta(Counter::kMagHits), delta(Counter::kMagHits) + delta(Counter::kMagRefills)),
       "ratio"},
      {"pmm.prezero_hit_ratio",
       Ratio(delta(Counter::kPrezeroHits), delta(Counter::kFramesAllocated)), "ratio"},
      {"pmm.buddy_lock_acqs_per_kop", per_kop(Counter::kBuddyLockAcquisitions), "count"},
      {"pmm.remote_alloc_ratio",
       Ratio(delta(Counter::kNumaRemoteAllocs),
             delta(Counter::kNumaRemoteAllocs) + delta(Counter::kNumaLocalAllocs)),
       "ratio"},
      {"tlb.flush_ns", mean(R, kTlbFlush), "ns"},
      {"tlb.shootdown_wait_ns", shootdown_wait, "ns"},
      {"tlb.shootdowns_per_kop", per_kop(Counter::kTlbShootdowns), "count"},
      {"tlb.ranges_per_shootdown", ranges_per_shootdown, "count"},
      {"tlb.full_flush_fallbacks_per_kop", per_kop(Counter::kTlbFullFlushFallbacks), "count"},
      {"tlb.lazy_flushes_per_kop", per_kop(Counter::kTlbLazyFlushes), "count"},
      {"ring.submit_ns", mean(G, kSubmit), "ns"},
      {"ring.drain_barrier_ns", mean(G, kDrainBarrier), "ns"},
      {"ring.reap_ns", mean(G, kReap), "ns"},
      {"ring.ops_per_drain",
       Ratio(ring.Delta(Counter::kRingOpsCompleted), ring.Delta(Counter::kRingDrains)), "count"},
      {"ring.ops_per_fused_txn",
       Ratio(ring.Delta(Counter::kFusedTxnOps), ring.Delta(Counter::kFusedTxns)), "count"},
      {"ring.fused_op_ratio",
       Ratio(ring.Delta(Counter::kRingFusedGroupOps), ring.Delta(Counter::kRingOpsSubmitted)),
       "ratio"},
      {"ring.full_rejects_per_kop", ring.PerKop(Counter::kRingFullRejects), "count"},
      {"sim.access_ns", mean(F, kSimAccess), "ns"},
      {"sim.tlb_misses_per_kaccess",
       PerKop(facade.after.Delta(facade.before, Counter::kTlbMisses), facade.accesses), "count"},
      {"fork.clone_us", mean(F, kForkClone) / 1000.0, "us"},
      {"fork.teardown_us", mean(F, kForkTeardown) / 1000.0, "us"},
      {"fork.cow_fault_ns", mean(F, kCowFault), "ns"},
  };
  for (const Split& s : splits) {
    const bool fork = s.op_name == OpName(kFork);
    m.push_back({std::string(s.op_name) + (fork ? ".unattributed_us" : ".unattributed_ns"),
                 s.attribution.Residual(), fork ? "us" : "ns"});
  }
  m.push_back({"trace.clock_ns", static_cast<double>(ClockCostNs()), "ns"});
  m.push_back({"trace.overhead_pct",
               100.0 * Ratio(untraced_ops_s - facade.ops_per_s, untraced_ops_s), "%"});
  std::printf("throughput untraced %.1f ops/s, traced %.1f ops/s; traced window %" PRIu64
              " ops, %" PRIu64 " MmuSim accesses; ring phase %.1f ops/s\n",
              untraced_ops_s, facade.ops_per_s, facade.ops, facade.accesses, ring.ops_per_s);

  bool correct = attribution_ok;
  for (const Ctx& c : ctx) {
    correct = correct && c.failed == 0;
    if (!c.first_failure.empty()) {
      std::printf("first failure (thread %d): %s\n", c.thread, c.first_failure.c_str());
    }
  }
  PrintResult(ctx, correct, m);
  return 0;
}

}  // namespace
}  // namespace mmbench

int main(int argc, char** argv) {
  using namespace mmbench;
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: mmbench --workload <lifecycle-1t|contended-4t> --seed <n> "
                 "--seconds <s> --trace <0|1> [--setup-only]\n");
    return 2;
  }
  cortenmm::PhysMem::Configure(kArenaBytes);
  const std::vector<int> host_cpus = AllowedCpus();
  PinThisThread(host_cpus[0]);
  cortenmm::BindThisThreadToCpu(0);
  ClockCostNs() = MeasureClockCost();

  // Set-up: arena prewarm (inside the first MakeMm), the address spaces and
  // the 4 MiB fork parent.
  auto setup_start = std::chrono::steady_clock::now();
  const uint64_t baseline = QuiescedFreeFrames();
  std::unique_ptr<Workload> wl = MakeWorkload(a.workload, a.seed);
  wl->Setup();
  const double setup_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - setup_start).count();

  std::printf("fingerprint %s\n", Fingerprint(a, wl->threads(), host_cpus.size()).c_str());
  if (a.setup_only) {
    Ctx c;
    wl->Teardown(c);
    wl.reset();
    CheckLeaks(c, baseline);
    std::printf("{\"setup_s\": %s, \"failed\": %" PRIu64 "}\n", FormatValue(setup_s).c_str(),
                c.failed);
    return c.failed == 0 ? 0 : 1;
  }

  Team team(wl->threads(), host_cpus);
  std::vector<Ctx> ctx(wl->threads());
  for (int t = 0; t < wl->threads(); ++t) {
    ctx[t].thread = t;
  }
  if (a.trace == 0) {
    return RunEndToEnd(a, *wl, team, ctx, setup_s, baseline);
  }
  return RunTraced(a, wl, team, ctx, baseline);
}
