#include "src/sim/bench_util.h"

#include <barrier>
#include <chrono>
#include <cstdio>
#include <thread>

#include "src/baseline/linux_mm.h"
#include "src/common/topology.h"
#include "src/obs/telemetry.h"
#include "src/pmm/phys_mem.h"
#include "src/baseline/nros_mm.h"
#include "src/baseline/radixvm_mm.h"
#include "src/sim/corten_vm.h"

namespace cortenmm {

const char* MmKindName(MmKind kind) {
  switch (kind) {
    case MmKind::kCortenAdv:
      return "CortenMM-adv";
    case MmKind::kCortenRw:
      return "CortenMM-rw";
    case MmKind::kLinux:
      return "Linux";
    case MmKind::kRadixVm:
      return "RadixVM";
    case MmKind::kNros:
      return "NrOS";
    case MmKind::kCortenAdvVpa:
      return "adv_+vpa";
    case MmKind::kCortenAdvBase:
      return "adv_base";
  }
  return "unknown";
}

std::unique_ptr<MmInterface> MakeMm(MmKind kind, Arch arch) {
  // All benchmark comparisons go through this factory: warm the simulated
  // physical arena exactly once so no system pays the host's demand-zero
  // faults during a timed phase.
  static const bool warmed = [] {
    PhysMem::Instance().Prewarm();
    return true;
  }();
  (void)warmed;
  switch (kind) {
    case MmKind::kCortenAdv: {
      AddrSpace::Options options;
      options.arch = arch;
      options.protocol = Protocol::kAdv;
      options.tlb_policy = TlbPolicy::kLatr;
      options.per_core_va = true;
      return std::make_unique<CortenVm>(options);
    }
    case MmKind::kCortenRw: {
      AddrSpace::Options options;
      options.arch = arch;
      options.protocol = Protocol::kRw;
      options.tlb_policy = TlbPolicy::kLatr;
      options.per_core_va = true;
      return std::make_unique<CortenVm>(options);
    }
    case MmKind::kCortenAdvVpa: {
      AddrSpace::Options options;
      options.arch = arch;
      options.protocol = Protocol::kAdv;
      options.tlb_policy = TlbPolicy::kSync;  // No advanced shootdowns.
      options.per_core_va = true;
      return std::make_unique<CortenVm>(options);
    }
    case MmKind::kCortenAdvBase: {
      AddrSpace::Options options;
      options.arch = arch;
      options.protocol = Protocol::kAdv;
      options.tlb_policy = TlbPolicy::kSync;
      options.per_core_va = false;  // Shared VA allocator.
      return std::make_unique<CortenVm>(options);
    }
    case MmKind::kLinux: {
      LinuxVmaMm::Options options;
      options.arch = arch;
      return std::make_unique<LinuxVmaMm>(options);
    }
    case MmKind::kRadixVm: {
      RadixVmMm::Options options;
      options.arch = arch;
      return std::make_unique<RadixVmMm>(options);
    }
    case MmKind::kNros: {
      NrosMm::Options options;
      options.arch = arch;
      return std::make_unique<NrosMm>(options);
    }
  }
  return nullptr;
}

std::vector<MmKind> ComparisonSet() {
  return {MmKind::kCortenAdv, MmKind::kCortenRw, MmKind::kLinux, MmKind::kRadixVm,
          MmKind::kNros};
}

const char* PlacementName(Placement placement) {
  return placement == Placement::kSameNode ? "same-node" : "striped";
}

CpuId PlacementCpu(Placement placement, int thread) {
  const NodeTopology& topo = NodeTopology::Instance();
  if (placement == Placement::kSameNode || topo.nodes() < 2) {
    // FirstCpuOfNode(0) is 0, so this is bind-to-CPU-t — the pre-topology
    // behavior every existing bench baked its numbers against.
    return topo.FirstCpuOfNode(0) + thread;
  }
  int node = thread % topo.nodes();
  return topo.FirstCpuOfNode(node) + thread / topo.nodes();
}

double RunPhased(const PhasedSpec& spec) {
  std::barrier barrier(spec.threads);
  std::atomic<int64_t> timed_nanos{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < spec.threads; ++t) {
    workers.emplace_back([&, t] {
      BindThisThreadToCpu(PlacementCpu(spec.placement, t));
      for (int round = 0; round < spec.rounds; ++round) {
        if (spec.setup) {
          spec.setup(t, round);
        }
        barrier.arrive_and_wait();
        auto t0 = std::chrono::steady_clock::now();
        for (int op = 0; op < spec.ops_per_round; ++op) {
          spec.timed_op(t, round, op);
        }
        barrier.arrive_and_wait();
        auto t1 = std::chrono::steady_clock::now();
        if (t == 0 && round > 0) {  // Round 0 is warmup (cold PT paths, caches).
          timed_nanos.fetch_add(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
        }
        if (spec.teardown) {
          spec.teardown(t, round);
        }
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  double seconds = static_cast<double>(timed_nanos.load()) * 1e-9;
  double total_ops =
      static_cast<double>(spec.rounds - 1) * spec.ops_per_round * spec.threads;
  return seconds > 0 ? total_ops / seconds : 0;
}

double RunParallel(int threads, const std::function<void(int)>& fn) {
  std::barrier barrier(threads + 1);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      BindThisThreadToCpu(t);
      barrier.arrive_and_wait();
      fn(t);
    });
  }
  // t0 is taken *before* the barrier: taking it after would undercount the
  // window whenever the main thread is descheduled at barrier release (the
  // workers may then run to completion before the clock is read). The skew
  // included here — the last worker's arrival at the barrier — is bounded by
  // thread startup, which the traces legitimately include (JVM thread
  // creation measures exactly that).
  auto t0 = std::chrono::steady_clock::now();
  barrier.arrive_and_wait();
  for (auto& w : workers) {
    w.join();
  }
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void PrintHeader(const std::string& experiment, const std::string& paper_ref,
                 const std::string& expectation) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper reference: %s\n", paper_ref.c_str());
  std::printf("Expected shape:  %s\n", expectation.c_str());
  std::printf("================================================================\n");
}

void PrintRow(const std::string& label, const std::vector<double>& values,
              const std::vector<std::string>& units) {
  std::printf("%-16s", label.c_str());
  for (size_t i = 0; i < values.size(); ++i) {
    const char* unit = i < units.size() ? units[i].c_str() : "";
    if (values[i] >= 1e6) {
      std::printf(" %10.3gM%s", values[i] / 1e6, unit);
    } else if (values[i] >= 1e3) {
      std::printf(" %10.3gk%s", values[i] / 1e3, unit);
    } else {
      std::printf(" %10.3g%s", values[i], unit);
    }
  }
  std::printf("\n");
}

bool PrintTraceDropRate() {
  const TraceRing& ring = Telemetry::Instance().trace();
  uint64_t recorded = ring.Recorded();
  uint64_t dropped = ring.Dropped();
  double rate = recorded > 0 ? static_cast<double>(dropped) / recorded : 0.0;
  double worst = 0.0;
  int worst_cpu = -1;
  for (const TraceRing::CpuStats& s : ring.PerCpuStats()) {
    double cpu_rate =
        s.recorded > 0 ? static_cast<double>(s.dropped) / s.recorded : 0.0;
    if (cpu_rate > worst) {
      worst = cpu_rate;
      worst_cpu = s.cpu;
    }
  }
  std::printf("trace drops: %llu/%llu events (%.1f%% drop rate",
              static_cast<unsigned long long>(dropped),
              static_cast<unsigned long long>(recorded), rate * 100.0);
  if (worst_cpu >= 0) {
    std::printf(", worst cpu %d at %.1f%%", worst_cpu, worst * 100.0);
  }
  std::printf(")\n");
  if (rate > 0.5) {
    std::printf(
        "WARN: trace drop rate %.1f%% exceeds 50%% — the ring overwrote most "
        "of what this bench recorded; raise the TelemetrySink trace capacity\n",
        rate * 100.0);
    return false;
  }
  return true;
}

std::vector<int> SweepThreads() {
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw < 1) {
    hw = 2;
  }
  std::vector<int> sweep;
  for (int t = 1; t <= 2 * hw && t <= 16; t *= 2) {
    sweep.push_back(t);
  }
  return sweep;
}

}  // namespace cortenmm
