// Shared benchmark harness: the MM factory (every system under test behind
// one switch), a phased multithreaded runner with barrier-synchronized timed
// sections, and table formatting.
#ifndef SRC_SIM_BENCH_UTIL_H_
#define SRC_SIM_BENCH_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/pt/arch.h"
#include "src/sim/mm_interface.h"

namespace cortenmm {

// Every memory manager the evaluation compares (paper §6.1), plus the
// Figure 16 ablations of CortenMM_adv.
enum class MmKind {
  kCortenAdv,      // CortenMM_adv: full optimizations.
  kCortenRw,       // CortenMM_rw.
  kLinux,          // Linux-style VMA baseline.
  kRadixVm,        // RadixVM-style.
  kNros,           // NrOS-style.
  kCortenAdvVpa,   // adv_+vpa: per-core VA allocator only (sync shootdown).
  kCortenAdvBase,  // adv_base: neither optimization.
};

const char* MmKindName(MmKind kind);
// Creates an instance; |arch| applies to all kinds.
std::unique_ptr<MmInterface> MakeMm(MmKind kind, Arch arch = Arch::kX86_64);

// The standard comparison set (Figures 1, 13, 14).
std::vector<MmKind> ComparisonSet();

// ---------------------------------------------------------------------------
// NUMA placement policies
// ---------------------------------------------------------------------------

// How benchmark worker threads are pinned onto the NodeTopology. Same-node
// keeps every worker on node 0 (all allocations node-local); striped
// round-robins workers across nodes, so shared structures feel cross-socket
// traffic. With nodes=1 the two policies coincide.
enum class Placement {
  kSameNode,
  kStriped,
};

const char* PlacementName(Placement placement);
// The simulated CPU for |thread| under |placement|. Same-node fills node 0's
// contiguous CPU block (identical to the historical bind-to-CPU-t behavior);
// striped assigns thread t to node t%N.
CpuId PlacementCpu(Placement placement, int thread);

// ---------------------------------------------------------------------------
// Phased multithreaded runner
// ---------------------------------------------------------------------------

// For each round: every thread runs Setup, all threads synchronize, the timed
// section runs OpsPerRound ops on every thread, all threads synchronize,
// Teardown runs. Returns aggregate timed throughput in ops/second.
struct PhasedSpec {
  int threads = 1;
  int rounds = 3;
  int ops_per_round = 256;
  // Workers bind to PlacementCpu(placement, t); kSameNode reproduces the
  // historical bind-to-CPU-t behavior on node 0.
  Placement placement = Placement::kSameNode;
  // All callbacks receive (thread, round); the timed op also gets the op id.
  std::function<void(int, int)> setup;
  std::function<void(int, int, int)> timed_op;
  std::function<void(int, int)> teardown;
};

double RunPhased(const PhasedSpec& spec);

// Runs |fn(thread)| on |threads| threads bound to CPUs 0..threads-1 and
// returns the wall time in seconds.
double RunParallel(int threads, const std::function<void(int)>& fn);

// ---------------------------------------------------------------------------
// Output formatting
// ---------------------------------------------------------------------------

// Prints a figure/table header with the paper reference and expectation note.
void PrintHeader(const std::string& experiment, const std::string& paper_ref,
                 const std::string& expectation);

// Prints one aligned row: first column label then numeric columns.
void PrintRow(const std::string& label, const std::vector<double>& values,
              const std::vector<std::string>& units = {});

// Thread counts to sweep given this machine (1..2x hardware threads).
std::vector<int> SweepThreads();

// Prints the trace-ring drop accounting: total recorded/dropped events, the
// aggregate drop rate, and the worst single-CPU drop rate. A bench whose
// traces silently overwrote is not measuring what it claims; smoke runs print
// this so the blindness is visible in CI logs. Returns false — after a loud
// fail-warn — when the aggregate drop rate exceeds 50%, the cue to pass a
// larger trace capacity to TelemetrySink.
bool PrintTraceDropRate();

}  // namespace cortenmm

#endif  // SRC_SIM_BENCH_UTIL_H_
