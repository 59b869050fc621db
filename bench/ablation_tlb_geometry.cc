// TLB-geometry sensitivity ablation (DESIGN.md design-choice ablation):
// the stand-alone overhead is driven by TLB misses-turned-page-faults, so
// it should shrink as the TLBs grow (fewer capacity misses) but never
// vanish (context switches still flush). The gzip workload exercises
// capacity misses; pipe-ctxsw exercises flushes.
//
// Each (geometry, workload, protection) run is one sweep point; the table
// normalizes the collected values row by row.
#include <cstdio>
#include <vector>

#include "runner/experiment_runner.h"
#include "workloads/internal.h"
#include "workloads/workload.h"

using namespace sm;
using namespace sm::workloads;

namespace {

// A streaming page-walker (capacity-miss bound, gzip-like) and a
// yield-heavy pair (flush bound, pipe-ctxsw-like), both run through the
// internal runner so the TLB geometry can be set.
const char* kWalker = R"(
_start:
  movi r3, 3
pass:
  movi r4, buf
  movi r5, 120
touch:
  load r2, [r4]
  addi r4, 4096
  addi r5, -1
  cmpi r5, 0
  jnz touch
  addi r3, -1
  cmpi r3, 0
  jnz pass
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
.bss
buf: .space 491520
)";

const char* kFlushy = R"(
_start:
  movi r0, SYS_FORK
  syscall
  cmpi r0, 0
  jz child
  movi r5, 300
ploop:
  movi r0, SYS_YIELD
  syscall
  movi r4, buf
  load r2, [r4]
  load r2, [r4+4096]
  load r2, [r4+8192]
  addi r5, -1
  cmpi r5, 0
  jnz ploop
  mov r1, r0
  movi r0, SYS_WAITPID
  syscall
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
child:
  movi r5, 300
cloop:
  movi r0, SYS_YIELD
  syscall
  movi r4, buf
  load r2, [r4]
  load r2, [r4+4096]
  load r2, [r4+8192]
  addi r5, -1
  cmpi r5, 0
  jnz cloop
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
.bss
buf: .space 16384
)";

double eff(const WorkloadResult& r) {
  return static_cast<double>(r.sim_time != 0 ? r.sim_time : r.cycles);
}

}  // namespace

int main(int argc, char** argv) {
  const runner::RunnerOptions opts = runner::parse_runner_args(
      argc, argv, "ablation_tlb_geometry",
      "Stand-alone split overhead vs TLB capacity (capacity-bound vs "
      "flush-bound workloads, 16..256 entries)");
  runner::ExperimentRunner pool(opts);

  std::vector<arch::u32> geometries = {16u, 32u, 64u, 128u, 256u};
  if (opts.quick) geometries = {16u, 64u};

  // Four points per geometry: walker base/split, flushy base/split.
  std::vector<runner::SweepPoint> points;
  for (const arch::u32 entries : geometries) {
    const struct {
      const char* name;
      const char* program;
      bool split;
    } cases[] = {
        {"walker", kWalker, false},
        {"walker", kWalker, true},
        {"flushy", kFlushy, false},
        {"flushy", kFlushy, true},
    };
    for (const auto& c : cases) {
      points.push_back(
          {runner::strf("%s/%u/%s", c.name, entries,
                        c.split ? "split" : "base"),
           [entries, c] {
             runner::PointResult res;
             kernel::KernelConfig cfg;
             cfg.tlb_entries = entries;
             cfg.tlb_ways = 4;
             const auto r = internal::run_program(
                 c.name, c.program,
                 c.split ? Protection::split_all() : Protection::none(),
                 cfg);
             res.add("eff", eff(r));
             return res;
           }});
    }
  }

  const runner::ResultTable table = pool.run(points);
  std::printf("Ablation: stand-alone split overhead vs TLB capacity\n\n");
  std::printf("%-12s %14s %14s\n", "TLB entries", "streaming",
              "ctxsw-bound");
  auto norm = [](double b, double p) { return p == 0 ? 0.0 : b / p; };
  for (std::size_t g = 0; g < geometries.size(); ++g) {
    const std::size_t p = g * 4;
    const double gzip_like =
        norm(metric(table[p], "eff"), metric(table[p + 1], "eff"));
    const double ctxsw_like =
        norm(metric(table[p + 2], "eff"), metric(table[p + 3], "eff"));
    std::printf("%12u %14.3f %14.3f\n", geometries[g], gzip_like,
                ctxsw_like);
  }
  std::printf(
      "\n(capacity-driven overhead shrinks as the TLB grows; flush-driven\n"
      " overhead from context switches persists at any size — the paper's\n"
      " two overhead sources, SS4.6, separated)\n");

  if (opts.trace_summary) {
    // Serial traced re-runs at the smallest geometry: the walker's reloads
    // should classify as capacity evictions, the flushy pair's as
    // context-switch flushes.
    const struct {
      const char* name;
      const char* program;
    } tcases[] = {{"walker", kWalker}, {"flushy", kFlushy}};
    for (const auto& c : tcases) {
      kernel::KernelConfig tcfg;
      tcfg.tlb_entries = geometries.front();
      tcfg.tlb_ways = 4;
      const auto r = internal::run_program(
          c.name, c.program, Protection::split_all().with_trace(), tcfg);
      std::printf("\n--- %s/%u/split: cycle attribution ---\n%s", c.name,
                  geometries.front(),
                  trace::format_summary(*r.trace_summary).c_str());
    }
  }

  pool.report(table);
  return 0;
}
