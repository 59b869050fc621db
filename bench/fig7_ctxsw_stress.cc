// Reproduces paper Fig. 7: "Stress testing the performance penalties due to
// context switching" — Unixbench pipe-based context switching and Apache
// serving a 1 KB page, both at or below ~50% of unprotected speed because
// every context switch flushes both TLBs and every TLB refill is a fault.
#include <cstdio>
#include <vector>

#include "runner/experiment_runner.h"
#include "workloads/workload.h"

using namespace sm;
using namespace sm::workloads;

int main(int argc, char** argv) {
  const runner::RunnerOptions opts = runner::parse_runner_args(
      argc, argv, "fig7_ctxsw_stress",
      "Fig. 7: context-switch stressors (pipe-ctxsw, apache-1KB) under "
      "stand-alone split memory");
  runner::ExperimentRunner pool(opts);

  const Protection none = Protection::none();
  const Protection split = Protection::split_all();

  std::vector<runner::SweepPoint> points;
  points.push_back({"pipe-ctxsw", [&] {
    runner::PointResult res;
    const auto b = run_unixbench(UnixBench::kPipeContextSwitch, none);
    const auto p = run_unixbench(UnixBench::kPipeContextSwitch, split);
    const double n = normalized(b, p);
    res.text = runner::strf(
        "%-24s %12llu %12llu %10.3f %14llu %14llu\n", "unixbench pipe-ctxsw",
        static_cast<unsigned long long>(b.cycles),
        static_cast<unsigned long long>(p.cycles), n,
        static_cast<unsigned long long>(b.stats.context_switches),
        static_cast<unsigned long long>(p.stats.split_dtlb_loads +
                                        p.stats.split_itlb_loads));
    res.add("normalized", n);
    res.add("ok", n <= 0.55);
    return res;
  }});
  points.push_back({"apache-1KB", [&] {
    runner::PointResult res;
    WebserverConfig cfg;
    cfg.response_bytes = 1024;
    const auto b = run_webserver(none, cfg);
    const auto p = run_webserver(split, cfg);
    const double n = normalized(b.base, p.base);
    res.text = runner::strf(
        "%-24s %12llu %12llu %10.3f %14llu %14llu\n", "apache-1KB",
        static_cast<unsigned long long>(b.base.cycles),
        static_cast<unsigned long long>(p.base.cycles), n,
        static_cast<unsigned long long>(b.base.stats.context_switches),
        static_cast<unsigned long long>(p.base.stats.split_dtlb_loads +
                                        p.base.stats.split_itlb_loads));
    res.add("normalized", n);
    res.add("ok", n <= 0.55);
    return res;
  }});

  const runner::ResultTable table = pool.run(points);
  std::printf("Fig. 7: context-switch stress (normalized, paper: both at or "
              "below ~0.50)\n\n");
  std::printf("%-24s %12s %12s %10s %14s %14s\n", "stressor", "base cycles",
              "split cycles", "normalized", "base ctxsw", "split faults");
  table.print(stdout);
  bool ok = true;
  for (const auto& rec : table.points()) ok = ok && metric(rec, "ok") != 0;
  std::printf("\npaper shape (both <= ~0.5): %s\n",
              ok ? "REPRODUCED" : "MISMATCH");

  if (opts.trace_summary) {
    // Serial re-run of the protected stressor with tracing on: the SS4.6
    // decomposition should show context-switch flushes dominating TLB
    // capacity faults (this workload barely has a working set).
    const auto traced =
        run_unixbench(UnixBench::kPipeContextSwitch, split.with_trace());
    const trace::ProfileSummary& s = *traced.trace_summary;
    std::printf("\n--- pipe-ctxsw under split-all: cycle attribution ---\n");
    std::printf("%s", trace::format_summary(s).c_str());
    std::printf("SS4.6 dominant source: %s\n",
                s.ctx_switch_flush_cycles() >= s.capacity_fault_cycles()
                    ? "context-switch flushes (paper: dominant here)"
                    : "tlb capacity faults (unexpected for this stressor)");
  }

  pool.report(table);
  return ok ? 0 : 1;
}
