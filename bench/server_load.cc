// High-traffic server benchmark: an event-driven master + forked worker
// pool under a seeded closed-loop request stream (ROADMAP item 3; cf. the
// Apache/Nginx-style server-throughput evaluations of the isolation-
// mechanism literature). Reports throughput and p50/p99/p999 tail latency
// with and without split-memory protection — the scaling scenario the
// fig8 single-server experiment cannot show, and the load under which the
// kernel's O(1) wakeup/runqueue/fd paths earn their keep.
//
// Full point set: 1000 workers, 10^5 requests. --quick: 64 workers, 2000
// requests (the ctest smoke + determinism legs).
#include <cstdio>
#include <vector>

#include "runner/experiment_runner.h"
#include "trace/profiler.h"
#include "workloads/workload.h"

using namespace sm;
using namespace sm::workloads;

namespace {

ServerLoadConfig config_for(bool quick) {
  ServerLoadConfig cfg;
  if (quick) {
    cfg.workers = 64;
    cfg.requests = 2000;
    cfg.window = 256;
  } else {
    cfg.workers = 1000;
    cfg.requests = 100000;
    cfg.window = 4096;
  }
  return cfg;
}

runner::PointResult run_point(const char* label, const Protection& prot,
                              const ServerLoadConfig& cfg) {
  runner::PointResult res;
  const ServerLoadResult r = run_server_load(prot, cfg);
  res.text = runner::strf(
      "%-12s %7u %8u %14llu %10.3f %9llu %9llu %9llu %10llu\n", label,
      cfg.workers, cfg.requests,
      static_cast<unsigned long long>(r.base.cycles), r.requests_per_mcycle,
      static_cast<unsigned long long>(r.latency.percentile(50)),
      static_cast<unsigned long long>(r.latency.percentile(99)),
      static_cast<unsigned long long>(r.latency.percentile(99.9)),
      static_cast<unsigned long long>(r.latency.max()));
  res.add("throughput_rpmc", r.requests_per_mcycle);
  res.add("p50", static_cast<double>(r.latency.percentile(50)));
  res.add("p99", static_cast<double>(r.latency.percentile(99)));
  res.add("p999", static_cast<double>(r.latency.percentile(99.9)));
  res.add("latency_mean", r.latency.mean());
  res.add("cycles", static_cast<double>(r.base.cycles));
  res.add("ctxsw", static_cast<double>(r.base.stats.context_switches));
  res.add("completed", r.base.completed ? 1 : 0);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const runner::RunnerOptions opts = runner::parse_runner_args(
      argc, argv, "server_load",
      "High-traffic server: event-driven master + forked worker pool under "
      "a seeded closed-loop request stream; throughput and p50/p99/p999 "
      "latency, split memory on/off");
  runner::ExperimentRunner pool(opts);

  ServerLoadConfig cfg = config_for(opts.quick);
  if (opts.cores != 0) cfg.cores = opts.cores;
  const Protection none = Protection::none();
  const Protection split = Protection::split_all();

  std::vector<runner::SweepPoint> points;
  points.push_back(
      {"no-split", [&] { return run_point("no-split", none, cfg); }});
  points.push_back(
      {"split-all", [&] { return run_point("split-all", split, cfg); }});
  // SMP leg (quick set only): the same protected serve on 4 cores with
  // per-core split TLBs and IPI shootdown. Pinned to 4 regardless of
  // --cores so the quick output is one fixed, drift-guarded point set.
  ServerLoadConfig smp = cfg;
  smp.cores = 4;
  if (opts.quick) {
    points.push_back(
        {"split-smp4", [&] { return run_point("split-smp4", split, smp); }});
  }

  const runner::ResultTable table = pool.run(points);
  std::printf("Server load: %u workers, %u requests, window %u "
              "(latencies in simulated cycles)\n\n",
              cfg.workers, cfg.requests, cfg.window);
  std::printf("%-12s %7s %8s %14s %10s %9s %9s %9s %10s\n", "mode", "workers",
              "requests", "cycles", "req/Mcyc", "p50", "p99", "p999", "max");
  table.print(stdout);

  bool ok = true;
  for (const auto& rec : table.points()) {
    ok = ok && metric(rec, "completed") != 0;
  }
  const double t_none = metric(table[0], "throughput_rpmc");
  const double t_split = metric(table[1], "throughput_rpmc");
  std::printf("\nsplit/no-split throughput: %.3f   run: %s\n",
              t_none > 0 ? t_split / t_none : 0, ok ? "COMPLETE" : "WEDGED");

  if (opts.trace_summary) {
    // Serial traced re-run of the protected point: where does split
    // overhead land under production-shaped traffic?
    const ServerLoadResult traced =
        run_server_load(split.with_trace(), cfg);
    std::printf("\n--- split-all server: cycle attribution ---\n");
    std::printf("%s", trace::format_summary(*traced.base.trace_summary,
                                            traced.requests_completed)
                          .c_str());
  }

  pool.report(table);
  return ok ? 0 : 1;
}
