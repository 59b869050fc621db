// Open-loop overload sweep: graceful degradation under offered load.
//
// Closed-loop benchmarks (server_load) cannot show saturation behaviour —
// a closed loop slows its own arrival rate when the server slows down.
// Here the arrival process is OPEN: a seeded exponential stream fires at a
// configured multiple of the server's measured capacity regardless of how
// the server is doing, and the server must degrade gracefully — shedding
// at admission, timing out on deadline, retrying refused connects — while
// goodput saturates instead of collapsing.
//
// For each (protection, cores) leg the sweep first calibrates capacity:
//   1. flood: every arrival lands at once, so the admission queue stays
//      full and goodput ~= service capacity (coarse, few samples);
//   2. refine: a second run offered at 2x the coarse estimate, which keeps
//      the queue busy across the whole stream and yields a tight estimate.
// All timeout/deadline knobs then derive from the calibrated per-request
// interval, and the sweep points offer {0.5, 1, 2, 4}x capacity.
//
// Everything is a pure function of the config: stdout is byte-identical
// across --jobs=1/--jobs=N and across runs at any core count.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "runner/experiment_runner.h"
#include "trace/profiler.h"
#include "workloads/workload.h"

using namespace sm;
using namespace sm::workloads;
using arch::u32;
using arch::u64;

namespace {

OverloadConfig base_config(bool quick) {
  OverloadConfig cfg;
  if (quick) {
    cfg.workers = 8;
    cfg.arrivals = 240;
    cfg.qdepth = 32;
    cfg.backlog = 4;
  } else {
    cfg.workers = 32;
    cfg.arrivals = 4000;
    cfg.qdepth = 64;
    cfg.backlog = 8;
  }
  return cfg;
}

// Derive the load-dependent knobs from the calibrated capacity: every
// timeout scales with the mean per-request interval at capacity.
OverloadConfig config_at(const OverloadConfig& base, double capacity,
                         double multiplier) {
  OverloadConfig cfg = base;
  const double interval = 1e6 / capacity;  // cycles per request at capacity
  cfg.offered_rpmc = capacity * multiplier;
  cfg.deadline = static_cast<u32>(interval * cfg.qdepth * 2);
  cfg.recv_timeout = static_cast<u32>(interval * 8);
  cfg.select_timeout = static_cast<u32>(interval * 2);
  cfg.backoff_base = std::max<u32>(static_cast<u32>(interval / 2), 64);
  return cfg;
}

// Measured sustainable capacity (requests per mega-cycle) for one leg:
// the highest goodput the server demonstrably kept up with, probed under
// the same deadline/timeout policy the sweep points run with.
double calibrate(const Protection& prot, const OverloadConfig& base) {
  // Flood pass: all arrivals are due immediately; the queue fills, the
  // excess sheds, and the admitted batch drains back-to-back. Coarse —
  // worker-pool startup is a big slice of so short a run — but a sound
  // lower bound to seed the search.
  OverloadConfig cal = base;
  cal.arrivals = std::max<u32>(cal.qdepth * 3, 96);
  cal.offered_rpmc = 1e5;
  cal.deadline = 0x7FFFFFFF;  // shed on queue depth only, never on age
  double est = std::max(run_overload_load(prot, cal).goodput_rpmc, 1.0);
  // Saturation search: offer 3x the best sustained goodput, with every
  // knob derived from the current estimate exactly as config_at derives
  // the sweep points', and repeat until the server demonstrably cannot
  // keep up. The estimate ratchets up only on sustained rates, so a
  // thrashing over-saturated probe cannot drag it down.
  const u32 probe_arrivals = std::max<u32>(base.arrivals / 2, 120);
  for (int pass = 0; pass < 5; ++pass) {
    OverloadConfig probe = config_at(base, est, 3.0);
    probe.arrivals = probe_arrivals;
    const double got =
        std::max(run_overload_load(prot, probe).goodput_rpmc, 1.0);
    const bool saturated = got < probe.offered_rpmc * 0.75;
    const double prev = est;
    est = std::max(est, got);
    if (saturated && est <= prev * 1.05) break;
  }
  return est;
}

runner::PointResult run_point(const std::string& label,
                              const Protection& prot,
                              const OverloadConfig& cfg) {
  runner::PointResult res;
  const OverloadResult r = run_overload_load(prot, cfg);
  const u64 sheds = r.shed_queue + r.shed_deadline;
  const double effective =
      r.base.cycles
          ? static_cast<double>(r.arrivals_issued) * 1e6 /
                static_cast<double>(r.base.cycles)
          : 0.0;
  res.text = runner::strf(
      "%-16s %8.2f %8.3f %6llu %6llu %6llu %5llu %7llu %8llu %9llu %12llu\n",
      label.c_str(), r.offered_rpmc, r.goodput_rpmc,
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(sheds),
      static_cast<unsigned long long>(r.worker_drops),
      static_cast<unsigned long long>(r.lost_responses),
      static_cast<unsigned long long>(r.retries),
      static_cast<unsigned long long>(r.latency.percentile(50)),
      static_cast<unsigned long long>(r.latency.percentile(99)),
      static_cast<unsigned long long>(r.base.cycles));
  res.add("offered_rpmc", r.offered_rpmc);
  res.add("effective_rpmc", effective);
  res.add("goodput_rpmc", r.goodput_rpmc);
  res.add("completed_n", static_cast<double>(r.completed));
  res.add("shed_queue", static_cast<double>(r.shed_queue));
  res.add("shed_deadline", static_cast<double>(r.shed_deadline));
  res.add("worker_drops", static_cast<double>(r.worker_drops));
  res.add("lost_responses", static_cast<double>(r.lost_responses));
  res.add("retries", static_cast<double>(r.retries));
  res.add("p50", static_cast<double>(r.latency.percentile(50)));
  res.add("p99", static_cast<double>(r.latency.percentile(99)));
  res.add("cycles", static_cast<double>(r.base.cycles));
  res.add("timer_fires", static_cast<double>(r.base.stats.timer_fires));
  res.add("sock_refused", static_cast<double>(r.base.stats.sock_refused));
  res.add("completed", r.base.completed ? 1 : 0);
  return res;
}

struct Leg {
  const char* prot_label;  // "none" | "split"
  Protection prot;
  u32 cores;
  const char* suffix;  // "" | "-smp4"
  double capacity = 0;
};

std::string mult_label(double m) {
  return m == 0.5 ? "0.5x" : runner::strf("%.0fx", m);
}

}  // namespace

int main(int argc, char** argv) {
  const runner::RunnerOptions opts = runner::parse_runner_args(
      argc, argv, "overload_sweep",
      "Open-loop overload sweep: seeded exponential arrivals at 0.5-4x "
      "measured capacity; goodput, shedding, retries and tail latency, "
      "split memory on/off, 1 and 4 cores");
  runner::ExperimentRunner pool(opts);

  OverloadConfig base = base_config(opts.quick);
  if (opts.cores != 0) base.cores = opts.cores;

  // Legs: quick keeps the drift-guarded set small (uniprocessor no-split /
  // split plus one pinned 4-core split leg); full covers the cross product.
  std::vector<Leg> legs;
  legs.push_back({"none", Protection::none(), base.cores, ""});
  legs.push_back({"split", Protection::split_all(), base.cores, ""});
  legs.push_back({"split", Protection::split_all(), 4, "-smp4"});
  if (!opts.quick) {
    legs.push_back({"none", Protection::none(), 4, "-smp4"});
  }
  const std::vector<double> multipliers =
      opts.quick ? std::vector<double>{0.5, 2.0}
                 : std::vector<double>{0.5, 1.0, 2.0, 4.0};

  // Calibration runs serially before the pool: each leg's capacity feeds
  // every sweep point of that leg, and the result is deterministic.
  for (auto& leg : legs) {
    OverloadConfig cal = base;
    cal.cores = leg.cores;
    leg.capacity = calibrate(leg.prot, cal);
  }

  std::vector<runner::SweepPoint> points;
  for (const auto& leg : legs) {
    for (double m : multipliers) {
      // Quick trims the smp4 leg to the saturated point only.
      if (opts.quick && leg.suffix[0] != '\0' && m != 2.0) continue;
      const std::string label =
          std::string(leg.prot_label) + "-" + mult_label(m) + leg.suffix;
      OverloadConfig cfg = config_at(base, leg.capacity, m);
      cfg.cores = leg.cores;
      const Protection prot = leg.prot;
      points.push_back({label, [label, prot, cfg] {
                          return run_point(label, prot, cfg);
                        }});
    }
  }

  const runner::ResultTable table = pool.run(points);
  std::printf("Overload sweep: %u workers, %u open-loop arrivals per point "
              "(latencies in simulated cycles)\n",
              base.workers, base.arrivals);
  for (const auto& leg : legs) {
    std::printf("calibrated capacity %s cores=%u: %.3f req/Mcyc\n",
                leg.prot_label, leg.cores, leg.capacity);
  }
  std::printf("\n%-16s %8s %8s %6s %6s %6s %5s %7s %8s %9s %12s\n", "point",
              "offered", "goodput", "done", "shed", "drop", "lost", "retry",
              "p50", "p99", "cycles");
  table.print(stdout);

  // Gates. Every point must have run to completion (no wedge); goodput can
  // never exceed the arrival rate actually sustained; and at 0.5x offered
  // load the degradation machinery must be invisible — zero sheds, drops
  // or lost responses.
  bool ok = true;
  bool low_clean = true;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto& rec = table[i];
    ok = ok && metric(rec, "completed") != 0;
    ok = ok && metric(rec, "goodput_rpmc") <=
                   metric(rec, "effective_rpmc") + 1e-9;
  }
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto& rec = table[i];
    if (rec.label.find("-0.5x") == std::string::npos) continue;
    const double noise = metric(rec, "shed_queue") +
                         metric(rec, "shed_deadline") +
                         metric(rec, "worker_drops") +
                         metric(rec, "lost_responses");
    low_clean = low_clean && noise == 0;
  }
  ok = ok && low_clean;

  // Full mode: saturation must be monotone in the right sense — past-1x
  // tail latency dominates the under-load tail for every leg.
  if (!opts.quick) {
    for (const auto& leg : legs) {
      const std::string lo =
          std::string(leg.prot_label) + "-0.5x" + leg.suffix;
      const std::string hi = std::string(leg.prot_label) + "-4x" + leg.suffix;
      double p99_lo = -1, p99_hi = -1;
      for (std::size_t i = 0; i < table.size(); ++i) {
        if (table[i].label == lo) p99_lo = metric(table[i], "p99");
        if (table[i].label == hi) p99_hi = metric(table[i], "p99");
      }
      if (p99_lo >= 0 && p99_hi >= 0 && p99_hi <= p99_lo) {
        std::printf("saturation check FAILED for %s%s: p99(4x)=%.0f <= "
                    "p99(0.5x)=%.0f\n",
                    leg.prot_label, leg.suffix, p99_hi, p99_lo);
        ok = false;
      }
    }
  }

  std::printf("\nlow-load check (0.5x): %s   run: %s\n",
              low_clean ? "clean (no sheds, drops or lost responses)"
                        : "NOISY",
              ok ? "COMPLETE" : "FAILED");

  if (opts.trace_summary) {
    // Serial traced re-run of the saturated protected point: where do the
    // cycles go when the server is shedding?
    const Protection split = Protection::split_all();
    OverloadConfig cfg = config_at(base, legs[1].capacity, 2.0);
    const OverloadResult traced =
        run_overload_load(split.with_trace(), cfg);
    std::printf("\n--- split-all overload 2x: cycle attribution ---\n");
    std::printf("%s", trace::format_summary(*traced.base.trace_summary,
                                            traced.completed)
                          .c_str());
  }

  pool.report(table);
  return ok ? 0 : 1;
}
