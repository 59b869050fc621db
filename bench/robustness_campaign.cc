// Fault-injection robustness campaign.
//
// Pairs N seeded guest programs with N seeded fault schedules and replays
// each pair against the split-memory engine with the invariant watchdog
// attached. Each sweep point:
//
//   1. runs its program CLEAN once to measure the retired-instruction
//      count, so the fault schedule's horizon matches the program (every
//      count-scheduled fault lands inside the run, not after exit);
//   2. re-runs with the FaultInjector + InvariantWatchdog armed;
//   3. reports, per fault kind, how every fault was accounted for:
//      recovered / degraded / breach / unfired — NEVER silent.
//
// The campaign fails (exit 1) on any security breach, any fired fault left
// unclassified, any wedged run, a scheduled column that does not add up to
// schedules x 16, or a campaign in which no fault fired at all (a detached
// injector would otherwise pass every other check). Per-point work is fully
// self-contained, so the ExperimentRunner --jobs determinism contract
// holds: --jobs=N stdout is byte-identical to --jobs=1.
//
// Schedule count: 500 (the acceptance bar), 60 with --quick; the
// SM_CAMPAIGN_SCHEDULES environment variable overrides both (CI runs the
// full 500, at 1 and at 4 cores).
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "asm/assembler.h"
#include "core/split_engine.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "fuzz/rng.h"
#include "guest/guestlib.h"
#include "image/image.h"
#include "inject/fault_injector.h"
#include "invariant/watchdog.h"
#include "kernel/kernel.h"
#include "runner/experiment_runner.h"

using namespace sm;
using arch::u32;
using arch::u64;

namespace {

constexpr u32 kFaultsPerSchedule = 16;
constexpr u64 kBudget = 20'000'000;

struct PairOutcome {
  u64 clean_instructions = 0;
  inject::FaultSchedule schedule;
  std::vector<inject::FaultInjector::Record> records;
  u32 breaches = 0;
  u32 violations = 0;
  u32 recoveries = 0;
  u32 degradations = 0;
  u64 oom_degradations = 0;
  bool completed = false;  // run ended by exit/block, not budget exhaustion
};

PairOutcome run_pair(u64 index) {
  PairOutcome out;
  const fuzz::FuzzCase c = fuzz::generate(fuzz::case_seed(0xB0B0, index));

  const auto program = assembler::assemble(guest::program(c.body));
  image::BuildOptions bopts;
  bopts.name = "campaign";
  bopts.mixed_text = c.mixed_text;
  const image::Image img = image::build_image(program, bopts);

  // Pass 1: clean run, to size the fault horizon to the program.
  {
    kernel::Kernel k;
    k.set_engine(core::make_engine(core::ProtectionMode::kSplitAll,
                                   core::ResponseMode::kBreak));
    k.register_image(img);
    k.spawn("campaign");
    k.run(kBudget);
    out.clean_instructions = k.stats().instructions;
  }

  out.schedule = inject::FaultSchedule::generate(
      fuzz::case_seed(0xFA17, index), kFaultsPerSchedule,
      out.clean_instructions < 2 ? 2 : out.clean_instructions);

  // Pass 2: same program on the faulty machine, watchdog attached.
  {
    kernel::Kernel k;
    k.set_engine(core::make_engine(core::ProtectionMode::kSplitAll,
                                   core::ResponseMode::kBreak));
    k.register_image(img);
    inject::FaultInjector injector(out.schedule);
    invariant::InvariantWatchdog watchdog;
    injector.attach(k);
    watchdog.attach(k, &injector);
    k.spawn("campaign");
    const auto result = k.run(kBudget);
    watchdog.finalize(k);
    out.completed = result != kernel::Kernel::RunResult::kBudgetExhausted;
    out.records = injector.records();
    out.breaches = watchdog.breaches();
    out.violations = watchdog.violations();
    out.recoveries = watchdog.recoveries();
    out.degradations = watchdog.degradations();
    out.oom_degradations = k.stats().split_oom_degradations;
  }
  return out;
}

std::string outcome_metric(inject::FaultKind kind, const char* what) {
  return std::string(inject::to_string(kind)) + "/" + what;
}

// One sweep point: metric "<kind>/<outcome>" counts that schedule's faults
// of that kind with that outcome (unfired, unclassified, or the watchdog's
// classification), so every scheduled fault lands in exactly one count.
runner::PointResult campaign_point(u32 i) {
  const PairOutcome o = run_pair(i);
  std::map<std::string, u32> per_kind;
  u32 fired = 0;
  u32 unclassified = 0;
  for (const auto& rec : o.records) {
    const char* what = "unfired";
    if (rec.fired) {
      ++fired;
      if (rec.outcome.has_value()) {
        what = to_string(*rec.outcome);
      } else {
        ++unclassified;
        what = "unclassified";
      }
    }
    ++per_kind[outcome_metric(rec.fault.kind, what)];
  }
  runner::PointResult r;
  for (const auto& [name, count] : per_kind) r.add(name, count);
  r.add("fired", fired);
  r.add("unclassified", unclassified);
  r.add("breaches", o.breaches);
  r.add("violations", o.violations);
  r.add("recoveries", o.recoveries);
  r.add("degradations", o.degradations);
  r.add("oom_degradations", static_cast<double>(o.oom_degradations));
  r.add("incomplete", o.completed ? 0 : 1);
  r.text = runner::strf(
      "schedule %04u  instret=%-9llu fired=%2u "
      "viol=%3u rec=%3u deg=%u oom=%llu breach=%u%s\n",
      i, static_cast<unsigned long long>(o.clean_instructions), fired,
      o.violations, o.recoveries, o.degradations,
      static_cast<unsigned long long>(o.oom_degradations), o.breaches,
      o.completed ? "" : "  INCOMPLETE");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  runner::RunnerOptions opts = runner::parse_runner_args(
      argc, argv, "robustness_campaign",
      "Seeded fault-injection campaign: every fault recovered, degraded or "
      "reported — zero breaches, nothing silent");

  u32 schedules = opts.quick ? 60 : 500;
  if (const char* env = std::getenv("SM_CAMPAIGN_SCHEDULES")) {
    schedules = static_cast<u32>(std::strtoul(env, nullptr, 0));
    if (schedules == 0) schedules = 1;
  }

  std::vector<runner::SweepPoint> points;
  points.reserve(schedules);
  for (u32 i = 0; i < schedules; ++i) {
    points.push_back(
        {runner::strf("schedule %04u", i), [i] { return campaign_point(i); }});
  }

  runner::ExperimentRunner pool(opts);
  const runner::ResultTable table = pool.run(points);
  table.print(stdout);

  // Per-kind accounting: every scheduled fault of every run lands in
  // exactly one column.
  std::printf("\n%-16s %9s %6s %10s %9s %7s %8s\n", "fault kind", "scheduled",
              "fired", "recovered", "degraded", "breach", "unfired");
  double total_scheduled = 0;
  double total_fired = 0;
  double total_breach = 0;
  double total_unclassified = 0;
  double total_incomplete = 0;
  for (u32 ki = 0; ki < static_cast<u32>(inject::FaultKind::kCount); ++ki) {
    const auto kind = static_cast<inject::FaultKind>(ki);
    double rec = 0, deg = 0, breach = 0, unfired = 0, unclassified = 0;
    for (std::size_t p = 0; p < table.size(); ++p) {
      rec += metric(table[p], outcome_metric(kind, "recovered"));
      deg += metric(table[p], outcome_metric(kind, "degraded"));
      breach += metric(table[p], outcome_metric(kind, "breach"));
      unfired += metric(table[p], outcome_metric(kind, "unfired"));
      unclassified += metric(table[p], outcome_metric(kind, "unclassified"));
    }
    const double fired = rec + deg + breach + unclassified;
    std::printf("%-16s %9.0f %6.0f %10.0f %9.0f %7.0f %8.0f\n",
                inject::to_string(kind), fired + unfired, fired, rec, deg,
                breach, unfired);
    total_scheduled += fired + unfired;
    total_fired += fired;
    total_breach += breach;
    total_unclassified += unclassified;
  }
  for (std::size_t p = 0; p < table.size(); ++p) {
    total_incomplete += metric(table[p], "incomplete");
  }

  std::printf("\ncampaign: %u schedules x %u faults, scheduled=%.0f "
              "fired=%.0f breaches=%.0f unclassified=%.0f incomplete=%.0f\n",
              schedules, kFaultsPerSchedule, total_scheduled, total_fired,
              total_breach, total_unclassified, total_incomplete);
  pool.report(table);

  const char* failure = nullptr;
  if (total_breach > 0 || total_unclassified > 0 || total_incomplete > 0) {
    failure = "breach, silent fault, or wedged run";
  } else if (total_scheduled !=
             static_cast<double>(schedules) * kFaultsPerSchedule) {
    failure = "scheduled faults missing from the per-kind table";
  } else if (total_fired == 0) {
    failure = "no fault fired (is the injector attached?)";
  }
  if (failure != nullptr) {
    std::fprintf(stderr, "robustness_campaign: FAILED (%s)\n", failure);
  }
  return failure != nullptr ? 1 : 0;
}
