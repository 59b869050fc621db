#include "fuzz/oracle.h"

#include <sstream>
#include <utility>

#include "asm/assembler.h"
#include "guest/guestlib.h"
#include "image/image.h"
#include "inject/fault_injector.h"
#include "invariant/watchdog.h"

namespace sm::fuzz {

namespace {

const char* run_result_name(kernel::Kernel::RunResult r) {
  switch (r) {
    case kernel::Kernel::RunResult::kAllExited: return "all-exited";
    case kernel::Kernel::RunResult::kAllBlocked: return "all-blocked";
    case kernel::Kernel::RunResult::kBudgetExhausted: return "budget-exhausted";
  }
  return "?";
}

const char* exit_kind_name(kernel::ExitKind k) {
  switch (k) {
    case kernel::ExitKind::kRunning: return "running";
    case kernel::ExitKind::kExited: return "exited";
    case kernel::ExitKind::kKilledSigsegv: return "sigsegv";
    case kernel::ExitKind::kKilledSigill: return "sigill";
  }
  return "?";
}

}  // namespace

// Compares one non-reference run against the reference on the behavioural
// clause. Empty string == equal.
std::string diff_behavior(const RunObservation& ref, const std::string& ref_l,
                          const RunObservation& got, const std::string& got_l) {
  std::ostringstream d;
  const std::string head = got_l + " vs " + ref_l + ": ";
  if (got.result != ref.result)
    return head + "run result " + run_result_name(got.result) + " != " +
           run_result_name(ref.result);
  if (got.detections != ref.detections)
    return head + "detections " + std::to_string(got.detections) + " != " +
           std::to_string(ref.detections);
  if (got.instructions != ref.instructions)
    return head + "retired instructions " + std::to_string(got.instructions) +
           " != " + std::to_string(ref.instructions);
  if (got.procs.size() != ref.procs.size())
    return head + "process count " + std::to_string(got.procs.size()) +
           " != " + std::to_string(ref.procs.size());
  for (std::size_t i = 0; i < ref.procs.size(); ++i) {
    const ProcObservation& a = ref.procs[i];
    const ProcObservation& b = got.procs[i];
    const std::string who = head + "pid " + std::to_string(a.pid) + " ";
    if (b.pid != a.pid)
      return who + "pid mismatch " + std::to_string(b.pid);
    if (b.exit_kind != a.exit_kind)
      return who + "exit kind " + std::string(exit_kind_name(b.exit_kind)) +
             " != " + exit_kind_name(a.exit_kind);
    if (b.exit_code != a.exit_code)
      return who + "exit code " + std::to_string(b.exit_code) + " != " +
             std::to_string(a.exit_code);
    if (b.console != a.console) return who + "console output differs";
    if (b.syscalls != a.syscalls) {
      std::size_t j = 0;
      while (j < a.syscalls.size() && j < b.syscalls.size() &&
             a.syscalls[j] == b.syscalls[j])
        ++j;
      d << who << "syscall trace differs at #" << j << ": "
        << (j < b.syscalls.size() ? to_string(b.syscalls[j]) : "<end>")
        << " != "
        << (j < a.syscalls.size() ? to_string(a.syscalls[j]) : "<end>");
      return d.str();
    }
    if (b.digest != a.digest) {
      d << who << "final-memory digest "
        << (b.digest ? image::hex_digest(*b.digest).substr(0, 16) : "<none>")
        << " != "
        << (a.digest ? image::hex_digest(*a.digest).substr(0, 16) : "<none>");
      return d.str();
    }
  }
  return "";
}

// Compares full simulated stats (billing clause). Host-side fast-path
// counters are exempt — they are the knob being toggled.
std::string diff_billing(const RunObservation& ref, const std::string& ref_l,
                         const RunObservation& got, const std::string& got_l) {
  const std::string d = metrics::billing_difference(ref.stats, got.stats);
  return d.empty() ? d : got_l + " vs " + ref_l + ": " + d;
}

std::vector<OracleConfig> behavioral_configs() {
  using core::ProtectionMode;
  using core::ResponseMode;
  std::vector<OracleConfig> cfgs;
  cfgs.push_back({.label = "none", .mode = ProtectionMode::kNone});
  cfgs.push_back({.label = "split-break", .mode = ProtectionMode::kSplitAll});
  cfgs.push_back({.label = "split-observe",
                  .mode = ProtectionMode::kSplitAll,
                  .response = ResponseMode::kObserve});
  cfgs.push_back({.label = "split-forensics",
                  .mode = ProtectionMode::kSplitAll,
                  .response = ResponseMode::kForensics});
  cfgs.push_back({.label = "nx", .mode = ProtectionMode::kHardwareNx});
  cfgs.push_back({.label = "pageexec", .mode = ProtectionMode::kPaxPageexec});
  cfgs.push_back(
      {.label = "nx+split", .mode = ProtectionMode::kNxPlusSplitMixed});
  cfgs.push_back({.label = "split-soft-tlb",
                  .mode = ProtectionMode::kSplitAll,
                  .software_tlb = true});
  cfgs.push_back({.label = "split-eager",
                  .mode = ProtectionMode::kSplitAll,
                  .eager_load = true});
  return cfgs;
}

std::vector<OracleConfig> billing_configs() {
  using core::ProtectionMode;
  std::vector<OracleConfig> cfgs;
  for (const auto& [engine, mode] :
       {std::pair<const char*, ProtectionMode>{"none", ProtectionMode::kNone},
        {"split-break", ProtectionMode::kSplitAll}}) {
    const std::string base = engine;
    cfgs.push_back({.label = base + "/fastpaths", .mode = mode});
    cfgs.push_back(
        {.label = base + "/no-memo", .mode = mode, .data_memo = false});
    cfgs.push_back(
        {.label = base + "/no-dcache", .mode = mode, .decode_cache = false});
    cfgs.push_back({.label = base + "/no-dbt", .mode = mode, .dbt = false});
    cfgs.push_back({.label = base + "/trace", .mode = mode, .trace = true});
  }
  return cfgs;
}

image::Image case_image(const FuzzCase& c) {
  const auto program = assembler::assemble(guest::program(c.body));
  image::BuildOptions opts;
  opts.name = "fuzz";
  opts.mixed_text = c.mixed_text;
  return image::build_image(program, opts);
}

std::unique_ptr<kernel::Kernel> make_case_kernel(const FuzzCase& c,
                                                 const OracleConfig& cfg) {
  return make_case_kernel(case_image(c), cfg);
}

std::unique_ptr<kernel::Kernel> make_case_kernel(image::Image img,
                                                 const OracleConfig& cfg) {
  kernel::KernelConfig kc;
  kc.record_syscall_trace = true;
  kc.capture_exit_digest = true;
  kc.software_tlb = cfg.software_tlb;
  kc.eager_load = cfg.eager_load;
  kc.trace = cfg.trace;
  if (cfg.phys_frames != 0) kc.phys_frames = cfg.phys_frames;
  auto k = std::make_unique<kernel::Kernel>(kc);
  k->set_engine(core::make_engine(cfg.mode, cfg.response));
  k->register_image(std::move(img));
  k->spawn("fuzz");
  // Every core's MMU and CPU, not just the active pair: at cores > 1 the
  // processes run on all of them, so a fast path left on on any core
  // would still run in a leg that switches it off.
  for (u32 i = 0; i < k->num_cores(); ++i) {
    arch::Mmu& mmu = k->core_mmu(i);
    arch::Cpu& cpu = k->core_cpu(i);
    mmu.set_data_memo_enabled(cfg.data_memo);
    cpu.set_decode_cache_enabled(cfg.decode_cache);
    cpu.set_block_engine_enabled(cfg.dbt && cpu.block_engine_enabled());
    if (cfg.inject_lru_bug) mmu.set_inject_memo_lru_bug(true);
  }
  return k;
}

RunObservation observe(kernel::Kernel& k, kernel::Kernel::RunResult result) {
  RunObservation obs;
  obs.result = result;
  for (const auto& proc : k.processes()) {
    ProcObservation po;
    po.pid = proc->pid;
    po.exit_kind = proc->exit_kind;
    po.exit_code = proc->exit_code;
    po.console = proc->console;
    po.syscalls = proc->syscall_trace;
    po.digest = proc->exit_digest;
    obs.procs.push_back(std::move(po));
  }
  obs.instructions = k.stats().instructions;
  obs.detections = k.detections().size();
  obs.stats = k.stats();
  return obs;
}

RunObservation run_case(const FuzzCase& c, const OracleConfig& cfg,
                        u64 budget) {
  return run_case(case_image(c), cfg, budget);
}

RunObservation run_case(image::Image img, const OracleConfig& cfg,
                        u64 budget) {
  const std::unique_ptr<kernel::Kernel> k =
      make_case_kernel(std::move(img), cfg);
  return observe(*k, k->run(budget));
}

namespace {

// The robustness clause over a prebuilt case_image(c), for a case that
// carries a fault schedule.
OracleVerdict robustness(const FuzzCase& c, const image::Image& img,
                         const OracleOptions& opts) {
  OracleVerdict v;
  kernel::KernelConfig kc;
  kernel::Kernel k(kc);
  k.set_engine(core::make_engine(core::ProtectionMode::kSplitAll,
                                 core::ResponseMode::kBreak));
  k.register_image(img);
  inject::FaultInjector injector(c.faults);
  invariant::InvariantWatchdog watchdog;
  injector.attach(k);
  watchdog.attach(k, &injector);
  k.spawn("fuzz");

  const auto result = k.run(opts.budget);
  watchdog.finalize(k);

  const auto fail = [&v](std::string why) {
    v.ok = false;
    v.divergence = "robustness: " + std::move(why);
    return v;
  };
  if (result == kernel::Kernel::RunResult::kBudgetExhausted) {
    return fail("run did not complete within budget (faults wedged the "
                "kernel instead of degrading)");
  }
  if (watchdog.breaches() > 0) {
    return fail(std::to_string(watchdog.breaches()) +
                " security breach(es): instruction fetched from a split "
                "page's data frame");
  }
  for (std::size_t i = 0; i < injector.records().size(); ++i) {
    const auto& r = injector.records()[i];
    if (!r.fired) continue;  // event never occurred: reported, not silent
    if (!r.outcome.has_value()) {
      return fail("fault #" + std::to_string(i) + " (" +
                  inject::to_string(r.fault.kind) +
                  ") fired but was never classified");
    }
    if (*r.outcome == inject::Outcome::kBreach) {
      return fail("fault #" + std::to_string(i) + " (" +
                  inject::to_string(r.fault.kind) + ") classified as breach");
    }
  }
  return v;
}

}  // namespace

OracleVerdict check_robustness(const FuzzCase& c, const OracleOptions& opts) {
  if (c.faults.empty()) return {};
  return robustness(c, case_image(c), opts);
}

OracleVerdict check_case(const FuzzCase& c, const OracleOptions& opts) {
  OracleVerdict v;

  if (opts.robustness_only) return check_robustness(c, opts);
  // One image for every kernel below (19 configurations, plus the
  // robustness clause's).
  const image::Image img = case_image(c);

  // --- behavioural clause: every engine matches the unprotected run ------
  if (!opts.billing_only) {
    const std::vector<OracleConfig> cfgs = behavioral_configs();
    RunObservation ref = run_case(img, cfgs.front(), opts.budget);
    if (ref.result != kernel::Kernel::RunResult::kAllExited) {
      v.ok = false;
      v.divergence = std::string("reference run did not exit: ") +
                     run_result_name(ref.result);
      return v;
    }
    for (std::size_t i = 1; i < cfgs.size(); ++i) {
      const RunObservation got = run_case(img, cfgs[i], opts.budget);
      const std::string d =
          diff_behavior(ref, cfgs.front().label, got, cfgs[i].label);
      if (!d.empty()) {
        v.ok = false;
        v.divergence = d;
        return v;
      }
    }
  }

  // --- billing clause: fast-path toggles change no simulated number ------
  if (!opts.behavioral_only) {
    std::vector<OracleConfig> cfgs = billing_configs();
    if (opts.inject_lru_bug) {
      // The bug only fires where the memo is live.
      for (OracleConfig& cfg : cfgs)
        if (cfg.data_memo) cfg.inject_lru_bug = true;
    }
    // Each engine's toggled runs compare against that engine's baseline
    // (billing identity is a within-engine contract); billing_configs()
    // interleaves them as [baseline, no-memo, no-dcache, no-dbt, trace]
    // per engine.
    for (std::size_t base = 0; base + 4 < cfgs.size(); base += 5) {
      const RunObservation ref = run_case(img, cfgs[base], opts.budget);
      for (std::size_t i = base + 1; i < base + 5; ++i) {
        const RunObservation got = run_case(img, cfgs[i], opts.budget);
        const std::string d =
            diff_billing(ref, cfgs[base].label, got, cfgs[i].label);
        if (!d.empty()) {
          v.ok = false;
          v.divergence = d;
          return v;
        }
      }
    }
  }

  // --- robustness clause: the fault schedule degrades, never breaches ----
  if (!c.faults.empty()) return robustness(c, img, opts);
  return v;
}

}  // namespace sm::fuzz
