// Differential oracle: runs one generated guest program under every
// protection engine and fast-path configuration, and checks the paper's
// equivalence contract.
//
// For a BENIGN program (the only kind the generator emits), protection is
// supposed to be invisible:
//
//   BEHAVIOURAL EQUALITY — across engines (none / split break|observe|
//   forensics / hardware NX / PaX PAGEEXEC / NX+split-mixed) and across
//   kernel paging strategies (software TLB, eager load): identical exit
//   kind and code, console output, syscall trace, final-memory digest and
//   retired-instruction count for every process, and zero detections.
//   Simulated cycle counts legitimately differ — split protection costs
//   extra traps; that is the paper's Table 2 — so cycles are NOT compared
//   here.
//
//   BILLING IDENTITY — within one engine, toggling the simulator-only fast
//   paths (Mmu data memos, decode cache, basic-block engine) and the trace
//   layer (pure observation) must leave every simulated stat identical,
//   including cycles: the fast paths are host-side optimizations and bill
//   exactly what the slow path they short-circuit would have, and a
//   TraceSink never charges or perturbs state. Only the counters that
//   metrics::kCounters marks host_side may differ.
//
// check_case() returns the first violated clause as a human-readable
// divergence string — which doubles as the shrinker's predicate.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/split_engine.h"
#include "fuzz/generator.h"
#include "image/image.h"
#include "image/sha256.h"
#include "kernel/kernel.h"
#include "metrics/stats.h"

namespace sm::fuzz {

// One kernel+engine configuration the oracle runs a case under.
struct OracleConfig {
  std::string label;
  core::ProtectionMode mode = core::ProtectionMode::kNone;
  core::ResponseMode response = core::ResponseMode::kBreak;
  bool software_tlb = false;
  bool eager_load = false;
  // Simulator fast paths (billing-identity axis).
  bool data_memo = true;
  bool decode_cache = true;
  bool dbt = true;  // basic-block engine (Cpu::step_block)
  // Trace layer on (billing-identity axis: observation must not bill).
  bool trace = false;
  // Oracle self-test: plant the deliberate memo-LRU billing bug
  // (Mmu::set_inject_memo_lru_bug) so the campaign can prove it would
  // catch one.
  bool inject_lru_bug = false;
  // Simulated RAM override (0 = KernelConfig default). The snapshot
  // battery runs hundreds of kernels; a smaller machine keeps it quick
  // without changing any guest-visible behaviour.
  u32 phys_frames = 0;
};

// Everything observable from one run.
struct ProcObservation {
  kernel::Pid pid = 0;
  kernel::ExitKind exit_kind = kernel::ExitKind::kRunning;
  u32 exit_code = 0;
  std::string console;
  std::vector<kernel::SyscallRecord> syscalls;
  std::optional<image::Digest> digest;
};

struct RunObservation {
  kernel::Kernel::RunResult result = kernel::Kernel::RunResult::kAllExited;
  std::vector<ProcObservation> procs;  // pid order
  u64 instructions = 0;                // retired instructions, all processes
  std::size_t detections = 0;
  metrics::Stats stats;  // full counters, for the billing clause
};

struct OracleOptions {
  u64 budget = 20'000'000;
  // Arm the deliberate LRU billing bug on every memo-enabled run.
  bool inject_lru_bug = false;
  // Restrict to one clause (the shrinker uses billing_only to keep
  // predicate evaluations cheap).
  bool behavioral_only = false;
  bool billing_only = false;
  // Only the robustness clause (fault-schedule shrinking predicate).
  bool robustness_only = false;
};

struct OracleVerdict {
  bool ok = true;
  std::string divergence;  // empty iff ok

  explicit operator bool() const { return ok; }
};

// The case's program, assembled and wrapped as the image every kernel of
// the case runs. Throws asm::AsmError if the body does not assemble.
// Assembly is most of a small case's set-up, so check_case and the
// snapshot-replay checks build the image once per case and register a
// copy of it in each kernel they build.
image::Image case_image(const FuzzCase& c);

// Builds the case's image, runs it under `cfg`, returns the observation.
// The Image overload runs `img`, a case_image(): pass a copy of a prebuilt
// one to share it.
RunObservation run_case(const FuzzCase& c, const OracleConfig& cfg,
                        u64 budget = 20'000'000);
RunObservation run_case(image::Image img, const OracleConfig& cfg,
                        u64 budget = 20'000'000);

// The pieces run_case() is made of, exposed for the snapshot-replay
// battery (which needs to stop a kernel mid-run, checkpoint it, and
// observe restored copies against a straight-through reference).
//
// make_case_kernel: a kernel with the case's image registered, the
// engine installed, pid 1 spawned and the cfg's fast-path toggles
// applied to every core — ready for run(). (Kernel is not movable;
// heap-allocated.) The Image overload registers `img`, a case_image():
// pass a copy of a prebuilt one to share it.
std::unique_ptr<kernel::Kernel> make_case_kernel(const FuzzCase& c,
                                                 const OracleConfig& cfg);
std::unique_ptr<kernel::Kernel> make_case_kernel(image::Image img,
                                                 const OracleConfig& cfg);
// observe: extracts the full observation from a kernel that finished
// running with `result`.
RunObservation observe(kernel::Kernel& k, kernel::Kernel::RunResult result);
// The two equivalence comparators (empty string == equal). diff_behavior
// checks the engine-invisible clause (exit/console/syscalls/digest,
// cycles exempt); diff_billing is metrics::billing_difference: every
// counter of metrics::kCounters, cycles included, except the host_side
// rows.
std::string diff_behavior(const RunObservation& ref, const std::string& ref_l,
                          const RunObservation& got, const std::string& got_l);
std::string diff_billing(const RunObservation& ref, const std::string& ref_l,
                         const RunObservation& got, const std::string& got_l);

// The full differential sweep. Throws asm::AsmError if the body does not
// assemble (generator bug / hand-written corpus typo). Cases carrying a
// fault schedule additionally run the robustness clause below.
OracleVerdict check_case(const FuzzCase& c, const OracleOptions& opts = {});

// ROBUSTNESS clause (ISSUE 5): replay the case's fault schedule against
// split-break with the invariant watchdog attached and demand graceful
// degradation — the run completes within budget, ZERO security breaches
// (no instruction ever fetched from a split page's data frame), and every
// fault that fired is classified recovered or degraded, never silent.
// Trivially passes when c.faults is empty.
OracleVerdict check_robustness(const FuzzCase& c,
                               const OracleOptions& opts = {});

// The two sweeps, exposed for tests.
std::vector<OracleConfig> behavioral_configs();
std::vector<OracleConfig> billing_configs();

}  // namespace sm::fuzz
