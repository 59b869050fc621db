// Replay-equivalence checks over whole-machine snapshots (ISSUE: the
// fork-server leg of the checkpoint/restore battery).
//
// Two faces:
//
//   check_replay_at — the battery's unit step: run a case straight through
//   (reference), then re-run it to instruction `prefix`, save, restore into
//   a FRESH kernel, run the remaining budget, and demand the restored run
//   matches the reference on BOTH oracle clauses — behaviour (exit kind and
//   code, console, syscall trace, final-memory digest) AND billing (every
//   simulated counter, cycles included; host-side fast-path counters are
//   the only exemption, since restore drops those caches cold).
//
//   run_fork_server_case — the fuzz_driver --snapshot-prefix engine: one
//   kernel runs the prefix once and is then reset in place from an
//   in-memory snapshot for each iteration, instead of re-running the
//   prefix from scratch. Every iteration's observation is checked against
//   the reference, and host wall-clock for both strategies is returned so
//   the CI leg can report the speedup (reset vs re-run).
#pragma once

#include <string>
#include <string_view>

#include "fuzz/generator.h"
#include "fuzz/oracle.h"

namespace sm::fuzz {

// Restores `k` from the snapshot in `blob`, read in place: the bytes are
// not copied into a stream first. The fork server resets through this.
void restore_from(kernel::Kernel& k, std::string_view blob);

struct ReplayVerdict {
  bool ok = true;
  std::string divergence;  // empty iff ok

  explicit operator bool() const { return ok; }
};

// Snapshot at `prefix` retired instructions, restore into a fresh kernel,
// run the remaining budget, compare against the uninterrupted run.
ReplayVerdict check_replay_at(const FuzzCase& c, const OracleConfig& cfg,
                              u64 budget, u64 prefix);

// Instruction counts at which the case crosses a syscall boundary (the
// count right after each syscall instruction retires), found by single-
// stepping the reference run. The battery snapshots at each of these.
std::vector<u64> syscall_boundaries(const FuzzCase& c, const OracleConfig& cfg,
                                    u64 budget);

struct ForkServerOptions {
  u64 budget = 20'000'000;
  // Snapshot point as a percentage of the reference run's retired
  // instructions — late prefixes are where a fork server pays off.
  u32 prefix_percent = 90;
  // Fork-server iterations per case (each timed both ways).
  u32 resets = 4;
};

struct ForkServerResult {
  bool ok = true;
  std::string divergence;       // first mismatch, empty iff ok
  u64 total_instructions = 0;   // reference run length T
  u64 prefix_instructions = 0;  // snapshot point P
  std::size_t snapshot_bytes = 0;
  // Host seconds, summed over all iterations of each strategy:
  // rerun = fresh kernel + full run from instruction 0 (the baseline a
  // non-fork-server fuzzer pays); reset = in-place restore + suffix run.
  double rerun_seconds = 0.0;
  double reset_seconds = 0.0;

  explicit operator bool() const { return ok; }
};

ForkServerResult run_fork_server_case(const FuzzCase& c,
                                      const OracleConfig& cfg,
                                      const ForkServerOptions& opts = {});

}  // namespace sm::fuzz
