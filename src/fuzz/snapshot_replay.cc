#include "fuzz/snapshot_replay.h"

#include <algorithm>
#include <chrono>
#include <istream>
#include <sstream>
#include <streambuf>
#include <string_view>

#include "kernel/kernel.h"

namespace sm::fuzz {

namespace {

using RunResult = kernel::Kernel::RunResult;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Both oracle clauses against the reference. Billing identity holds across
// a snapshot boundary because restore drops only host-side caches, and
// those bill identically cold or warm (the fuzz oracle's own contract).
std::string compare_to_ref(const RunObservation& ref, kernel::Kernel& k,
                           RunResult result, const std::string& label) {
  const RunObservation got = observe(k, result);
  std::string d = diff_behavior(ref, "straight", got, label);
  if (d.empty()) d = diff_billing(ref, "straight", got, label);
  return d;
}

// A read-only stream buffer over bytes the caller keeps alive, so a
// restore reads a blob in place instead of from an std::istringstream's
// copy of it. The reader only gets and never puts back, so the get area
// is never written through.
class BlobBuf : public std::streambuf {
 public:
  explicit BlobBuf(std::string_view blob) {
    char* p = const_cast<char*>(blob.data());
    setg(p, p, p + blob.size());
  }
};

}  // namespace

void restore_from(kernel::Kernel& k, std::string_view blob) {
  BlobBuf buf(blob);
  std::istream is(&buf);
  k.restore(is);
}

ReplayVerdict check_replay_at(const FuzzCase& c, const OracleConfig& cfg,
                              u64 budget, u64 prefix) {
  ReplayVerdict v;
  if (prefix >= budget) {
    v.ok = false;
    v.divergence = "replay: prefix >= budget (no suffix to compare)";
    return v;
  }

  // One image for the three kernels.
  const image::Image img = case_image(c);
  const auto ref_k = make_case_kernel(img, cfg);
  const RunObservation ref = observe(*ref_k, ref_k->run(budget));

  // Re-run to the split point and checkpoint. run(P) then run(budget-P)
  // is observably identical to run(budget): budget exhaustion leaves
  // current_ scheduled mid-slice, and re-entry resumes stepping without
  // an extra wake sweep or reschedule.
  const auto save_k = make_case_kernel(img, cfg);
  if (prefix > 0) save_k->run(prefix);
  std::ostringstream os;
  save_k->save(os);

  // Restore into a FRESH kernel (the battery's point: the snapshot alone
  // carries the state) and run the remaining budget.
  const auto rest_k = make_case_kernel(img, cfg);
  restore_from(*rest_k, os.view());
  const RunResult res = rest_k->run(budget - prefix);

  const std::string d = compare_to_ref(
      ref, *rest_k, res, "restored@" + std::to_string(prefix));
  if (!d.empty()) {
    v.ok = false;
    v.divergence = d;
  }
  return v;
}

std::vector<u64> syscall_boundaries(const FuzzCase& c, const OracleConfig& cfg,
                                    u64 budget) {
  const auto k = make_case_kernel(c, cfg);
  std::vector<u64> out;
  u64 syscalls_seen = 0;
  for (u64 done = 0; done < budget; ++done) {
    if (k->run(1) != RunResult::kBudgetExhausted) break;  // nothing stepped
    const u64 s = k->stats().syscalls;
    if (s != syscalls_seen) {
      syscalls_seen = s;
      out.push_back(k->stats().instructions);
    }
  }
  return out;
}

ForkServerResult run_fork_server_case(const FuzzCase& c,
                                      const OracleConfig& cfg,
                                      const ForkServerOptions& opts) {
  ForkServerResult r;

  // One image for the reference and the fork-server kernel. The timed
  // re-run baseline below still builds from the case every iteration: it
  // is what the reported (and CI-gated) fork-server speedup divides.
  const image::Image img = case_image(c);
  const auto ref_k = make_case_kernel(img, cfg);
  const RunObservation ref = observe(*ref_k, ref_k->run(opts.budget));
  r.total_instructions = ref.instructions;
  r.prefix_instructions =
      std::min(ref.instructions * opts.prefix_percent / 100,
               opts.budget > 0 ? opts.budget - 1 : u64{0});
  const u64 suffix_budget = opts.budget - r.prefix_instructions;

  // The fork-server kernel: runs the prefix ONCE, snapshots to memory,
  // and is reset in place for every iteration afterwards.
  const auto k = make_case_kernel(img, cfg);
  if (r.prefix_instructions > 0) k->run(r.prefix_instructions);
  std::ostringstream os;
  k->save(os);
  const std::string_view blob = os.view();
  r.snapshot_bytes = blob.size();

  for (u32 i = 0; i < opts.resets && r.ok; ++i) {
    // Baseline: what a non-fork-server fuzzer pays per iteration — build
    // the kernel (image assembly, 64 MiB of simulated RAM) and run the
    // whole program from instruction 0.
    auto t0 = std::chrono::steady_clock::now();
    const auto fresh = make_case_kernel(c, cfg);
    const RunResult fresh_res = fresh->run(opts.budget);
    r.rerun_seconds += seconds_since(t0);
    std::string d = compare_to_ref(ref, *fresh, fresh_res, "rerun");

    // Fork server: in-place restore of the prefix snapshot, then only the
    // suffix executes.
    t0 = std::chrono::steady_clock::now();
    restore_from(*k, blob);
    const RunResult reset_res = k->run(suffix_budget);
    r.reset_seconds += seconds_since(t0);
    if (d.empty()) d = compare_to_ref(ref, *k, reset_res, "forkserver");

    if (!d.empty()) {
      r.ok = false;
      r.divergence = d;
    }
  }
  return r;
}

}  // namespace sm::fuzz
