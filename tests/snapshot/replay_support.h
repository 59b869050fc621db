// Shared helpers for the snapshot replay-equivalence battery.
//
// The strong form of "restored == straight-through" used here is FINAL
// SNAPSHOT FIELD IDENTITY: after both machines finish, save each and
// compare the streams field by field. The snapshot covers every piece of
// simulated state — stats (cycles included), consoles, fd tables, free
// lists, TLB entries and LRU clocks, trace ring and profiler buckets — so
// field identity subsumes every per-field assertion, and a mismatch names
// the drifted field. The ONLY tolerated differences are the counters
// metrics::kCounters marks host_side: restore drops the host caches cold
// by design, so those counters legitimately differ — the same exemption
// the fuzz oracle's billing clause makes. Everything else must match to
// the byte.
#pragma once

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/stats.h"
#include "snapshot/serializer.h"
#include "support/guest_runner.h"
#include "trace/trace.h"

namespace sm::testing {

inline kernel::KernelConfig snapshot_test_cfg(bool trace = false) {
  kernel::KernelConfig c;
  c.phys_frames = 2048;  // 8 MiB: plenty for guest bodies, quick to boot
  c.trace = trace;
  return c;
}

inline std::string save_bytes(kernel::Kernel& k) {
  std::ostringstream os;
  k.save(os);
  return os.str();
}

inline void restore_bytes(kernel::Kernel& k, const std::string& blob) {
  std::istringstream is(blob);
  k.restore(is);
}

// The host-side counters a cold-cache restore may legitimately change
// (mirrors the fuzz oracle's billing-clause exemption). The raw event
// ring is exempt for the same reason: kBlockBuild/kBlockInvalidate are
// host-engine cache events interleaved with the architectural ones, and
// a restored run honestly re-records the blocks its cold cache lost —
// architectural_events() below compares the non-host subset exactly.
inline bool host_side_counter(const std::string& key) {
  if (key.rfind("machine.trace.events", 0) == 0) return true;
  const std::string_view stats = "machine.stats.";
  if (key.rfind(stats, 0) != 0) return false;
  const std::string name = key.substr(stats.size());
  for (const metrics::Counter& c : metrics::kCounters) {
    if (c.host_side && name == c.name) return true;
  }
  return false;
}

// The architectural event stream: everything except host-engine block
// cache traffic, rendered comparable.
inline std::vector<trace::Event> architectural_events(kernel::Kernel& k) {
  std::vector<trace::Event> out;
  if (trace::TraceSink* t = k.trace_sink()) {
    const auto& ring = t->events();
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const trace::Event& e = ring[i];
      if (e.kind == trace::EventKind::kBlockBuild ||
          e.kind == trace::EventKind::kBlockInvalidate) {
        continue;
      }
      out.push_back(e);
    }
  }
  return out;
}

inline ::testing::AssertionResult events_match(kernel::Kernel& want,
                                               kernel::Kernel& got) {
  const auto a = architectural_events(want);
  const auto b = architectural_events(got);
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "architectural event counts differ: " << a.size() << " vs "
           << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const trace::Event &x = a[i], &y = b[i];
    // Field-wise (not memcmp): Event has padding bytes.
    if (x.cycles != y.cycles || x.pid != y.pid || x.vaddr != y.vaddr ||
        x.info != y.info || x.kind != y.kind || x.arg != y.arg) {
      return ::testing::AssertionFailure()
             << "architectural event #" << i << " differs: kind="
             << static_cast<int>(x.kind) << "@cycle " << x.cycles
             << " vs kind=" << static_cast<int>(y.kind) << "@cycle "
             << y.cycles;
    }
  }
  return ::testing::AssertionSuccess();
}

// Field-level difference of two snapshots, host-side counters excluded.
// Empty means the simulated machines are identical.
inline std::vector<std::string> simulated_diff(const std::string& a,
                                               const std::string& b) {
  std::istringstream ia(a), ib(b);
  std::vector<std::string> out;
  for (const auto& line : snapshot::diff(ia, ib)) {
    if (!host_side_counter(line.substr(0, line.find(':')))) {
      out.push_back(line);
    }
  }
  return out;
}

inline ::testing::AssertionResult machines_equal(const std::string& want,
                                                 const std::string& got) {
  const auto d = simulated_diff(want, got);
  if (d.empty()) return ::testing::AssertionSuccess();
  auto fail = ::testing::AssertionFailure()
              << d.size() << " simulated field(s) diverged:";
  for (std::size_t i = 0; i < d.size() && i < 8; ++i) fail << "\n  " << d[i];
  return fail;
}

// Retired-instruction count of a straight run (the battery picks split
// points inside [0, T)).
inline arch::u64 body_length(const std::string& body,
                             core::ProtectionMode mode,
                             const kernel::KernelConfig& cfg,
                             arch::u64 budget = 500'000) {
  auto r = start_guest(body, mode, core::ResponseMode::kBreak, cfg);
  r.k->run(budget);
  return r.k->stats().instructions;
}

// Straight run vs snapshot-at-`prefix`/restore-into-fresh-kernel: both
// final machine states must agree on every simulated field.
inline ::testing::AssertionResult body_replay_at(
    const std::string& body, core::ProtectionMode mode, arch::u64 prefix,
    const kernel::KernelConfig& cfg, arch::u64 budget = 500'000) {
  auto straight = start_guest(body, mode, core::ResponseMode::kBreak, cfg);
  straight.k->run(budget);
  const std::string want = save_bytes(*straight.k);

  auto saver = start_guest(body, mode, core::ResponseMode::kBreak, cfg);
  if (prefix > 0) saver.k->run(prefix);
  const std::string mid = save_bytes(*saver.k);

  auto resumed = start_guest(body, mode, core::ResponseMode::kBreak, cfg);
  restore_bytes(*resumed.k, mid);
  resumed.k->run(budget - prefix);
  const std::string got = save_bytes(*resumed.k);

  auto eq = machines_equal(want, got);
  if (eq) return eq;
  return ::testing::AssertionFailure()
         << "snapshot at instruction " << prefix << ": " << eq.message();
}

}  // namespace sm::testing
