// Whole-machine checkpoint/restore (ROADMAP item 5, DESIGN.md §15).
//
// A snapshot captures every bit of SIMULATED state: physical memory (page
// tables ride along — they live in simulated frames), frame generations,
// refcounts and free-list order, both TLBs with LRU stamps and version
// clocks, CPU registers including the trap flag, the full kernel object
// graph (process slab, runqueue order, wait queues, fd tables with shared
// pipe/channel/file identity, filesystem, images, RNG cursor, timeslice
// position), the trace ring + profiler (when tracing is on), and — when
// attached — the fault injector's schedule cursor/armed queues and the
// invariant watchdog's audit state.
//
// HOST-side derived state is deliberately NOT serialized: the decode
// cache, block cache and the MMU's fetch/data memos are dropped cold on
// restore. The billing-identity contract (fuzz-oracle enforced) makes this
// sound: those caches bill exactly what the slow path they shortcut would
// have, so a cold-cache resume produces bit-identical simulated figures —
// only host wall-clock re-warms.
//
// Restore is an in-place reset: the target kernel must be constructed with
// the SAME KernelConfig and protection engine as the saved one (validated
// field by field; mismatch throws SnapshotError) and may have run
// arbitrarily far — its state is torn down and replaced. This is what the
// fuzz fork-server leans on: one kernel object, restored thousands of
// times, never reallocating its 64 MiB of simulated RAM.
//
// Save points are Kernel::run() exit boundaries, which are always whole-
// instruction boundaries; mid-DBT-block state cannot escape (step_block
// clips at the budget). The single-step window (TF armed, debug trap
// pending) is representable architecturally — flags.TF, the PTE left
// unrestricted in simulated memory, Process::pending_split_vaddr, and the
// profiler's pending-step hand-off all serialize — which the window tests
// in tests/snapshot/ prove.
#pragma once

#include <iosfwd>

namespace sm::kernel {
class Kernel;
}
namespace sm::inject {
class FaultInjector;
}
namespace sm::invariant {
class InvariantWatchdog;
}

namespace sm::snapshot {

// The single friend the stateful classes grant, so the friend surface of
// each component is one line. Everything else lives in Access::Schema
// (snapshot.cc):
//
//   - each record's member table: (wire name, member pointer) entries,
//     written by save and read by restore from the same declaration;
//   - one helper per repeated shape: keyed container, has_X + value
//     optional, counted list, tagged variant, shared object referenced by
//     table id;
//   - a tripwire per struct or class whose members it reads: every
//     member named in a structured binding, and a sizeof check pinned to
//     libstdc++ on x86-64. A new member stops the build until it is
//     serialized or listed there as derived.
//
// Only restore-side construction of live objects keeps separate read and
// write code: the shared-object tables, adopting an address-space root,
// the free list and frames, and re-queueing the runqueues.
struct Access {
  static void save(std::ostream& os, kernel::Kernel& k,
                   inject::FaultInjector* injector,
                   invariant::InvariantWatchdog* watchdog);
  static void restore(std::istream& is, kernel::Kernel& k,
                      inject::FaultInjector* injector,
                      invariant::InvariantWatchdog* watchdog);

 private:
  struct Schema;
};

}  // namespace sm::snapshot
