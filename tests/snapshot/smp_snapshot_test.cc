// SMP snapshot tests (format v2, DESIGN.md §15/§16): per-core TLB + CPU
// state and the interleave phase (active core, quantum remainder, parked
// shootdowns) must round-trip exactly — a restored 4-core machine resumes
// the dispatch interleave mid-turn, not from a fresh rotation — and a
// snapshot taken at one core count must be rejected by a kernel built at
// another.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "arch/mmu.h"
#include "arch/page_table.h"
#include "arch/tlb.h"
#include "inject/fault_injector.h"
#include "inject/fault_schedule.h"
#include "snapshot/replay_support.h"

namespace sm {
namespace {

using arch::u32;
using arch::u64;
using arch::vpn_of;
using core::ProtectionMode;
using core::ResponseMode;
using testing::restore_bytes;
using testing::save_bytes;
using testing::snapshot_test_cfg;
using testing::start_guest;

const char* kForkWorkers = R"(
_start:
  movi r0, SYS_FORK
  syscall
  cmpi r0, 0
  jz worker
  movi r0, SYS_FORK
  syscall
  jmp worker
worker:
  movi r6, 30
wloop:
  movi r0, SYS_YIELD
  syscall
  movi r4, buf
  store [r4], r6
  load r5, [r4]
  addi r6, -1
  cmpi r6, 0
  jnz wloop
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
.bss
buf: .space 64
)";

const char* kSpinWithSplitPage = R"(
_start:
  movi r4, buf
  movi r5, 7
  store [r4], r5
  load r6, [r4]
spin:
  jmp spin
.bss
buf: .space 64
)";

kernel::KernelConfig smp_cfg(u32 cores) {
  kernel::KernelConfig cfg = snapshot_test_cfg();
  cfg.cores = cores;
  return cfg;
}

TEST(SmpSnapshot, SaveRestoreSaveByteIdenticalAtFourCores) {
  const kernel::KernelConfig cfg = smp_cfg(4);
  // 37 and 100 land mid dispatch quantum (32): the quantum remainder and
  // active core are part of what must survive.
  for (u64 at : {u64{0}, u64{37}, u64{100}, u64{5'000}, u64{200'000}}) {
    auto saver = start_guest(kForkWorkers, ProtectionMode::kSplitAll,
                             ResponseMode::kBreak, cfg);
    saver.k->run(at);
    const std::string first = save_bytes(*saver.k);

    auto resumed = start_guest(kForkWorkers, ProtectionMode::kSplitAll,
                               ResponseMode::kBreak, cfg);
    restore_bytes(*resumed.k, first);
    const std::string second = save_bytes(*resumed.k);
    EXPECT_EQ(first, second)
        << "snapshot@" << at << ": restore lost or re-derived SMP state";
  }
}

// Every counter of the table survives save -> restore into a fresh
// kernel, the SMP ones included: at 4 cores the fork-workers run sends
// IPIs, completes shootdowns and steals work, and a record that leaves a
// counter out restores it as 0 while the rest of the machine round-trips.
TEST(SmpSnapshot, RestoreIntoFreshKernelKeepsEveryCounter) {
  const kernel::KernelConfig cfg = smp_cfg(4);
  auto saver = start_guest(kForkWorkers, ProtectionMode::kSplitAll,
                           ResponseMode::kBreak, cfg);
  saver.k->run(200'000);
  const metrics::Stats want = saver.k->stats();
  ASSERT_GT(want.ipi_sends, 0u);
  ASSERT_GT(want.tlb_shootdowns, 0u);

  auto fresh = start_guest(kForkWorkers, ProtectionMode::kSplitAll,
                           ResponseMode::kBreak, cfg);
  restore_bytes(*fresh.k, save_bytes(*saver.k));
  const metrics::Stats& got = fresh.k->stats();
  for (const metrics::Counter& c : metrics::kCounters) {
    EXPECT_EQ(got.*c.field, want.*c.field) << c.name;
  }
}

TEST(SmpSnapshot, ReplayEquivalenceAcrossQuantumBoundaries) {
  const kernel::KernelConfig cfg = smp_cfg(4);
  // Straight-through vs snapshot/restore at prefixes straddling the
  // 32-instruction core turns: the restored run must continue the
  // interleave exactly where the uninterrupted one would be.
  for (u64 prefix : {u64{1}, u64{31}, u64{32}, u64{33}, u64{100}, u64{777}}) {
    EXPECT_TRUE(testing::body_replay_at(kForkWorkers,
                                        ProtectionMode::kSplitAll, prefix,
                                        cfg));
  }
}

TEST(SmpSnapshot, CoreCountMismatchRejected) {
  auto two = start_guest(kForkWorkers, ProtectionMode::kSplitAll,
                         ResponseMode::kBreak, smp_cfg(2));
  two.k->run(100);
  const std::string blob = save_bytes(*two.k);

  auto four = start_guest(kForkWorkers, ProtectionMode::kSplitAll,
                          ResponseMode::kBreak, smp_cfg(4));
  EXPECT_THROW(restore_bytes(*four.k, blob), snapshot::SnapshotError);
}

// A shootdown whose IPI retries were all swallowed parks as pending with
// the stale translation still live on the remote core — the exact
// mid-shootdown machine state. Both the parked entry and the remote TLB
// contents must round-trip.
TEST(SmpSnapshot, MidShootdownPendingStateRoundTrips) {
  auto r = start_guest(kSpinWithSplitPage, ProtectionMode::kSplitAll,
                       ResponseMode::kBreak, smp_cfg(2));
  inject::FaultSchedule s;
  for (int i = 0; i < 3; ++i) {
    s.faults.push_back({0, inject::FaultKind::kDropIpi, 0});
  }
  // Warm up first, attach after: natural migration shootdowns would
  // otherwise consume the armed drops before the forced one below.
  r.k->run(2'000);
  inject::FaultInjector injector(std::move(s));
  injector.attach(*r.k);
  r.k->run(1);  // one spin step arms the schedule

  kernel::Process& p = r.proc();
  const auto program = assembler::assemble(guest::program(kSpinWithSplitPage));
  const u32 buf = program.symbol("buf");
  const u32 vpn = vpn_of(buf);
  const u32 target = (r.k->active_core() + 1) % 2;
  arch::Mmu& remote = r.k->core_mmu(target);
  remote.set_cr3(p.as->root());
  arch::TlbEntry e;
  e.vpn = vpn;
  e.pfn = p.as->pt().get(buf).pfn();
  e.user = true;
  e.valid = true;
  remote.dtlb().insert(e);

  r.k->invalidate_page(p, buf);  // all three IPI attempts dropped
  ASSERT_EQ(r.k->pending_shootdowns().size(), 1u);
  ASSERT_TRUE(remote.dtlb().contains(vpn));
  const std::string mid = save_bytes(*r.k);

  // Destroy the mid-shootdown state, then restore: both halves return.
  r.k->complete_pending_shootdowns();
  ASSERT_TRUE(r.k->pending_shootdowns().empty());
  ASSERT_FALSE(remote.dtlb().contains(vpn));

  restore_bytes(*r.k, mid);
  ASSERT_EQ(r.k->pending_shootdowns().size(), 1u);
  EXPECT_EQ(r.k->pending_shootdowns()[0].vpn, vpn);
  EXPECT_EQ(r.k->pending_shootdowns()[0].core_mask, u32{1} << target);
  EXPECT_TRUE(r.k->core_mmu(target).dtlb().contains(vpn))
      << "per-core TLB state did not round-trip";
  EXPECT_EQ(save_bytes(*r.k), mid);
}

}  // namespace
}  // namespace sm
