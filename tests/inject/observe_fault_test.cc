// Observe-mode edge cases under injected faults (ISSUE 5, satellite 3):
// faults landing on a page the observe response already locked unsplit,
// a lockdown racing fork/COW, and degradation followed by mprotect.
#include <gtest/gtest.h>

#include "inject/fault_injector.h"
#include "inject/fault_schedule.h"
#include "invariant/watchdog.h"
#include "support/guest_runner.h"

namespace sm {
namespace {

using arch::u32;
using arch::u64;
using core::ProtectionMode;
using core::ResponseMode;
using kernel::ExitKind;

// Classic self-injection: copy a payload into .bss and jump to it. Under
// observe mode the engine logs the detection, locks the page onto its data
// frame (now unsplit) and lets the attack proceed.
const char* kSelfInject = R"(
_start:
  movi r1, buf
  movi r2, payload
  movi r3, payload_end
  sub r3, r2
  call memcpy
  movi r5, buf
  callr r5
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
.data
payload:
  movi r0, SYS_SPAWN_SHELL
  syscall
  ret
payload_end: .byte 0
.bss
buf: .space 256
)";

struct ObserveRun {
  testing::GuestRun r;
  inject::FaultInjector injector;
  invariant::InvariantWatchdog watchdog;

  ObserveRun(const std::string& body, inject::FaultSchedule schedule)
      : r(testing::start_guest(body, ProtectionMode::kSplitAll,
                               ResponseMode::kObserve)),
        injector(std::move(schedule)) {
    injector.attach(*r.k);
    watchdog.attach(*r.k, &injector);
  }

  void run() {
    r.k->run(20'000'000);
    watchdog.finalize(*r.k);
  }
};

TEST(ObserveFaults, FaultsOnAlreadyLockedPageAreHandledAsUnsplit) {
  // The lockdown page stops being split the moment observe mode fires; a
  // later corruption aimed at it must be caught by the unsplit-coherence
  // invariant (I5), not misclassified as a split-protocol breach.
  inject::FaultSchedule s;
  // TLB flips and a dropped invlpg well after the lockdown happened
  // (the whole guest retires only a few hundred instructions; the attack
  // fires within the first ~100).
  s.faults.push_back({150, inject::FaultKind::kItlbBitFlip, 1});
  s.faults.push_back({160, inject::FaultKind::kDtlbBitFlip, 2});
  s.faults.push_back({170, inject::FaultKind::kDroppedInvlpg, 0});
  ObserveRun o(kSelfInject, s);
  o.run();

  // Observe semantics preserved: detected once, attack proceeded, clean
  // exit — and nothing the injector did became a breach.
  EXPECT_EQ(o.r.k->detections().size(), 1u);
  EXPECT_TRUE(o.r.proc().shell_spawned);
  EXPECT_EQ(o.r.proc().exit_kind, ExitKind::kExited);
  EXPECT_EQ(o.watchdog.breaches(), 0u);
  for (const auto& rec : o.injector.records()) {
    if (rec.fired) {
      ASSERT_TRUE(rec.outcome.has_value())
          << inject::to_string(rec.fault.kind);
      EXPECT_NE(*rec.outcome, inject::Outcome::kBreach);
    }
  }
}

TEST(ObserveFaults, LockdownRacedByForkAndCow) {
  // Parent forks; both sides write a shared COW page while the child also
  // runs the self-injection. Dropped flushes around the fork boundary are
  // the nastiest case for cross-address-space TLB staleness — the
  // watchdog's pid-change audit must keep both processes coherent.
  const char* body = R"(
_start:
  movi r4, shared
  movi r5, 42
  store [r4], r5
  movi r0, SYS_FORK
  syscall
  cmpi r0, 0
  jz child
  mov r1, r0
  movi r0, SYS_WAITPID
  syscall
  mov r1, r0              ; child exit code (0 = saw 42)
  movi r0, SYS_EXIT
  syscall
child:
  movi r4, shared
  movi r5, 7
  store [r4], r5          ; COW break in the child
  movi r1, buf
  movi r2, payload
  movi r3, payload_end
  sub r3, r2
  call memcpy
  movi r5, buf
  callr r5                ; observe: detected, locked, continues
  movi r4, shared
  load r5, [r4]
  cmpi r5, 7
  jz child_ok
  movi r0, SYS_EXIT
  movi r1, 1
  syscall
child_ok:
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
.data
shared: .word 0
payload:
  movi r0, SYS_SPAWN_SHELL
  syscall
  ret
payload_end: .byte 0
.bss
buf: .space 256
)";
  inject::FaultSchedule s;
  s.faults.push_back({10, inject::FaultKind::kDroppedTlbFlush, 0});
  s.faults.push_back({40, inject::FaultKind::kDroppedTlbFlush, 0});
  s.faults.push_back({60, inject::FaultKind::kDroppedInvlpg, 0});
  ObserveRun o(body, s);
  o.run();

  EXPECT_TRUE(o.r.k->all_exited());
  EXPECT_EQ(o.r.proc().exit_code, 0u)
      << "COW isolation broke under dropped flushes";
  EXPECT_EQ(o.r.k->detections().size(), 1u);
  EXPECT_EQ(o.watchdog.breaches(), 0u);
  for (const auto& rec : o.injector.records()) {
    if (rec.fired) {
      ASSERT_TRUE(rec.outcome.has_value());
      EXPECT_NE(*rec.outcome, inject::Outcome::kBreach);
    }
  }
}

TEST(ObserveFaults, DegradationThenMprotectStaysCoherent) {
  // Split-OOM degradation (code-frame allocation fails, page locked
  // unsplit) followed by an mprotect whose invlpg is dropped by the
  // injector: the watchdog must find the stale writable D-TLB entry over
  // the now read-only degraded page and repair it — no resurrected split
  // state, no permanently stale TLB perms.
  const char* body = R"(
_start:
  movi r0, SYS_MMAP
  movi r1, 0
  movi r2, 8192
  movi r3, 3              ; R|W
  syscall
  mov r7, r0
  mov r4, r7
  addi r4, 4096
  movi r5, 1
  store [r4], r5          ; neighbor page: builds the second-level table
  movi r6, 0
pause:                    ; window for the test to drain physical frames
  addi r6, 1
  cmpi r6, 60
  jnz pause
  movi r5, 5
  store [r7], r5          ; materialize: only one frame left -> degrade
  movi r0, SYS_MPROTECT
  mov r1, r7
  movi r2, 4096
  movi r3, 1              ; PROT_R only; the invlpg here is dropped
  syscall
  load r6, [r7]           ; read via the (stale) D-TLB entry
spin:
  jmp spin
)";
  kernel::KernelConfig cfg;
  cfg.phys_frames = 256;
  testing::GuestRun r = testing::start_guest(
      body, ProtectionMode::kSplitAll, ResponseMode::kObserve, cfg);
  inject::FaultSchedule s;
  // Armed after the neighbor page's fill windows closed, so the next
  // invlpg the machine issues is the mprotect one.
  s.faults.push_back({30, inject::FaultKind::kDroppedInvlpg, 0});
  inject::FaultInjector injector(s);
  invariant::InvariantWatchdog watchdog;
  injector.attach(*r.k);
  watchdog.attach(*r.k, &injector);

  // Run into the pause loop, then drain RAM down to a single free frame.
  r.k->run(45);
  ASSERT_EQ(r.proc().exit_kind, ExitKind::kRunning);
  arch::PhysicalMemory& pm = r.k->phys();
  while (pm.frames_in_use() < cfg.phys_frames - 1) pm.alloc_frame();

  r.k->run(5'000);  // store -> degrade; mprotect; load; spin
  watchdog.finalize(*r.k);

  EXPECT_EQ(r.k->stats().split_oom_degradations, 1u)
      << "code-frame OOM did not take the graceful-degradation seam";
  EXPECT_EQ(r.proc().exit_kind, ExitKind::kRunning) << "guest died";
  EXPECT_EQ(r.k->regs_of(r.proc()).r[6], 5u)
      << "read through the degraded page returned the wrong value";
  const auto& recs = injector.records();
  ASSERT_EQ(recs.size(), 1u);
  ASSERT_TRUE(recs[0].fired) << "mprotect invlpg never happened";
  ASSERT_TRUE(recs[0].outcome.has_value());
  EXPECT_NE(*recs[0].outcome, inject::Outcome::kBreach);
  // The stale writable mapping over the now read-only page was detected
  // and invalidated (I5), not left in place.
  EXPECT_GE(watchdog.violations(), 1u);
  EXPECT_GE(watchdog.recoveries(), 1u);
  EXPECT_EQ(watchdog.breaches(), 0u);
}

}  // namespace
}  // namespace sm
