// Run-loop hook interfaces for the robustness subsystem.
//
// Gating is at run time only: the kernel holds non-owning
// FaultSource/StepObserver pointers that are nullptr unless a harness
// attached them, and each site costs one unlikely-hinted null check per
// retired instruction. Cpu::step() itself carries nothing — the
// BM_CpuStepCached hot loop never sees these branches.
//
// The concrete implementations live outside the kernel: the deterministic
// fault injector (src/inject/) is a FaultSource, and the split-protocol
// invariant watchdog (src/invariant/) is a StepObserver. The kernel only
// knows these interfaces, so the dependency arrows stay inject/invariant ->
// kernel, never the reverse.
#pragma once

#include "arch/types.h"

namespace sm::kernel {

class Kernel;
struct Process;

// A source of injected hardware/OS misbehaviour, consulted by the run loop
// at named protocol points. All methods default to "no fault".
class FaultSource {
 public:
  virtual ~FaultSource() = default;

  // Called once before every cpu.step() with the process about to run.
  // Count-scheduled faults (TLB/PTE corruption, trap-flag flips, spurious
  // flushes) apply themselves here.
  virtual void pre_step(Kernel& k, Process& p) {
    (void)k;
    (void)p;
  }

  // A debug (single-step) trap was raised and is about to be delivered to
  // the protection engine. Return true to lose it: the handler never runs
  // and the single-step window is left open.
  virtual bool drop_debug_trap(Kernel& k, Process& p) {
    (void)k;
    (void)p;
    return false;
  }

  // A debug trap was just handled. Return true to deliver a spurious
  // duplicate to the engine (the handler must be idempotent).
  virtual bool duplicate_debug_trap(Kernel& k, Process& p) {
    (void)k;
    (void)p;
    return false;
  }

  // Consulted where the timer would preempt. Return true to force a
  // context switch now even though the timeslice has not expired (the
  // mid-single-step-window preemption fault).
  virtual bool force_preempt(Kernel& k, Process& p) {
    (void)k;
    (void)p;
    return false;
  }

  // A TLB-shootdown IPI is about to be delivered to `target_core` for the
  // page at `vaddr`. Return true to drop it in flight (the sender retries;
  // exhausted retries leave the shootdown pending — invariant I7).
  virtual bool drop_ipi(Kernel& k, Process& p, arch::u32 target_core,
                        arch::u32 vaddr) {
    (void)k;
    (void)p;
    (void)target_core;
    (void)vaddr;
    return false;
  }

  // `target_core` received the shootdown IPI and is about to flush. Return
  // true to ack WITHOUT flushing (a buggy remote handler): the stale entry
  // survives on that core — invariant I6.
  virtual bool ack_without_flush(Kernel& k, Process& p,
                                 arch::u32 target_core, arch::u32 vaddr) {
    (void)k;
    (void)p;
    (void)target_core;
    (void)vaddr;
    return false;
  }

  // Consulted once per dispatch, after pre_step. Return a nonzero cycle
  // count to stall the process about to run: the kernel parks it as if it
  // had slept (WaitSleep + armed deadline) and schedules around it — the
  // stall-worker fault. The injector defers while a single-step window is
  // open (TF set or a pending split vaddr): the stall models a slow
  // worker, not a hole in the Algorithm-2 protocol.
  virtual arch::u64 stall_cycles(Kernel& k, Process& p) {
    (void)k;
    (void)p;
    return 0;
  }

  // A connect() passed the listener/backlog checks and is about to queue a
  // connection on `port`. Return true to drop it in flight: the caller
  // sees ERR_REFUSED exactly as if the backlog had been full — the
  // drop-connection fault, exercising the caller's retry/backoff path.
  virtual bool drop_connection(Kernel& k, Process& p, arch::u32 port) {
    (void)k;
    (void)p;
    (void)port;
    return false;
  }
};

// A passive-until-violated observer of the split-protocol invariants,
// called around every retired instruction. The invariant watchdog checks
// and *repairs* protocol state here; it never charges simulated cycles.
class StepObserver {
 public:
  virtual ~StepObserver() = default;

  // Before cpu.step(): runs after FaultSource::pre_step so freshly injected
  // corruption is visible (and repairable) before the guest consumes it.
  virtual void pre_step(Kernel& k, Process& p) {
    (void)k;
    (void)p;
  }

  // After cpu.step() and trap handling. `executed_pc` is the program
  // counter the retired (or faulted) instruction was fetched from.
  virtual void post_step(Kernel& k, Process& p, arch::u32 executed_pc) {
    (void)k;
    (void)p;
    (void)executed_pc;
  }
};

}  // namespace sm::kernel
