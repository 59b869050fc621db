#include "inject/fault_injector.h"

#include <algorithm>

#include "kernel/kernel.h"

namespace sm::inject {

using arch::Tlb;
using arch::TlbEntry;
using kernel::Kernel;
using kernel::Process;

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kRecovered:
      return "recovered";
    case Outcome::kDegraded:
      return "degraded";
    case Outcome::kBreach:
      return "breach";
  }
  return "?";
}

FaultInjector::FaultInjector(FaultSchedule schedule)
    : schedule_(std::move(schedule)) {
  records_.reserve(schedule_.faults.size());
  for (const ScheduledFault& f : schedule_.faults) {
    records_.emplace_back().fault = f;
  }
}

void FaultInjector::attach(Kernel& k) {
  kernel_ = &k;
  k.set_fault_source(this);
  // Every core's MMU gets the hooks: a dropped invlpg/flush can strike any
  // core, and shootdown invalidations land on remote MMUs.
  for (arch::u32 c = 0; c < k.num_cores(); ++c) {
    k.core_mmu(c).set_fault_hooks(this);
  }
  k.phys().set_fault_hooks(this);
}

u32 FaultInjector::fired_count() const {
  return static_cast<u32>(std::ranges::count_if(
      records_, [](const Record& r) { return r.fired; }));
}

u32 FaultInjector::outstanding() const {
  return static_cast<u32>(std::ranges::count_if(records_, [](const Record& r) {
    return r.fired && !r.outcome.has_value();
  }));
}

void FaultInjector::resolve_outstanding(Outcome o) {
  for (Record& r : records_) {
    if (r.fired && !r.outcome.has_value()) r.outcome = o;
  }
}

void FaultInjector::fire(u32 i, u32 site_vaddr) {
  Record& r = records_[i];
  r.fired = true;
  r.fired_at = kernel_ != nullptr ? kernel_->stats().instructions : 0;
  if (kernel_ != nullptr) {
    ++kernel_->stats().faults_injected;
    SM_TRACE(kernel_->trace_sink(),
             record(trace::EventKind::kFaultInjected, site_vaddr, i,
                    static_cast<trace::u8>(r.fault.kind)));
  }
}

void FaultInjector::fire_resolved(u32 i, u32 site_vaddr, Outcome o) {
  fire(i, site_vaddr);
  records_[i].outcome = o;
}

namespace {
// Picks the n-th valid slot of a TLB (flat index), or nullopt.
std::optional<u32> pick_valid_entry(const Tlb& tlb, u32 n) {
  u32 valid = 0;
  for (u32 i = 0; i < tlb.capacity(); ++i) {
    if (tlb.entry_at(i).valid) ++valid;
  }
  if (valid == 0) return std::nullopt;
  u32 want = n % valid;
  for (u32 i = 0; i < tlb.capacity(); ++i) {
    if (!tlb.entry_at(i).valid) continue;
    if (want-- == 0) return i;
  }
  return std::nullopt;
}

// Flips the pfn low bit of one valid entry — a payload-CAM bit flip. The
// flipped pfn stays inside physical memory (frame counts are even), so the
// fault corrupts the translation without crashing the simulator itself.
bool flip_entry(Tlb& tlb, u32 n, u32& vaddr_out) {
  const auto idx = pick_valid_entry(tlb, n);
  if (!idx) return false;
  const TlbEntry e = tlb.entry_at(*idx);
  vaddr_out = e.vpn << arch::kPageShift;
  return tlb.corrupt_entry(*idx, e.pfn ^ 1u, e.user, e.writable, e.no_exec);
}
}  // namespace

void FaultInjector::apply_due(Kernel& k, Process& p) {
  while (next_ < records_.size() &&
         records_[next_].fault.after_instruction <= k.stats().instructions) {
    const u32 i = next_++;
    const ScheduledFault& f = records_[i].fault;
    switch (f.kind) {
      case FaultKind::kSpuriousTlbFlush:
        // Absorbed by design: the TLBs refill from the (consistent) page
        // tables on the next accesses.
        fire_resolved(i, 0, Outcome::kRecovered);
        k.mmu().flush_tlbs();
        break;
      case FaultKind::kDroppedTlbFlush:
        armed_drop_flush_.push_back(i);
        break;
      case FaultKind::kDroppedInvlpg:
        armed_drop_invlpg_.push_back(i);
        break;
      case FaultKind::kItlbBitFlip: {
        u32 site = 0;
        if (flip_entry(k.mmu().itlb(), f.arg, site)) {
          fire(i, site);  // watchdog classifies
        } else {
          fire_resolved(i, 0, Outcome::kRecovered);  // empty TLB: no victim
        }
        break;
      }
      case FaultKind::kDtlbBitFlip: {
        u32 site = 0;
        if (flip_entry(k.mmu().dtlb(), f.arg, site)) {
          fire(i, site);
        } else {
          fire_resolved(i, 0, Outcome::kRecovered);
        }
        break;
      }
      case FaultKind::kPteCorruption: {
        if (!p.as || p.as->split_pages().empty()) {
          fire_resolved(i, 0, Outcome::kRecovered);  // nothing to corrupt
          break;
        }
        auto& pages = p.as->split_pages();
        u32 pick = (f.arg >> 2) % static_cast<u32>(pages.size());
        auto it = pages.begin();
        std::advance(it, pick);
        const u32 va = it->first << arch::kPageShift;
        arch::PageTable pt = p.as->pt();
        arch::Pte pte = pt.get(va);
        if (!pte.present()) {
          fire_resolved(i, va, Outcome::kRecovered);
          break;
        }
        switch (f.arg & 3u) {
          case 0:
          case 3:
            pte.unrestrict();  // split page suddenly user-accessible
            break;
          case 1:
            pte.clear(arch::Pte::kSplit);  // engine loses its marker
            break;
          case 2:
            pte.set_pfn(it->second.data_frame);  // repointed at data frame
            break;
        }
        pt.set(va, pte);
        fire(i, va);  // watchdog detects via the split-PTE audit
        break;
      }
      case FaultKind::kLostDebugTrap:
        armed_lost_trap_.push_back(i);
        break;
      case FaultKind::kDuplicateDebugTrap:
        armed_dup_trap_.push_back(i);
        break;
      case FaultKind::kTrapFlagClear:
        armed_tf_clear_.push_back(i);
        break;
      case FaultKind::kTrapFlagSet: {
        arch::Regs& regs = k.regs_of(p);
        if (!regs.tf()) {
          regs.set_tf(true);  // spurious single-step storm begins
          fire(i, regs.pc);
        } else {
          // TF already set (inside a window): setting it again is a no-op.
          fire_resolved(i, regs.pc, Outcome::kRecovered);
        }
        break;
      }
      case FaultKind::kFrameExhaustion:
        armed_alloc_fail_.push_back(i);
        break;
      case FaultKind::kMidWindowPreempt:
        armed_preempt_.push_back(i);
        break;
      case FaultKind::kDropIpi:
        armed_drop_ipi_.push_back(i);
        break;
      case FaultKind::kAckNoFlush:
        armed_ack_no_flush_.push_back(i);
        break;
      case FaultKind::kStallWorker:
        armed_stall_.push_back(i);
        break;
      case FaultKind::kDropConnection:
        armed_drop_conn_.push_back(i);
        break;
      case FaultKind::kCount:
        break;
    }
  }
}

void FaultInjector::pre_step(Kernel& k, Process& p) {
  apply_due(k, p);
  // TF-clear waits for an open window (TF actually set) to snipe.
  if (!armed_tf_clear_.empty()) {
    arch::Regs& regs = k.regs_of(p);
    if (regs.tf()) {
      const u32 i = armed_tf_clear_.front();
      armed_tf_clear_.erase(armed_tf_clear_.begin());
      regs.set_tf(false);  // the step window will never close itself
      fire(i, regs.pc);
    }
  }
}

bool FaultInjector::drop_debug_trap(Kernel& k, Process& p) {
  (void)k;
  (void)p;
  if (armed_lost_trap_.empty()) return false;
  const u32 i = armed_lost_trap_.front();
  armed_lost_trap_.erase(armed_lost_trap_.begin());
  fire(i, kernel_ != nullptr ? kernel_->cpu().regs().pc : 0);
  return true;
}

bool FaultInjector::duplicate_debug_trap(Kernel& k, Process& p) {
  (void)k;
  (void)p;
  if (armed_dup_trap_.empty()) return false;
  const u32 i = armed_dup_trap_.front();
  armed_dup_trap_.erase(armed_dup_trap_.begin());
  // Absorbed by design: Algorithm 2's handler is idempotent once the
  // pending window is cleared.
  fire_resolved(i, kernel_ != nullptr ? kernel_->cpu().regs().pc : 0,
                Outcome::kRecovered);
  return true;
}

bool FaultInjector::force_preempt(Kernel& k, Process& p) {
  (void)k;
  if (armed_preempt_.empty()) return false;
  if (!p.pending_split_vaddr) return false;  // wait for a real window
  const u32 i = armed_preempt_.front();
  armed_preempt_.erase(armed_preempt_.begin());
  // Absorbed by design: the kernel's mid-window switch handling (stale
  // pending retirement + CR3 reflush) makes preemption safe.
  fire_resolved(i, *p.pending_split_vaddr, Outcome::kRecovered);
  return true;
}

bool FaultInjector::drop_ipi(Kernel& k, Process& p, u32 target_core,
                             u32 vaddr) {
  (void)k;
  (void)p;
  (void)target_core;
  if (armed_drop_ipi_.empty()) return false;
  const u32 i = armed_drop_ipi_.front();
  armed_drop_ipi_.erase(armed_drop_ipi_.begin());
  // The send is swallowed; the kernel retries, each retry consuming one
  // armed entry. An exhausted retry budget parks a PendingShootdown (I7
  // if a window opens over it); the watchdog classifies on repair.
  fire(i, vaddr);
  return true;
}

bool FaultInjector::ack_without_flush(Kernel& k, Process& p, u32 target_core,
                                      u32 vaddr) {
  (void)k;
  (void)p;
  (void)target_core;
  if (armed_ack_no_flush_.empty()) return false;
  const u32 i = armed_ack_no_flush_.front();
  armed_ack_no_flush_.erase(armed_ack_no_flush_.begin());
  // The target acks but keeps the stale entry — the I6 state. The remote
  // sweep finds and repairs it; the watchdog classifies.
  fire(i, vaddr);
  return true;
}

arch::u64 FaultInjector::stall_cycles(Kernel& k, Process& p) {
  if (armed_stall_.empty()) return 0;
  // Defer while a single-step window is open: the stall models a slow
  // worker, not a hole in the Algorithm-2 protocol. The armed entry waits
  // for the window to close rather than being consumed.
  const arch::Regs& regs = k.regs_of(p);
  if (regs.tf() || p.pending_split_vaddr.has_value()) return 0;
  const u32 i = armed_stall_.front();
  armed_stall_.erase(armed_stall_.begin());
  // Absorbed by design: the scheduler routes around a parked process and
  // the deadline timer resumes it; no protocol state is at risk.
  const u64 cycles = 256 + (records_[i].fault.arg & 0x3FFFu);
  fire_resolved(i, regs.pc, Outcome::kRecovered);
  return cycles;
}

bool FaultInjector::drop_connection(Kernel& k, Process& p, u32 port) {
  (void)k;
  (void)p;
  if (armed_drop_conn_.empty()) return false;
  const u32 i = armed_drop_conn_.front();
  armed_drop_conn_.erase(armed_drop_conn_.begin());
  // Degradation by construction: the caller sees ERR_REFUSED exactly as if
  // the backlog were full, and its retry/backoff path absorbs the loss.
  fire_resolved(i, port, Outcome::kDegraded);
  return true;
}

bool FaultInjector::drop_tlb_flush() {
  if (armed_drop_flush_.empty()) return false;
  const u32 i = armed_drop_flush_.front();
  armed_drop_flush_.erase(armed_drop_flush_.begin());
  fire(i, 0);  // stale entries persist; watchdog classifies
  return true;
}

bool FaultInjector::drop_invlpg(u32 vaddr) {
  if (armed_drop_invlpg_.empty()) return false;
  const u32 i = armed_drop_invlpg_.front();
  armed_drop_invlpg_.erase(armed_drop_invlpg_.begin());
  fire(i, vaddr);
  return true;
}

bool FaultInjector::fail_frame_alloc() {
  if (armed_alloc_fail_.empty()) return false;
  const u32 i = armed_alloc_fail_.front();
  armed_alloc_fail_.erase(armed_alloc_fail_.begin());
  // Degradation by construction: every allocation site either falls back
  // to an unsplit locked mapping (split code frame) or kills only the
  // requesting process (kernel OOM catch).
  fire_resolved(i, 0, Outcome::kDegraded);
  return true;
}

}  // namespace sm::inject
