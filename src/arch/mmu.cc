#include "arch/mmu.h"

namespace sm::arch {

Mmu::Mmu(PhysicalMemory& pm, metrics::Stats& stats,
         const metrics::CostModel& cost, u32 tlb_entries, u32 tlb_ways)
    : pm_(&pm),
      stats_(&stats),
      cost_(&cost),
      itlb_(tlb_entries, tlb_ways),
      dtlb_(tlb_entries, tlb_ways) {}

void Mmu::set_cr3(u32 root_pfn) {
  cr3_ = root_pfn;
  flush_tlbs();
}

void Mmu::flush_tlbs() {
  if (fault_hooks_ != nullptr && fault_hooks_->drop_tlb_flush())
      [[unlikely]] {
    // Injected lost flush: the stale entries (and the memos snapshotting
    // them) survive, exactly as if the CR3 reload's flush never happened.
    return;
  }
  drop_fetch_memo();
  drop_data_memos();
  itlb_.flush();
  dtlb_.flush();
  ++stats_->tlb_flushes;
  SM_TRACE(trace_, record(trace::EventKind::kTlbFlush, 0, 0, trace::kSideBoth));
}

void Mmu::invlpg(u32 vaddr) {
  if (fault_hooks_ != nullptr && fault_hooks_->drop_invlpg(vaddr))
      [[unlikely]] {
    return;  // injected lost invlpg: the stale entry survives
  }
  drop_fetch_memo();
  drop_data_memos();
  itlb_.invalidate(vpn_of(vaddr));
  dtlb_.invalidate(vpn_of(vaddr));
  SM_TRACE(trace_, record(trace::EventKind::kTlbInvlpg, vaddr));
}

PageFaultInfo Mmu::fault(u32 vaddr, Access acc, bool present, bool soft_miss) {
  PageFaultInfo info;
  info.addr = vaddr;
  info.present = present;
  info.write = acc == Access::kWrite;
  info.user = true;
  info.fetch = acc == Access::kFetch;
  info.soft_miss = soft_miss;
  return info;
}

MemFault Mmu::translate(u32 vaddr, Access acc, u64& pa) {
  const bool is_fetch = acc == Access::kFetch;
  Tlb& tlb = is_fetch ? itlb_ : dtlb_;
  const u32 vpn = vpn_of(vaddr);

  if (is_fetch && fetch_memo_.valid && fetch_memo_.vpn == vpn &&
      fetch_memo_.tlb_version == itlb_.version()) {
    // Memo hit: the I-TLB entry this memo snapshot came from is provably
    // unchanged (version match), so serve the translation without the set
    // scan — with identical billing, the same LRU touch lookup() would
    // have applied, and the same permission outcome.
    ++stats_->itlb_hits;
    ++stats_->fetch_fastpath_hits;
    stats_->cycles += cost_->tlb_hit;
    itlb_.touch(fetch_memo_.entry_index);
    if (!fetch_memo_.user) return fault(vaddr, acc, /*present=*/true);
    if (fetch_memo_.no_exec) return fault(vaddr, acc, /*present=*/true);
    pa = finish(vaddr, fetch_memo_.pfn);
    return std::nullopt;
  }

  if (!is_fetch && data_memo_enabled_) {
    // Data-side mirror of the fetch memo: one entry per access kind. A hit
    // is billed and LRU-stamped exactly like the set scan it replaces, and
    // the permission checks repeat the slow path's (the memo is only armed
    // after they passed, so they re-pass by construction).
    const DataMemo& m = acc == Access::kWrite ? write_memo_ : read_memo_;
    if (m.valid && m.vpn == vpn && m.tlb_version == dtlb_.version()) {
      ++stats_->dtlb_hits;
      ++stats_->data_fastpath_hits;
      stats_->cycles += cost_->tlb_hit;
      if (!inject_memo_lru_bug_) dtlb_.touch(m.entry_index);
      if (!m.user) return fault(vaddr, acc, /*present=*/true);
      if (acc == Access::kWrite && !m.writable) return fault(vaddr, acc, true);
      pa = finish(vaddr, m.pfn);
      return std::nullopt;
    }
  }

  if (const TlbEntry* e = tlb.lookup(vpn)) {
    // Hit: permissions come from the cached attributes, NOT the PTE. This
    // is the persistence property split memory depends on.
    if (is_fetch) {
      ++stats_->itlb_hits;
    } else {
      ++stats_->dtlb_hits;
    }
    stats_->cycles += cost_->tlb_hit;
    if (!e->user) return fault(vaddr, acc, /*present=*/true);
    if (acc == Access::kWrite && !e->writable) return fault(vaddr, acc, true);
    if (is_fetch && e->no_exec) return fault(vaddr, acc, true);
    if (is_fetch) {
      // Memoize for the next fetch (only after every check passed).
      fetch_memo_.vpn = vpn;
      fetch_memo_.pfn = e->pfn;
      fetch_memo_.entry_index = itlb_.index_of(e);
      fetch_memo_.tlb_version = itlb_.version();
      fetch_memo_.user = e->user;
      fetch_memo_.no_exec = e->no_exec;
      fetch_memo_.valid = true;
    } else if (data_memo_enabled_) {
      // Memoize for the next same-kind data access (after checks passed,
      // so a write memo implies the writable bit was verified).
      DataMemo& m = acc == Access::kWrite ? write_memo_ : read_memo_;
      m.vpn = vpn;
      m.pfn = e->pfn;
      m.entry_index = dtlb_.index_of(e);
      m.tlb_version = dtlb_.version();
      m.user = e->user;
      m.writable = e->writable;
      m.valid = true;
    }
    pa = finish(vaddr, e->pfn);
    return std::nullopt;
  }

  // Miss.
  if (is_fetch) {
    ++stats_->itlb_misses;
  } else {
    ++stats_->dtlb_misses;
  }
  if (software_tlb_) {
    // SPARC-style: no hardware walker — trap to the OS TLB-fill handler.
    return fault(vaddr, acc, /*present=*/false, /*soft_miss=*/true);
  }
  stats_->cycles += cost_->tlb_walk;
  SM_TRACE(trace_, charge(trace::Category::kTlbWalk, cost_->tlb_walk, vaddr));
  PageTable pt(*pm_, cr3_);
  const auto pte = pt.walk(vaddr, stats_);
  if (!pte) return fault(vaddr, acc, /*present=*/false);
  if (!pte->user()) return fault(vaddr, acc, /*present=*/true);
  if (acc == Access::kWrite && !pte->writable()) {
    return fault(vaddr, acc, true);
  }
  if (is_fetch && pte->no_exec()) return fault(vaddr, acc, true);

  // Fill the requesting TLB only; set accessed/dirty like hardware.
  Pte updated = *pte;
  updated.set(Pte::kAccessed);
  if (acc == Access::kWrite) updated.set(Pte::kDirty);
  if (updated.raw != pte->raw) pt.set(vaddr, updated);

  fill_tlb(is_fetch, vaddr, pte->pfn(), pte->user(), pte->writable(),
           pte->no_exec());
  pa = finish(vaddr, pte->pfn());
  return std::nullopt;
}

MemFault Mmu::read32(u32 va, u32& out) {
  u64 pa0 = 0;
  if (MemFault f = translate(va, Access::kRead, pa0)) return f;
  // Contained in one page (the common case): a single translation covers
  // all four bytes.
  if (page_offset(va) <= kPageSize - 4) {
    out = pm_->read32(pa0);
    return std::nullopt;
  }
  // Page-straddling access: one translation per page — as the hardware
  // would do — rather than one per byte.
  const u32 first_len = kPageSize - page_offset(va);
  u64 pa1 = 0;
  if (MemFault f = translate(va + first_len, Access::kRead, pa1)) return f;
  u32 v = 0;
  for (u32 i = 0; i < 4; ++i) {
    const u64 pa = i < first_len ? pa0 + i : pa1 + (i - first_len);
    v |= static_cast<u32>(pm_->read8(pa)) << (8 * i);
  }
  out = v;
  return std::nullopt;
}

MemFault Mmu::write32(u32 va, u32 v) {
  u64 pa0 = 0;
  if (MemFault f = translate(va, Access::kWrite, pa0)) return f;
  if (page_offset(va) <= kPageSize - 4) {
    pm_->write32(pa0, v);
    return std::nullopt;
  }
  // Translate both pages before writing either, so a fault on the second
  // leaves memory untouched.
  const u32 first_len = kPageSize - page_offset(va);
  u64 pa1 = 0;
  if (MemFault f = translate(va + first_len, Access::kWrite, pa1)) return f;
  for (u32 i = 0; i < 4; ++i) {
    const u64 pa = i < first_len ? pa0 + i : pa1 + (i - first_len);
    pm_->write8(pa, static_cast<u8>(v >> (8 * i)));
  }
  return std::nullopt;
}

bool Mmu::fill_dtlb_via_walk(u32 vaddr) {
  stats_->cycles += cost_->kernel_touch;
  SM_TRACE(trace_,
           charge(trace::Category::kKernelTouch, cost_->kernel_touch, vaddr));
  if (walk_failure_period_ != 0 &&
      ++walk_fill_count_ % walk_failure_period_ == 0) {
    return false;  // injected footnote-1 quirk
  }
  PageTable pt(*pm_, cr3_);
  const auto pte = pt.walk(vaddr, stats_);
  if (!pte) return false;
  fill_tlb(/*instruction=*/false, vaddr, pte->pfn(), pte->user(),
           pte->writable(), pte->no_exec());
  return true;
}

bool Mmu::fill_itlb_via_call(u32 vaddr) {
  // The abandoned §4.2.4 method: the handler calls a ret placed on the
  // page, which fetches through the I-TLB. Writing to the code page costs
  // an instruction-cache coherency flush — "this actually decreased the
  // system's efficiency".
  stats_->cycles += cost_->icache_sync;
  SM_TRACE(trace_,
           charge(trace::Category::kIcacheSync, cost_->icache_sync, vaddr));
  PageTable pt(*pm_, cr3_);
  const auto pte = pt.walk(vaddr, stats_);
  if (!pte) return false;
  fill_tlb(/*instruction=*/true, vaddr, pte->pfn(), pte->user(),
           pte->writable(), pte->no_exec());
  return true;
}

void Mmu::insert_tlb_entry(bool instruction, u32 vpn, u32 pfn, bool user,
                           bool writable, bool no_exec) {
  drop_fetch_memo();
  drop_data_memos();
  fill_tlb(instruction, vpn << kPageShift, pfn, user, writable, no_exec);
}

void Mmu::fill_tlb(bool instruction, u32 va, u32 pfn, bool user, bool writable,
                   bool no_exec) {
  TlbEntry entry;
  entry.vpn = vpn_of(va);
  entry.pfn = pfn;
  entry.user = user;
  entry.writable = writable;
  entry.no_exec = no_exec;
  const auto evicted = (instruction ? itlb_ : dtlb_).insert(entry);
  [[maybe_unused]] const u8 side =
      instruction ? trace::kSideItlb : trace::kSideDtlb;
  if (evicted) {
    SM_TRACE(trace_, record(trace::EventKind::kTlbEvict, evicted->vpn << 12,
                            evicted->pfn, side));
  }
  SM_TRACE(trace_, record(trace::EventKind::kTlbFill, va, pfn, side));
}

}  // namespace sm::arch
