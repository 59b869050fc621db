// Memory management unit: CR3, the split I-TLB/D-TLB pair, and the
// translation algorithm (TLB lookup → hardware page-table walk → fill).
//
// User-mode translations are permission checked against the *cached* TLB
// attributes on a hit and against the PTE on a miss, exactly as x86 does.
// A permission failure or a missing mapping is a page fault, returned as a
// value (MemFault) carrying the CR2 address and the error-code bits.
//
// Kernel code accesses guest memory through the page-table view directly
// (see kernel/guest_mem.h) and never perturbs the TLBs — except through
// fill_dtlb_via_walk(), which models the paper's "touch a byte while the
// PTE is unrestricted" D-TLB load (Algorithm 1, lines 7-11).
//
// Fetch fast path: a one-entry (VPN → PFN, perms) memo of the last
// instruction-fetch translation is consulted before the I-TLB set scan.
// It is a pure host-time shortcut — it only serves translations the I-TLB
// would have served itself (same hit billing, same LRU touch, same
// permission checks) and is dropped on invlpg, flush_tlbs, set_cr3 and
// insert_tlb_entry, plus implicitly on ANY I-TLB mutation via the TLB's
// version counter (so an LRU eviction by an unrelated fill kills it too).
//
// Data fast path: the same memo, mirrored for Access::kRead and
// Access::kWrite as two separate entries keyed to the D-TLB's version
// counter. Cpu::push/pop and Load/Store/Loadb/Storeb otherwise pay a full
// D-TLB set scan per access; a memo hit bills one D-TLB hit and re-stamps
// the entry's LRU clock exactly like the scan it replaced. The write memo
// is armed only by a write that passed the writable check, so the read
// memo can never launder a store past a read-only entry. Toggleable via
// set_data_memo_enabled() for the billing-identity tests.
#pragma once

#include <optional>

#include "arch/fault_hooks.h"
#include "arch/page_table.h"
#include "arch/phys_mem.h"
#include "arch/tlb.h"
#include "arch/trap.h"
#include "arch/types.h"
#include "metrics/cost_model.h"
#include "metrics/stats.h"
#include "trace/trace.h"

namespace sm::snapshot {
struct Access;
}

namespace sm::arch {

enum class Access { kFetch, kRead, kWrite };

// The page fault a user-mode access raised, or nullopt if it went through.
// A faulting access has billed what it reached (TLB hit or miss, walk),
// filled no TLB, and written no memory.
using MemFault = std::optional<PageFaultInfo>;

class Mmu {
 public:
  Mmu(PhysicalMemory& pm, metrics::Stats& stats,
      const metrics::CostModel& cost, u32 tlb_entries = 64, u32 tlb_ways = 4);

  PhysicalMemory& phys() { return *pm_; }

  // Loads CR3; flushes BOTH TLBs (the context-switch cost the paper
  // identifies as its dominant overhead).
  void set_cr3(u32 root_pfn);
  u32 cr3() const { return cr3_; }
  PageTable pagetable() { return PageTable(*pm_, cr3_); }

  // Translates a user-mode access, billing TLB/walk costs, into `pa`; on
  // a fault returns it and leaves `pa` alone.
  [[nodiscard]] MemFault translate(u32 vaddr, Access acc, u64& pa);

  // --- user-mode accessors used by the CPU ------------------------------
  // Each stores what it read in `out` only when it returns no fault.
  [[nodiscard]] MemFault read8(u32 va, u8& out) {
    return load8(va, Access::kRead, out);
  }
  [[nodiscard]] MemFault read32(u32 va, u32& out);
  [[nodiscard]] MemFault write8(u32 va, u8 v) {
    u64 pa = 0;
    if (MemFault f = translate(va, Access::kWrite, pa)) return f;
    pm_->write8(pa, v);
    return std::nullopt;
  }
  [[nodiscard]] MemFault write32(u32 va, u32 v);
  [[nodiscard]] MemFault fetch8(u32 va, u8& out) {
    return load8(va, Access::kFetch, out);
  }

  // --- kernel-side TLB management ---------------------------------------
  // The split-memory D-TLB load: performs a hardware walk of the CURRENT
  // page tables for vaddr and installs the result in the data-TLB,
  // emulating the kernel reading one byte off the page. Returns false if
  // the walk found no present mapping — or when walk-failure injection is
  // armed (the paper's footnote-1 Pentium-III quirk: "occasionally, the
  // pagetable walk does not successfully load the data-TLB").
  bool fill_dtlb_via_walk(u32 vaddr);

  // The alternative I-TLB load the paper's §4.2.4 side note describes
  // (adding a ret to the page and calling it from the fault handler):
  // fills the I-TLB directly from the current PTE and pays the instruction
  // cache coherency penalty that made the authors abandon it.
  bool fill_itlb_via_call(u32 vaddr);

  // Every `period`-th fill_dtlb_via_walk call fails (0 = never). Used to
  // test the single-step fallback path.
  void set_walk_failure_period(u32 period) { walk_failure_period_ = period; }

  // --- software-managed TLBs (SPARC-style, paper §4.7) -------------------
  // When enabled, a TLB miss does NOT walk the page tables in hardware;
  // it raises a page fault with soft_miss set and the OS loads the TLB
  // itself via insert_tlb_entry(). "On an architecture with
  // software-loaded TLBs there would be no need for complex data or
  // instruction TLB loading techniques."
  void set_software_tlb(bool on) { software_tlb_ = on; }
  bool software_tlb() const { return software_tlb_; }
  // Direct TLB insertion for the software-TLB fill handler.
  void insert_tlb_entry(bool instruction, u32 vpn, u32 pfn, bool user,
                        bool writable, bool no_exec);

  void invlpg(u32 vaddr);  // drops vaddr's VPN from both TLBs
  void flush_tlbs();

  // Host-side data-translation memo (see file comment). Default on; the
  // off switch exists so tests can prove billing identity.
  void set_data_memo_enabled(bool on) {
    data_memo_enabled_ = on;
    if (!on) drop_data_memos();
  }
  bool data_memo_enabled() const { return data_memo_enabled_; }

  // Fault injection for the differential-fuzz oracle's self-test: when
  // armed, a data-memo hit skips the LRU re-stamp the set scan would have
  // applied — exactly the class of "the fast path forgot a side effect"
  // bug the memo's billing-identity contract forbids. The D-TLB's eviction
  // order then silently drifts from the memo-off run, which the oracle
  // must detect as a stats divergence (see tools/fuzz_driver --inject-lru-bug).
  void set_inject_memo_lru_bug(bool on) { inject_memo_lru_bug_ = on; }

  Tlb& itlb() { return itlb_; }
  Tlb& dtlb() { return dtlb_; }

  // Observability (src/trace): null unless the kernel enabled tracing.
  // The sink only ever observes — billing is bit-identical either way.
  void set_trace(trace::TraceSink* sink) { trace_ = sink; }

  // Fault injection (src/inject): null unless a schedule is armed. Only
  // consulted on the cold flush/invlpg paths — never inside translate().
  void set_fault_hooks(FaultHooks* hooks) { fault_hooks_ = hooks; }

 private:
  friend struct sm::snapshot::Access;

  static PageFaultInfo fault(u32 vaddr, Access acc, bool present,
                             bool soft_miss = false);
  MemFault load8(u32 va, Access acc, u8& out) {
    u64 pa = 0;
    if (MemFault f = translate(va, acc, pa)) return f;
    out = pm_->read8(pa);
    return std::nullopt;
  }
  u64 finish(u32 vaddr, u32 pfn) const {
    return static_cast<u64>(pfn) * kPageSize + page_offset(vaddr);
  }
  // Installs va's page in the I-TLB or D-TLB and records the eviction, if
  // any, and the fill (whose event carries `va`).
  void fill_tlb(bool instruction, u32 va, u32 pfn, bool user, bool writable,
                bool no_exec);

  // Last successful instruction-fetch translation (see file comment).
  struct FetchMemo {
    u32 vpn = 0;
    u32 pfn = 0;
    u32 entry_index = 0;  // into the I-TLB, for the LRU touch
    u64 tlb_version = 0;  // must match itlb_.version() to be usable
    bool user = false;
    bool no_exec = false;
    bool valid = false;
  };
  void drop_fetch_memo() { fetch_memo_.valid = false; }

  // Last successful data translation, one entry per access kind (see file
  // comment). Valid only while tlb_version matches dtlb_.version().
  struct DataMemo {
    u32 vpn = 0;
    u32 pfn = 0;
    u32 entry_index = 0;  // into the D-TLB, for the LRU touch
    u64 tlb_version = 0;
    bool user = false;
    bool writable = false;
    bool valid = false;
  };
  void drop_data_memos() {
    read_memo_.valid = false;
    write_memo_.valid = false;
  }

  PhysicalMemory* pm_;
  metrics::Stats* stats_;
  const metrics::CostModel* cost_;
  trace::TraceSink* trace_ = nullptr;
  FaultHooks* fault_hooks_ = nullptr;
  Tlb itlb_;
  Tlb dtlb_;
  FetchMemo fetch_memo_;
  DataMemo read_memo_;
  DataMemo write_memo_;
  bool data_memo_enabled_ = true;
  bool inject_memo_lru_bug_ = false;
  u32 cr3_ = 0;
  u32 walk_failure_period_ = 0;
  u32 walk_fill_count_ = 0;
  bool software_tlb_ = false;
};

}  // namespace sm::arch
