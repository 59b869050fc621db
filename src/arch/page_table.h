// Two-level page tables stored in simulated physical memory.
//
// Layout follows IA-32 non-PAE paging: a 4 KiB page directory of 1024
// 32-bit entries, each pointing to a 4 KiB page table of 1024 PTEs.
// Directory entries use the same bit layout as PTEs (present + pfn).
//
// The PageTable object is a *view* over a directory root in PhysicalMemory;
// it owns nothing. AddressSpace (kernel layer) manages lifetimes.
#pragma once

#include <cstring>
#include <functional>
#include <optional>
#include <span>

#include "arch/phys_mem.h"
#include "arch/pte.h"
#include "arch/types.h"
#include "metrics/stats.h"

namespace sm::arch {

class PageTable {
 public:
  static constexpr u32 kEntries = kPageSize / 4;  // per directory or table

  PageTable(PhysicalMemory& pm, u32 root_pfn) : pm_(&pm), root_(root_pfn) {}

  // Allocates an empty page directory and returns its frame.
  static u32 create(PhysicalMemory& pm);

  u32 root() const { return root_; }

  // Reads the PTE covering vaddr; a zero PTE if the mapping level is absent.
  Pte get(u32 vaddr) const;

  // Writes the PTE covering vaddr, allocating the intermediate table on
  // demand. Does not touch any TLB: callers own coherence (invlpg/flush),
  // exactly the property the split-memory technique exploits.
  void set(u32 vaddr, Pte pte);

  // Clears the PTE (unmaps). Does not free the data frame.
  void clear(u32 vaddr);

  // Hardware page-table walk: what the MMU does on a TLB miss. Returns the
  // PTE if both levels are present, and bills two memory accesses.
  std::optional<Pte> walk(u32 vaddr, metrics::Stats* stats) const;

  // Visits every present PTE in address order, reading each table once
  // through a const frame span (no generation bumps). `on_table(pfn)`
  // sees the directory's frame and each second-level table's frame before
  // the walk reads it, so a caller can refuse a bad frame number first;
  // `on_pte(vpn, pte)` sees each present entry.
  template <class OnTable, class OnPte>
  void for_each_pte(OnTable&& on_table, OnPte&& on_pte) const {
    const PhysicalMemory& pm = *pm_;
    on_table(root_);
    const std::span<const u8> dir = pm.frame_bytes(root_);
    for (u32 di = 0; di < kEntries; ++di) {
      const Pte pde = entry(dir, di);
      if (!pde.present()) continue;
      on_table(pde.pfn());
      const std::span<const u8> table = pm.frame_bytes(pde.pfn());
      for (u32 ti = 0; ti < kEntries; ++ti) {
        const Pte pte = entry(table, ti);
        if (pte.present()) on_pte(di * kEntries + ti, pte);
      }
    }
  }

  // Iterates every present PTE (used by fork).
  void for_each_mapping(
      const std::function<void(u32 vaddr, Pte pte)>& fn) const;

  // Frees the directory and all second-level table frames. Mapped data
  // frames are NOT freed; the owner must walk mappings first.
  void destroy();

 private:
  // Entry i of a directory or table frame (little-endian, as read32).
  static Pte entry(std::span<const u8> table, u32 i) {
    u32 raw = 0;
    std::memcpy(&raw, table.data() + static_cast<std::size_t>(i) * 4, 4);
    return Pte{raw};
  }
  u64 pde_addr(u32 vaddr) const;

  PhysicalMemory* pm_;
  u32 root_;
};

}  // namespace sm::arch
