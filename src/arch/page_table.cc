#include "arch/page_table.h"

#include <utility>

namespace sm::arch {

namespace {
u32 dir_index(u32 vaddr) { return vaddr >> 22; }
u32 table_index(u32 vaddr) {
  return (vaddr >> kPageShift) & (PageTable::kEntries - 1);
}
}  // namespace

u32 PageTable::create(PhysicalMemory& pm) { return pm.alloc_frame(); }

u64 PageTable::pde_addr(u32 vaddr) const {
  return static_cast<u64>(root_) * kPageSize + dir_index(vaddr) * 4;
}

Pte PageTable::get(u32 vaddr) const {
  const Pte pde{pm_->read32(pde_addr(vaddr))};
  if (!pde.present()) return Pte{};
  const u64 pte_pa =
      static_cast<u64>(pde.pfn()) * kPageSize + table_index(vaddr) * 4;
  return Pte{pm_->read32(pte_pa)};
}

void PageTable::set(u32 vaddr, Pte pte) {
  Pte pde{pm_->read32(pde_addr(vaddr))};
  if (!pde.present()) {
    const u32 table_pfn = pm_->alloc_frame();
    pde = Pte::make(table_pfn, Pte::kPresent | Pte::kWritable | Pte::kUser);
    pm_->write32(pde_addr(vaddr), pde.raw);
  }
  const u64 pte_pa =
      static_cast<u64>(pde.pfn()) * kPageSize + table_index(vaddr) * 4;
  pm_->write32(pte_pa, pte.raw);
}

void PageTable::clear(u32 vaddr) { set(vaddr, Pte{}); }

std::optional<Pte> PageTable::walk(u32 vaddr, metrics::Stats* stats) const {
  if (stats != nullptr) ++stats->hardware_walks;
  const Pte pde{pm_->read32(pde_addr(vaddr))};
  if (!pde.present()) return std::nullopt;
  const u64 pte_pa =
      static_cast<u64>(pde.pfn()) * kPageSize + table_index(vaddr) * 4;
  const Pte pte{pm_->read32(pte_pa)};
  if (!pte.present()) return std::nullopt;
  return pte;
}

void PageTable::for_each_mapping(
    const std::function<void(u32 vaddr, Pte pte)>& fn) const {
  for_each_pte([](u32) {},
               [&](u32 vpn, Pte pte) { fn(vpn << kPageShift, pte); });
}

void PageTable::destroy() {
  const std::span<const u8> dir = std::as_const(*pm_).frame_bytes(root_);
  for (u32 di = 0; di < kEntries; ++di) {
    if (const Pte pde = entry(dir, di); pde.present()) {
      pm_->unref_frame(pde.pfn());
    }
  }
  pm_->unref_frame(root_);
}

}  // namespace sm::arch
