// Per-process virtual address space: page directory, VMA list, and the
// bookkeeping for memory-split page pairs.
//
// The *mechanism* of "a virtual page backed by two physical frames" lives
// here (SplitPair registry, teardown, fork sharing); the *policy* of which
// pages get a pair and how faults route between the frames is the
// ProtectionEngine (sm::core::SplitMemoryEngine implements the paper's).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arch/page_table.h"
#include "arch/phys_mem.h"
#include "arch/types.h"
#include "image/sha256.h"

namespace sm::snapshot {
struct Access;
}

namespace sm::kernel {

using arch::PageTable;
using arch::PhysicalMemory;
using arch::Pte;
using arch::u32;
using arch::u64;
using arch::u8;

enum class VmaKind { kCode, kData, kBss, kHeap, kStack, kMmap, kLibrary };

struct Vma {
  u32 start = 0;  // page aligned
  u32 end = 0;    // exclusive, page aligned
  u32 prot = 0;   // kProtR/W/X bits
  VmaKind kind = VmaKind::kData;
  std::string name;
  // Initialized contents: page at vaddr is filled from
  // backing[vaddr - start + backing_offset ...], zero beyond.
  std::shared_ptr<const std::vector<u8>> backing;
  u32 backing_offset = 0;

  bool readable() const { return prot & 1; }
  bool writable() const { return prot & 2; }
  bool executable() const { return prot & 4; }
  // Writable+executable: the mixed code-and-data layout the execute-disable
  // bit cannot protect (paper Fig. 1b).
  bool mixed() const { return writable() && executable(); }
  bool contains(u32 addr) const { return addr >= start && addr < end; }
};

// The two frames backing one memory-split virtual page: instruction fetches
// may only ever see `code_frame`; data accesses only `data_frame`.
struct SplitPair {
  u32 code_frame = 0;
  u32 data_frame = 0;
};

class AddressSpace {
 public:
  explicit AddressSpace(PhysicalMemory& pm);
  ~AddressSpace();

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  u32 root() const { return root_; }
  PageTable pt() { return PageTable(*pm_, root_); }
  PhysicalMemory& phys() { return *pm_; }

  // --- VMAs -------------------------------------------------------------
  // Adds a VMA; throws std::invalid_argument on overlap/misalignment.
  Vma& add_vma(Vma vma);
  const Vma* find_vma(u32 addr) const;
  Vma* find_vma(u32 addr);
  const std::vector<Vma>& vmas() const { return vmas_; }
  std::vector<Vma>& vmas() { return vmas_; }
  // Removes [start,end) from the VMA list, unmapping and freeing frames.
  void remove_range(u32 start, u32 end);
  // Picks a free region for an anonymous mmap.
  u32 find_mmap_gap(u32 len);

  // --- split pairs --------------------------------------------------------
  std::map<u32, SplitPair>& split_pages() { return split_pages_; }
  const SplitPair* split_pair(u32 vpn) const;
  void register_split(u32 vpn, SplitPair pair) { split_pages_[vpn] = pair; }
  // Forgets the pair and releases the frame NOT kept by the PTE (used by
  // observe mode when it locks a page onto its data frame, Algorithm 3).
  void unsplit(u32 vpn, u32 kept_frame);

  // --- page mapping helpers ----------------------------------------------
  // Unmaps one page, dropping frame references (both frames for a split
  // page). No-op if not present.
  void unmap_page(u32 vaddr);

  // Initial content for the page covering vaddr per its VMA backing.
  void initial_page_bytes(const Vma& vma, u32 page_vaddr,
                          std::span<u8> out) const;

  // SHA-256 of what the process's loads can observe (DESIGN.md §10): per
  // VMA in address order its start and end, then the va and bytes of
  // every 64-byte chunk of a present page whose data view differs from
  // the VMA's initial bytes there. Absent pages hold their initial bytes
  // and add nothing, so demand-paging order and eager loading cannot
  // change the result, and the cost follows the bytes the process
  // changed. Two address spaces compare by it only if their VMAs have
  // the same backings.
  image::Digest data_digest() const;

  // --- heap ---------------------------------------------------------------
  u32 brk_end = 0;  // current program break (heap VMA grows to here)

  // Every frame reference the address space holds: `on_table(pfn)` for
  // the page directory and each second-level table, before the walk reads
  // it; then, in address order, `on_frame(pfn)` for each mapped page's
  // frame, or for both frames of a split page (a split pair counts whether
  // or not its page is mapped). destroy() releases exactly these and
  // snapshot restore counts them against the frame refcounts.
  template <class OnTable, class OnFrame>
  void for_each_frame_ref(OnTable&& on_table, OnFrame&& on_frame) const {
    auto split = split_pages_.begin();
    const auto pairs_below = [&](u64 vpn) {
      for (; split != split_pages_.end() && split->first < vpn; ++split) {
        on_frame(split->second.code_frame);
        on_frame(split->second.data_frame);
      }
    };
    PageTable(*pm_, root_).for_each_pte(on_table, [&](u32 vpn, Pte pte) {
      pairs_below(vpn);
      if (split != split_pages_.end() && split->first == vpn) {
        pairs_below(u64{vpn} + 1);
      } else {
        on_frame(pte.pfn());
      }
    });
    pairs_below(u64{1} << 32);
  }

  // Frees every mapping and the page tables themselves. Called by the
  // destructor; idempotent.
  void destroy();

 private:
  friend struct sm::snapshot::Access;

  // Snapshot-restore path: adopt an already-populated page-table root
  // (the tables live in restored physical memory) instead of allocating a
  // fresh one. Only snapshot::Access calls this.
  struct AdoptRoot {};
  AddressSpace(PhysicalMemory& pm, u32 root, AdoptRoot)
      : pm_(&pm), root_(root) {}

  PhysicalMemory* pm_;
  u32 root_;
  bool destroyed_ = false;
  std::vector<Vma> vmas_;
  std::map<u32, SplitPair> split_pages_;
};

}  // namespace sm::kernel
