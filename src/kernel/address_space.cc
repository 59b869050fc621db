#include "kernel/address_space.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <span>
#include <stdexcept>
#include <utility>

namespace sm::kernel {

using arch::kPageMask;
using arch::kPageSize;
using arch::page_floor;
using arch::vpn_of;

AddressSpace::AddressSpace(PhysicalMemory& pm)
    : pm_(&pm), root_(PageTable::create(pm)) {}

AddressSpace::~AddressSpace() { destroy(); }

void AddressSpace::destroy() {
  if (destroyed_) return;
  destroyed_ = true;
  // The mapped frames first: both physical pages of a split page return
  // to the free pool (paper §5.4: "freeing two pages instead of just
  // one"). Then the tables and the directory.
  for_each_frame_ref([](u32) {}, [&](u32 pfn) { pm_->unref_frame(pfn); });
  split_pages_.clear();
  pt().destroy();
}

Vma& AddressSpace::add_vma(Vma vma) {
  if ((vma.start & kPageMask) != 0 || (vma.end & kPageMask) != 0 ||
      vma.start >= vma.end) {
    throw std::invalid_argument("VMA must be page aligned and non-empty");
  }
  for (const Vma& v : vmas_) {
    if (vma.start < v.end && v.start < vma.end) {
      throw std::invalid_argument("VMA overlaps existing region " + v.name);
    }
  }
  vmas_.push_back(std::move(vma));
  return vmas_.back();
}

const Vma* AddressSpace::find_vma(u32 addr) const {
  for (const Vma& v : vmas_) {
    if (v.contains(addr)) return &v;
  }
  return nullptr;
}

Vma* AddressSpace::find_vma(u32 addr) {
  return const_cast<Vma*>(std::as_const(*this).find_vma(addr));
}

void AddressSpace::remove_range(u32 start, u32 end) {
  for (u32 va = page_floor(start); va < end; va += kPageSize) {
    unmap_page(va);
  }
  // Trim or delete VMAs. Partial overlaps split into the remaining halves.
  std::vector<Vma> kept;
  for (Vma& v : vmas_) {
    if (v.end <= start || v.start >= end) {
      kept.push_back(std::move(v));
      continue;
    }
    if (v.start < start) {
      Vma left = v;
      left.end = start;
      kept.push_back(std::move(left));
    }
    if (v.end > end) {
      Vma right = v;
      right.backing_offset += end - right.start;
      right.start = end;
      kept.push_back(std::move(right));
    }
  }
  vmas_ = std::move(kept);
}

u32 AddressSpace::find_mmap_gap(u32 len) {
  // Simple first-fit scan in the mmap window.
  constexpr u32 kMmapBase = 0x40000000;
  constexpr u32 kMmapTop = 0xB0000000;
  u32 candidate = kMmapBase;
  bool moved = true;
  while (moved) {
    moved = false;
    for (const Vma& v : vmas_) {
      if (candidate < v.end && v.start < candidate + len) {
        candidate = v.end;
        moved = true;
      }
    }
    if (candidate + len > kMmapTop) {
      throw std::runtime_error("mmap window exhausted");
    }
  }
  return candidate;
}

const SplitPair* AddressSpace::split_pair(u32 vpn) const {
  const auto it = split_pages_.find(vpn);
  return it == split_pages_.end() ? nullptr : &it->second;
}

void AddressSpace::unsplit(u32 vpn, u32 kept_frame) {
  const auto it = split_pages_.find(vpn);
  if (it == split_pages_.end()) return;
  if (it->second.code_frame != kept_frame) {
    pm_->unref_frame(it->second.code_frame);
  }
  if (it->second.data_frame != kept_frame) {
    pm_->unref_frame(it->second.data_frame);
  }
  split_pages_.erase(it);
}

void AddressSpace::unmap_page(u32 vaddr) {
  PageTable table = pt();
  const Pte pte = table.get(vaddr);
  if (!pte.present()) return;
  const u32 vpn = vpn_of(vaddr);
  if (const auto it = split_pages_.find(vpn); it != split_pages_.end()) {
    pm_->unref_frame(it->second.code_frame);
    pm_->unref_frame(it->second.data_frame);
    split_pages_.erase(it);
  } else {
    pm_->unref_frame(pte.pfn());
  }
  table.clear(vaddr);
}

namespace {

// The bytes of the page at page_vaddr that the VMA's backing supplies, at
// most one page; the rest of the page reads as zero.
std::span<const u8> backing_slice(const Vma& vma, u32 page_vaddr) {
  if (vma.backing == nullptr) return {};
  const u32 page = page_floor(page_vaddr);
  if (page < vma.start) return {};
  const u64 rel = static_cast<u64>(page - vma.start) + vma.backing_offset;
  const std::vector<u8>& src = *vma.backing;
  if (rel >= src.size()) return {};
  const std::size_t off = static_cast<std::size_t>(rel);
  return std::span<const u8>(src).subspan(
      off, std::min<std::size_t>(kPageSize, src.size() - off));
}

// The exit digest's unit: one SHA-256 block and one host cache line.
// Whole differing pages would hash most of a page for a one-word store.
constexpr u32 kDigestChunk = 64;

// Whether `bytes` hold the initial bytes `initial` (no longer than
// `bytes`) followed by zeros.
bool holds_initial(std::span<const u8> bytes, std::span<const u8> initial) {
  static constexpr std::array<u8, kPageSize> kZeroPage{};
  const std::size_t n = initial.size();
  const std::size_t tail = bytes.size() - n;
  return (n == 0 || std::memcmp(bytes.data(), initial.data(), n) == 0) &&
         std::memcmp(bytes.data() + n, kZeroPage.data(), tail) == 0;
}

}  // namespace

void AddressSpace::initial_page_bytes(const Vma& vma, u32 page_vaddr,
                                      std::span<u8> out) const {
  const std::span<const u8> src = backing_slice(vma, page_vaddr);
  const std::size_t n = std::min(out.size(), src.size());
  if (n != 0) std::memcpy(out.data(), src.data(), n);
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(n), out.end(), u8{0});
}

image::Digest AddressSpace::data_digest() const {
  // mprotect splits append VMA pieces out of order.
  std::vector<const Vma*> ordered;
  for (const Vma& v : vmas_) ordered.push_back(&v);
  std::ranges::sort(ordered, {}, [](const Vma* v) { return v->start; });

  // Pages are hashed in place through the const view: the mutable
  // frame_bytes() counts as a write and would bump generations.
  const PhysicalMemory& pm = *pm_;
  const PageTable table(*pm_, root_);
  image::Sha256 hasher;
  const auto hash32 = [&](u32 v) {
    const u8 le[4] = {static_cast<u8>(v), static_cast<u8>(v >> 8),
                      static_cast<u8>(v >> 16), static_cast<u8>(v >> 24)};
    hasher.update(le);
  };
  // Chunk vas increase and lie below their VMA's end, which is at or
  // below the next VMA's start, so the stream decodes unambiguously.
  for (const Vma* vma : ordered) {
    hash32(vma->start);
    hash32(vma->end);
    for (u32 page = vma->start; page < vma->end; page += kPageSize) {
      // An absent page holds its initial bytes and adds nothing.
      const Pte pte = table.get(page);
      if (!pte.present()) continue;
      const SplitPair* pair = split_pair(vpn_of(page));
      const std::span<const u8> bytes =
          pm.frame_bytes(pair != nullptr ? pair->data_frame : pte.pfn());
      const std::span<const u8> initial = backing_slice(*vma, page);
      if (holds_initial(bytes, initial)) continue;
      for (u32 off = 0; off < kPageSize; off += kDigestChunk) {
        const std::size_t lo = std::min<std::size_t>(off, initial.size());
        const std::size_t hi =
            std::min<std::size_t>(off + kDigestChunk, initial.size());
        const std::span<const u8> chunk = bytes.subspan(off, kDigestChunk);
        if (holds_initial(chunk, initial.subspan(lo, hi - lo))) continue;
        hash32(page + off);
        hasher.update(chunk);
      }
    }
  }
  return hasher.final();
}

}  // namespace sm::kernel
