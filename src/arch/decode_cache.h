// Physically-keyed decoded-instruction cache for the simulator hot loop.
//
// The paper's Harvard guarantee (§4.1–4.2) makes fetched bytes unusually
// cacheable: instruction fetches are routed through the I-TLB to a stable
// code frame that attacker stores can never reach, so a decode performed
// once for a given *physical* location stays valid until that frame's
// bytes actually change. The cache is therefore keyed by the physical
// address of the instruction's first byte — never the virtual address —
// which gives three properties for free:
//   - data-frame stores on a split page cannot alias a cached decode (the
//     code frame is a different physical frame, so a different key);
//   - observe-mode unsplitting and Algorithm-1 PTE repoints need no flush:
//     the next fetch translates to a different physical address and simply
//     misses;
//   - processes sharing a text frame (fork, shared libraries) share its
//     decodes.
// Coherence with writes that DO reach the code frame (self-modifying code
// on an unsplit page, kernel loader/exec/dlopen writes, forensics-mode
// shellcode injection, split-engine frame copies) comes from
// PhysicalMemory's per-frame generation counters: an entry remembers the
// generation it decoded under and a mismatch is an invalidation.
//
// Instructions that straddle a page boundary are never cached (their tail
// bytes live in a second frame whose generation the entry key cannot see);
// the CPU falls back to the byte-at-a-time fetch path for them.
//
// This is HOST-side machinery only: the CPU bills simulated TLB/decode
// costs identically on hit and miss, so all simulated-cycle figures are
// unchanged — only host wall-clock improves.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "arch/isa.h"
#include "arch/types.h"

namespace sm::arch {

class DecodeCache {
 public:
  static constexpr u32 kDefaultEntries = 4096;
  static constexpr u64 kInvalidPa = ~u64{0};

  struct Entry {
    u64 pa = kInvalidPa;  // physical address of the first instruction byte
    u64 gen = 0;          // PhysicalMemory::generation() of pa's frame
    Decoded d{};
  };

  explicit DecodeCache(u32 num_entries = kDefaultEntries)
      : mask_(num_entries - 1), entries_(num_entries) {
    if (num_entries == 0 || (num_entries & (num_entries - 1)) != 0) {
      throw std::invalid_argument("decode cache size must be a power of two");
    }
  }

  // Direct-mapped slot for a physical address. XORing the frame number in
  // spreads same-offset instructions of different frames across the table,
  // so two hot code pages do not thrash a shared slot.
  Entry& slot(u64 pa) {
    return entries_[static_cast<u32>(pa ^ (pa >> kPageShift)) & mask_];
  }

  // Drops every entry by its key alone: a probe compares pa before it
  // reads anything else, and a fill writes every field.
  void clear() {
    for (Entry& e : entries_) e.pa = kInvalidPa;
  }

  u32 capacity() const { return static_cast<u32>(entries_.size()); }

 private:
  u32 mask_;
  std::vector<Entry> entries_;
};

}  // namespace sm::arch
