// Physically-keyed basic-block cache: the mini-DBT layer over the decode
// cache (DESIGN.md §13).
//
// A block is a run of decoded instructions starting at a physical entry
// address and ending at the first control-flow instruction, page
// boundary, straddling instruction, or the block-length cap. Blocks are
// recorded by Cpu::record_block() while the per-instruction engine
// executes them (so the recording pass bills and behaves exactly like the
// interpreter), then re-executed wholesale by Cpu::run_block() —
// amortizing fetch translation, decode-cache probes, and dispatch across
// the block.
//
// Keying and coherence follow DecodeCache exactly, one level up:
//   - the key is the PHYSICAL address of the entry instruction's first
//     byte, so split-page data stores can never alias a block, Algorithm-1
//     PTE repoints need no flush (the next fetch translates elsewhere and
//     misses), and processes sharing a text frame share its blocks;
//   - every instruction of a block lives in the entry frame (recording
//     stops at the page edge and never records a straddling instruction),
//     so ONE frame-generation check at block entry — plus a re-check after
//     any in-block store, for same-page self-modifying code — covers every
//     byte the block decoded from.
//
// This is HOST-side machinery only: simulated cycles, stats, and trace
// attribution are billed exactly as the per-instruction engine would have
// billed them (see Cpu::run_block for the accounting argument), so all
// figures are bit-identical with the block engine on or off. Only the
// block_cache_* counters in metrics::Stats — host-side by contract, like
// decode_cache_* — observe the difference.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "arch/decode_cache.h"
#include "arch/types.h"

namespace sm::arch {

class BlockCache {
 public:
  static constexpr u32 kDefaultEntries = 1024;
  static constexpr u32 kMaxInstructions = 32;
  static constexpr u64 kInvalidPa = ~u64{0};

  struct Block {
    u64 pa = kInvalidPa;  // physical address of the entry instruction
    u64 gen = 0;          // PhysicalMemory::generation() of the entry frame
    u32 pfn = 0;          // entry frame, for mid-block generation re-checks
    u32 count = 0;
    Decoded instr[kMaxInstructions];
  };

  explicit BlockCache(u32 num_entries = kDefaultEntries);

  // Direct-mapped slot for an entry physical address (same hash as
  // DecodeCache::slot: frame number XORed in so hot same-offset entries of
  // different code pages do not thrash one slot).
  Block& slot(u64 pa) {
    return entries_[static_cast<u32>(pa ^ (pa >> kPageShift)) & mask_];
  }

  void clear();

  u32 capacity() const { return static_cast<u32>(entries_.size()); }

 private:
  u32 mask_;
  std::vector<Block> entries_;
};

}  // namespace sm::arch
