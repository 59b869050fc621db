// Simulated physical memory with a reference-counted frame allocator.
//
// Frames are reference counted because the kernel shares frames across
// address spaces (copy-on-write fork, shared libraries) and because every
// split page owns *two* frames that must both return to the free pool on
// process exit (paper §5.4).
//
// Every frame also carries a generation counter that is bumped by every
// mutation path — write8/write32/span writes, the mutable frame_bytes()
// view (kernel loader, fork/exec copies, split-engine frame duplication),
// and frame reallocation. The CPU's physically-keyed decode cache stores
// the generation it decoded under and treats a mismatch as an
// invalidation, which is what keeps self-modifying code, forensics-mode
// shellcode injection, and observe-mode page unsplitting bit-exact.
//
// The backing store comes from calloc. glibc serves a block above its mmap
// threshold as fresh zero pages the host faults in on first touch, so a
// large machine pays host memory only for the frames it uses; a smaller
// block may be recycled from the heap and zeroed there.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "arch/fault_hooks.h"
#include "arch/types.h"

namespace sm::snapshot {
struct Access;
}

namespace sm::arch {

class OutOfMemoryError : public std::runtime_error {
 public:
  OutOfMemoryError() : std::runtime_error("physical memory exhausted") {}
};

class PhysicalMemory {
 public:
  explicit PhysicalMemory(u32 num_frames);

  u32 num_frames() const { return num_frames_; }

  // --- byte-addressed access (physical addresses) ---------------------
  u8 read8(u64 pa) const;
  u32 read32(u64 pa) const;  // little-endian
  void write8(u64 pa, u8 v);
  void write32(u64 pa, u32 v);
  void read(u64 pa, std::span<u8> out) const;
  void write(u64 pa, std::span<const u8> in);

  // Direct view of one frame's bytes (kernel-internal use). The mutable
  // overload conservatively counts as a write: callers take it to fill or
  // copy frames, and any cached decode of the old contents must die.
  std::span<u8> frame_bytes(u32 pfn);
  std::span<const u8> frame_bytes(u32 pfn) const;

  // Mutation generation of one frame (see file comment).
  u64 generation(u32 pfn) const;

  // --- frame allocator --------------------------------------------------
  // Allocates a zeroed frame with refcount 1. Throws OutOfMemoryError.
  u32 alloc_frame();
  void ref_frame(u32 pfn);
  // Drops one reference; the frame returns to the free pool at zero.
  void unref_frame(u32 pfn);
  u32 refcount(u32 pfn) const;

  u32 frames_in_use() const { return frames_in_use_; }
  u32 frames_free() const { return num_frames_ - frames_in_use_; }

  // Fault injection (src/inject): when set, alloc_frame() may be forced to
  // fail as if the pool were exhausted. Cold path only.
  void set_fault_hooks(FaultHooks* hooks) { fault_hooks_ = hooks; }

 private:
  friend struct sm::snapshot::Access;

  struct FreeBytes {
    void operator()(u8* p) const { std::free(p); }
  };

  void check_pa(u64 pa, u64 len) const;
  void bump_generation(u64 pa, u64 len);

  u32 num_frames_;
  std::unique_ptr<u8[], FreeBytes> bytes_;  // num_frames_ * kPageSize
  std::vector<u64> generations_;
  std::vector<u32> refcounts_;
  std::vector<u32> free_list_;
  u32 frames_in_use_ = 0;
  FaultHooks* fault_hooks_ = nullptr;
};

}  // namespace sm::arch
