// Kernel-side access to guest memory (copy_to_user/copy_from_user).
//
// Walks the address space's page tables directly — never the TLBs — so
// kernel copies can't perturb the deliberately-desynchronized TLB state.
// For memory-split pages the caller chooses a view: syscalls act on the
// DATA view (what the process reads/writes), the loader and the forensic
// shellcode injector write the CODE view or BOTH.
//
// Copies are page-granular: each page of the range is translated once and
// its piece moves as one PhysicalMemory span. All writes land through
// PhysicalMemory's write paths, which bump the target frame's generation
// counter (once per frame per call) — so a kernel write to a code frame
// (loader relocation, forensic injection) automatically invalidates any
// decoded-instruction-cache entries for that frame. No explicit flush
// hook is needed here; see DESIGN.md §8.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "kernel/address_space.h"

namespace sm::kernel {

using arch::u64;

enum class View { kData, kCode, kBoth };

class GuestMem {
 public:
  explicit GuestMem(AddressSpace& as) : as_(&as) {}

  // Return false if any page in the range is unmapped (caller should
  // demand-fault it in first; Kernel::ensure_mapped does that).
  bool read(u32 va, std::span<u8> out, View view = View::kData) const;
  bool write(u32 va, std::span<const u8> in, View view = View::kData);

  std::optional<u32> read32(u32 va, View view = View::kData) const;
  bool write32(u32 va, u32 v, View view = View::kData);

  // Reads a NUL-terminated string (up to max_len bytes); nullopt if it runs
  // off mapped memory or is unterminated.
  std::optional<std::string> read_cstr(u32 va, u32 max_len = 4096) const;

  bool mapped(u32 va) const;

 private:
  // Physical address of one byte under the given view, or nullopt.
  std::optional<u64> phys_of(u32 va, View view) const;

  AddressSpace* as_;
};

}  // namespace sm::kernel
