// Trap (exception/interrupt) types raised by the simulated CPU.
#pragma once

#include <string>

#include "arch/types.h"

namespace sm::arch {

enum class TrapKind {
  kPageFault,      // translation failed or permission violated (CR2 = addr)
  kInvalidOpcode,  // undecodable instruction (#UD); pc points at it
  kDebugStep,      // trap-flag single-step completed (#DB)
  kSyscall,        // software interrupt; pc already advanced
  kDivideByZero,   // #DE
  kGeneralProtection,  // privileged instruction in user mode, bad register
};

// x86-style page-fault error information. `present` distinguishes a
// protection violation (true) from a not-present miss (false); `fetch`
// mirrors the instruction/data bit so the kernel can classify TLB misses
// even when the faulting address happens to equal EIP.
struct PageFaultInfo {
  u32 addr = 0;         // CR2
  bool present = false;
  bool write = false;
  bool user = true;
  bool fetch = false;
  // Software-managed-TLB mode only (paper §4.7): this fault is a TLB miss
  // the OS must service by loading the TLB itself.
  bool soft_miss = false;
};

struct Trap {
  TrapKind kind = TrapKind::kPageFault;
  PageFaultInfo pf{};
  u8 opcode = 0;  // for kInvalidOpcode

  static Trap page_fault(PageFaultInfo info) {
    return Trap{TrapKind::kPageFault, info, 0};
  }
  static Trap invalid_opcode(u8 op) {
    return Trap{TrapKind::kInvalidOpcode, {}, op};
  }
  static Trap simple(TrapKind k) { return Trap{k, {}, 0}; }
};

std::string to_string(TrapKind kind);

}  // namespace sm::arch
