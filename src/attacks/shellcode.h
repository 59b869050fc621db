// Shellcode builder: emits raw instruction bytes for injection payloads,
// the way real exploits carry pre-assembled machine code.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "arch/isa.h"
#include "arch/types.h"

namespace sm::attacks {

using arch::u32;
using arch::u8;

class ShellcodeBuilder {
 public:
  ShellcodeBuilder& nop_sled(std::size_t n);
  ShellcodeBuilder& movi(u8 reg, u32 imm);
  ShellcodeBuilder& mov(u8 rd, u8 rs);
  ShellcodeBuilder& addi(u8 reg, u32 imm);
  ShellcodeBuilder& cmpi(u8 reg, u32 imm);
  ShellcodeBuilder& jz(u32 addr);
  ShellcodeBuilder& jnz(u32 addr);
  ShellcodeBuilder& jmp(u32 addr);
  ShellcodeBuilder& jmpr(u8 reg);
  ShellcodeBuilder& push(u8 reg);
  ShellcodeBuilder& pop(u8 reg);
  ShellcodeBuilder& syscall();
  ShellcodeBuilder& raw(std::span<const u8> bytes);
  ShellcodeBuilder& word(u32 v);  // literal 32-bit data

  std::size_t size() const { return bytes_.size(); }
  std::vector<u8> build() const { return bytes_; }

 private:
  ShellcodeBuilder& emit(arch::Op op, u8 ra, u8 rb, u32 imm);

  std::vector<u8> bytes_;
};

// spawn_shell(); exit(0) — the minimal proof-of-compromise payload.
std::vector<u8> spawn_shell_shellcode();

// spawn_shell(); then `rounds` unrolled { n = read(shell_fd, scratch, 64);
// write(shell_fd, scratch, n) } iterations — a connect-back shell that
// lets the attacker "type commands" (echoed), driving the Sebek log of
// Fig. 5d. `scratch` must be a writable guest address. Unrolled because
// shellcode does not know its own load address (no relative jumps in the
// ISA); ~41 bytes per round.
std::vector<u8> interactive_shell_shellcode(u32 scratch, int rounds = 8);

// exit(0) — the paper's §6.1.3 forensic shellcode demo.
std::vector<u8> exit0_shellcode();

// Picks an address in [base+1, base+range) whose 4 little-endian bytes
// contain no NUL and no '\n' — required for payloads delivered through
// string functions. Throws if none exists.
u32 pick_string_safe_address(u32 base, u32 range);

// Like pick_string_safe_address but only avoids '\n' and '\r': for
// payloads delivered as binary data that pass through an ASCII-mode
// newline translation (the proftpd vector).
u32 pick_ascii_safe_address(u32 base, u32 range);

}  // namespace sm::attacks
