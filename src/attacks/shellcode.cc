#include "attacks/shellcode.h"

#include <stdexcept>

#include "kernel/syscall_defs.h"

namespace sm::attacks {

using arch::Op;

ShellcodeBuilder& ShellcodeBuilder::nop_sled(std::size_t n) {
  bytes_.insert(bytes_.end(), n, static_cast<u8>(Op::kNop));
  return *this;
}

ShellcodeBuilder& ShellcodeBuilder::movi(u8 reg, u32 imm) {
  return emit(Op::kMovi, reg, 0, imm);
}

ShellcodeBuilder& ShellcodeBuilder::mov(u8 rd, u8 rs) {
  return emit(Op::kMov, rd, rs, 0);
}

ShellcodeBuilder& ShellcodeBuilder::addi(u8 reg, u32 imm) {
  return emit(Op::kAddi, reg, 0, imm);
}

ShellcodeBuilder& ShellcodeBuilder::cmpi(u8 reg, u32 imm) {
  return emit(Op::kCmpi, reg, 0, imm);
}

ShellcodeBuilder& ShellcodeBuilder::jz(u32 addr) {
  return emit(Op::kJz, 0, 0, addr);
}

ShellcodeBuilder& ShellcodeBuilder::jnz(u32 addr) {
  return emit(Op::kJnz, 0, 0, addr);
}

ShellcodeBuilder& ShellcodeBuilder::jmp(u32 addr) {
  return emit(Op::kJmp, 0, 0, addr);
}

ShellcodeBuilder& ShellcodeBuilder::jmpr(u8 reg) {
  return emit(Op::kJmpr, reg, 0, 0);
}

ShellcodeBuilder& ShellcodeBuilder::push(u8 reg) {
  return emit(Op::kPush, reg, 0, 0);
}

ShellcodeBuilder& ShellcodeBuilder::pop(u8 reg) {
  return emit(Op::kPop, reg, 0, 0);
}

ShellcodeBuilder& ShellcodeBuilder::syscall() {
  return emit(Op::kSyscall, 0, 0, 0);
}

ShellcodeBuilder& ShellcodeBuilder::raw(std::span<const u8> bytes) {
  bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  return *this;
}

ShellcodeBuilder& ShellcodeBuilder::word(u32 v) {
  for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<u8>(v >> (8 * i)));
  return *this;
}

ShellcodeBuilder& ShellcodeBuilder::emit(Op op, u8 ra, u8 rb, u32 imm) {
  arch::encode(op, ra, rb, imm, bytes_);
  return *this;
}

std::vector<u8> spawn_shell_shellcode() {
  return ShellcodeBuilder{}
      .movi(0, kernel::kSysSpawnShell)
      .syscall()
      .movi(0, kernel::kSysExit)
      .movi(1, 0)
      .syscall()
      .build();
}

std::vector<u8> interactive_shell_shellcode(u32 scratch, int rounds) {
  // spawn_shell() -> r5 = shell fd; then read/echo rounds, unrolled so the
  // payload stays position independent.
  ShellcodeBuilder b;
  b.movi(0, kernel::kSysSpawnShell).syscall();
  b.mov(5, 0);  // shell fd
  for (int round = 0; round < rounds; ++round) {
    b.movi(0, kernel::kSysRead)
        .mov(1, 5)
        .movi(2, scratch)
        .movi(3, 64)
        .syscall();        // r0 = n
    b.mov(3, 0);           // echo n bytes
    b.movi(0, kernel::kSysWrite).mov(1, 5).movi(2, scratch).syscall();
  }
  b.movi(0, kernel::kSysExit).movi(1, 0).syscall();
  return b.build();
}

std::vector<u8> exit0_shellcode() {
  return ShellcodeBuilder{}
      .movi(0, kernel::kSysExit)
      .movi(1, 0)
      .syscall()
      .build();
}

namespace {
u32 pick_avoiding(u32 base, u32 range, std::initializer_list<u8> bad,
                  const char* what) {
  for (u32 addr = base + 1; addr < base + range; ++addr) {
    bool ok = true;
    for (int i = 0; i < 4 && ok; ++i) {
      const u8 b = static_cast<u8>(addr >> (8 * i));
      for (u8 x : bad) {
        if (b == x) {
          ok = false;
          break;
        }
      }
    }
    if (ok) return addr;
  }
  throw std::runtime_error(what);
}
}  // namespace

u32 pick_string_safe_address(u32 base, u32 range) {
  return pick_avoiding(base, range, {0x00, 0x0A},
                       "no string-safe address in range");
}

u32 pick_ascii_safe_address(u32 base, u32 range) {
  return pick_avoiding(base, range, {0x0A, 0x0D},
                       "no ascii-safe address in range");
}

}  // namespace sm::attacks
