// Instruction set of the simulated 32-bit machine.
//
// Byte-encoded, little-endian, variable length: [opcode][operands...].
// Register operands are one byte each (0-7); immediates are 32-bit LE.
// NOP is 0x90 so classic x86-style NOP sleds look the same in hex dumps
// and in the paper's forensics screenshots. 0x00 (and every unassigned
// byte) decodes to #UD, so a zero-filled code frame faults on fetch —
// which is what makes break/observe/forensics response modes triggerable.
//
// Registers: r0-r5 general purpose, r6 = frame pointer (FP), r7 = stack
// pointer (SP). Flags are set only by CMP/CMPI: ZF (equal), SF (signed
// less-than), CF (unsigned below). Bit 8 of FLAGS is the x86-style trap
// flag (TF): when set, the CPU raises a debug trap after completing one
// instruction — the hook Algorithm 2 uses to re-restrict a split page.
//
// kOpTable below is the one statement of the ISA: each opcode's mnemonic,
// operand form and block-engine class. The CPU's decoder, the block
// engine, the assembler, the disassembler, the shellcode builder and the
// fuzz generator all read it (through decode(), encode() and op_info()).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "arch/types.h"

namespace sm::arch {

inline constexpr u32 kNumRegs = 8;
inline constexpr u32 kRegFp = 6;
inline constexpr u32 kRegSp = 7;

// FLAGS bits.
inline constexpr u32 kFlagZ = 1u << 0;
inline constexpr u32 kFlagS = 1u << 1;   // signed less-than from CMP
inline constexpr u32 kFlagC = 1u << 2;   // unsigned below from CMP
inline constexpr u32 kFlagTrap = 1u << 8;  // single-step (TF)

enum class Op : u8 {
  kMovi = 0x01,
  kMov = 0x02,
  kLoad = 0x03,
  kStore = 0x04,
  kLoadb = 0x05,   // zero-extends
  kStoreb = 0x06,  // stores the low byte

  kAdd = 0x10,
  kSub = 0x11,
  kMul = 0x12,
  kDiv = 0x13,  // unsigned; divisor 0 -> #DE
  kAnd = 0x14,
  kOr = 0x15,
  kXor = 0x16,
  kShl = 0x17,
  kShr = 0x18,
  kAddi = 0x19,
  kCmp = 0x1A,
  kCmpi = 0x1B,
  kNot = 0x1C,
  kModu = 0x1D,  // unsigned remainder; divisor 0 -> #DE

  kJmp = 0x20,  // absolute
  kJz = 0x21,
  kJnz = 0x22,
  kJlt = 0x23,  // signed <
  kJge = 0x24,  // signed >=
  kJb = 0x25,   // unsigned <
  kJae = 0x26,  // unsigned >=
  kJmpr = 0x27,

  kCall = 0x30,   // push return address, jump
  kCallr = 0x31,  // indirect call through register
  kRet = 0x32,    // pop pc  (the classic hijack point)
  kPush = 0x33,
  kPop = 0x34,

  kSyscall = 0x40,  // number in r0, args in r1..r4, result in r0

  kNop = 0x90,
};

// Operand forms. A form fixes the byte layout and so the length: the
// opcode, then the register bytes (ra, then rb), then the 32-bit LE
// immediate. Load and Store share a layout; the assembly syntax puts the
// memory operand [base+imm] on the other side.
enum class Form : u8 {
  kNone,    // [op]                    ret
  kReg,     // [op][ra]                push ra
  kRegReg,  // [op][ra][rb]            add ra, rb
  kImm,     // [op][imm32]             jmp imm
  kRegImm,  // [op][ra][imm32]         movi ra, imm
  kLoad,    // [op][ra][rb][imm32]     load ra, [rb+imm]
  kStore,   // [op][ra][rb][imm32]     store [ra+imm], rb
};

inline constexpr u8 kFormLength[] = {1, 2, 3, 5, 6, 7, 7};  // in Form order

constexpr u32 form_length(Form f) { return kFormLength[static_cast<u8>(f)]; }

// Maximum encoded instruction length (the Load and Store forms).
inline constexpr u32 kMaxInstrLength = 7;

struct OpInfo {
  Op op = Op::kNop;
  const char* mnemonic = nullptr;  // null only for unassigned bytes
  Form form = Form::kNone;
  // Ends a basic block (DESIGN.md §13): control flow, whose successor is
  // not statically known, and syscall, which completes with a trap the
  // kernel services before execution may continue.
  bool ends_block = false;
  // May store to guest memory and so, on an unsplit page, rewrite code
  // the running block decoded from.
  bool may_store = false;
};

// clang-format off
inline constexpr OpInfo kOpTable[] = {
    // op          mnemonic   form           ends   stores
    {Op::kMovi,    "movi",    Form::kRegImm, false, false},
    {Op::kMov,     "mov",     Form::kRegReg, false, false},
    {Op::kLoad,    "load",    Form::kLoad,   false, false},
    {Op::kStore,   "store",   Form::kStore,  false, true},
    {Op::kLoadb,   "loadb",   Form::kLoad,   false, false},
    {Op::kStoreb,  "storeb",  Form::kStore,  false, true},
    {Op::kAdd,     "add",     Form::kRegReg, false, false},
    {Op::kSub,     "sub",     Form::kRegReg, false, false},
    {Op::kMul,     "mul",     Form::kRegReg, false, false},
    {Op::kDiv,     "div",     Form::kRegReg, false, false},
    {Op::kAnd,     "and",     Form::kRegReg, false, false},
    {Op::kOr,      "or",      Form::kRegReg, false, false},
    {Op::kXor,     "xor",     Form::kRegReg, false, false},
    {Op::kShl,     "shl",     Form::kRegReg, false, false},
    {Op::kShr,     "shr",     Form::kRegReg, false, false},
    {Op::kAddi,    "addi",    Form::kRegImm, false, false},
    {Op::kCmp,     "cmp",     Form::kRegReg, false, false},
    {Op::kCmpi,    "cmpi",    Form::kRegImm, false, false},
    {Op::kNot,     "not",     Form::kReg,    false, false},
    {Op::kModu,    "modu",    Form::kRegReg, false, false},
    {Op::kJmp,     "jmp",     Form::kImm,    true,  false},
    {Op::kJz,      "jz",      Form::kImm,    true,  false},
    {Op::kJnz,     "jnz",     Form::kImm,    true,  false},
    {Op::kJlt,     "jlt",     Form::kImm,    true,  false},
    {Op::kJge,     "jge",     Form::kImm,    true,  false},
    {Op::kJb,      "jb",      Form::kImm,    true,  false},
    {Op::kJae,     "jae",     Form::kImm,    true,  false},
    {Op::kJmpr,    "jmpr",    Form::kReg,    true,  false},
    {Op::kCall,    "call",    Form::kImm,    true,  true},
    {Op::kCallr,   "callr",   Form::kReg,    true,  true},
    {Op::kRet,     "ret",     Form::kNone,   true,  false},
    {Op::kPush,    "push",    Form::kReg,    false, true},
    {Op::kPop,     "pop",     Form::kReg,    false, false},
    {Op::kSyscall, "syscall", Form::kNone,   true,  false},
    {Op::kNop,     "nop",     Form::kNone,   false, false},
};
// clang-format on

namespace detail {

// kOpTable indexed by opcode byte; unassigned bytes keep a null mnemonic.
// An opcode with two rows stops the build here.
constexpr std::array<OpInfo, 256> index_by_opcode() {
  std::array<OpInfo, 256> by_byte{};
  for (const OpInfo& row : kOpTable) {
    OpInfo& slot = by_byte[static_cast<u8>(row.op)];
    if (slot.mnemonic != nullptr) throw "an opcode has two rows in kOpTable";
    slot = row;
  }
  return by_byte;
}
inline constexpr std::array<OpInfo, 256> kByOpcode = index_by_opcode();

}  // namespace detail

constexpr const OpInfo& op_info(Op op) {
  return detail::kByOpcode[static_cast<u8>(op)];
}

// Length in bytes of the instruction starting with `opcode`, or 0 if the
// opcode is invalid (#UD).
constexpr u32 instr_length(u8 opcode) {
  const OpInfo& row = detail::kByOpcode[opcode];
  return row.mnemonic != nullptr ? form_length(row.form) : 0;
}

// A decoded instruction: the operands cracked out of the byte stream.
// Register slots the form does not have stay 0, so a range check may test
// ra and rb whatever the form. Produced by decode() and memoized by
// DecodeCache and BlockCache.
struct Decoded {
  Op op = Op::kNop;
  u8 ra = 0;
  u8 rb = 0;
  u32 imm = 0;
  u32 len = 0;
};

// Decodes the instruction at bytes[0] into `d`. bytes[0] must be an
// assigned opcode and `bytes` must hold its whole length. Register bytes
// are returned as found: whether they name a register is the caller's
// check. `d` is an out-parameter: a returned Decoded was put together on
// the stack field by field and read back whole, a failed store-to-load
// forward on the CPU's re-decode path (BM_DecodeCacheInvalidate).
constexpr void decode(std::span<const u8> bytes, Decoded& d) {
  const OpInfo& row = detail::kByOpcode[bytes[0]];
  const auto imm_at = [bytes](u32 off) {
    return static_cast<u32>(bytes[off]) |
           (static_cast<u32>(bytes[off + 1]) << 8) |
           (static_cast<u32>(bytes[off + 2]) << 16) |
           (static_cast<u32>(bytes[off + 3]) << 24);
  };
  d.op = row.op;
  d.ra = 0;
  d.rb = 0;
  d.imm = 0;
  d.len = form_length(row.form);
  switch (row.form) {
    case Form::kNone:
      break;
    case Form::kReg:
      d.ra = bytes[1];
      break;
    case Form::kRegReg:
      d.ra = bytes[1];
      d.rb = bytes[2];
      break;
    case Form::kImm:
      d.imm = imm_at(1);
      break;
    case Form::kRegImm:
      d.ra = bytes[1];
      d.imm = imm_at(2);
      break;
    case Form::kLoad:
    case Form::kStore:
      d.ra = bytes[1];
      d.rb = bytes[2];
      d.imm = imm_at(3);
      break;
  }
}

// Appends the encoding of `op` to `out`. Operands its form does not have
// are ignored.
inline void encode(Op op, u8 ra, u8 rb, u32 imm, std::vector<u8>& out) {
  const auto put32 = [&out](u32 v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<u8>(v >> (8 * i)));
  };
  out.push_back(static_cast<u8>(op));
  switch (op_info(op).form) {
    case Form::kNone:
      break;
    case Form::kReg:
      out.push_back(ra);
      break;
    case Form::kRegReg:
      out.push_back(ra);
      out.push_back(rb);
      break;
    case Form::kImm:
      put32(imm);
      break;
    case Form::kRegImm:
      out.push_back(ra);
      put32(imm);
      break;
    case Form::kLoad:
    case Form::kStore:
      out.push_back(ra);
      out.push_back(rb);
      put32(imm);
      break;
  }
}

}  // namespace sm::arch
