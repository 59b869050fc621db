#include "asm/disassembler.h"

#include <cstdio>

#include "arch/isa.h"

namespace sm::assembler {

namespace {

std::string reg_name(u8 r) {
  if (r == arch::kRegSp) return "sp";
  if (r == arch::kRegFp) return "fp";
  return "r" + std::to_string(r);
}

std::string hex(u32 v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%x", v);
  return buf;
}

std::string mem_operand(u8 base, u32 off) {
  if (off == 0) return "[" + reg_name(base) + "]";
  // Negated as u32: 0x80000000 has no i32 negation.
  if (static_cast<arch::i32>(off) < 0) {
    return "[" + reg_name(base) + "-" + hex(0u - off) + "]";
  }
  return "[" + reg_name(base) + "+" + hex(off) + "]";
}

std::string render(const arch::Decoded& d) {
  const arch::OpInfo& row = arch::op_info(d.op);
  const std::string m = row.mnemonic;
  switch (row.form) {
    case arch::Form::kNone:
      return m;
    case arch::Form::kReg:
      return m + " " + reg_name(d.ra);
    case arch::Form::kRegReg:
      return m + " " + reg_name(d.ra) + ", " + reg_name(d.rb);
    case arch::Form::kImm:
      return m + " " + hex(d.imm);
    case arch::Form::kRegImm:
      return m + " " + reg_name(d.ra) + ", " + hex(d.imm);
    case arch::Form::kLoad:
      return m + " " + reg_name(d.ra) + ", " + mem_operand(d.rb, d.imm);
    case arch::Form::kStore:
      return m + " " + mem_operand(d.ra, d.imm) + ", " + reg_name(d.rb);
  }
  return "(bad)";
}

}  // namespace

std::vector<DisasmLine> disassemble(std::span<const u8> bytes, u32 base_addr,
                                    std::size_t max_instrs) {
  std::vector<DisasmLine> out;
  std::size_t pos = 0;
  while (pos < bytes.size() && out.size() < max_instrs) {
    DisasmLine line;
    line.addr = base_addr + static_cast<u32>(pos);
    const u8 opcode = bytes[pos];
    const u32 len = arch::instr_length(opcode);
    if (len == 0 || pos + len > bytes.size()) {
      line.bytes = {opcode};
      line.text = "(bad)";
      pos += 1;
    } else {
      const auto view = bytes.subspan(pos, len);
      line.bytes.assign(view.begin(), view.end());
      arch::Decoded d;
      arch::decode(view, d);
      line.text = render(d);
      pos += len;
    }
    out.push_back(std::move(line));
  }
  return out;
}

std::string format(const std::vector<DisasmLine>& lines) {
  std::string out;
  for (const DisasmLine& l : lines) {
    char head[32];
    std::snprintf(head, sizeof head, "%08x:  ", l.addr);
    out += head;
    std::string byte_col;
    for (u8 b : l.bytes) {
      char bb[8];
      std::snprintf(bb, sizeof bb, "%02x ", b);
      byte_col += bb;
    }
    byte_col.resize(24, ' ');
    out += byte_col;
    out += l.text;
    out += '\n';
  }
  return out;
}

}  // namespace sm::assembler
