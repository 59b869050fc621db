#include "asm/disassembler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "arch/isa.h"
#include "asm/assembler.h"

namespace sm::assembler {
namespace {

TEST(Disassembler, RoundTripsCommonInstructions) {
  const Program p = assemble(R"(
  movi r0, 0x5
  mov r1, r0
  load r2, [sp+4]
  store [fp-8], r3
  cmpi r0, 0x7
  jz 0x2000
  call 0x3000
  push r4
  ret
  syscall
  nop
)");
  const auto lines = disassemble(p.text, p.layout.text_base);
  ASSERT_EQ(lines.size(), 11u);
  EXPECT_EQ(lines[0].text, "movi r0, 0x5");
  EXPECT_EQ(lines[1].text, "mov r1, r0");
  EXPECT_EQ(lines[2].text, "load r2, [sp+0x4]");
  EXPECT_EQ(lines[3].text, "store [fp-0x8], r3");
  EXPECT_EQ(lines[4].text, "cmpi r0, 0x7");
  EXPECT_EQ(lines[5].text, "jz 0x2000");
  EXPECT_EQ(lines[6].text, "call 0x3000");
  EXPECT_EQ(lines[7].text, "push r4");
  EXPECT_EQ(lines[8].text, "ret");
  EXPECT_EQ(lines[9].text, "syscall");
  EXPECT_EQ(lines[10].text, "nop");
  EXPECT_EQ(lines[0].addr, p.layout.text_base);
  EXPECT_EQ(lines[1].addr, p.layout.text_base + 6);
}

TEST(Disassembler, RoundTripsEveryOpcode) {
  // One line per opcode, in the disassembler's own spelling: sp/fp for
  // r7/r6, hex immediates, and zero, positive and negative offsets.
  const std::vector<std::string> source = {
      "movi r0, 0x5",
      "mov r1, sp",
      "load r2, [sp]",
      "store [fp-0x8], r3",
      "loadb r4, [r5+0x10]",
      "storeb [sp+0x3], fp",
      "add r0, r1",
      "sub sp, r2",
      "mul r3, r4",
      "div r5, fp",
      "and r0, sp",
      "or fp, r1",
      "xor r2, r3",
      "shl r4, r5",
      "shr r0, r1",
      "addi sp, 0xfffffff0",
      "cmp r2, fp",
      "cmpi r3, 0x7",
      "not r4",
      "modu r5, r0",
      "jmp 0x8048000",
      "jz 0x2000",
      "jnz 0x2004",
      "jlt 0x2008",
      "jge 0x200c",
      "jb 0x2010",
      "jae 0xffffffff",
      "jmpr r1",
      "call 0x3000",
      "callr fp",
      "ret",
      "push fp",
      "pop sp",
      "syscall",
      "nop",
  };
  std::string joined;
  for (const std::string& line : source) joined += line + "\n";
  const Program p = assemble(joined);

  const auto lines = disassemble(p.text, p.layout.text_base);
  ASSERT_EQ(lines.size(), source.size());
  // Each line lists as its own source, so the listing reassembles to the
  // same bytes.
  std::vector<arch::Op> seen;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].text, source[i]);
    seen.push_back(static_cast<arch::Op>(lines[i].bytes[0]));
  }
  for (const arch::OpInfo& row : arch::kOpTable) {
    EXPECT_NE(std::find(seen.begin(), seen.end(), row.op), seen.end())
        << row.mnemonic << " not covered";
  }
}

TEST(Disassembler, RandomInstructionsRoundTrip) {
  // Twenty encodings of every opcode with random registers and
  // immediates: the listing must reassemble to the same bytes.
  arch::u32 x = 12345;
  const auto next = [&x] { return x = x * 1664525u + 1013904223u; };
  std::vector<arch::u8> bytes;
  for (const arch::OpInfo& row : arch::kOpTable) {
    for (int i = 0; i < 20; ++i) {
      const auto ra = static_cast<arch::u8>(next() >> 29);
      const auto rb = static_cast<arch::u8>(next() >> 29);
      const arch::u32 imm = i % 5 == 0 ? 0u : next();
      arch::encode(row.op, ra, rb, imm, bytes);
    }
  }
  std::string listing;
  for (const DisasmLine& l : disassemble(bytes, 0)) {
    EXPECT_NE(l.text, "(bad)");
    listing += l.text + "\n";
  }
  EXPECT_EQ(assemble(listing).text, bytes);
}

TEST(Disassembler, MostNegativeOffsetRoundTrips) {
  // 0x80000000 is negative as an i32 and has no i32 negation.
  const std::vector<arch::u8> bytes = {0x03, 0x00, 0x01, 0x00,
                                       0x00, 0x00, 0x80};
  const auto lines = disassemble(bytes, 0);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].text, "load r0, [r1-0x80000000]");
  EXPECT_EQ(assemble(lines[0].text).text, bytes);
}

TEST(Disassembler, InvalidBytesMarkedBad) {
  const std::vector<arch::u8> bytes = {0x00, 0xFF, 0x90};
  const auto lines = disassemble(bytes, 0x1000);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].text, "(bad)");
  EXPECT_EQ(lines[1].text, "(bad)");
  EXPECT_EQ(lines[2].text, "nop");
}

TEST(Disassembler, TruncatedInstructionIsBad) {
  const std::vector<arch::u8> bytes = {0x01, 0x00};  // movi missing imm
  const auto lines = disassemble(bytes, 0);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].text, "(bad)");
}

TEST(Disassembler, MaxInstrsLimits) {
  const std::vector<arch::u8> bytes(64, 0x90);
  EXPECT_EQ(disassemble(bytes, 0, 5).size(), 5u);
}

TEST(Disassembler, FormatLooksLikeObjdump) {
  const std::vector<arch::u8> bytes = {0x90};
  const std::string out = format(disassemble(bytes, 0x8048000));
  EXPECT_NE(out.find("08048000:"), std::string::npos);
  EXPECT_NE(out.find("90"), std::string::npos);
  EXPECT_NE(out.find("nop"), std::string::npos);
}

}  // namespace
}  // namespace sm::assembler
