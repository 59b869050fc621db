#include "asm/assembler.h"

#include <gtest/gtest.h>

#include "arch/isa.h"
#include "asm/disassembler.h"

namespace sm::assembler {
namespace {

TEST(Assembler, BasicInstructionEncoding) {
  const Program p = assemble(R"(
_start:
  movi r0, 5
  mov r1, r0
  nop
)");
  ASSERT_EQ(p.text.size(), 6u + 3 + 1);
  EXPECT_EQ(p.text[0], 0x01);
  EXPECT_EQ(p.text[1], 0);
  EXPECT_EQ(p.text[2], 5);
  EXPECT_EQ(p.text[6], 0x02);
  EXPECT_EQ(p.text[7], 1);
  EXPECT_EQ(p.text[8], 0);
  EXPECT_EQ(p.text[9], 0x90);
  EXPECT_EQ(p.symbol("_start"), p.layout.text_base);
}

TEST(Assembler, LabelsResolveAcrossSections) {
  const Program p = assemble(R"(
_start:
  movi r1, msg
  jmp done
done:
  ret
.data
msg: .asciz "hi"
)");
  EXPECT_EQ(p.symbol("msg"), p.layout.data_base);
  EXPECT_EQ(p.symbol("done"), p.layout.text_base + 6 + 5);
  // Immediate of movi encodes the data address.
  const arch::u32 imm = p.text[2] | (p.text[3] << 8) | (p.text[4] << 16) |
                        (p.text[5] << 24);
  EXPECT_EQ(imm, p.layout.data_base);
}

TEST(Assembler, ForwardReferences) {
  const Program p = assemble(R"(
  jmp target
  nop
target:
  ret
)");
  const arch::u32 imm = p.text[1] | (p.text[2] << 8) | (p.text[3] << 16) |
                        (p.text[4] << 24);
  EXPECT_EQ(imm, p.layout.text_base + 6);
}

TEST(Assembler, MemOperands) {
  const Program p = assemble(R"(
  load r1, [r2+8]
  store [sp-4], r0
  loadb r3, [fp]
)");
  EXPECT_EQ(p.text[0], 0x03);
  EXPECT_EQ(p.text[1], 1);
  EXPECT_EQ(p.text[2], 2);
  EXPECT_EQ(p.text[3], 8);
  // store [sp-4], r0
  EXPECT_EQ(p.text[7], 0x04);
  EXPECT_EQ(p.text[8], arch::kRegSp);
  EXPECT_EQ(p.text[9], 0);
  EXPECT_EQ(p.text[10], 0xFC);
  EXPECT_EQ(p.text[13], 0xFF);
  // loadb r3, [fp]
  EXPECT_EQ(p.text[14], 0x05);
  EXPECT_EQ(p.text[16], arch::kRegFp);
}

TEST(Assembler, DataDirectives) {
  const Program p = assemble(R"(
.data
bytes: .byte 1, 0x2F, 'A', '\n'
words: .word 0xdeadbeef, bytes
text:  .ascii "a\tb"
ztext: .asciz "x"
gap:   .space 3, 0xEE
)");
  ASSERT_EQ(p.data.size(), 4u + 8 + 3 + 2 + 3);
  EXPECT_EQ(p.data[0], 1);
  EXPECT_EQ(p.data[1], 0x2F);
  EXPECT_EQ(p.data[2], 'A');
  EXPECT_EQ(p.data[3], '\n');
  EXPECT_EQ(p.data[4], 0xEF);
  EXPECT_EQ(p.data[7], 0xDE);
  const arch::u32 w2 = p.data[8] | (p.data[9] << 8) | (p.data[10] << 16) |
                       (p.data[11] << 24);
  EXPECT_EQ(w2, p.symbol("bytes"));
  EXPECT_EQ(p.data[12], 'a');
  EXPECT_EQ(p.data[13], '\t');
  EXPECT_EQ(p.data[15], 'x');
  EXPECT_EQ(p.data[16], 0);
  EXPECT_EQ(p.data[17], 0xEE);
}

TEST(Assembler, BssAndAlign) {
  const Program p = assemble(R"(
.data
a: .byte 1
   .align 4
b: .word 2
.bss
buf:  .space 100
buf2: .space 28
)");
  EXPECT_EQ(p.symbol("b"), p.layout.data_base + 4);
  EXPECT_EQ(p.bss_size, 128u);
  EXPECT_EQ(p.symbol("buf"), p.layout.bss_base);
  EXPECT_EQ(p.symbol("buf2"), p.layout.bss_base + 100);
}

TEST(Assembler, AlignPadsEverySectionToTheBoundary) {
  // .align pads with zeros up to the next multiple in .text and .data,
  // and only advances the offset in .bss; an aligned offset gets no pad.
  const Program p = assemble(R"(
_start: nop
        .align 4096
page:   ret
        .align 4
w:      nop
.data
d0:     .byte 1, 2, 3
        .align 8
d1:     .word 5
        .align 8
        .align 16
d2:     .byte 9
.bss
b0:     .space 3
        .align 4096
b1:     .space 4
        .align 1
b2:     .space 1
)");
  EXPECT_EQ(p.symbol("page"), p.layout.text_base + 4096);
  EXPECT_EQ(p.symbol("w"), p.layout.text_base + 4100);
  ASSERT_EQ(p.text.size(), 4101u);
  for (std::size_t i = 1; i < 4096; ++i) ASSERT_EQ(p.text[i], 0) << i;
  EXPECT_EQ(p.text[4097], 0);
  EXPECT_EQ(p.text[4099], 0);

  EXPECT_EQ(p.symbol("d1"), p.layout.data_base + 8);
  EXPECT_EQ(p.symbol("d2"), p.layout.data_base + 16);
  ASSERT_EQ(p.data.size(), 17u);
  for (std::size_t i : {3u, 7u, 12u, 15u}) EXPECT_EQ(p.data[i], 0) << i;
  EXPECT_EQ(p.data[16], 9);

  EXPECT_EQ(p.symbol("b1"), p.layout.bss_base + 4096);
  EXPECT_EQ(p.symbol("b2"), p.layout.bss_base + 4100);
  EXPECT_EQ(p.bss_size, 4101u);
}

TEST(Assembler, LargeBssSpaceOnlyAdvancesTheOffset) {
  // The fuzz generator's .bss shape: page-sized reservations with labels
  // after them. Nothing is emitted, only addresses and bss_size move.
  const Program p = assemble(R"(
_start: nop
.bss
heap:  .space 0x41000
stack: .space 16384
top:   .space 4
)");
  EXPECT_EQ(p.text.size(), 1u);
  EXPECT_TRUE(p.data.empty());
  EXPECT_EQ(p.symbol("heap"), p.layout.bss_base);
  EXPECT_EQ(p.symbol("stack"), p.layout.bss_base + 0x41000);
  EXPECT_EQ(p.symbol("top"), p.layout.bss_base + 0x41000 + 16384);
  EXPECT_EQ(p.bss_size, 0x41000u + 16384 + 4);
}

TEST(Assembler, SpaceEmitsFillBytesInTextAndData) {
  const Program p = assemble(R"(
_start: nop
pad:    .space 5000, 0x90
after:  ret
.data
d:      .byte 7
        .space 4097, 0xA5
e:      .byte 8
)");
  ASSERT_EQ(p.text.size(), 1u + 5000 + 1);
  EXPECT_EQ(p.text[1], 0x90);
  EXPECT_EQ(p.text[5000], 0x90);
  EXPECT_EQ(p.text[5001], 0x32);  // ret
  EXPECT_EQ(p.symbol("after"), p.layout.text_base + 5001);
  ASSERT_EQ(p.data.size(), 1u + 4097 + 1);
  EXPECT_EQ(p.data[1], 0xA5);
  EXPECT_EQ(p.data[4097], 0xA5);
  EXPECT_EQ(p.data[4098], 8);
  EXPECT_EQ(p.symbol("e"), p.layout.data_base + 4098);
}

TEST(Assembler, SpaceOverflowingTheSectionIsRejected) {
  // 16 + 0xFFFFFFF0 wraps the 32-bit section offset to 0.
  EXPECT_THROW(assemble(".bss\na: .space 16\nb: .space 0xFFFFFFF0\n"),
               AsmError);
  EXPECT_THROW(assemble(".bss\n.space 0xFFFFFFFF\n.space 1\n"), AsmError);
  EXPECT_NO_THROW(assemble(".bss\n.space 0xFFFFFFFF\n"));
}

TEST(Assembler, EquConstantsAndExpressions) {
  const Program p = assemble(R"(
.equ SIZE, 64
.equ TWO_SIZE, 128
_start:
  movi r0, SIZE
  movi r1, buf+4
  movi r2, buf-4
.bss
buf: .space SIZE
)");
  EXPECT_EQ(p.text[2], 64);
  const arch::u32 imm1 = p.text[8] | (p.text[9] << 8) | (p.text[10] << 16) |
                         (p.text[11] << 24);
  EXPECT_EQ(imm1, p.symbol("buf") + 4);
}

TEST(Assembler, CommentsAndBlankLines) {
  const Program p = assemble(R"(
; full line comment
# hash comment
_start: nop  ; trailing
  nop        # trailing too
)");
  EXPECT_EQ(p.text.size(), 2u);
}

TEST(Assembler, ErrorsCarryLineNumbers) {
  try {
    assemble("nop\nbogus r1\n");
    FAIL() << "expected AsmError";
  } catch (const AsmError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

TEST(Assembler, UndefinedSymbolRejected) {
  EXPECT_THROW(assemble("jmp nowhere\n"), AsmError);
}

TEST(Assembler, DuplicateLabelRejected) {
  EXPECT_THROW(assemble("a: nop\na: nop\n"), AsmError);
}

TEST(Assembler, WrongOperandCountRejected) {
  EXPECT_THROW(assemble("movi r0\n"), AsmError);
  EXPECT_THROW(assemble("ret r0\n"), AsmError);
}

TEST(Assembler, BadRegisterRejected) {
  EXPECT_THROW(assemble("movi r9, 1\n"), AsmError);
  EXPECT_THROW(assemble("mov r0, 42\n"), AsmError);
}

TEST(Assembler, InstructionsInBssRejected) {
  EXPECT_THROW(assemble(".bss\nnop\n"), AsmError);
}

TEST(Assembler, NegativeImmediates) {
  const Program p = assemble("addi r1, -1\n");
  EXPECT_EQ(p.text[2], 0xFF);
  EXPECT_EQ(p.text[5], 0xFF);
}

TEST(Assembler, MostNegativeImmediate) {
  // -0x80000000 has no i32 negation; it must still encode as 0x80000000
  // and round-trip through the disassembler.
  const Program p = assemble("movi r0, -0x80000000\n");
  const std::vector<u8> bytes = {0x01, 0x00, 0x00, 0x00, 0x00, 0x80};
  EXPECT_EQ(p.text, bytes);
  const auto lines = disassemble(p.text, 0);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].text, "movi r0, 0x80000000");
  EXPECT_EQ(assemble(lines[0].text).text, bytes);
}

TEST(Assembler, CustomLayout) {
  Layout layout;
  layout.text_base = 0x40000000;
  layout.data_base = 0x40100000;
  layout.bss_base = 0x40200000;
  const Program p = assemble("_start: nop\n.data\nd: .byte 1\n", layout);
  EXPECT_EQ(p.symbol("_start"), 0x40000000u);
  EXPECT_EQ(p.symbol("d"), 0x40100000u);
}

TEST(Assembler, MultipleLabelsOneLine) {
  const Program p = assemble("a: b: nop\n");
  EXPECT_EQ(p.symbol("a"), p.symbol("b"));
}

TEST(Assembler, HexEscapeInString) {
  const Program p = assemble(".data\ns: .ascii \"\\x90\\x41\"\n");
  ASSERT_EQ(p.data.size(), 2u);
  EXPECT_EQ(p.data[0], 0x90);
  EXPECT_EQ(p.data[1], 0x41);
}

}  // namespace
}  // namespace sm::assembler
