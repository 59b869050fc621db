// The basic-block cache (mini-DBT) over the decode cache: block
// formation and chained dispatch, the mid-block self-modifying-code
// guard, budget clipping at preemption boundaries, the no-straddle rule
// for block entries, and — the acceptance bar for the whole engine —
// that a block dispatch bills simulated stats exactly like the
// per-instruction interpreter it short-circuits.
#include "arch/block_cache.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>

#include "arch/cpu.h"

namespace sm::arch {
namespace {

// A full CPU rig (physical memory, page table, MMU) — a plain struct so
// identity tests can instantiate two and drive them in lockstep.
struct Rig {
  metrics::Stats stats;
  metrics::CostModel cost;
  PhysicalMemory pm{64};
  Mmu mmu{pm, stats, cost};
  Cpu cpu{mmu, stats, cost};
  u32 frames[8] = {};

  Rig() {
    const u32 root = PageTable::create(pm);
    PageTable pt(pm, root);
    for (u32 i = 1; i < 8; ++i) {
      frames[i] = pm.alloc_frame();
      pt.set(i * kPageSize,
             Pte::make(frames[i], Pte::kPresent | Pte::kUser | Pte::kWritable));
    }
    mmu.set_cr3(root);
    cpu.regs().pc = 0x1000;
    cpu.regs().sp() = 0x7000;
  }

  u64 pa(u32 frame_idx, u32 off) {
    return static_cast<u64>(frames[frame_idx]) * kPageSize + off;
  }

  // Raw instruction emitter at physical offset `off` of frame `f`;
  // returns the offset just past the emitted bytes.
  u32 emit(u32 f, u32 off, std::initializer_list<u8> bytes) {
    u32 o = off;
    for (u8 b : bytes) pm.write8(pa(f, o++), b);
    return o;
  }

  // The BM_CpuStepCached workload: a 5-instruction straight-line block
  // ending in a back-edge to 0x1000.
  void emit_loop() {
    u32 o = 0;
    o = emit(1, o, {0x19, 0, 1, 0, 0, 0});  // addi r0, 1
    o = emit(1, o, {0x02, 1, 0});           // mov r1, r0
    o = emit(1, o, {0x10, 1, 1});           // add r1, r1
    o = emit(1, o, {0x1A, 0, 1});           // cmp r0, r1
    emit(1, o, {0x20, 0x00, 0x10, 0, 0});   // jmp 0x1000
  }
};

class BlockCacheTest : public ::testing::Test {
 protected:
  Rig r_;
};

TEST_F(BlockCacheTest, SecondDispatchHitsAndChainsWithinBudget) {
  r_.emit_loop();
  // First dispatch: the recording pass covers the 5-instruction block
  // (one miss), then the chain re-enters it from the back-edge and runs
  // it from the cache until the budget is spent.
  const auto bs = r_.cpu.step_block(25);
  EXPECT_EQ(bs.attempts, 25u);
  EXPECT_FALSE(bs.trap.has_value());
  EXPECT_EQ(r_.stats.block_cache_misses, 1u);
  EXPECT_EQ(r_.stats.block_cache_hits, 4u);
  EXPECT_EQ(r_.stats.block_cache_invalidations, 0u);
  // Only the cached re-executions count as block instructions; the
  // recording pass went through the per-instruction machinery.
  EXPECT_EQ(r_.stats.block_instructions, 20u);
  EXPECT_EQ(r_.stats.instructions, 25u);
  EXPECT_EQ(r_.cpu.regs().r[0], 5u);
}

TEST_F(BlockCacheTest, MidBlockSmcInvalidatesAndExecutesNewBytes) {
  // A block whose second instruction stores through r1. On the first
  // pass r1 points at a data page, so a clean 4-instruction block is
  // recorded. Then r1 is aimed at the immediate byte of the block's OWN
  // third instruction: the cached run must detect the generation bump
  // mid-block, abandon the stale decodes, and execute the rewritten
  // bytes — exactly what the per-instruction engine's decode-cache
  // generation check would have done.
  u32 o = 0;
  o = r_.emit(1, o, {0x01, 0, 77, 0, 0, 0});     // 0x1000: movi r0, 77
  o = r_.emit(1, o, {0x06, 1, 0, 0, 0, 0, 0});   // 0x1006: storeb [r1], r0
  o = r_.emit(1, o, {0x01, 2, 11, 0, 0, 0});     // 0x100D: movi r2, 11
  r_.emit(1, o, {0x20, 0x00, 0x10, 0, 0});       // 0x1013: jmp 0x1000

  r_.cpu.regs().r[1] = 0x3000;  // harmless data page
  auto bs = r_.cpu.step_block(4);
  EXPECT_EQ(bs.attempts, 4u);
  EXPECT_EQ(r_.cpu.regs().r[2], 11u);
  EXPECT_EQ(r_.stats.block_cache_misses, 1u);

  // Aim the store at the movi's immediate byte (0x100D + 2) and rerun
  // from the cached block.
  r_.cpu.regs().r[1] = 0x100F;
  bs = r_.cpu.step_block(4);
  EXPECT_EQ(bs.attempts, 4u);
  EXPECT_EQ(r_.cpu.regs().r[2], 77u)
      << "stale decode executed after mid-block SMC";
  EXPECT_EQ(r_.stats.block_cache_hits, 1u);
  EXPECT_GE(r_.stats.block_cache_invalidations, 1u);
  // The killed block re-records from the rewritten bytes.
  EXPECT_EQ(r_.stats.block_cache_misses, 2u);
}

TEST_F(BlockCacheTest, BudgetClipsMidBlock) {
  r_.emit_loop();
  ASSERT_EQ(r_.cpu.step_block(5).attempts, 5u);  // record the block
  // A 2-instruction budget must stop the cached block exactly where the
  // per-instruction loop would have: preemption timing is architectural.
  const auto bs = r_.cpu.step_block(2);
  EXPECT_EQ(bs.attempts, 2u);
  EXPECT_EQ(r_.cpu.regs().pc, 0x1009u);  // after addi (6) + mov (3)
  EXPECT_EQ(r_.cpu.regs().r[1], r_.cpu.regs().r[0]);
}

TEST_F(BlockCacheTest, StraddlingEntryIsNeverCached) {
  // movi spanning the 0x1000/0x2000 boundary as a block ENTRY: its tail
  // bytes live in a frame the entry generation cannot cover, so it must
  // never be recorded — every dispatch takes the recording path.
  const u32 base = kPageSize - 3;
  r_.emit(1, base, {0x01, 1, 44});
  r_.emit(2, 0, {0, 0, 0});
  r_.emit(2, 3, {0x20, 0xFD, 0x1F, 0, 0});  // jmp 0x1FFD (back-edge)

  r_.cpu.regs().pc = 0x2000 - 3;
  const auto bs = r_.cpu.step_block(6);  // three loop trips
  EXPECT_EQ(bs.attempts, 6u);
  EXPECT_EQ(r_.cpu.regs().r[1], 44u);
  // The jmp forms its own (cachable) single-instruction block and hits
  // from the second trip on; every visit to the straddler is a miss.
  EXPECT_EQ(r_.stats.block_cache_misses, 4u);
  EXPECT_EQ(r_.stats.block_cache_hits, 2u);
}

TEST_F(BlockCacheTest, BillsExactlyWhatTheInterpreterWould) {
  // Drive the same program through Cpu::step() on one rig and
  // Cpu::step_block() on another: every simulated stat — cycles
  // included — and the architectural state must match bit for bit.
  // Raise the TLB-hit cost from its default 0 so the wholesale billing
  // actually multiplies something observable.
  Rig interp;
  interp.cost.tlb_hit = 2;
  r_.cost.tlb_hit = 2;
  interp.emit_loop();
  r_.emit_loop();

  for (int i = 0; i < 40; ++i) {
    ASSERT_FALSE(interp.cpu.step().has_value());
  }
  u64 attempts = 0;
  while (attempts < 40) attempts += r_.cpu.step_block(40 - attempts).attempts;

  EXPECT_EQ(metrics::billing_difference(interp.stats, r_.stats), "");
  EXPECT_GT(r_.stats.block_instructions, 0u);
  EXPECT_EQ(interp.stats.block_instructions, 0u);
  EXPECT_EQ(r_.cpu.regs().pc, interp.cpu.regs().pc);
  EXPECT_EQ(r_.cpu.regs().flags, interp.cpu.regs().flags);
  for (u32 i = 0; i < kNumRegs; ++i) {
    EXPECT_EQ(r_.cpu.regs().r[i], interp.cpu.regs().r[i]) << "r" << i;
  }
}

TEST_F(BlockCacheTest, FaultingInstructionRollsBackMidBlock) {
  // Block: addi ; load from an unmapped page ; jmp. The load faults on
  // the cached run; the CPU must restore the pre-instruction state so
  // the kernel can service and restart, exactly like step().
  u32 o = 0;
  o = r_.emit(1, o, {0x19, 0, 1, 0, 0, 0});            // addi r0, 1
  o = r_.emit(1, o, {0x03, 2, 1, 0, 0, 0, 0});         // load r2, [r1]
  r_.emit(1, o, {0x20, 0x00, 0x10, 0, 0});             // jmp 0x1000

  r_.cpu.regs().r[1] = 0x3000;  // mapped: records a clean block
  ASSERT_FALSE(r_.cpu.step_block(3).trap.has_value());

  r_.cpu.regs().r[1] = 0x9000;  // unmapped: faults mid-block
  const auto bs = r_.cpu.step_block(3);
  ASSERT_TRUE(bs.trap.has_value());
  EXPECT_EQ(bs.trap->kind, TrapKind::kPageFault);
  EXPECT_EQ(bs.trap->pf.addr, 0x9000u);
  EXPECT_EQ(bs.attempts, 2u);  // addi retired, load attempted
  EXPECT_EQ(r_.cpu.regs().pc, 0x1006u) << "pc must point at the load";
  EXPECT_EQ(r_.cpu.regs().r[0], 2u) << "addi before the fault retired";
}

TEST(BlockCacheUnit, RejectsNonPowerOfTwoSize) {
  EXPECT_THROW(BlockCache(3), std::invalid_argument);
  EXPECT_NO_THROW(BlockCache(8));
}

}  // namespace
}  // namespace sm::arch
