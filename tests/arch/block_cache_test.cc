// The basic-block cache (mini-DBT) over the decode cache: block
// formation and chained dispatch, the mid-block self-modifying-code
// guard, budget clipping at preemption boundaries, the no-straddle rule
// for block entries, and — the acceptance bar for the whole engine —
// that a block dispatch bills simulated stats exactly like the
// per-instruction interpreter it short-circuits.
#include "arch/block_cache.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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

TEST_F(BlockCacheTest, ClearedBlockRecordsAgainAndBillsAsItsFirstRecording) {
  // clear() drops blocks by key only. A block cached before it must miss,
  // be recorded again, and bill exactly what its first recording billed
  // from the same starting state (cold TLBs, same registers).
  r_.cost.tlb_hit = 2;
  r_.emit_loop();
  auto record_once = [&] {
    r_.mmu.flush_tlbs();
    r_.cpu.regs().pc = 0x1000;
    r_.cpu.regs().r[0] = 0;
    r_.cpu.regs().r[1] = 0;
    const metrics::Stats before = r_.stats;
    EXPECT_EQ(r_.cpu.step_block(5).attempts, 5u);
    metrics::Stats delta;
    for (const metrics::Counter& c : metrics::kCounters) {
      delta.*c.field = r_.stats.*c.field - before.*c.field;
    }
    return delta;
  };
  const metrics::Stats first = record_once();
  ASSERT_EQ(first.block_cache_misses, 1u);
  ASSERT_EQ(first.block_cache_hits, 0u);

  r_.cpu.block_cache().clear();
  const metrics::Stats again = record_once();
  EXPECT_EQ(again.block_cache_misses, 1u) << "cleared block still hit";
  EXPECT_EQ(again.block_cache_hits, 0u);
  EXPECT_EQ(again.block_cache_invalidations, 0u);
  EXPECT_EQ(metrics::billing_difference(first, again), "");
  EXPECT_EQ(r_.cpu.regs().pc, 0x1000u);
  EXPECT_EQ(r_.cpu.regs().r[0], 1u);

  // The re-recorded block is live again.
  r_.cpu.regs().pc = 0x1000;
  const u64 hits = r_.stats.block_cache_hits;
  EXPECT_EQ(r_.cpu.step_block(5).attempts, 5u);
  EXPECT_EQ(r_.stats.block_cache_hits, hits + 1);
}

// One trap raised by the instruction after `addi r0, 1` at 0x1000, run
// through every engine that can meet it. `clean` registers let the block
// run without a trap (so the cached pass has a block to hit); under
// `fault` registers the instruction traps.
struct MidBlockTrap {
  const char* name;
  std::vector<u8> instr;  // at 0x1006, followed by `jmp 0x1000`
  u32 clean_r1, clean_r3, clean_sp;
  u32 fault_r1, fault_r3, fault_sp;
  TrapKind kind;
  u32 fault_addr;      // CR2, for page faults
  bool decodes;        // #UD and #GP never enter a cached block
};

std::string describe(const std::optional<Trap>& t) {
  if (!t) return "no trap";
  std::string s = to_string(t->kind);
  if (t->kind == TrapKind::kPageFault) {
    s += " addr=" + std::to_string(t->pf.addr) +
         " present=" + std::to_string(t->pf.present) +
         " write=" + std::to_string(t->pf.write) +
         " user=" + std::to_string(t->pf.user) +
         " fetch=" + std::to_string(t->pf.fetch) +
         " soft_miss=" + std::to_string(t->pf.soft_miss);
  }
  if (t->kind == TrapKind::kInvalidOpcode) {
    s += " opcode=" + std::to_string(t->opcode);
  }
  return s;
}

TEST(MidBlockTraps, RollBackAlikeInEveryEngine) {
  // Mapped: 0x1000-0x7FFF. 0x8000 and up are unmapped. The word at
  // 0x6000 is the return address a clean `ret` pops.
  const MidBlockTrap cases[] = {
      {"load", {0x03, 2, 1, 0, 0, 0, 0}, 0x3000, 1, 0x7000, 0x9000, 1,
       0x7000, TrapKind::kPageFault, 0x9000, true},
      {"store", {0x04, 1, 2, 0, 0, 0, 0}, 0x3000, 1, 0x7000, 0x9000, 1,
       0x7000, TrapKind::kPageFault, 0x9000, true},
      {"straddling store", {0x04, 1, 2, 0, 0, 0, 0}, 0x3FFE, 1, 0x7000,
       0x7FFE, 1, 0x7000, TrapKind::kPageFault, 0x8000, true},
      {"push", {0x33, 2}, 0x3000, 1, 0x7000, 0x3000, 1, 0xA000,
       TrapKind::kPageFault, 0x9FFC, true},
      {"pop", {0x34, 2}, 0x3000, 1, 0x6000, 0x3000, 1, 0x9000,
       TrapKind::kPageFault, 0x9000, true},
      {"call", {0x30, 0x00, 0x10, 0, 0}, 0x3000, 1, 0x7000, 0x3000, 1,
       0xA000, TrapKind::kPageFault, 0x9FFC, true},
      {"ret", {0x32}, 0x3000, 1, 0x6000, 0x3000, 1, 0x9000,
       TrapKind::kPageFault, 0x9000, true},
      {"div", {0x13, 2, 3}, 0x3000, 1, 0x7000, 0x3000, 0, 0x7000,
       TrapKind::kDivideByZero, 0, true},
      {"modu", {0x1D, 2, 3}, 0x3000, 1, 0x7000, 0x3000, 0, 0x7000,
       TrapKind::kDivideByZero, 0, true},
      {"invalid opcode", {0x00}, 0, 0, 0, 0x3000, 1, 0x7000,
       TrapKind::kInvalidOpcode, 0, false},
      {"bad register", {0x02, 9, 0}, 0, 0, 0, 0x3000, 1, 0x7000,
       TrapKind::kGeneralProtection, 0, false},
      {"bad rb, reg-reg", {0x02, 0, 9}, 0, 0, 0, 0x3000, 1, 0x7000,
       TrapKind::kGeneralProtection, 0, false},
      {"bad ra, load", {0x03, 8, 1, 0, 0, 0, 0}, 0, 0, 0, 0x3000, 1, 0x7000,
       TrapKind::kGeneralProtection, 0, false},
      {"bad rb, load", {0x03, 2, 0xFF, 0, 0, 0, 0}, 0, 0, 0, 0x3000, 1,
       0x7000, TrapKind::kGeneralProtection, 0, false},
      {"bad ra, store", {0x04, 8, 2, 0, 0, 0, 0}, 0, 0, 0, 0x3000, 1, 0x7000,
       TrapKind::kGeneralProtection, 0, false},
      {"bad rb, store", {0x04, 1, 8, 0, 0, 0, 0}, 0, 0, 0, 0x3000, 1, 0x7000,
       TrapKind::kGeneralProtection, 0, false},
      {"bad ra, reg-imm", {0x01, 8, 0, 0, 0, 0}, 0, 0, 0, 0x3000, 1, 0x7000,
       TrapKind::kGeneralProtection, 0, false},
      {"bad ra, reg", {0x33, 8}, 0, 0, 0, 0x3000, 1, 0x7000,
       TrapKind::kGeneralProtection, 0, false},
      // An immediate is not a register: `call 0x0B0A0908` decodes and
      // traps only on its push. `decodes` is false only because a clean
      // call would leave the rig's loop, so there is no block to cache.
      {"call, imm bytes >= 8", {0x30, 0x08, 0x09, 0x0A, 0x0B}, 0, 0, 0,
       0x3000, 1, 0xA000, TrapKind::kPageFault, 0x9FFC, false},
  };

  for (const MidBlockTrap& c : cases) {
    SCOPED_TRACE(c.name);
    auto set_regs = [](Rig& rig, u32 r1, u32 r3, u32 sp) {
      Regs& R = rig.cpu.regs();
      R = Regs{};
      R.pc = 0x1000;
      R.r[1] = r1;
      R.r[2] = 0xDEADBEEF;
      R.r[3] = r3;
      R.sp() = sp;
    };
    auto frames_now = [](const Rig& rig) {
      std::vector<u8> all;
      for (u32 i = 1; i < 8; ++i) {
        const auto f = std::as_const(rig.pm).frame_bytes(rig.frames[i]);
        all.insert(all.end(), f.begin(), f.end());
      }
      return all;
    };
    // interp runs step() only; record meets the trap while recording the
    // block; cached meets it inside the block recorded by a clean run.
    Rig interp, record, cached;
    const u32 block_len = c.instr[0] == 0x30 || c.instr[0] == 0x32 ? 2 : 3;
    for (Rig* rig : {&interp, &record, &cached}) {
      rig->cost.tlb_hit = 2;
      u32 o = rig->emit(1, 0, {0x19, 0, 1, 0, 0, 0});  // addi r0, 1
      for (u8 b : c.instr) rig->pm.write8(rig->pa(1, o++), b);
      rig->emit(1, o, {0x20, 0x00, 0x10, 0, 0});  // jmp 0x1000
      rig->pm.write32(rig->pa(6, 0), 0x1000);
      if (!c.decodes) continue;
      set_regs(*rig, c.clean_r1, c.clean_r3, c.clean_sp);
      if (rig == &cached) {
        const auto bs = rig->cpu.step_block(block_len);
        ASSERT_EQ(bs.attempts, block_len);
        ASSERT_FALSE(bs.trap.has_value()) << describe(bs.trap);
      } else {
        for (u32 i = 0; i < block_len; ++i) {
          const auto t = rig->cpu.step();
          ASSERT_FALSE(t.has_value()) << describe(t);
        }
      }
      ASSERT_EQ(rig->cpu.regs().pc, 0x1000u);
    }

    std::vector<Rig*> engines = {&interp, &record};
    if (c.decodes) engines.push_back(&cached);
    std::vector<std::optional<Trap>> traps;
    for (Rig* rig : engines) {
      set_regs(*rig, c.fault_r1, c.fault_r3, c.fault_sp);
      const std::vector<u8> before = frames_now(*rig);
      const u64 hits = rig->stats.block_cache_hits;
      const u64 misses = rig->stats.block_cache_misses;
      if (rig == &interp) {
        ASSERT_FALSE(rig->cpu.step().has_value());  // the addi
        traps.push_back(rig->cpu.step());
      } else {
        const auto bs = rig->cpu.step_block(16);
        EXPECT_EQ(bs.attempts, 2u);  // addi retired, then the trap
        traps.push_back(bs.trap);
        // The pass really ran in the engine it stands for.
        if (rig == &record) {
          EXPECT_EQ(rig->stats.block_cache_misses, misses + 1);
        } else {
          EXPECT_EQ(rig->stats.block_cache_hits, hits + 1);
        }
      }
      EXPECT_TRUE(frames_now(*rig) == before) << "memory changed";

      // Rolled back to the trapping instruction, after the retired addi.
      const Regs& R = rig->cpu.regs();
      EXPECT_EQ(R.pc, 0x1006u);
      EXPECT_EQ(R.flags, 0u);
      EXPECT_EQ(R.r[0], 1u);
      EXPECT_EQ(R.r[1], c.fault_r1);
      EXPECT_EQ(R.r[2], 0xDEADBEEFu);
      EXPECT_EQ(R.r[3], c.fault_r3);
      EXPECT_EQ(R.r[kRegSp], c.fault_sp);
      for (u32 i : {4u, 5u, 6u}) EXPECT_EQ(R.r[i], 0u) << "r" << i;
    }

    ASSERT_TRUE(traps[0].has_value());
    EXPECT_EQ(traps[0]->kind, c.kind);
    if (c.kind == TrapKind::kPageFault) {
      EXPECT_EQ(traps[0]->pf.addr, c.fault_addr);
    }
    for (std::size_t i = 1; i < traps.size(); ++i) {
      EXPECT_EQ(describe(traps[i]), describe(traps[0])) << "engine " << i;
    }
    EXPECT_EQ(metrics::billing_difference(interp.stats, record.stats), "");
    if (c.decodes) {
      EXPECT_EQ(metrics::billing_difference(interp.stats, cached.stats), "");
    }
  }
}

TEST(BlockCacheUnit, RejectsNonPowerOfTwoSize) {
  EXPECT_THROW(BlockCache(3), std::invalid_argument);
  EXPECT_NO_THROW(BlockCache(8));
}

}  // namespace
}  // namespace sm::arch
