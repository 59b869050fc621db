// The basic-block engine under the split-memory protocol: a block
// dispatch must coexist with every per-instruction mechanism the paper's
// algorithms rely on — D-TLB fill windows opening mid-block (Algorithm
// 1's data fault arrives from inside a cached block and must roll back
// to a restartable boundary), trap-flag single-step windows (Algorithm
// 2 runs per-instruction by definition, so the kernel must bypass
// blocks while TF is up), footnote-1 walk-failure fallbacks, and
// restrict/unrestrict transitions on pages whose blocks are cached.
// The closing contract: a split-protected run's simulated stats are
// bit-identical with the engine on and off.
#include <gtest/gtest.h>

#include "support/guest_runner.h"

namespace sm {
namespace {

using arch::u32;
using arch::u64;
using core::ProtectionMode;
using testing::start_guest;

arch::Regs& live_regs(testing::GuestRun& r) {
  return r.k->regs_of(r.proc());
}

// A store-heavy loop: the stores are mid-block (never a jump target), so
// the first D-TLB fill of `buf`'s page arrives as a fault from INSIDE a
// cached block.
constexpr const char* kStoreLoop = R"(
_start:
  movi r4, buf
  movi r0, 0
loop:
  addi r0, 1
  store [r4], r0    ; mid-block data access to a split page
  load r2, [r4]
  cmpi r0, 40
  jlt loop
done:
  jmp done
.bss
buf: .space 64
)";

TEST(DbtSplit, FillWindowOpeningMidBlockExitsToSingleStep) {
  auto r = start_guest(kStoreLoop, ProtectionMode::kSplitAll);
  r.k->run(200'000);

  // The loop completed with per-instruction store/load semantics.
  EXPECT_EQ(live_regs(r).r[0], 40u);
  EXPECT_EQ(live_regs(r).r[2], 40u);
  EXPECT_EQ(r.k->stats().injections_detected, 0u);
  // Split machinery actually engaged: D-TLB loads serviced, Algorithm 2
  // windows opened and stepped through...
  EXPECT_GT(r.k->stats().split_dtlb_loads, 0u);
  EXPECT_GT(r.k->stats().single_steps, 0u);
  // ...and the block engine was still in play around them (unless SM_DBT=0
  // switched it off: the split assertions above hold either way).
  if (r.k->cpu().block_engine_enabled()) {
    EXPECT_GT(r.k->stats().block_cache_hits, 0u);
    EXPECT_GT(r.k->stats().block_instructions, 0u);
  }
  EXPECT_FALSE(live_regs(r).tf()) << "a single-step window leaked";
}

TEST(DbtSplit, CachedBlocksSurviveRestrictUnrestrictTransitions) {
  // Every kernel D-TLB fill fails into the footnote-1 fallback: each
  // store/load degrades to a single-step window, so the data page cycles
  // restrict -> unrestrict -> restrict every iteration WHILE the loop's
  // blocks sit in the cache. Blocks are keyed on the code frame's
  // physical address, which the transitions do not move, so they must
  // survive and stay coherent.
  auto r = start_guest(kStoreLoop, ProtectionMode::kSplitAll);
  r.k->mmu().set_walk_failure_period(1);
  r.k->run(400'000);

  EXPECT_EQ(live_regs(r).r[0], 40u);
  EXPECT_EQ(live_regs(r).r[2], 40u);
  EXPECT_GT(r.k->stats().split_dtlb_fallbacks, 0u)
      << "walk failures never exercised the fallback path";
  if (r.k->cpu().block_engine_enabled()) {
    EXPECT_GT(r.k->stats().block_cache_hits, 0u);
  }
  EXPECT_EQ(r.k->stats().injections_detected, 0u);
  // The loop's text page ends restricted (windows all closed).
  const auto program = assembler::assemble(guest::program(kStoreLoop));
  const arch::Pte pte = r.proc().as->pt().get(program.symbol("loop"));
  ASSERT_TRUE(pte.present());
  EXPECT_FALSE(pte.user()) << "text page left unrestricted";
  EXPECT_FALSE(live_regs(r).tf());
}

TEST(DbtSplit, SplitRunStatsIdenticalWithAndWithoutDbt) {
  kernel::KernelConfig with_dbt;
  with_dbt.dbt = true;
  kernel::KernelConfig without_dbt;
  without_dbt.dbt = false;

  auto a = start_guest(kStoreLoop, ProtectionMode::kSplitAll,
                       core::ResponseMode::kBreak, with_dbt);
  auto b = start_guest(kStoreLoop, ProtectionMode::kSplitAll,
                       core::ResponseMode::kBreak, without_dbt);
  a.k->run(200'000);
  b.k->run(200'000);

  EXPECT_EQ(metrics::billing_difference(a.k->stats(), b.k->stats()), "");
  EXPECT_EQ(live_regs(a).r[0], live_regs(b).r[0]);
  EXPECT_EQ(live_regs(a).pc, live_regs(b).pc);
  EXPECT_EQ(b.k->stats().block_cache_hits, 0u)
      << "KernelConfig::dbt=false must disable the block engine";
}

TEST(DbtSplit, WalkFailureRunStatsIdenticalWithAndWithoutDbt) {
  // Same identity under the harshest per-instruction regime: every 2nd
  // kernel D-TLB fill fails into the single-step fallback.
  kernel::KernelConfig without_dbt;
  without_dbt.dbt = false;

  auto a = start_guest(kStoreLoop, ProtectionMode::kSplitAll);
  auto b = start_guest(kStoreLoop, ProtectionMode::kSplitAll,
                       core::ResponseMode::kBreak, without_dbt);
  a.k->mmu().set_walk_failure_period(2);
  b.k->mmu().set_walk_failure_period(2);
  a.k->run(400'000);
  b.k->run(400'000);

  EXPECT_EQ(metrics::billing_difference(a.k->stats(), b.k->stats()), "");
  EXPECT_EQ(live_regs(a).r[0], live_regs(b).r[0]);
  EXPECT_EQ(live_regs(a).pc, live_regs(b).pc);
}

}  // namespace
}  // namespace sm
