// Workload sanity: every benchmark completes under every engine, split
// memory costs cycles but never correctness, and the figure-level
// relationships hold qualitatively (fast checks; the bench binaries do the
// full sweeps).
#include <gtest/gtest.h>

#include "workloads/internal.h"
#include "workloads/workload.h"

namespace sm::workloads {
namespace {

TEST(Workloads, GzipCompletesAndSlowsUnderSplit) {
  const auto base = run_gzip(Protection::none(), /*kilobytes=*/64);
  const auto split = run_gzip(Protection::split_all(), /*kilobytes=*/64);
  ASSERT_TRUE(base.completed);
  ASSERT_TRUE(split.completed);
  EXPECT_EQ(base.stats.instructions, split.stats.instructions);
  EXPECT_GT(split.cycles, base.cycles);
}

TEST(Workloads, NbenchCompletesAndSlowsUnderSplit) {
  const auto base = run_nbench(Protection::none());
  const auto split = run_nbench(Protection::split_all());
  ASSERT_TRUE(base.completed);
  ASSERT_TRUE(split.completed);
  const double n = normalized(base, split);
  EXPECT_GT(n, 0.85);  // compute-bound: small overhead
  EXPECT_LT(n, 1.0);
}

class UnixBenchAll : public ::testing::TestWithParam<UnixBench> {};

TEST_P(UnixBenchAll, CompletesUnderBothEngines) {
  // Scaled-down iteration counts keep the test suite fast.
  const u32 iters = GetParam() == UnixBench::kPipeContextSwitch ? 50 : 20;
  const auto base = run_unixbench(GetParam(), Protection::none(), iters);
  const auto split =
      run_unixbench(GetParam(), Protection::split_all(), iters);
  EXPECT_TRUE(base.completed) << to_string(GetParam());
  EXPECT_TRUE(split.completed) << to_string(GetParam());
  EXPECT_GE(split.cycles, base.cycles);
}

INSTANTIATE_TEST_SUITE_P(Suite, UnixBenchAll,
                         ::testing::ValuesIn(kAllUnixBench),
                         [](const ::testing::TestParamInfo<UnixBench>& info) {
                           std::string n = to_string(info.param);
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(Workloads, PipeCtxswIsTheWorstCase) {
  const auto ctx_base =
      run_unixbench(UnixBench::kPipeContextSwitch, Protection::none(), 300);
  const auto ctx_split = run_unixbench(UnixBench::kPipeContextSwitch,
                                       Protection::split_all(), 300);
  const auto arith_base =
      run_unixbench(UnixBench::kArithmetic, Protection::none(), 5000);
  const auto arith_split =
      run_unixbench(UnixBench::kArithmetic, Protection::split_all(), 5000);
  EXPECT_LT(normalized(ctx_base, ctx_split),
            normalized(arith_base, arith_split) - 0.2);
}

TEST(Workloads, WebserverServesEveryByte) {
  WebserverConfig cfg;
  cfg.requests = 12;
  cfg.response_bytes = 4096;
  for (const auto prot : {Protection::none(), Protection::split_all()}) {
    const auto r = run_webserver(prot, cfg);
    EXPECT_TRUE(r.base.completed) << prot.label();
    EXPECT_EQ(r.bytes_served, 12u * 4096u) << prot.label();
  }
}

TEST(Workloads, WebserverSmallPagesHurtMore) {
  WebserverConfig small;
  small.requests = 16;
  small.response_bytes = 1024;
  WebserverConfig large;
  large.requests = 16;
  large.response_bytes = 64 * 1024;
  const double n_small =
      normalized(run_webserver(Protection::none(), small).base,
                 run_webserver(Protection::split_all(), small).base);
  const double n_large =
      normalized(run_webserver(Protection::none(), large).base,
                 run_webserver(Protection::split_all(), large).base);
  EXPECT_LT(n_small, n_large);  // Fig. 8's slope
}

TEST(Workloads, FractionInterpolatesBetweenExtremes) {
  const auto base =
      run_unixbench(UnixBench::kPipeContextSwitch, Protection::none(), 300);
  const auto full = run_unixbench(UnixBench::kPipeContextSwitch,
                                  Protection::split_all(), 300);
  const auto half = run_unixbench(UnixBench::kPipeContextSwitch,
                                  Protection::fraction(50), 300);
  EXPECT_GE(half.cycles, base.cycles);
  EXPECT_LE(half.cycles, full.cycles);
}

TEST(Workloads, ProtectionLabels) {
  EXPECT_EQ(Protection::none().label(), "none");
  EXPECT_EQ(Protection::split_all().label(), "split-all");
  EXPECT_EQ(Protection::fraction(25).label(), "split-25%");
}

TEST(Workloads, DataMemoBillingIdentityAtKernelLevel) {
  // End-to-end billing identity for the data-translation memo: a full
  // guest run (faults, fork, context switches, split reloads included)
  // must produce identical simulated numbers with the memo disabled.
  const char* kProg = R"(
_start:
  movi r0, SYS_FORK
  syscall
  cmpi r0, 0
  jz work
  mov r1, r0
  movi r0, SYS_WAITPID
  syscall
work:
  movi r5, 24
  movi r4, buf
pagel:
  movi r7, 16
inner:
  store [r4], r7
  load r6, [r4]
  addi r4, 4
  addi r7, -1
  cmpi r7, 0
  jnz inner
  addi r4, 4032
  movi r0, SYS_YIELD
  syscall
  addi r5, -1
  cmpi r5, 0
  jnz pagel
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
.bss
buf: .space 98304
)";
  auto run = [&](bool memo_on) {
    return internal::run_program(
        "memo-identity", kProg, Protection::split_all(), {}, 2'000'000'000,
        [memo_on](kernel::Kernel& k) {
          k.mmu().set_data_memo_enabled(memo_on);
        });
  };
  const auto with_memo = run(true);
  const auto without_memo = run(false);
  ASSERT_TRUE(with_memo.completed);
  ASSERT_TRUE(without_memo.completed);
  EXPECT_GT(with_memo.stats.data_fastpath_hits, 0u);
  EXPECT_EQ(without_memo.stats.data_fastpath_hits, 0u);
  EXPECT_EQ(with_memo.cycles, without_memo.cycles);
  EXPECT_EQ(metrics::billing_difference(without_memo.stats, with_memo.stats),
            "");
}

TEST(Workloads, NormalizedHandlesDegenerateInputs) {
  WorkloadResult a;
  WorkloadResult b;
  EXPECT_EQ(normalized(a, b), 0.0);
  a.cycles = 100;
  b.cycles = 200;
  EXPECT_DOUBLE_EQ(normalized(a, b), 0.5);
  b.sim_time = 400;  // sim_time overrides raw cycles when present
  EXPECT_DOUBLE_EQ(normalized(a, b), 0.25);
}

}  // namespace
}  // namespace sm::workloads
