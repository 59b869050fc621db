// Concurrent-simulation isolation (DESIGN.md §9): the runner's whole
// premise is that two Kernel instances share no mutable state, so running
// them on different host threads must yield exactly the results of running
// them back to back. These tests pin that contract directly — two kernels,
// different workloads, two std::threads — and are the payload of the TSan
// preset (any hidden shared state shows up as a data race there).
#include <gtest/gtest.h>

#include <thread>

#include "core/split_engine.h"
#include "metrics/stats.h"
#include "runner/experiment_runner.h"
#include "support/guest_runner.h"
#include "workloads/internal.h"
#include "workloads/workload.h"

namespace sm {
namespace {

using testing::GuestRun;
using testing::run_guest;

// Guest A: arithmetic loop with console output.
const char* kGuestA = R"(
_start:
  movi r5, 200
  movi r6, 0
loop:
  add r6, r5
  addi r5, -1
  cmpi r5, 0
  jnz loop
  movi r0, SYS_WRITE
  movi r1, 1
  movi r2, msg
  movi r3, 9
  syscall
  movi r0, SYS_EXIT
  mov r1, r6
  syscall
msg: .ascii "guest A!\n"
)";

// Guest B: store/load walker with a different exit code and console text.
const char* kGuestB = R"(
_start:
  movi r4, buf
  movi r5, 40
fill:
  store [r4], r5
  addi r4, 4096
  addi r5, -1
  cmpi r5, 0
  jnz fill
  movi r0, SYS_WRITE
  movi r1, 1
  movi r2, msg
  movi r3, 9
  syscall
  movi r0, SYS_EXIT
  movi r1, 7
  syscall
msg: .ascii "guest B!\n"
.bss
buf: .space 163840
)";

struct RunSnapshot {
  int exit_code = 0;
  std::string console;
  arch::Regs regs;
  metrics::Stats stats;
};

RunSnapshot snapshot(GuestRun& r) {
  RunSnapshot s;
  s.exit_code = r.proc().exit_code;
  s.console = r.console();
  s.regs = r.k->cpu().regs();
  s.stats = r.k->stats();
  return s;
}

void expect_same(const RunSnapshot& a, const RunSnapshot& b,
                 const char* who) {
  EXPECT_EQ(a.exit_code, b.exit_code) << who;
  EXPECT_EQ(a.console, b.console) << who;
  for (arch::u32 i = 0; i < arch::kNumRegs; ++i) {
    EXPECT_EQ(a.regs.r[i], b.regs.r[i]) << who << " r" << i;
  }
  EXPECT_EQ(metrics::billing_difference(a.stats, b.stats), "") << who;
}

TEST(ConcurrentIsolation, TwoKernelsOnTwoThreadsMatchSerialRuns) {
  // Serial reference runs, one workload under each protection mode.
  GuestRun ser_a = run_guest(kGuestA, core::ProtectionMode::kSplitAll);
  GuestRun ser_b = run_guest(kGuestB, core::ProtectionMode::kNone);
  const RunSnapshot ref_a = snapshot(ser_a);
  const RunSnapshot ref_b = snapshot(ser_b);

  // Same two workloads, concurrently, on two host threads.
  RunSnapshot par_a, par_b;
  std::thread ta([&] {
    GuestRun r = run_guest(kGuestA, core::ProtectionMode::kSplitAll);
    par_a = snapshot(r);
  });
  std::thread tb([&] {
    GuestRun r = run_guest(kGuestB, core::ProtectionMode::kNone);
    par_b = snapshot(r);
  });
  ta.join();
  tb.join();

  expect_same(ref_a, par_a, "guest A");
  expect_same(ref_b, par_b, "guest B");
}

TEST(ConcurrentIsolation, WorkloadRunnersMatchSerialUnderThreadPool) {
  // Heavier check through the real workload layer: gzip-like and a
  // context-switch-bound pair, serial vs via the ExperimentRunner pool.
  auto gzip_point = [] {
    return workloads::run_gzip(workloads::Protection::split_all(), 16);
  };
  auto pipe_point = [] {
    return workloads::run_unixbench(workloads::UnixBench::kPipeContextSwitch,
                                    workloads::Protection::none());
  };
  const workloads::WorkloadResult ser_gzip = gzip_point();
  const workloads::WorkloadResult ser_pipe = pipe_point();

  runner::RunnerOptions opts;
  opts.jobs = 2;
  opts.progress = false;
  opts.bench_name = "concurrency_test";
  runner::ExperimentRunner pool(opts);
  const runner::ResultTable table = pool.run({
      {"gzip/split", [&] {
         const auto r = gzip_point();
         runner::PointResult res;
         res.add("cycles", static_cast<double>(r.cycles));
         res.add("sim_time", static_cast<double>(r.sim_time));
         res.add("instructions", static_cast<double>(r.stats.instructions));
         return res;
       }},
      {"pipe-ctxsw/base", [&] {
         const auto r = pipe_point();
         runner::PointResult res;
         res.add("cycles", static_cast<double>(r.cycles));
         res.add("sim_time", static_cast<double>(r.sim_time));
         res.add("instructions", static_cast<double>(r.stats.instructions));
         return res;
       }},
  });

  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(metric(table[0], "cycles"),
            static_cast<double>(ser_gzip.cycles));
  EXPECT_EQ(metric(table[0], "sim_time"),
            static_cast<double>(ser_gzip.sim_time));
  EXPECT_EQ(metric(table[0], "instructions"),
            static_cast<double>(ser_gzip.stats.instructions));
  EXPECT_EQ(metric(table[1], "cycles"),
            static_cast<double>(ser_pipe.cycles));
  EXPECT_EQ(metric(table[1], "sim_time"),
            static_cast<double>(ser_pipe.sim_time));
  EXPECT_EQ(metric(table[1], "instructions"),
            static_cast<double>(ser_pipe.stats.instructions));
}

}  // namespace
}  // namespace sm
