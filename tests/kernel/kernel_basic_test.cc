// End-to-end kernel smoke tests: load, run, syscalls, console output —
// under both the unprotected baseline and full memory splitting (the
// transparency requirement: a benign program must behave identically).
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <memory>

#include "kernel/kernel.h"
#include "support/guest_runner.h"

namespace sm {
namespace {

using core::ProtectionMode;
using kernel::ExitKind;
using testing::run_guest;

const char* kHello = R"(
_start:
  movi r1, msg
  call print
  movi r0, SYS_EXIT
  movi r1, 42
  syscall
.data
msg: .asciz "hello, split world\n"
)";

class HelloBothModes
    : public ::testing::TestWithParam<ProtectionMode> {};

TEST_P(HelloBothModes, PrintsAndExits) {
  auto r = run_guest(kHello, GetParam());
  EXPECT_TRUE(r.k->all_exited());
  EXPECT_EQ(r.proc().exit_kind, ExitKind::kExited);
  EXPECT_EQ(r.proc().exit_code, 42u);
  EXPECT_EQ(r.console(), "hello, split world\n");
}

INSTANTIATE_TEST_SUITE_P(AllEngines, HelloBothModes,
                         ::testing::Values(ProtectionMode::kNone,
                                           ProtectionMode::kSplitAll,
                                           ProtectionMode::kHardwareNx,
                                           ProtectionMode::kNxPlusSplitMixed));

TEST(KernelBasic, ArithmeticAndMemoryMatchAcrossEngines) {
  const char* body = R"(
_start:
  movi r1, 0          ; sum
  movi r2, 1          ; i
loop:
  add r1, r2
  addi r2, 1
  cmpi r2, 101
  jnz loop
  movi r3, table
  store [r3], r1
  load r4, [r3]
  movi r0, SYS_EXIT
  mov r1, r4
  syscall
.bss
table: .space 64
)";
  auto plain = run_guest(body, ProtectionMode::kNone);
  auto split = run_guest(body, ProtectionMode::kSplitAll);
  EXPECT_EQ(plain.proc().exit_code, 5050u);
  EXPECT_EQ(split.proc().exit_code, 5050u);
}

TEST(KernelBasic, SplitModeIsSlowerButCorrect) {
  const char* body = R"(
_start:
  movi r1, 0
  movi r2, 0
loop:
  add r1, r2
  addi r2, 1
  cmpi r2, 5000
  jnz loop
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
)";
  auto plain = run_guest(body, ProtectionMode::kNone);
  auto split = run_guest(body, ProtectionMode::kSplitAll);
  EXPECT_EQ(plain.proc().exit_kind, ExitKind::kExited);
  EXPECT_EQ(split.proc().exit_kind, ExitKind::kExited);
  EXPECT_GT(split.k->stats().cycles, plain.k->stats().cycles);
  // Same instruction stream.
  EXPECT_EQ(plain.k->stats().instructions, split.k->stats().instructions);
}

TEST(KernelBasic, SegfaultOnWildAccess) {
  const char* body = R"(
_start:
  movi r1, 0x00000010
  load r2, [r1]
  movi r0, SYS_EXIT
  syscall
)";
  auto r = run_guest(body, ProtectionMode::kNone);
  EXPECT_EQ(r.proc().exit_kind, ExitKind::kKilledSigsegv);
}

TEST(KernelBasic, FramesAreReclaimedOnExit) {
  const char* body = R"(
_start:
  movi r1, buf
  movi r2, 0xAB
  movi r3, 8192
  call memset
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
.bss
buf: .space 8192
)";
  for (const auto mode :
       {ProtectionMode::kNone, ProtectionMode::kSplitAll}) {
    auto r = run_guest(body, mode);
    ASSERT_EQ(r.proc().exit_kind, ExitKind::kExited);
    // Only the kernel's own structures may remain: nothing, since the
    // address space is torn down on exit.
    EXPECT_EQ(r.k->phys().frames_in_use(), 0u) << core::to_string(mode);
  }
}

TEST(KernelBasic, ChannelEcho) {
  const char* body = R"(
_start:
  movi r1, FD_NET
  movi r2, buf
  movi r3, 64
  call read_line
  movi r1, FD_NET
  movi r2, buf
  call print_fd
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
.bss
buf: .space 64
)";
  auto r = testing::start_guest(body, ProtectionMode::kSplitAll);
  r.k->run(1'000'000);  // guest blocks on read
  r.chan->host_write(std::string("ping\n"));
  r.k->run(10'000'000);
  EXPECT_TRUE(r.k->all_exited());
  EXPECT_EQ(r.chan->host_read_string(), "ping");
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

TEST(KernelBasic, ConstructionTouchesOnlyTheRamItUses) {
  // Simulated RAM (64 MiB by default) is zero-filled by the host on first
  // touch, so building a machine faults in the frames it allocates and its
  // host-side tables, not the whole RAM (16384 pages).
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "ASan writes the shadow of every allocation: a 64 MiB "
                  "calloc alone faults in 8 MiB of shadow, 2048 pages";
#endif
  const long before = minor_faults();
  const auto k = std::make_unique<kernel::Kernel>();
  const long added = minor_faults() - before;
  EXPECT_LT(added, 2048) << "minor faults while building a Kernel";
  EXPECT_EQ(k->config().phys_frames, 16384u);
}

}  // namespace
}  // namespace sm
