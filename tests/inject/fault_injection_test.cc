// Fault-injection subsystem tests: schedule determinism and round-trips,
// injector firing/classification per fault kind, and the invariant
// watchdog's detect → repair → degrade ladder (ISSUE 5).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "arch/page_table.h"
#include "arch/pte.h"
#include "fuzz/corpus.h"
#include "fuzz/generator.h"
#include "fuzz/rng.h"
#include "inject/fault_injector.h"
#include "inject/fault_schedule.h"
#include "invariant/watchdog.h"
#include "support/guest_runner.h"

namespace sm {
namespace {

using arch::Pte;
using arch::u32;
using arch::u64;
using arch::vpn_of;
using core::ProtectionMode;
using core::ResponseMode;
using kernel::ExitKind;

// A guest that materializes two split pages and retires a few hundred
// instructions, so count-scheduled faults have a real window to land in.
const char* kSplitWorker = R"(
_start:
  movi r4, buf
  movi r6, 0
loop:
  store [r4], r6
  addi r4, 64
  addi r6, 1
  cmpi r6, 40
  jnz loop
  movi r4, buf
  load r5, [r4]
  movi r0, SYS_EXIT
  mov r1, r5
  syscall
.bss
buf: .space 8192
)";

inject::FaultSchedule one_fault(inject::FaultKind kind, u64 after = 0,
                                u32 arg = 0) {
  inject::FaultSchedule s;
  s.faults.push_back({after, kind, arg});
  return s;
}

struct FaultRunSummary {
  ExitKind exit_kind = ExitKind::kRunning;
  u32 exit_code = 0;
  bool shell_spawned = false;
  std::vector<inject::FaultInjector::Record> records;
  u32 breaches = 0;
  u32 violations = 0;
  u32 recoveries = 0;
  u32 degradations = 0;
  u64 oom_degradations = 0;
  u64 instructions = 0;
};

FaultRunSummary run_with_faults(const std::string& body,
                                inject::FaultSchedule schedule,
                                ResponseMode response = ResponseMode::kBreak) {
  testing::GuestRun r =
      testing::start_guest(body, ProtectionMode::kSplitAll, response);
  inject::FaultInjector injector(std::move(schedule));
  invariant::InvariantWatchdog watchdog;
  injector.attach(*r.k);
  watchdog.attach(*r.k, &injector);
  r.k->run(20'000'000);
  watchdog.finalize(*r.k);

  FaultRunSummary out;
  out.exit_kind = r.proc().exit_kind;
  out.exit_code = r.proc().exit_code;
  out.shell_spawned = r.proc().shell_spawned;
  out.records = injector.records();
  out.breaches = watchdog.breaches();
  out.violations = watchdog.violations();
  out.recoveries = watchdog.recoveries();
  out.degradations = watchdog.degradations();
  out.oom_degradations = r.k->stats().split_oom_degradations;
  out.instructions = r.k->stats().instructions;
  return out;
}

// --- schedules -------------------------------------------------------------

TEST(FaultSchedule, GenerateIsDeterministicAndSorted) {
  const auto a = inject::FaultSchedule::generate(0xDEAD, 32, 10'000);
  const auto b = inject::FaultSchedule::generate(0xDEAD, 32, 10'000);
  ASSERT_EQ(a.faults.size(), 32u);
  ASSERT_EQ(b.faults.size(), 32u);
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].after_instruction, b.faults[i].after_instruction);
    EXPECT_EQ(a.faults[i].kind, b.faults[i].kind);
    EXPECT_EQ(a.faults[i].arg, b.faults[i].arg);
    EXPECT_LT(a.faults[i].after_instruction, 10'000u);
    EXPECT_LT(static_cast<u32>(a.faults[i].kind),
              static_cast<u32>(inject::FaultKind::kCount));
    if (i > 0) {
      EXPECT_LE(a.faults[i - 1].after_instruction,
                a.faults[i].after_instruction);
    }
  }
  // A different seed gives a different schedule.
  const auto c = inject::FaultSchedule::generate(0xBEEF, 32, 10'000);
  bool any_diff = false;
  for (std::size_t i = 0; i < c.faults.size(); ++i) {
    any_diff |= c.faults[i].after_instruction != a.faults[i].after_instruction;
    any_diff |= c.faults[i].kind != a.faults[i].kind;
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultSchedule, LinesRoundTripThroughParse) {
  const auto s = inject::FaultSchedule::generate(7, 12, 5'000);
  std::vector<inject::ScheduledFault> parsed;
  std::string lines = s.to_lines();
  std::size_t start = 0;
  while (start < lines.size()) {
    std::size_t end = lines.find('\n', start);
    if (end == std::string::npos) end = lines.size();
    const std::string line = lines.substr(start, end - start);
    if (!line.empty()) {
      const auto f = inject::FaultSchedule::parse_line(line);
      ASSERT_TRUE(f.has_value()) << "unparsable: " << line;
      parsed.push_back(*f);
    }
    start = end + 1;
  }
  ASSERT_EQ(parsed.size(), s.faults.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].after_instruction, s.faults[i].after_instruction);
    EXPECT_EQ(parsed[i].kind, s.faults[i].kind);
    EXPECT_EQ(parsed[i].arg, s.faults[i].arg);
  }
  EXPECT_FALSE(inject::FaultSchedule::parse_line(";!fault").has_value());
  EXPECT_FALSE(
      inject::FaultSchedule::parse_line(";!fault 5 not-a-kind 0").has_value());
}

TEST(FaultSchedule, CorpusFileRoundTripPreservesFaults) {
  fuzz::GenOptions gopts;
  gopts.fault_count = 9;
  const fuzz::FuzzCase c = fuzz::generate(fuzz::case_seed(42, 3), gopts);
  ASSERT_EQ(c.faults.faults.size(), 9u);

  const std::string text = fuzz::to_corpus_file(c);
  const fuzz::FuzzCase back = fuzz::from_corpus_file(text);
  EXPECT_EQ(back.seed, c.seed);
  EXPECT_EQ(back.mixed_text, c.mixed_text);
  ASSERT_EQ(back.faults.faults.size(), c.faults.faults.size());
  for (std::size_t i = 0; i < c.faults.faults.size(); ++i) {
    EXPECT_EQ(back.faults.faults[i].after_instruction,
              c.faults.faults[i].after_instruction);
    EXPECT_EQ(back.faults.faults[i].kind, c.faults.faults[i].kind);
    EXPECT_EQ(back.faults.faults[i].arg, c.faults.faults[i].arg);
  }
}

TEST(FaultSchedule, KindNamesRoundTrip) {
  for (u32 i = 0; i < static_cast<u32>(inject::FaultKind::kCount); ++i) {
    const auto kind = static_cast<inject::FaultKind>(i);
    const char* name = inject::to_string(kind);
    ASSERT_NE(name, nullptr);
    const auto back = inject::fault_kind_from_string(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(inject::fault_kind_from_string("flux-capacitor").has_value());
}

// --- watchdog on a clean machine -------------------------------------------

TEST(InvariantWatchdog, CleanRunHasNoFalsePositives) {
  // No injector: the watchdog must observe an untouched protocol run
  // without a single violation, and billing must be unchanged.
  testing::GuestRun r =
      testing::start_guest(kSplitWorker, ProtectionMode::kSplitAll);
  invariant::InvariantWatchdog watchdog;
  watchdog.attach(*r.k);
  r.k->run(20'000'000);
  watchdog.finalize(*r.k);

  EXPECT_EQ(r.proc().exit_kind, ExitKind::kExited);
  EXPECT_EQ(watchdog.violations(), 0u);
  EXPECT_EQ(watchdog.breaches(), 0u);
  EXPECT_EQ(watchdog.degradations(), 0u);
  EXPECT_EQ(r.k->stats().invariant_violations, 0u);

  // Same program without the watchdog: identical retired-instruction and
  // cycle accounting (the watchdog never charges simulated time).
  testing::GuestRun clean =
      testing::run_guest(kSplitWorker, ProtectionMode::kSplitAll);
  EXPECT_EQ(r.k->stats().instructions, clean.k->stats().instructions);
  EXPECT_EQ(r.k->stats().cycles, clean.k->stats().cycles);
}

// --- per-kind firing and classification -------------------------------------

TEST(FaultInjection, SpuriousFlushIsAbsorbed) {
  const auto s = run_with_faults(kSplitWorker,
                                 one_fault(inject::FaultKind::kSpuriousTlbFlush,
                                           /*after=*/50));
  ASSERT_EQ(s.records.size(), 1u);
  ASSERT_TRUE(s.records[0].fired);
  ASSERT_TRUE(s.records[0].outcome.has_value());
  EXPECT_EQ(*s.records[0].outcome, inject::Outcome::kRecovered);
  EXPECT_EQ(s.exit_kind, ExitKind::kExited);
  EXPECT_EQ(s.breaches, 0u);
}

TEST(FaultInjection, LostDebugTrapIsRepairedByWatchdog) {
  // Arm at instruction 0: the first split fill window's debug trap is
  // swallowed. The watchdog's I4 check spots pending-without-TF and
  // replays Algorithm 2, so the guest still completes normally.
  const auto s = run_with_faults(
      kSplitWorker, one_fault(inject::FaultKind::kLostDebugTrap, 0));
  ASSERT_EQ(s.records.size(), 1u);
  ASSERT_TRUE(s.records[0].fired);
  ASSERT_TRUE(s.records[0].outcome.has_value());
  EXPECT_NE(*s.records[0].outcome, inject::Outcome::kBreach);
  EXPECT_GE(s.violations, 1u);
  EXPECT_GE(s.recoveries, 1u);
  EXPECT_EQ(s.exit_kind, ExitKind::kExited);
  EXPECT_EQ(s.breaches, 0u);
}

TEST(FaultInjection, PteCorruptionIsRepairedBehaviorUnchanged) {
  // Sub-kind 0 (unrestrict a split PTE) after the first page materialized.
  const auto s = run_with_faults(
      kSplitWorker,
      one_fault(inject::FaultKind::kPteCorruption, /*after=*/60, /*arg=*/0));
  ASSERT_EQ(s.records.size(), 1u);
  ASSERT_TRUE(s.records[0].fired);
  ASSERT_TRUE(s.records[0].outcome.has_value());
  EXPECT_NE(*s.records[0].outcome, inject::Outcome::kBreach);
  EXPECT_GE(s.violations, 1u);
  EXPECT_EQ(s.breaches, 0u);

  // The guest's observable behaviour matches the clean run.
  testing::GuestRun clean =
      testing::run_guest(kSplitWorker, ProtectionMode::kSplitAll);
  EXPECT_EQ(s.exit_kind, clean.proc().exit_kind);
  EXPECT_EQ(s.exit_code, clean.proc().exit_code);
}

TEST(FaultInjection, ItlbBitFlipNeverReachesFetch) {
  const auto s = run_with_faults(
      kSplitWorker,
      one_fault(inject::FaultKind::kItlbBitFlip, /*after=*/80, /*arg=*/3));
  ASSERT_EQ(s.records.size(), 1u);
  if (s.records[0].fired) {
    ASSERT_TRUE(s.records[0].outcome.has_value());
    EXPECT_NE(*s.records[0].outcome, inject::Outcome::kBreach);
  }
  EXPECT_EQ(s.breaches, 0u);
  EXPECT_EQ(s.exit_kind, ExitKind::kExited);
}

TEST(FaultInjection, FrameExhaustionDegradesGracefully) {
  const auto s = run_with_faults(
      kSplitWorker, one_fault(inject::FaultKind::kFrameExhaustion, 0));
  ASSERT_EQ(s.records.size(), 1u);
  ASSERT_TRUE(s.records[0].fired);
  ASSERT_TRUE(s.records[0].outcome.has_value());
  EXPECT_EQ(*s.records[0].outcome, inject::Outcome::kDegraded);
  EXPECT_EQ(s.breaches, 0u);
  // Degradation is graceful: either the split allocation path locked the
  // page unsplit (preferred), or the requesting process was killed with a
  // reported OOM — never a hang, never an escaped exception.
  EXPECT_TRUE(s.oom_degradations >= 1 ||
              s.exit_kind == ExitKind::kKilledSigsegv ||
              s.exit_kind == ExitKind::kExited)
      << "exit_kind=" << static_cast<int>(s.exit_kind);
}

TEST(FaultInjection, EveryKindClassifiedNeverSilent) {
  // One fault of every kind in a single schedule: whatever fires must end
  // the run classified; what cannot fire is reported unfired.
  inject::FaultSchedule s;
  for (u32 i = 0; i < static_cast<u32>(inject::FaultKind::kCount); ++i) {
    s.faults.push_back(
        {i * 20, static_cast<inject::FaultKind>(i), /*arg=*/i});
  }
  const auto out = run_with_faults(kSplitWorker, s);
  ASSERT_EQ(out.records.size(),
            static_cast<std::size_t>(inject::FaultKind::kCount));
  for (const auto& rec : out.records) {
    if (rec.fired) {
      EXPECT_TRUE(rec.outcome.has_value())
          << "silent fired fault: " << inject::to_string(rec.fault.kind);
      if (rec.outcome) {
        EXPECT_NE(*rec.outcome, inject::Outcome::kBreach)
            << inject::to_string(rec.fault.kind);
      }
    } else {
      EXPECT_FALSE(rec.outcome.has_value());
    }
  }
  EXPECT_EQ(out.breaches, 0u);
}

TEST(FaultInjection, ReplayIsDeterministic) {
  const auto schedule = inject::FaultSchedule::generate(0xF00D, 10, 400);
  const auto a = run_with_faults(kSplitWorker, schedule);
  const auto b = run_with_faults(kSplitWorker, schedule);
  EXPECT_EQ(a.exit_kind, b.exit_kind);
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.degradations, b.degradations);
  EXPECT_EQ(a.breaches, b.breaches);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].fired, b.records[i].fired);
    EXPECT_EQ(a.records[i].fired_at, b.records[i].fired_at);
    EXPECT_EQ(a.records[i].outcome, b.records[i].outcome);
  }
}

// --- direct watchdog repair / degradation ladder ----------------------------

// A guest that materializes one split page and then spins, so the test can
// interleave budget-limited runs with hand-planted corruption.
const char* kSpinAfterStore = R"(
_start:
  movi r4, buf
  movi r5, 1
  store [r4], r5
spin:
  jmp spin
.bss
buf: .space 64
)";

TEST(InvariantWatchdog, HandPlantedPteCorruptionIsRepaired) {
  testing::GuestRun r =
      testing::start_guest(kSpinAfterStore, ProtectionMode::kSplitAll);
  invariant::InvariantWatchdog watchdog;
  watchdog.attach(*r.k);
  r.k->run(2'000);

  const auto program = assembler::assemble(guest::program(kSpinAfterStore));
  const u32 buf = program.symbol("buf");
  kernel::Process& p = r.proc();
  ASSERT_NE(p.as->split_pair(vpn_of(buf)), nullptr);
  ASSERT_EQ(watchdog.violations(), 0u);

  // Corrupt behind the protocol's back: lift the supervisor restriction.
  arch::PageTable pt = p.as->pt();
  Pte pte = pt.get(buf);
  ASSERT_TRUE(pte.present());
  pte.unrestrict();
  pt.set(buf, pte);

  // The per-step split-PTE scan must spot and repair it within a step.
  r.k->run(16);
  EXPECT_GE(watchdog.violations(), 1u);
  EXPECT_GE(watchdog.recoveries(), 1u);
  const Pte repaired = p.as->pt().get(buf);
  EXPECT_FALSE(repaired.user()) << "restriction not reinstated";
  EXPECT_TRUE(repaired.split());
  EXPECT_NE(p.as->split_pair(vpn_of(buf)), nullptr) << "page was not degraded";
}

TEST(InvariantWatchdog, RepeatedCorruptionDegradesToUnsplitLock) {
  testing::GuestRun r =
      testing::start_guest(kSpinAfterStore, ProtectionMode::kSplitAll);
  invariant::InvariantWatchdog watchdog;
  watchdog.attach(*r.k);
  r.k->run(2'000);

  const auto program = assembler::assemble(guest::program(kSpinAfterStore));
  const u32 buf = program.symbol("buf");
  kernel::Process& p = r.proc();
  ASSERT_NE(p.as->split_pair(vpn_of(buf)), nullptr);

  // Corrupt the same page past kRetryLimit: the watchdog must stop
  // re-repairing and lock it unsplit (graceful degradation, guest lives).
  for (u32 i = 0; i < invariant::InvariantWatchdog::kRetryLimit + 3; ++i) {
    if (p.as->split_pair(vpn_of(buf)) == nullptr) break;
    arch::PageTable pt = p.as->pt();
    Pte pte = pt.get(buf);
    pte.unrestrict();
    pt.set(buf, pte);
    r.k->run(16);
  }

  EXPECT_GE(watchdog.degradations(), 1u);
  EXPECT_EQ(p.as->split_pair(vpn_of(buf)), nullptr)
      << "page still split after exceeding the repair budget";
  EXPECT_EQ(watchdog.breaches(), 0u);
  EXPECT_EQ(p.exit_kind, ExitKind::kRunning) << "guest should survive";
  // The degraded page stays usable.
  r.k->run(100);
  EXPECT_EQ(p.exit_kind, ExitKind::kRunning);
}

}  // namespace
}  // namespace sm
