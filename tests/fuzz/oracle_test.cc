// The differential oracle: equivalence passes on benign programs, and —
// just as important — genuinely divergent behaviour is *detected*.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "fuzz/corpus.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"

namespace sm::fuzz {
namespace {

TEST(FuzzOracle, ReferenceRunIsObservable) {
  const FuzzCase c = generate(11);
  const RunObservation obs =
      run_case(c, behavioral_configs().front());
  EXPECT_EQ(obs.result, kernel::Kernel::RunResult::kAllExited);
  ASSERT_FALSE(obs.procs.empty());
  EXPECT_TRUE(obs.procs.front().digest.has_value());
  EXPECT_FALSE(obs.procs.front().syscalls.empty());  // at least SYS_EXIT
  EXPECT_GT(obs.instructions, 0u);
}

TEST(FuzzOracle, BenignSeedsPassTheFullContract) {
  for (u64 seed : {1, 2, 3, 4, 5}) {
    const OracleVerdict v = check_case(generate(seed));
    EXPECT_TRUE(v.ok) << "seed " << seed << ": " << v.divergence;
  }
}

TEST(FuzzOracle, DetectsRealSplitDivergence) {
  // Write-then-execute: stores an invalid opcode over a NOP pad, then
  // jumps into it. Von Neumann engines execute the freshly written #UD
  // byte and the process dies SIGILL; split engines fetch the untouched
  // code frame (NOPs), fall through to the exit, and leave 0 in r1. The
  // oracle must flag this — it is the paper's architectural difference,
  // visible exactly because the program is NOT benign.
  FuzzCase c;
  c.seed = 0;
  c.mixed_text = true;
  c.body = R"(_start:
;;A0
    movi r0, pad
    movi r1, 0
    storeb [r0+0], r1
    jmp pad
pad:
    nop
    nop
    nop
;;END
fz_exit:
    movi r1, 0
    movi r0, SYS_EXIT
    syscall
)";
  const OracleVerdict v = check_case(c);
  ASSERT_FALSE(v.ok);
  EXPECT_NE(v.divergence.find("vs none"), std::string::npos) << v.divergence;
}

TEST(FuzzOracle, InjectedLruBugBreaksBillingIdentity) {
  // The deliberate memo-LRU fault (Mmu::set_inject_memo_lru_bug) skips the
  // LRU re-stamp on data-memo hits. The D-TLB set-pressure action is built
  // so that exact stamp decides an eviction: with the bug, memo-on and
  // memo-off runs evict different entries and the simulated TLB counters
  // split. Find a seed whose program trips it, proving a billing bug in
  // the fast path cannot hide from the campaign.
  OracleOptions opts;
  opts.inject_lru_bug = true;
  opts.billing_only = true;
  bool caught = false;
  for (u64 seed = 1; seed <= 40 && !caught; ++seed) {
    const OracleVerdict v = check_case(generate(seed), opts);
    if (!v.ok) {
      caught = true;
      EXPECT_NE(v.divergence.find("no-memo"), std::string::npos)
          << v.divergence;
    }
  }
  EXPECT_TRUE(caught) << "no seed in 1..40 tripped the injected LRU bug";
}

TEST(FuzzOracle, CleanRunsPassWithBugInjectorDisarmed) {
  // Control for the test above: the same seeds with the injector off.
  OracleOptions opts;
  opts.billing_only = true;
  for (u64 seed : {1, 2, 3, 4, 5, 6, 7, 8}) {
    const OracleVerdict v = check_case(generate(seed), opts);
    EXPECT_TRUE(v.ok) << "seed " << seed << ": " << v.divergence;
  }
}

// make_case_kernel leaves the core count to KernelConfig's default, the
// SM_CORES environment variable; this pins it for one test.
class ScopedCores {
 public:
  explicit ScopedCores(const char* n) {
    if (const char* v = std::getenv("SM_CORES")) saved_ = v;
    setenv("SM_CORES", n, 1);
  }
  ~ScopedCores() {
    if (saved_) {
      setenv("SM_CORES", saved_->c_str(), 1);
    } else {
      unsetenv("SM_CORES");
    }
  }

 private:
  std::optional<std::string> saved_;
};

TEST(FuzzOracle, OffLegsSwitchTheirFastPathOffOnEveryCore) {
  // Four processes looping over loads and stores: at 4 cores they run on
  // every core, so a toggle applied to the active core only leaves hits
  // on the others.
  FuzzCase c;
  c.body = R"(_start:
    movi r0, SYS_FORK
    syscall
    movi r0, SYS_FORK
    syscall
    movi r4, buf
    movi r6, 300
loop:
    store [r4], r6
    load r5, [r4]
    addi r6, -1
    cmpi r6, 0
    jnz loop
    movi r1, 0
    movi r0, SYS_EXIT
    syscall
.bss
buf: .space 64
)";
  ScopedCores cores("4");
  const auto probe = make_case_kernel(c, billing_configs().front());
  ASSERT_EQ(probe->num_cores(), 4u);
  for (const OracleConfig& cfg : billing_configs()) {
    const metrics::Stats s = run_case(c, cfg).stats;
    if (cfg.data_memo) {
      EXPECT_GT(s.data_fastpath_hits, 0u) << cfg.label;
    } else {
      EXPECT_EQ(s.data_fastpath_hits, 0u) << cfg.label;
    }
    if (cfg.decode_cache) {
      EXPECT_GT(s.decode_cache_hits, 0u) << cfg.label;
    } else {
      EXPECT_EQ(s.decode_cache_hits, 0u) << cfg.label;
    }
    if (cfg.dbt && probe->cpu().block_engine_enabled()) {
      EXPECT_GT(s.block_cache_hits, 0u) << cfg.label;
    } else {
      EXPECT_EQ(s.block_cache_hits, 0u) << cfg.label;
    }
  }
}

TEST(FuzzCorpus, FileRoundTripPreservesCase) {
  const FuzzCase c = generate(21);
  const FuzzCase back = from_corpus_file(to_corpus_file(c));
  EXPECT_EQ(back.seed, c.seed);
  EXPECT_EQ(back.mixed_text, c.mixed_text);
  EXPECT_EQ(back.body, c.body);
}

TEST(FuzzCorpus, SaveAndLoadDirectory) {
  const std::string dir =
      ::testing::TempDir() + "/fuzz_corpus_roundtrip";
  const FuzzCase a = generate(31);
  const FuzzCase b = generate(32);
  ASSERT_NE(save_case(dir, "b_second", b), "");
  ASSERT_NE(save_case(dir, "a_first", a), "");
  const auto entries = load_corpus(dir);
  ASSERT_EQ(entries.size(), 2u);
  // Sorted by filename, not write order: replay order is deterministic.
  EXPECT_EQ(entries[0].name, "a_first.sm");
  EXPECT_EQ(entries[0].c.body, a.body);
  EXPECT_EQ(entries[1].c.body, b.body);
}

}  // namespace
}  // namespace sm::fuzz
