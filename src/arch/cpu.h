// The simulated CPU core.
//
// Cpu::step() executes exactly one user-mode instruction against the MMU.
// On success it returns std::nullopt (or a kSyscall/kDebugStep trap that
// the kernel must service); on a fault (page fault, #UD, #DE, #GP) it
// returns the trap with ALL architectural state unchanged, so the kernel
// can fix the cause and simply resume — the restart semantics Algorithm 1
// depends on ("return; /* restart the faulting instruction */"). Faults
// travel as return values from the MMU up: every function below that can
// raise one returns it before it writes a register, so there is nothing
// to roll back, and its caller passes it on.
//
// Trap-flag semantics follow x86: if TF is set when an instruction begins
// and the instruction completes (does not fault), a kDebugStep trap is
// reported after it. A syscall that completes under TF reports kSyscall;
// the kernel checks TF itself afterwards (see kernel/kernel.cc).
#pragma once

#include <optional>

#include "arch/block_cache.h"
#include "arch/decode_cache.h"
#include "arch/isa.h"
#include "arch/mmu.h"
#include "arch/trap.h"
#include "arch/types.h"
#include "metrics/cost_model.h"
#include "metrics/stats.h"

namespace sm::arch {

struct Regs {
  u32 r[kNumRegs] = {};
  u32 pc = 0;
  u32 flags = 0;

  u32& sp() { return r[kRegSp]; }
  u32& fp() { return r[kRegFp]; }
  bool tf() const { return flags & kFlagTrap; }
  void set_tf(bool on) {
    if (on) {
      flags |= kFlagTrap;
    } else {
      flags &= ~kFlagTrap;
    }
  }
};

class Cpu {
 public:
  Cpu(Mmu& mmu, metrics::Stats& stats, const metrics::CostModel& cost)
      : mmu_(&mmu), stats_(&stats), cost_(&cost) {}

  Regs& regs() { return regs_; }
  const Regs& regs() const { return regs_; }

  // Executes one instruction. See the file comment for the contract.
  std::optional<Trap> step();

  // Result of a basic-block execution attempt: how many instruction
  // attempts it consumed (successes plus at most one trailing fault — the
  // count the kernel's step budget and timeslice advance by, exactly as if
  // step() had been called that many times) and the trap that ended it, if
  // any. attempts >= 1 always, except when a cycle bound was already
  // reached on entry (then 0, and the caller's own bound check ends its
  // dispatch loop).
  struct BlockStep {
    u64 attempts = 0;
    std::optional<Trap> trap;
  };

  // Executes up to max_attempts (>= 1) instructions through the basic-
  // block engine: probe the block cache at the current PC's physical
  // address, run the cached block if its guards pass, otherwise record a
  // new block by executing per-instruction. Each executed instruction
  // keeps step()'s exact contract (billing, registers untouched by a
  // fault, restart semantics); the caller must NOT use this while the trap
  // flag is set —
  // TF windows are per-instruction by definition and take the step() path.
  // A non-zero cycle_stop additionally ends the dispatch at the first
  // instruction boundary where the billed cycle clock has reached it —
  // the same boundary a per-instruction caller checking the clock between
  // step() calls would stop at, which is what keeps the billing-identity
  // contract alive for cycle-bounded runs (Kernel::run's cycle_stop).
  BlockStep step_block(u64 max_attempts, u64 cycle_stop = 0);

  // The physically-keyed decoded-instruction cache (test/bench access).
  DecodeCache& decode_cache() { return dcache_; }

  // The basic-block cache layered above it (test/bench access).
  BlockCache& block_cache() { return bcache_; }

  // Host-side shortcut toggle, mirroring Mmu::set_data_memo_enabled: off
  // forces every fetch down the byte-at-a-time decode path, which the
  // billing-identity contract says must produce identical simulated stats.
  // The differential-fuzz oracle flips this to prove it on random programs.
  void set_decode_cache_enabled(bool on) { dcache_enabled_ = on; }
  bool decode_cache_enabled() const { return dcache_enabled_; }

  // Host-side block-engine toggle, same contract one level up: off forces
  // the kernel loop down the per-instruction step() path and must change
  // no simulated stat. The fuzz oracle's /no-dbt leg flips this.
  void set_block_engine_enabled(bool on) { block_enabled_ = on; }
  bool block_engine_enabled() const { return block_enabled_; }

  // Observability (src/trace): null unless the kernel enabled tracing.
  void set_trace(trace::TraceSink* sink) { trace_ = sink; }

 private:
  friend struct sm::snapshot::Access;

  // Fetches the instruction bytes at pc through the I-TLB path, consulting
  // the decode cache first, into `d`. Simulated costs are billed
  // identically on hit and miss. Returns a fetch page fault, #UD or #GP.
  [[nodiscard]] std::optional<Trap> fetch_decode(Decoded& d);
  // The tail of fetch_decode() once the entry byte's translation is known:
  // decode-cache probe, byte-at-a-time decode, validation, memoization.
  [[nodiscard]] std::optional<Trap> fetch_decode_at(u64 pa, Decoded& d);
  // Executes a decoded instruction. Returns kSyscall for an instruction
  // that completed, or the fault (page fault, #DE) that stopped it before
  // it changed any register.
  [[nodiscard]] std::optional<Trap> execute(const Decoded& d);

  BlockStep run_block(BlockCache::Block& b, u64 budget, u64 cycle_stop);
  BlockStep record_block(BlockCache::Block& b, u64 entry_pa, u64 entry_gen,
                         u64 budget, u64 cycle_stop);

  [[nodiscard]] MemFault pop(u32& v);
  [[nodiscard]] MemFault push(u32 v);

  Mmu* mmu_;
  metrics::Stats* stats_;
  const metrics::CostModel* cost_;
  trace::TraceSink* trace_ = nullptr;
  Regs regs_;
  DecodeCache dcache_;
  BlockCache bcache_;
  bool dcache_enabled_ = true;
  bool block_enabled_ = true;
};

}  // namespace sm::arch
