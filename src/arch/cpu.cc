#include "arch/cpu.h"

namespace sm::arch {

namespace {

// kSyscall is the one trap an instruction raises by completing. Every other
// trap fetch_decode() or execute() returns is a fault: neither writes a
// register before it returns one, so the instruction leaves the registers
// as they were and retires nothing.
bool is_fault(const std::optional<Trap>& t) {
  return t && t->kind != TrapKind::kSyscall;
}

}  // namespace

std::optional<Trap> Cpu::fetch_decode(Decoded& d) {
  // One real translation for the first byte: bills the I-TLB hit/miss (and
  // any walk or fault) exactly as the byte-at-a-time path's first fetch
  // would, and yields the physical key for the decode cache.
  u64 pa = 0;
  if (const MemFault f = mmu_->translate(regs_.pc, Access::kFetch, pa)) {
    return Trap::page_fault(*f);
  }
  return fetch_decode_at(pa, d);
}

std::optional<Trap> Cpu::fetch_decode_at(u64 pa, Decoded& out) {
  const u32 pc = regs_.pc;
  PhysicalMemory& pm = mmu_->phys();
  const u64 gen = pm.generation(static_cast<u32>(pa >> kPageShift));

  DecodeCache::Entry* slot = dcache_enabled_ ? &dcache_.slot(pa) : nullptr;
  if (slot != nullptr && slot->pa == pa) {
    if (slot->gen == gen) {
      // Hit. Only non-straddling instructions are cached, so in the slow
      // path bytes 1..len-1 would have been guaranteed I-TLB hits on the
      // very entry byte 0 just used (inserted on its miss, or already
      // present). Bill those hits wholesale; the LRU outcome is identical
      // because consecutive touches of one entry collapse.
      ++stats_->decode_cache_hits;
      const u32 extra = slot->d.len - 1;
      stats_->itlb_hits += extra;
      stats_->cycles += extra * cost_->tlb_hit;
      mmu_->itlb().touch_last(extra);
      SM_TRACE(trace_,
               charge(trace::Category::kTlbHit, extra * cost_->tlb_hit, pc));
      out = slot->d;
      return std::nullopt;
    }
    // Same physical location, stale frame generation: the code frame was
    // rewritten (self-modifying code, exec, forensic injection, frame
    // reuse) — re-decode from the current bytes.
    ++stats_->decode_cache_invalidations;
  }
  if (slot != nullptr) ++stats_->decode_cache_misses;

  const u8 opcode = pm.read8(pa);
  const u32 len = instr_length(opcode);
  if (len == 0) return Trap::invalid_opcode(opcode);
  u8 bytes[kMaxInstrLength] = {opcode};
  for (u32 i = 1; i < len; ++i) {
    if (const MemFault f = mmu_->fetch8(pc + i, bytes[i])) {
      return Trap::page_fault(*f);
    }
  }
  Decoded d;
  decode(bytes, d);
  // A register operand outside r0-r7 is a #GP. decode() leaves the slots
  // a form does not have at 0, so one check serves every form.
  if (d.ra >= kNumRegs || d.rb >= kNumRegs) {
    return Trap::simple(TrapKind::kGeneralProtection);
  }
  // Memoize fully validated decodes whose bytes live in one frame; a
  // straddling tail sits in a second frame the entry's generation key
  // cannot cover, so those always take the slow path above.
  if (slot != nullptr && page_offset(pc) + len <= kPageSize) {
    slot->pa = pa;
    slot->gen = gen;
    slot->d = d;
  }
  out = d;
  return std::nullopt;
}

MemFault Cpu::push(u32 v) {
  const u32 nsp = regs_.sp() - 4;
  if (MemFault f = mmu_->write32(nsp, v)) return f;
  regs_.sp() = nsp;
  return std::nullopt;
}

MemFault Cpu::pop(u32& v) {
  if (MemFault f = mmu_->read32(regs_.sp(), v)) return f;
  regs_.sp() += 4;
  return std::nullopt;
}

std::optional<Trap> Cpu::step() {
  const bool tf_at_start = regs_.tf();
  stats_->cycles += cost_->cycles_per_instr;
  // Deliberately not mirrored to the trace profiler: a per-step mirror
  // would put a trace branch on the hottest path in the simulator.
  // TraceSink::summary() reconciles these cycles as the exec residual.
  Decoded d;
  std::optional<Trap> trap = fetch_decode(d);
  if (!trap) trap = execute(d);
  if (is_fault(trap)) return trap;  // registers untouched: restartable
  ++stats_->instructions;
  if (trap) return trap;  // kSyscall: pc already advanced
  if (tf_at_start) {
    ++stats_->single_steps;
    return Trap::simple(TrapKind::kDebugStep);
  }
  return std::nullopt;
}

Cpu::BlockStep Cpu::step_block(u64 max_attempts, u64 cycle_stop) {
  // Chained dispatch: blocks run back to back until the budget is spent
  // or a trap ends the chain. Chaining is observationally identical to
  // the caller invoking step_block once per block — between two chained
  // blocks no trap was raised, so nothing (TF, pending syscall retry,
  // injected faults — all excluded by the caller before choosing the
  // block path) could have diverted control — and it amortizes the
  // per-dispatch overhead the same way the kernel's slice-sized budgets
  // expect. A cycle bound clips the chain (and the blocks inside it) at
  // instruction granularity, exactly where the step() loop would stop.
  BlockStep out;
  while (out.attempts < max_attempts &&
         !(cycle_stop != 0 && stats_->cycles >= cycle_stop)) {
    // The entry instruction's issue cycle and byte-0 translation, billed
    // exactly as step() -> fetch_decode() would bill them. The
    // translation also yields the physical key for the block-cache probe.
    stats_->cycles += cost_->cycles_per_instr;
    u64 pa = 0;
    if (const MemFault f = mmu_->translate(regs_.pc, Access::kFetch, pa)) {
      // translate() mutates no architectural state: report the fetch
      // fault as one attempted instruction.
      ++out.attempts;
      out.trap = Trap::page_fault(*f);
      return out;
    }
    const u64 gen =
        mmu_->phys().generation(static_cast<u32>(pa >> kPageShift));
    BlockCache::Block& b = bcache_.slot(pa);
    BlockStep bs;
    if (b.pa == pa && b.gen == gen) {
      ++stats_->block_cache_hits;
      bs = run_block(b, max_attempts - out.attempts, cycle_stop);
    } else {
      if (b.pa == pa) {
        // The entry frame was rewritten since the block was recorded
        // (SMC, exec, frame reuse): every decode in it is suspect.
        ++stats_->block_cache_invalidations;
      }
      ++stats_->block_cache_misses;
      bs = record_block(b, pa, gen, max_attempts - out.attempts, cycle_stop);
    }
    out.attempts += bs.attempts;
    if (bs.trap) {
      out.trap = bs.trap;
      return out;
    }
  }
  return out;
}

// flatten: inline the whole execute() switch (and the billing helpers)
// into the block runner's loop — this is the simulator's hottest path and
// the out-of-line dispatch call is measurable against the ~8 ns/instr
// budget the 3x target implies.
[[gnu::flatten]] Cpu::BlockStep Cpu::run_block(BlockCache::Block& b,
                                               u64 budget, u64 cycle_stop) {
  // Billing, wholesale but bit-identical to the per-instruction engine.
  // Entry instruction: issue cycle and byte 0 already billed by
  // step_block; add bytes 1..len-1 as the guaranteed I-TLB hits they are
  // (the decode-cache hit path's argument: byte 0's entry serves them).
  // Later instructions: byte 0 is a guaranteed hit too — the entry fetch
  // loaded the code page's I-TLB entry and nothing inside a block can
  // evict it — so bill the issue cycle plus len hits. Byte 0's tlb_hit
  // cycles stay unmirrored to the trace profiler exactly like step()'s
  // translate (reconciled as exec residual); the extras are charged to
  // kTlbHit as the decode-cache hit path charges them. Deferred counters
  // (instructions, itlb_hits) are flushed at every exit; cycles are billed
  // before each execute() so any trace event it emits sees the same clock
  // the per-instruction engine would have stamped.
  BlockStep out;
  PhysicalMemory& pm = mmu_->phys();
  u64 retired = 0;  // deferred stats_->instructions / block_instructions
  u64 hits = 0;     // deferred stats_->itlb_hits
  const auto flush = [&] {
    stats_->instructions += retired;
    stats_->block_instructions += retired;
    stats_->itlb_hits += hits;
    // Match the slow path's LRU clock tick-per-hit; all hits are on the
    // block's own code-page entry, and nothing inside the block touches
    // the I-TLB, so one wholesale advance at exit is exact.
    mmu_->itlb().touch_last(hits);
  };
  // i == 0 is exempt from the cycle bound: step_block already billed its
  // issue cycle (the caller's bound check happened before that), so the
  // per-instruction engine would have executed it too.
  for (u32 i = 0; i < b.count && out.attempts < budget &&
                  !(i > 0 && cycle_stop != 0 && stats_->cycles >= cycle_stop);
       ++i) {
    ++out.attempts;
    const u32 pc = regs_.pc;
    const Decoded& d = b.instr[i];
    if (i == 0) {
      hits += d.len - 1;
      stats_->cycles += (d.len - 1) * cost_->tlb_hit;
    } else {
      hits += d.len;
      stats_->cycles += cost_->cycles_per_instr + d.len * cost_->tlb_hit;
    }
    SM_TRACE(trace_, charge(trace::Category::kTlbHit,
                            (d.len - 1) * cost_->tlb_hit, pc));
    const std::optional<Trap> trap = execute(d);
    if (trap) {
      // A fault left the registers untouched (per-instruction restart);
      // kSyscall retired with pc advanced, and the kernel services it.
      if (!is_fault(trap)) ++retired;
      out.trap = trap;
      break;
    }
    ++retired;
    // Same-page SMC guard: a store that reached this block's own code
    // frame makes the remaining decodes stale. Kill the block and exit;
    // the next entry probe re-records from the current bytes — which is
    // exactly where the per-instruction engine's decode-cache generation
    // check would have picked up.
    if (i + 1 < b.count && op_info(d.op).may_store &&
        pm.generation(b.pfn) != b.gen) {
      ++stats_->block_cache_invalidations;
      SM_TRACE(trace_,
               record(trace::EventKind::kBlockInvalidate, regs_.pc, b.pfn));
      b.pa = BlockCache::kInvalidPa;
      break;
    }
  }
  flush();
  return out;
}

Cpu::BlockStep Cpu::record_block(BlockCache::Block& b, u64 entry_pa,
                                 u64 entry_gen, u64 budget, u64 cycle_stop) {
  // Record while executing: every instruction below runs through the
  // normal per-instruction machinery (exact billing, decode-cache
  // population, faults that leave the registers untouched), so a
  // recording pass is observationally identical to the interpreter — the
  // block is a pure byproduct.
  BlockStep out;
  PhysicalMemory& pm = mmu_->phys();
  const u32 entry_pfn = static_cast<u32>(entry_pa >> kPageShift);
  const u32 entry_vpn = vpn_of(regs_.pc);
  const u32 entry_pc = regs_.pc;
  Decoded recorded[BlockCache::kMaxInstructions];
  u32 count = 0;
  bool complete = false;

  while (out.attempts < budget &&
         !(out.attempts > 0 && cycle_stop != 0 &&
           stats_->cycles >= cycle_stop)) {
    ++out.attempts;
    const u32 pc = regs_.pc;
    Decoded d;
    std::optional<Trap> trap;
    if (out.attempts == 1) {
      // step_block already billed the issue cycle and translated pc.
      trap = fetch_decode_at(entry_pa, d);
    } else {
      stats_->cycles += cost_->cycles_per_instr;
      trap = fetch_decode(d);
    }
    if (!trap) trap = execute(d);
    if (is_fault(trap)) {
      out.trap = trap;
      // A faulting tail is not recorded: the kernel fixes the cause and
      // the retry re-records from whatever pc resumes at.
      return out;
    }
    ++stats_->instructions;
    // A straddling instruction's tail bytes live in a frame the entry
    // generation cannot cover — never record it; end the block before it.
    const bool straddles = page_offset(pc) + d.len > kPageSize;
    if (!straddles) recorded[count++] = d;
    if (trap) out.trap = trap;  // kSyscall completed; kernel services it
    if (trap || op_info(d.op).ends_block || straddles) {
      complete = true;
      break;
    }
    // A store that rewrote the entry frame: everything recorded so far is
    // keyed to a dead generation — abandon the recording.
    if (op_info(d.op).may_store && pm.generation(entry_pfn) != entry_gen) {
      break;
    }
    if (count == BlockCache::kMaxInstructions) {
      complete = true;
      break;
    }
    if (vpn_of(regs_.pc) != entry_vpn) {  // fell through the page edge
      complete = true;
      break;
    }
  }

  // Only complete blocks are worth caching; a budget-truncated prefix
  // would re-record longer on the next full-budget visit anyway.
  if (complete && count > 0) {
    b.pa = entry_pa;
    b.gen = entry_gen;
    b.pfn = entry_pfn;
    b.count = count;
    for (u32 i = 0; i < count; ++i) b.instr[i] = recorded[i];
    SM_TRACE(trace_, record(trace::EventKind::kBlockBuild, entry_pc, count));
  }
  return out;
}

std::optional<Trap> Cpu::execute(const Decoded& d) {
  Regs& R = regs_;
  u32* r = R.r;
  const u32 next = R.pc + d.len;
  auto set_cmp_flags = [&](u32 a, u32 b) {
    R.flags &= ~(kFlagZ | kFlagS | kFlagC);
    if (a == b) R.flags |= kFlagZ;
    if (static_cast<i32>(a) < static_cast<i32>(b)) R.flags |= kFlagS;
    if (a < b) R.flags |= kFlagC;
  };

  switch (d.op) {
    case Op::kMovi:
      r[d.ra] = d.imm;
      break;
    case Op::kMov:
      r[d.ra] = r[d.rb];
      break;
    case Op::kLoad: {
      u32 v = 0;
      if (const MemFault f = mmu_->read32(r[d.rb] + d.imm, v)) {
        return Trap::page_fault(*f);
      }
      r[d.ra] = v;
      break;
    }
    case Op::kStore:
      if (const MemFault f = mmu_->write32(r[d.ra] + d.imm, r[d.rb])) {
        return Trap::page_fault(*f);
      }
      break;
    case Op::kLoadb: {
      u8 v = 0;
      if (const MemFault f = mmu_->read8(r[d.rb] + d.imm, v)) {
        return Trap::page_fault(*f);
      }
      r[d.ra] = v;
      break;
    }
    case Op::kStoreb:
      if (const MemFault f =
              mmu_->write8(r[d.ra] + d.imm, static_cast<u8>(r[d.rb]))) {
        return Trap::page_fault(*f);
      }
      break;
    case Op::kAdd:
      r[d.ra] += r[d.rb];
      break;
    case Op::kSub:
      r[d.ra] -= r[d.rb];
      break;
    case Op::kMul:
      r[d.ra] *= r[d.rb];
      break;
    case Op::kDiv:
      if (r[d.rb] == 0) return Trap::simple(TrapKind::kDivideByZero);
      r[d.ra] /= r[d.rb];
      break;
    case Op::kModu:
      if (r[d.rb] == 0) return Trap::simple(TrapKind::kDivideByZero);
      r[d.ra] %= r[d.rb];
      break;
    case Op::kAnd:
      r[d.ra] &= r[d.rb];
      break;
    case Op::kOr:
      r[d.ra] |= r[d.rb];
      break;
    case Op::kXor:
      r[d.ra] ^= r[d.rb];
      break;
    case Op::kShl:
      r[d.ra] <<= (r[d.rb] & 31);
      break;
    case Op::kShr:
      r[d.ra] >>= (r[d.rb] & 31);
      break;
    case Op::kNot:
      r[d.ra] = ~r[d.ra];
      break;
    case Op::kAddi:
      r[d.ra] += d.imm;
      break;
    case Op::kCmp:
      set_cmp_flags(r[d.ra], r[d.rb]);
      break;
    case Op::kCmpi:
      set_cmp_flags(r[d.ra], d.imm);
      break;
    case Op::kJmp:
      R.pc = d.imm;
      return std::nullopt;
    case Op::kJz:
      R.pc = (R.flags & kFlagZ) ? d.imm : next;
      return std::nullopt;
    case Op::kJnz:
      R.pc = (R.flags & kFlagZ) ? next : d.imm;
      return std::nullopt;
    case Op::kJlt:
      R.pc = (R.flags & kFlagS) ? d.imm : next;
      return std::nullopt;
    case Op::kJge:
      R.pc = (R.flags & kFlagS) ? next : d.imm;
      return std::nullopt;
    case Op::kJb:
      R.pc = (R.flags & kFlagC) ? d.imm : next;
      return std::nullopt;
    case Op::kJae:
      R.pc = (R.flags & kFlagC) ? next : d.imm;
      return std::nullopt;
    case Op::kJmpr:
      R.pc = r[d.ra];
      return std::nullopt;
    case Op::kCall:
      if (const MemFault f = push(next)) return Trap::page_fault(*f);
      R.pc = d.imm;
      return std::nullopt;
    case Op::kCallr:
      if (const MemFault f = push(next)) return Trap::page_fault(*f);
      R.pc = r[d.ra];
      return std::nullopt;
    case Op::kRet: {
      u32 target = 0;
      if (const MemFault f = pop(target)) return Trap::page_fault(*f);
      R.pc = target;
      return std::nullopt;
    }
    case Op::kPush:
      if (const MemFault f = push(r[d.ra])) return Trap::page_fault(*f);
      break;
    case Op::kPop: {
      // Into a temporary first: `pop sp` must end with the popped value in
      // sp, not the value plus pop's increment.
      u32 v = 0;
      if (const MemFault f = pop(v)) return Trap::page_fault(*f);
      r[d.ra] = v;
      break;
    }
    case Op::kSyscall:
      R.pc = next;
      return Trap::simple(TrapKind::kSyscall);
    case Op::kNop:
      break;
  }
  R.pc = next;
  return std::nullopt;
}

}  // namespace sm::arch
