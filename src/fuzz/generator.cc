#include "fuzz/generator.h"

#include <sstream>

#include "fuzz/rng.h"

namespace sm::fuzz {

using arch::Op;

namespace {

std::string hex(u32 v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%x", v);
  return buf;
}

// The emitted program keeps its checksum in r5 (the one register no
// syscall clobbers and no action may use as scratch); actions fold their
// observable results into it so a divergence anywhere surfaces in the
// exit code even if memory/trace comparison were ever weakened.
constexpr const char* kSum = "r5";

// Weighted pick from a subset of the opcode table.
Op pick_op(Rng& rng, const std::vector<Op>& subset) {
  const auto& w = opcode_weights();
  u32 total = 0;
  for (Op op : subset) total += w.at(op);
  u32 roll = rng.below(total);
  for (Op op : subset) {
    const u32 weight = w.at(op);
    if (roll < weight) return op;
    roll -= weight;
  }
  return subset.front();
}

class Emitter {
 public:
  Emitter(Rng& rng, bool mixed_text, const GenOptions& opts)
      : rng_(rng), mixed_(mixed_text), opts_(opts) {}

  std::string build();

 private:
  void line(const std::string& s) { out_ << "    " << s << "\n"; }
  void label(const std::string& s) { out_ << s << ":\n"; }
  void raw(const std::string& s) { out_ << s << "\n"; }

  // Fold a register's value into the checksum.
  void fold(const std::string& reg) { line("add r5, " + reg); }

  std::string lbl(const char* stem) {
    return std::string("fz_") + stem + std::to_string(k_) + "_" +
           std::to_string(serial_++);
  }

  // --- action emitters (each self-contained: see generator.h) -----------
  void act_alu();
  void act_jcc();
  void act_loop();
  void act_mem();
  void act_stack();
  void act_call();
  void act_write();
  void act_misc();
  void act_fork();
  void act_mmap();
  void act_tlb_pressure();
  void act_text_store();
  void act_lethal();

  // A page-straddling fetch site: align to a page boundary, pad so the
  // next instruction's first byte sits a few bytes before the next
  // boundary, and jump over the pad. Every action starts with a 6-byte
  // movi, so the padded instruction is guaranteed to cross pages.
  void maybe_straddle_gadget() {
    if (!rng_.chance(25)) return;
    const std::string l = lbl("sg");
    line("jmp " + l);
    raw("    .align 4096");
    raw("    .space " + std::to_string(rng_.range(4091, 4095)) + ", 0x90");
    label(l);
  }

  Rng& rng_;
  bool mixed_;
  GenOptions opts_;
  std::ostringstream out_;
  u32 k_ = 0;       // current action index
  u32 serial_ = 0;  // unique-label counter
};

void Emitter::act_alu() {
  line("movi r0, " + hex(static_cast<u32>(rng_.next())));
  line("movi r1, " + hex(static_cast<u32>(rng_.next())));
  line("movi r2, " + std::to_string(rng_.range(1, 97)));
  static const std::vector<Op> kAluOps = {
      Op::kAdd, Op::kSub, Op::kMul, Op::kDiv,  Op::kAnd, Op::kOr,
      Op::kXor, Op::kShl, Op::kShr, Op::kModu, Op::kCmp, Op::kMov};
  const u32 n = rng_.range(3, 7);
  for (u32 i = 0; i < n; ++i) {
    const Op op = pick_op(rng_, kAluOps);
    const std::string ra = "r" + std::to_string(rng_.below(2));  // r0/r1
    if (op == Op::kDiv || op == Op::kModu) {
      // r2 is re-seeded nonzero right before each division so no value
      // flow can make the divisor zero.
      line("movi r2, " + std::to_string(rng_.range(1, 97)));
      line(std::string(arch::op_info(op).mnemonic) + " " + ra + ", r2");
    } else if (rng_.chance(15)) {
      line("not " + ra);
    } else if (rng_.chance(15)) {
      line("addi " + ra + ", " + hex(static_cast<u32>(rng_.next())));
    } else {
      const std::string rb = "r" + std::to_string(rng_.below(3));
      line(std::string(arch::op_info(op).mnemonic) + " " + ra + ", " + rb);
    }
  }
  if (rng_.chance(30)) line("nop");
  fold("r0");
}

void Emitter::act_jcc() {
  static const std::vector<Op> kJccOps = {Op::kJz, Op::kJnz, Op::kJlt,
                                          Op::kJge, Op::kJb, Op::kJae};
  const u32 n = rng_.range(1, 3);
  for (u32 i = 0; i < n; ++i) {
    const Op cc = pick_op(rng_, kJccOps);
    const std::string skip = lbl("skip");
    line("movi r0, " + hex(static_cast<u32>(rng_.next())));
    if (rng_.chance(50)) {
      line("movi r1, " + hex(static_cast<u32>(rng_.next())));
      line("cmp r0, r1");
    } else {
      line("cmpi r0, " + hex(static_cast<u32>(rng_.next())));
    }
    line(std::string(arch::op_info(cc).mnemonic) + " " + skip);
    line("movi r2, " + std::to_string(rng_.range(1, 999)));
    fold("r2");
    label(skip);
    line("movi r2, 1");
    fold("r2");
  }
}

void Emitter::act_loop() {
  const std::string top = lbl("loop");
  line("movi r0, 0");
  line("movi r1, " + std::to_string(rng_.range(2, 12)));
  label(top);
  line("addi r0, " + std::to_string(rng_.range(1, 5000)));
  line("movi r2, 1");
  line("sub r1, r2");
  line("cmpi r1, 0");
  line("jnz " + top);
  fold("r0");
}

void Emitter::act_mem() {
  // Word and byte traffic against the bss buffer, biased to offsets a few
  // bytes either side of page boundaries so word accesses straddle.
  line("movi r0, fz_buf");
  const u32 n = rng_.range(1, 3);
  for (u32 i = 0; i < n; ++i) {
    const u32 page = rng_.range(1, 3) * 4096;
    const u32 delta = rng_.range(0, 7);
    const u32 off = page - 4 + delta;  // word at off straddles for delta 1..3
    line("movi r1, " + hex(static_cast<u32>(rng_.next())));
    line("store [r0+" + std::to_string(off) + "], r1");
    line("load r2, [r0+" + std::to_string(off) + "]");
    fold("r2");
    if (rng_.chance(60)) {
      const u32 boff = rng_.below(16000);
      line("movi r1, " + std::to_string(rng_.below(256)));
      line("storeb [r0+" + std::to_string(boff) + "], r1");
      line("loadb r2, [r0+" + std::to_string(boff) + "]");
      fold("r2");
    }
  }
}

void Emitter::act_stack() {
  if (rng_.chance(50)) {
    // Balanced push/pop ladder at the current stack position.
    const u32 depth = rng_.range(2, 5);
    for (u32 i = 0; i < depth; ++i) {
      line("movi r" + std::to_string(i % 3) + ", " +
           hex(static_cast<u32>(rng_.next())));
      line("push r" + std::to_string(i % 3));
    }
    for (u32 i = depth; i-- > 0;) line("pop r" + std::to_string(i % 3));
    fold("r0");
    return;
  }
  // Relocate sp so the next push's 4-byte write straddles a page boundary
  // deep in the stack VMA (demand-faulting fresh stack pages on the way).
  const u32 page = 0xBFFC1000 + rng_.below(60) * 4096;
  const u32 sp = page + rng_.range(1, 3);
  line("mov r4, sp");
  line("movi sp, " + hex(sp));
  line("movi r0, " + hex(static_cast<u32>(rng_.next())));
  line("push r0");
  line("pop r1");
  line("mov sp, r4");
  fold("r1");
}

void Emitter::act_call() {
  const std::string fn = lbl("fn");
  const std::string over = lbl("over");
  line("jmp " + over);
  label(fn);
  line("push r1");
  line("movi r1, " + std::to_string(rng_.range(1, 4000)));
  fold("r1");
  line("pop r1");
  line("ret");
  label(over);
  line("call " + fn);
  if (rng_.chance(60)) {
    line("movi r4, " + fn);
    line("callr r4");
  }
  if (rng_.chance(40)) {
    const std::string next = lbl("next");
    line("movi r4, " + next);
    line("jmpr r4");
    label(next);
  }
}

void Emitter::act_write() {
  const std::string msg = lbl("msg");
  static const char kChars[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string text;
  const u32 len = rng_.range(4, 12);
  for (u32 i = 0; i < len; ++i) text += kChars[rng_.below(36)];
  raw("    .data");
  label(msg);
  raw("    .ascii \"" + text + "\\n\"");
  raw("    .text");
  line("movi r0, SYS_WRITE");
  line("movi r1, 1");
  line("movi r2, " + msg);
  line("movi r3, " + std::to_string(text.size() + 1));
  line("syscall");
  fold("r0");
}

void Emitter::act_misc() {
  switch (rng_.below(5)) {
    case 0:
      line("movi r0, SYS_GETPID");
      line("syscall");
      fold("r0");
      return;
    case 1:
      // Kernel xorshift32 PRNG: deterministic because every engine issues
      // the same syscall sequence in the same order.
      line("movi r0, SYS_RAND");
      line("syscall");
      fold("r0");
      return;
    case 2: {
      // Grow the heap and write a word straddling the old break's page.
      line("movi r0, SYS_BRK");
      line("movi r1, 0");
      line("syscall");
      line("mov r2, r0");
      line("movi r0, SYS_BRK");
      line("mov r1, r2");
      line("addi r1, " + hex(0x2000));
      line("syscall");
      line("movi r1, " + hex(static_cast<u32>(rng_.next())));
      line("store [r2+4094], r1");
      line("load r3, [r2+4094]");
      fold("r3");
      return;
    }
    case 3: {
      // pipe(): write 4 bytes in, read them back; never blocks.
      line("movi r0, SYS_PIPE");
      line("movi r1, fz_buf+8192");
      line("syscall");
      line("movi r4, fz_buf+8192");
      line("load r1, [r4+4]");
      line("movi r0, SYS_WRITE");
      line("movi r2, fz_buf");
      line("movi r3, 4");
      line("syscall");
      line("load r1, [r4+0]");
      line("movi r0, SYS_READ");
      line("movi r2, fz_buf+8256");
      line("movi r3, 4");
      line("syscall");
      fold("r0");
      return;
    }
    default: {
      // File round-trip through the simulated fs.
      const std::string path = lbl("path");
      raw("    .data");
      label(path);
      raw("    .asciz \"f" + std::to_string(k_) + "\"");
      raw("    .text");
      line("movi r0, SYS_OPEN");
      line("movi r1, " + path);
      line("movi r2, 1");
      line("syscall");
      line("mov r4, r0");
      line("movi r0, SYS_WRITE");
      line("mov r1, r4");
      line("movi r2, fz_buf");
      line("movi r3, 8");
      line("syscall");
      fold("r0");
      line("movi r0, SYS_CLOSE");
      line("mov r1, r4");
      line("syscall");
      return;
    }
  }
}

void Emitter::act_fork() {
  const std::string child = lbl("child");
  const std::string join = lbl("join");
  const u32 parent_off = rng_.below(3000) & ~3u;
  const u32 child_off = rng_.below(3000) & ~3u;
  line("movi r0, SYS_FORK");
  line("syscall");
  line("cmpi r0, 0");
  line("jz " + child);
  // Parent: a COW write, then reap the child and fold its exit code.
  line("mov r4, r0");
  line("movi r2, fz_buf");
  line("movi r1, " + hex(static_cast<u32>(rng_.next())));
  line("store [r2+" + std::to_string(parent_off) + "], r1");
  line("movi r0, SYS_WAITPID");
  line("mov r1, r4");
  line("syscall");
  fold("r0");
  line("jmp " + join);
  label(child);
  // Child: its own COW write (diverging the copies), then exit. No
  // SYS_RAND / file / console traffic here — the parent/child interleave
  // is engine-dependent in fault count even though retired behaviour is
  // not, so the child must not race the parent for shared kernel state.
  line("movi r2, fz_buf");
  line("movi r1, " + hex(static_cast<u32>(rng_.next())));
  line("store [r2+" + std::to_string(child_off) + "], r1");
  line("movi r0, SYS_EXIT");
  line("movi r1, " + std::to_string(rng_.below(200)));
  line("syscall");
  label(join);
}

void Emitter::act_mmap() {
  line("movi r0, SYS_MMAP");
  line("movi r1, 0");
  line("movi r2, 8192");
  line("movi r3, 3");
  line("syscall");
  line("mov r4, r0");
  line("movi r1, " + hex(static_cast<u32>(rng_.next())));
  line("store [r4+4094], r1");  // straddles the mapping's two pages
  line("load r3, [r4+4094]");
  fold("r3");
  if (rng_.chance(50)) {
    line("movi r0, SYS_MPROTECT");
    line("mov r1, r4");
    line("movi r2, 4096");
    line("movi r3, 1");
    line("syscall");
    fold("r0");
    line("load r3, [r4+8]");  // read-only is still readable
    fold("r3");
  } else {
    line("movi r0, SYS_MUNMAP");
    line("mov r1, r4");
    line("movi r2, 8192");
    line("syscall");
    fold("r0");
  }
}

void Emitter::act_tlb_pressure() {
  // D-TLB set-pressure dance over five bss pages 64 KiB apart (same
  // 4-way set in the 64-entry TLB). The shape is chosen so the LRU stamp
  // applied by a data-memo hit decides which entry the final fill
  // evicts: re-stamp X (correct) and the closing load of X hits; skip
  // the re-stamp (the --inject-lru-bug fault) and X is the victim — a
  // dtlb_hits/misses/cycles divergence between memo-on and memo-off.
  line("movi r0, fz_set");
  line("movi r1, fz_set+0x10000");
  line("load r2, [r1+0]");   // insert Z
  line("load r2, [r0+0]");   // insert X
  line("load r3, [r0+4]");   // X set-scan hit: arms the read memo
  line("store [r1+4], r2");  // Z write hit: re-stamps Z, no version bump
  line("load r3, [r0+8]");   // X read-memo hit: the contested LRU touch
  line("movi r1, fz_set+0x20000");
  line("load r4, [r1+0]");
  line("movi r1, fz_set+0x30000");
  line("load r4, [r1+0]");
  line("movi r1, fz_set+0x40000");
  line("load r4, [r1+0]");   // set overflows: LRU victim is Z or X
  line("load r3, [r0+12]");  // X: hit iff the memo touch happened
  fold("r3");
}

void Emitter::act_text_store() {
  // Dead stores into a text-section scratch pad that control flow never
  // reaches. Only emitted for mixed (writable+executable) text — the
  // layout NX cannot protect — so every engine permits the write. The
  // pad shares a page with live code: under NoProtection this bumps the
  // frame generation and invalidates decode-cache entries; under split
  // engines the store lands in the data frame and the code frame is
  // untouched. Both re-decode/route to the same architectural result.
  line("movi r0, fz_scratch");
  line("movi r1, " + hex(static_cast<u32>(rng_.next())));
  const u32 off = rng_.below(23) * 4;
  line("store [r0+" + std::to_string(off) + "], r1");
  line("load r2, [r0+" + std::to_string(off) + "]");
  fold("r2");
  if (rng_.chance(50)) {
    line("movi r1, " + std::to_string(rng_.below(256)));
    line("storeb [r0+" + std::to_string(rng_.below(92)) + "], r1");
  }
}

void Emitter::act_lethal() {
  switch (rng_.below(3)) {
    case 0:
      // Wild store into unmapped low memory: SIGSEGV under every engine.
      line("movi r0, 16");
      line("movi r1, 7");
      line("store [r0+0], r1");
      return;
    case 1:
      line("movi r0, 5");
      line("movi r1, 0");
      line("div r0, r1");  // #DE
      return;
    default:
      // An embedded invalid opcode: #UD. Under split memory both frames
      // of the text page hold the same byte, so the engine classifies it
      // as the program's own bug (no detection) — identical to baseline.
      raw("    .byte 0x00");
      return;
  }
}

std::string Emitter::build() {
  // Prologue: entry, optional page-straddling first instruction, zeroed
  // checksum.
  label("_start");
  if (rng_.chance(40)) {
    line("jmp fz_entry");
    // _start is at the text base; jmp is 5 bytes. Pad so fz_entry's
    // 6-byte movi starts 1..5 bytes before the first page boundary.
    raw("    .space " + std::to_string(rng_.range(4086, 4090)) + ", 0x90");
    label("fz_entry");
  }
  line("movi r5, 0");

  struct Choice {
    void (Emitter::*fn)();
    u32 weight;
  };
  const std::vector<Choice> menu = {
      {&Emitter::act_alu, 14},      {&Emitter::act_jcc, 10},
      {&Emitter::act_loop, 8},      {&Emitter::act_mem, 14},
      {&Emitter::act_stack, 10},    {&Emitter::act_call, 8},
      {&Emitter::act_write, 8},     {&Emitter::act_misc, 10},
      {&Emitter::act_fork, 7},      {&Emitter::act_mmap, 7},
      {&Emitter::act_tlb_pressure, 7},
      {&Emitter::act_text_store, mixed_ ? 6u : 0u},
  };
  u32 total = 0;
  for (const Choice& c : menu) total += c.weight;

  const u32 n = rng_.range(opts_.min_actions, opts_.max_actions);
  const bool lethal_tail = opts_.allow_lethal && rng_.chance(6);
  for (u32 i = 0; i < n; ++i) {
    k_ = i;
    raw(kActionMarker + std::to_string(i));
    maybe_straddle_gadget();
    u32 roll = rng_.below(total);
    for (const Choice& c : menu) {
      if (roll < c.weight) {
        (this->*c.fn)();
        break;
      }
      roll -= c.weight;
    }
  }
  if (lethal_tail) {
    k_ = n;
    raw(kActionMarker + std::to_string(n));
    act_lethal();
  }

  raw(kEndMarker);
  label("fz_exit");
  line("mov r1, r5");
  line("movi r0, SYS_EXIT");
  line("syscall");
  // Writable-text scratch target (act_text_store); control never reaches
  // it. Lives in .text on purpose.
  label("fz_scratch");
  raw("    .space 96, 0x90");
  // fz_set MUST stay the first bss object: its base is then the bss base
  // (vpn 0x8180), putting its 64 KiB-strided pages in D-TLB set 0 — the
  // geometry act_tlb_pressure's eviction dance depends on.
  raw("    .bss");
  label("fz_set");
  raw("    .space 0x41000");
  label("fz_buf");
  raw("    .space 16384");
  return out_.str();
}

}  // namespace

const std::map<Op, u32>& opcode_weights() {
  // Weights consulted by pick_op for class-internal choices; structural
  // opcodes (emitted by fixed action scaffolding rather than weighted
  // draws) carry their approximate emission frequency so the table stays
  // an honest census of what the generator can produce. Every isa.h
  // opcode must appear here — enforced by tests/arch/isa_coverage_test.cc.
  static const std::map<Op, u32> kWeights = {
      {Op::kMovi, 40},  {Op::kMov, 12},    {Op::kLoad, 20},
      {Op::kStore, 20}, {Op::kLoadb, 8},   {Op::kStoreb, 8},
      {Op::kAdd, 14},   {Op::kSub, 10},    {Op::kMul, 8},
      {Op::kDiv, 6},    {Op::kAnd, 8},     {Op::kOr, 8},
      {Op::kXor, 8},    {Op::kShl, 6},     {Op::kShr, 6},
      {Op::kAddi, 10},  {Op::kCmp, 8},     {Op::kCmpi, 8},
      {Op::kNot, 6},    {Op::kModu, 6},
      {Op::kJmp, 10},   {Op::kJz, 8},      {Op::kJnz, 8},
      {Op::kJlt, 6},    {Op::kJge, 6},     {Op::kJb, 6},
      {Op::kJae, 6},    {Op::kJmpr, 4},
      {Op::kCall, 8},   {Op::kCallr, 4},   {Op::kRet, 8},
      {Op::kPush, 10},  {Op::kPop, 10},
      {Op::kSyscall, 16},
      {Op::kNop, 4},
  };
  return kWeights;
}

FuzzCase generate(u64 seed, const GenOptions& opts) {
  Rng rng(seed);
  FuzzCase c;
  c.seed = seed;
  c.mixed_text = rng.chance(30);
  Emitter em(rng, c.mixed_text, opts);
  c.body = em.build();
  if (opts.fault_count > 0) {
    // Salted so the fault stream is independent of the body stream: the
    // same program can be replayed under a different schedule and vice
    // versa without perturbing either.
    c.faults = inject::FaultSchedule::generate(seed ^ 0xFA171D5Cull,
                                               opts.fault_count,
                                               opts.fault_horizon);
  }
  return c;
}

SplitBody split_actions(const std::string& body) {
  SplitBody parts;
  std::istringstream in(body);
  std::string line;
  enum { kProl, kActions, kEpil } state = kProl;
  std::string current;
  while (std::getline(in, line)) {
    if (line.rfind(kActionMarker, 0) == 0) {
      if (state == kActions) {
        parts.actions.push_back(current);
      } else {
        parts.prologue = current;
      }
      current.clear();
      state = kActions;
      continue;
    }
    if (line.rfind(kEndMarker, 0) == 0) {
      if (state == kActions) {
        parts.actions.push_back(current);
      } else {
        parts.prologue = current;
      }
      current.clear();
      state = kEpil;
      continue;
    }
    current += line;
    current += '\n';
  }
  if (state == kEpil) {
    parts.epilogue = current;
  } else if (state == kActions) {
    parts.actions.push_back(current);
  } else {
    parts.prologue = current;
  }
  return parts;
}

std::string join_actions(const SplitBody& parts) {
  std::string body = parts.prologue;
  for (std::size_t i = 0; i < parts.actions.size(); ++i) {
    body += kActionMarker + std::to_string(i) + "\n";
    body += parts.actions[i];
  }
  body += kEndMarker;
  body += '\n';
  body += parts.epilogue;
  return body;
}

u32 count_instructions(const std::string& body) {
  std::istringstream in(body);
  std::string line;
  u32 n = 0;
  while (std::getline(in, line)) {
    // Strip comments.
    for (const char c : {';', '#'}) {
      const auto pos = line.find(c);
      if (pos != std::string::npos) line.resize(pos);
    }
    // Strip leading whitespace and label heads.
    std::size_t b = line.find_first_not_of(" \t");
    if (b == std::string::npos) continue;
    std::string s = line.substr(b);
    const auto colon = s.find(':');
    if (colon != std::string::npos) s = s.substr(colon + 1);
    b = s.find_first_not_of(" \t");
    if (b == std::string::npos) continue;
    s = s.substr(b);
    if (s.empty() || s[0] == '.') continue;  // directive
    ++n;
  }
  return n;
}

}  // namespace sm::fuzz
