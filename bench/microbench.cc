// google-benchmark microbenchmarks of the simulator substrate's hot paths:
// TLB lookup/insert, hardware page-table walks, single-instruction
// execution, the split-memory fault protocol, SHA-256, the assembler,
// kernel construction and snapshot restore.
// These measure HOST time (how fast the simulator itself runs), not
// simulated cycles.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arch/cpu.h"
#include "arch/mmu.h"
#include "asm/assembler.h"
#include "core/split_engine.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "fuzz/rng.h"
#include "fuzz/snapshot_replay.h"
#include "guest/guestlib.h"
#include "image/image.h"
#include "image/sha256.h"
#include "kernel/kernel.h"

namespace {

using namespace sm;
using arch::kPageSize;
using arch::Pte;

void BM_TlbLookupHit(benchmark::State& state) {
  arch::Tlb tlb;
  for (arch::u32 v = 0; v < 64; ++v) {
    arch::TlbEntry e;
    e.vpn = v;
    e.pfn = v;
    e.user = true;
    tlb.insert(e);
  }
  arch::u32 v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.lookup(v));
    v = (v + 1) & 63;
  }
}
BENCHMARK(BM_TlbLookupHit);

void BM_TlbInsertEvict(benchmark::State& state) {
  arch::Tlb tlb;
  arch::u32 v = 0;
  for (auto _ : state) {
    arch::TlbEntry e;
    e.vpn = v++;
    e.pfn = v;
    e.user = true;
    tlb.insert(e);
  }
}
BENCHMARK(BM_TlbInsertEvict);

void BM_PageTableWalk(benchmark::State& state) {
  arch::PhysicalMemory pm(64);
  metrics::Stats stats;
  arch::PageTable pt(pm, arch::PageTable::create(pm));
  pt.set(0x5000, Pte::make(3, Pte::kPresent | Pte::kUser));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pt.walk(0x5000, &stats));
  }
}
BENCHMARK(BM_PageTableWalk);

void BM_CpuStepArithmetic(benchmark::State& state) {
  arch::PhysicalMemory pm(64);
  metrics::Stats stats;
  metrics::CostModel cost;
  arch::Mmu mmu(pm, stats, cost);
  arch::Cpu cpu(mmu, stats, cost);
  const arch::u32 root = arch::PageTable::create(pm);
  arch::PageTable pt(pm, root);
  const arch::u32 frame = pm.alloc_frame();
  pt.set(0x1000, Pte::make(frame, Pte::kPresent | Pte::kUser));
  // addi r0, 1 ; jmp 0x1000
  auto code = pm.frame_bytes(frame);
  code[0] = 0x19;
  code[1] = 0;
  code[2] = 1;
  code[6] = 0x20;
  code[7] = 0x00;
  code[8] = 0x10;
  mmu.set_cr3(root);
  cpu.regs().pc = 0x1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cpu.step());
  }
}
BENCHMARK(BM_CpuStepArithmetic);

// Steady-state Cpu::step() with the decode cache and fetch memo warm: a
// straight-line block of the common instruction mix ending in a back-edge,
// so every step is one memo-translate + one decode-cache probe. This is
// the hot-loop number the figure sweeps are bound by.
void BM_CpuStepCached(benchmark::State& state) {
  arch::PhysicalMemory pm(64);
  metrics::Stats stats;
  metrics::CostModel cost;
  arch::Mmu mmu(pm, stats, cost);
  arch::Cpu cpu(mmu, stats, cost);
  const arch::u32 root = arch::PageTable::create(pm);
  arch::PageTable pt(pm, root);
  const arch::u32 frame = pm.alloc_frame();
  pt.set(0x1000, Pte::make(frame, Pte::kPresent | Pte::kUser));
  // addi r0, 1 ; mov r1, r0 ; add r1, r1 ; cmp r0, r1 ; jmp 0x1000
  const arch::u8 block[] = {0x19, 0, 1,    0, 0, 0,     // addi
                            0x02, 1, 0,                 // mov
                            0x10, 1, 1,                 // add
                            0x1A, 0, 1,                 // cmp
                            0x20, 0x00, 0x10, 0, 0};    // jmp 0x1000
  auto code = pm.frame_bytes(frame);
  std::copy(std::begin(block), std::end(block), code.begin());
  mmu.set_cr3(root);
  cpu.regs().pc = 0x1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cpu.step());
  }
  state.SetItemsProcessed(static_cast<int64_t>(stats.instructions));
  state.counters["decode_hit_rate"] =
      static_cast<double>(stats.decode_cache_hits) /
      static_cast<double>(stats.decode_cache_hits + stats.decode_cache_misses);
}
BENCHMARK(BM_CpuStepCached);

// The basic-block engine over the BM_CpuStepCached workload: the same
// 5-instruction straight-line block ending in a back-edge, executed via
// Cpu::step_block() with a kernel-slice-sized budget, so one dispatch call
// chains many block executions. time/iteration is one 4096-instruction
// CHAIN here versus one INSTRUCTION in BM_CpuStepCached —
// items_per_second (retired instructions) is the apples-to-apples
// throughput comparison.
void BM_BlockExec(benchmark::State& state) {
  arch::PhysicalMemory pm(64);
  metrics::Stats stats;
  metrics::CostModel cost;
  arch::Mmu mmu(pm, stats, cost);
  arch::Cpu cpu(mmu, stats, cost);
  const arch::u32 root = arch::PageTable::create(pm);
  arch::PageTable pt(pm, root);
  const arch::u32 frame = pm.alloc_frame();
  pt.set(0x1000, Pte::make(frame, Pte::kPresent | Pte::kUser));
  // addi r0, 1 ; mov r1, r0 ; add r1, r1 ; cmp r0, r1 ; jmp 0x1000
  const arch::u8 block[] = {0x19, 0, 1,    0, 0, 0,      // addi
                            0x02, 1, 0,                  // mov
                            0x10, 1, 1,                  // add
                            0x1A, 0, 1,                  // cmp
                            0x20, 0x00, 0x10, 0, 0};     // jmp 0x1000
  auto code = pm.frame_bytes(frame);
  std::copy(std::begin(block), std::end(block), code.begin());
  mmu.set_cr3(root);
  cpu.regs().pc = 0x1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cpu.step_block(4096));
  }
  state.SetItemsProcessed(static_cast<int64_t>(stats.instructions));
  state.counters["block_hit_rate"] =
      static_cast<double>(stats.block_cache_hits) /
      static_cast<double>(stats.block_cache_hits + stats.block_cache_misses);
  state.counters["instr_per_block"] =
      static_cast<double>(stats.block_instructions) /
      std::max(1.0, static_cast<double>(stats.block_cache_hits));
}
BENCHMARK(BM_BlockExec);

// Worst case for the block cache: the code frame is rewritten before every
// dispatch, so every entry probe takes the stale-generation + full
// re-record path (and re-decodes through the equally-stale decode cache).
// Guards against block-coherence machinery costing more than it saves.
void BM_BlockChainInvalidate(benchmark::State& state) {
  arch::PhysicalMemory pm(64);
  metrics::Stats stats;
  metrics::CostModel cost;
  arch::Mmu mmu(pm, stats, cost);
  arch::Cpu cpu(mmu, stats, cost);
  const arch::u32 root = arch::PageTable::create(pm);
  arch::PageTable pt(pm, root);
  const arch::u32 frame = pm.alloc_frame();
  pt.set(0x1000, Pte::make(frame, Pte::kPresent | Pte::kUser));
  const arch::u64 frame_pa = static_cast<arch::u64>(frame) * kPageSize;
  // addi r0, 1 ; jmp 0x1000
  pm.write8(frame_pa + 0, 0x19);
  pm.write8(frame_pa + 2, 1);
  pm.write8(frame_pa + 6, 0x20);
  pm.write8(frame_pa + 8, 0x10);
  mmu.set_cr3(root);
  cpu.regs().pc = 0x1000;
  for (auto _ : state) {
    // Same bytes, but the write bumps the frame generation: the next
    // dispatch must invalidate and re-record the block. The budget covers
    // exactly the 2-instruction block so chaining cannot dilute the
    // invalidation path with cached re-executions.
    pm.write8(frame_pa + 2, 1);
    benchmark::DoNotOptimize(cpu.step_block(2));
  }
}
BENCHMARK(BM_BlockChainInvalidate);

// The Mmu's one-entry fetch-translation memo alone: repeated instruction
// fetches on one page, no decode in the loop.
void BM_FetchFastPath(benchmark::State& state) {
  arch::PhysicalMemory pm(64);
  metrics::Stats stats;
  metrics::CostModel cost;
  arch::Mmu mmu(pm, stats, cost);
  const arch::u32 root = arch::PageTable::create(pm);
  arch::PageTable pt(pm, root);
  pt.set(0x1000, Pte::make(pm.alloc_frame(), Pte::kPresent | Pte::kUser));
  mmu.set_cr3(root);
  arch::u8 byte = 0;
  (void)mmu.fetch8(0x1000, byte);  // warm the I-TLB and the memo
  arch::u32 off = 0;
  arch::u64 pa = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mmu.translate(0x1000 + off, arch::Access::kFetch, pa));
    benchmark::DoNotOptimize(pa);
    off = (off + 1) & arch::kPageMask;
  }
}
BENCHMARK(BM_FetchFastPath);

// Worst case for the decode cache: the code frame is rewritten before every
// step, so every fetch takes the probe + stale-generation + re-decode path.
// Guards against the coherence machinery costing more than it saves.
// The Mmu's read/write data-translation memos: a load+store pair walking
// one page, so after warm-up every translation is a memo hit (the path
// Cpu::push/pop and Load/Store take in straight-line code).
void BM_DataMemo(benchmark::State& state) {
  arch::PhysicalMemory pm(64);
  metrics::Stats stats;
  metrics::CostModel cost;
  arch::Mmu mmu(pm, stats, cost);
  const arch::u32 root = arch::PageTable::create(pm);
  arch::PageTable pt(pm, root);
  pt.set(0x1000, Pte::make(pm.alloc_frame(),
                           Pte::kPresent | Pte::kUser | Pte::kWritable));
  mmu.set_cr3(root);
  arch::u8 byte = 0;
  (void)mmu.read8(0x1000, byte);  // warm the D-TLB and the read memo
  (void)mmu.write8(0x1000, 0);    // warm the write memo
  arch::u32 off = 0;
  arch::u64 pa = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mmu.translate(0x1000 + off, arch::Access::kRead, pa));
    benchmark::DoNotOptimize(pa);
    benchmark::DoNotOptimize(
        mmu.translate(0x1000 + off, arch::Access::kWrite, pa));
    benchmark::DoNotOptimize(pa);
    off = (off + 1) & arch::kPageMask;
  }
  state.counters["data_fastpath_hit_rate"] =
      static_cast<double>(stats.data_fastpath_hits) /
      static_cast<double>(stats.dtlb_hits + stats.dtlb_misses);
}
BENCHMARK(BM_DataMemo);

void BM_DecodeCacheInvalidate(benchmark::State& state) {
  arch::PhysicalMemory pm(64);
  metrics::Stats stats;
  metrics::CostModel cost;
  arch::Mmu mmu(pm, stats, cost);
  arch::Cpu cpu(mmu, stats, cost);
  const arch::u32 root = arch::PageTable::create(pm);
  arch::PageTable pt(pm, root);
  const arch::u32 frame = pm.alloc_frame();
  pt.set(0x1000, Pte::make(frame, Pte::kPresent | Pte::kUser));
  const arch::u64 frame_pa = static_cast<arch::u64>(frame) * kPageSize;
  // addi r0, 1 ; jmp 0x1000
  pm.write8(frame_pa + 0, 0x19);
  pm.write8(frame_pa + 2, 1);
  pm.write8(frame_pa + 6, 0x20);
  pm.write8(frame_pa + 8, 0x10);
  mmu.set_cr3(root);
  cpu.regs().pc = 0x1000;
  for (auto _ : state) {
    // Same bytes, but the write bumps the frame generation: the next step
    // must re-decode.
    pm.write8(frame_pa + 2, 1);
    benchmark::DoNotOptimize(cpu.step());
  }
}
BENCHMARK(BM_DecodeCacheInvalidate);

void BM_SplitFaultProtocol(benchmark::State& state) {
  // One guest instruction loop on a split page with a data access to a
  // second split page, with TLBs flushed each round: measures the full
  // Algorithm 1+2 path (host-time cost of the simulated fault protocol).
  kernel::Kernel k;
  k.set_engine(core::make_engine(core::ProtectionMode::kSplitAll));
  const auto program = assembler::assemble(guest::program(R"(
_start:
loop:
  movi r1, buf
  load r2, [r1]
  jmp loop
.bss
buf: .space 64
)"));
  image::BuildOptions opts;
  opts.name = "loop";
  k.register_image(image::build_image(program, opts));
  k.spawn("loop");
  k.run(100);  // warm up: demand-map everything
  for (auto _ : state) {
    k.mmu().flush_tlbs();
    k.run(6);
  }
}
BENCHMARK(BM_SplitFaultProtocol);

void BM_Sha256_4K(benchmark::State& state) {
  std::vector<arch::u8> data(4096, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(image::sha256(data));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Sha256_4K);

void BM_AssembleGuestLibc(benchmark::State& state) {
  const std::string src = guest::program("_start:\n  ret\n");
  for (auto _ : state) {
    benchmark::DoNotOptimize(assembler::assemble(src));
  }
}
BENCHMARK(BM_AssembleGuestLibc);

// Kernel construction: the default 64 MiB machine, and the 8 MiB one the
// snapshot battery and the fork-server workload build. glibc serves the
// larger store as fresh zero pages; the smaller one may come back from the
// heap and be zeroed there.
void BM_KernelConstruct(benchmark::State& state) {
  kernel::KernelConfig cfg;
  cfg.phys_frames = static_cast<arch::u32>(state.range(0));
  for (auto _ : state) {
    kernel::Kernel k(cfg);
    benchmark::DoNotOptimize(&k);
  }
}
BENCHMARK(BM_KernelConstruct)
    ->ArgName("frames")
    ->Arg(kernel::KernelConfig{}.phys_frames)
    ->Arg(2048);

// The fork-server workload's machine: an 8 MiB split-break kernel running
// a 48-action fuzz case, stopped at 90% of the case's run.
std::unique_ptr<kernel::Kernel> fork_server_kernel() {
  fuzz::GenOptions gen;
  gen.min_actions = gen.max_actions = 48;
  gen.allow_lethal = false;
  const fuzz::FuzzCase c = fuzz::generate(fuzz::case_seed(1, 0), gen);
  const fuzz::OracleConfig cfg{.label = "split-break",
                               .mode = core::ProtectionMode::kSplitAll,
                               .phys_frames = 2048};
  const arch::u64 total = fuzz::run_case(c, cfg).instructions;
  auto k = fuzz::make_case_kernel(c, cfg);
  k->run(total * 9 / 10);
  return k;
}

// An in-place restore of that machine's snapshot, as the fork server does
// it: restored into the kernel that saved it, reading the saved bytes in
// place.
void BM_KernelRestore(benchmark::State& state) {
  const auto k = fork_server_kernel();
  std::ostringstream os;
  k->save(os);
  const std::string blob = os.str();
  for (auto _ : state) fuzz::restore_from(*k, blob);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(blob.size()));
}
BENCHMARK(BM_KernelRestore);

// The exit digest the oracle takes of each exiting process, over pid 1's
// address space in the same machine: text and data it never changed,
// and the bytes it did.
void BM_ExitDigest(benchmark::State& state) {
  const auto k = fork_server_kernel();
  const kernel::Process* p = k->process(1);
  if (p == nullptr || p->as == nullptr) {
    state.SkipWithError("pid 1 has no address space");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(p->as->data_digest());
  }
}
BENCHMARK(BM_ExitDigest);

}  // namespace

// Custom main so the microbench shares the figure binaries' CLI convention
// (`--jobs`, `--json <path>`, `--help`) on top of google-benchmark's own
// flags, which still pass through untouched.
int main(int argc, char** argv) {
  std::vector<std::string> passthrough;
  passthrough.emplace_back(argc > 0 ? argv[0] : "microbench");
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* flag) -> std::string {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return i + 1 < argc ? std::string(argv[++i]) : std::string();
    };
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "microbench — google-benchmark suite of the simulator's host-side "
          "hot paths\n"
          "\n"
          "Flags (shared bench convention):\n"
          "  --json <path>   write google-benchmark JSON to <path>\n"
          "                  (alias for --benchmark_out=<path>\n"
          "                  --benchmark_out_format=json; merged by\n"
          "                  tools/bench_json.py).\n"
          "  --jobs=N        accepted for convention; microbenchmarks are\n"
          "                  timing-sensitive and always run serially, so\n"
          "                  the value is ignored.\n"
          "  --help          this text.\n"
          "\n"
          "All --benchmark_* flags pass through to google-benchmark\n"
          "(e.g. --benchmark_filter=REGEX, --benchmark_min_time=0.1).\n");
      return 0;
    } else if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
      const std::string path = value_of("--json");
      if (path.empty()) {
        std::fprintf(stderr, "microbench: --json requires a path\n");
        return 2;
      }
      passthrough.push_back("--benchmark_out=" + path);
      passthrough.push_back("--benchmark_out_format=json");
    } else if (arg == "--jobs" || arg.rfind("--jobs=", 0) == 0) {
      (void)value_of("--jobs");  // accepted, ignored (see --help)
    } else {
      passthrough.push_back(arg);
    }
  }
  std::vector<char*> cargs;
  cargs.reserve(passthrough.size());
  for (std::string& s : passthrough) cargs.push_back(s.data());
  int cargc = static_cast<int>(cargs.size());
  benchmark::Initialize(&cargc, cargs.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
