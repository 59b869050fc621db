// smrun — assemble and run a guest program on the simulated machine.
//
//   smrun [options] program.s
//
// Options:
//   --engine none|split|nx|combined   protection engine (default: split)
//   --response break|observe|forensics|recovery
//   --fraction N          split N% of pages (implies the split engine)
//   --soft-tlb            SPARC-style software-managed TLBs (paper SS4.7)
//   --eager               eager load-time page population (paper SS5.1)
//   --stack-rand          Linux-2.6-style stack randomization
//   --input FILE|-        bytes fed to the guest's network fd (stdin with -)
//   --budget N            instruction budget (default 100M)
//   --stats               print cycle/TLB/fault statistics
//   --klog                print the kernel log
//   --no-libc             do not link the guest libc/prelude
//
// Exit status: the guest's exit code; 124 if the budget ran out; 125 on a
// kill (SIGSEGV/SIGILL); 126 if all processes blocked.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "asm/assembler.h"
#include "core/split_engine.h"
#include "engine_names.h"
#include "guest/guestlib.h"
#include "image/image.h"
#include "kernel/kernel.h"

using namespace sm;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: smrun [--engine none|split|nx|combined] "
               "[--response break|observe|forensics|recovery]\n"
               "             [--fraction N] [--soft-tlb] [--eager] "
               "[--stack-rand] [--input FILE|-]\n"
               "             [--budget N] [--stats] [--klog] [--no-libc] "
               "program.s\n");
  return 64;
}

std::string slurp(std::istream& in) {
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string engine = "split";
  std::string response = "break";
  std::string input_path;
  std::string source_path;
  int fraction = -1;
  bool soft_tlb = false;
  bool eager = false;
  bool stack_rand = false;
  bool show_stats = false;
  bool show_klog = false;
  bool with_libc = true;
  arch::u64 budget = 100'000'000;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "smrun: %s needs a value\n", a.c_str());
        std::exit(64);
      }
      return argv[++i];
    };
    if (a == "--engine") {
      engine = next();
    } else if (a == "--response") {
      response = next();
    } else if (a == "--fraction") {
      fraction = std::atoi(next());
    } else if (a == "--soft-tlb") {
      soft_tlb = true;
    } else if (a == "--eager") {
      eager = true;
    } else if (a == "--stack-rand") {
      stack_rand = true;
    } else if (a == "--input") {
      input_path = next();
    } else if (a == "--budget") {
      budget = std::strtoull(next(), nullptr, 10);
    } else if (a == "--stats") {
      show_stats = true;
    } else if (a == "--klog") {
      show_klog = true;
    } else if (a == "--no-libc") {
      with_libc = false;
    } else if (a == "--help" || a == "-h") {
      return usage();
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "smrun: unknown option %s\n", a.c_str());
      return usage();
    } else {
      source_path = a;
    }
  }
  if (source_path.empty()) return usage();

  std::ifstream src_file(source_path);
  if (!src_file) {
    std::fprintf(stderr, "smrun: cannot open %s\n", source_path.c_str());
    return 66;
  }
  const std::string body = slurp(src_file);

  core::ResponseMode rmode = core::ResponseMode::kBreak;
  if (response == "observe") {
    rmode = core::ResponseMode::kObserve;
  } else if (response == "forensics") {
    rmode = core::ResponseMode::kForensics;
  } else if (response == "recovery") {
    rmode = core::ResponseMode::kRecovery;
  } else if (response != "break") {
    std::fprintf(stderr, "smrun: unknown response mode %s\n",
                 response.c_str());
    return 64;
  }

  std::unique_ptr<kernel::ProtectionEngine> eng;
  if (fraction >= 0) {
    eng = std::make_unique<core::SplitMemoryEngine>(
        core::SplitPolicy::fraction(static_cast<arch::u32>(fraction)), rmode);
  } else if (const auto mode = tools::engine_mode(engine)) {
    eng = core::make_engine(*mode, rmode);
  } else {
    std::fprintf(stderr, "smrun: unknown engine %s\n", engine.c_str());
    return 64;
  }

  kernel::KernelConfig cfg;
  cfg.software_tlb = soft_tlb;
  cfg.eager_load = eager;
  cfg.stack_randomization = stack_rand;
  kernel::Kernel k(cfg);
  k.set_engine(std::move(eng));

  try {
    const auto program =
        assembler::assemble(with_libc ? guest::program(body)
                                      : guest::prelude() + body);
    image::BuildOptions opts;
    opts.name = source_path;
    k.register_image(image::build_image(program, opts));
  } catch (const assembler::AsmError& e) {
    std::fprintf(stderr, "smrun: %s\n", e.what());
    return 65;
  }

  const kernel::Pid pid = k.spawn(source_path);
  auto chan = k.attach_channel(pid);
  if (!input_path.empty()) {
    if (input_path == "-") {
      chan->host_write(slurp(std::cin));
    } else {
      std::ifstream in(input_path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "smrun: cannot open %s\n", input_path.c_str());
        return 66;
      }
      chan->host_write(slurp(in));
    }
  }

  const auto rr = k.run(budget);

  kernel::Process& p = *k.process(pid);
  std::fputs(p.console.c_str(), stdout);
  const std::string net_out = chan->host_read_string();
  if (!net_out.empty()) {
    std::fprintf(stdout, "%s", net_out.c_str());
  }
  for (const auto& ev : k.detections()) {
    std::fprintf(stderr,
                 "[smrun] code injection detected: pid %u EIP 0x%08x "
                 "(mode %s)\n",
                 ev.pid, ev.eip, ev.mode.c_str());
    if (!ev.disassembly.empty()) {
      std::fprintf(stderr, "%s", ev.disassembly.c_str());
    }
  }
  if (show_klog) {
    for (const auto& line : k.klog()) {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }
  if (show_stats) {
    std::ostringstream ss;
    ss << k.stats();
    std::fprintf(stderr, "[smrun] %s\n", ss.str().c_str());
  }

  if (rr == kernel::Kernel::RunResult::kBudgetExhausted) return 124;
  if (rr == kernel::Kernel::RunResult::kAllBlocked) return 126;
  if (p.exit_kind != kernel::ExitKind::kExited) return 125;
  return static_cast<int>(p.exit_code & 0x7F);
}
