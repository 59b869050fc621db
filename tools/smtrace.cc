// smtrace — run a guest program with the trace layer enabled and inspect
// the recorded event stream (DESIGN.md §11).
//
//   smtrace [options] program.s
//
// Options:
//   --engine none|split|nx|combined   protection engine (default: split)
//   --fraction N          split N% of pages (implies the split engine)
//   --soft-tlb            SPARC-style software-managed TLBs (paper SS4.7)
//   --budget N            instruction budget (default 100M)
//   --ring N              trace ring capacity in events (default 65536)
//   --kind NAME           keep only events of this kind (repeatable;
//                         names as printed, e.g. split-itlb-load)
//   --pid N               keep only events of this pid
//   --last N              keep only the last N events (after filtering)
//   --summary             print the cycle-attribution summary (paper SS4.6)
//                         instead of the event dump
//   --requests N          with --summary: add a per-cause cycles/request
//                         column (N = requests the traced run served), tying
//                         the SS4.6 decomposition to request-level cost
//   --chrome PATH|-       write Chrome trace_event JSON (load in
//                         about://tracing or Perfetto) to PATH or stdout
//   --no-libc             do not link the guest libc/prelude
//
// Exit status: 0 on a traced run, 64 on usage errors, 65 on assembly
// errors, 66 on unreadable files.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.h"
#include "core/split_engine.h"
#include "engine_names.h"
#include "guest/guestlib.h"
#include "image/image.h"
#include "kernel/kernel.h"
#include "trace/chrome_export.h"
#include "trace/trace.h"

using namespace sm;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: smtrace [--engine none|split|nx|combined] "
               "[--fraction N] [--soft-tlb]\n"
               "               [--budget N] [--ring N] [--kind NAME] "
               "[--pid N] [--last N]\n"
               "               [--summary [--requests N]] [--chrome PATH|-] "
               "[--no-libc] program.s\n");
  return 64;
}

std::string slurp(std::istream& in) {
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool kind_matches(const std::vector<std::string>& kinds, trace::EventKind k) {
  if (kinds.empty()) return true;
  for (const std::string& name : kinds) {
    if (name == trace::kind_name(k)) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string engine = "split";
  std::string chrome_path;
  std::string source_path;
  std::vector<std::string> kinds;
  int fraction = -1;
  long pid_filter = -1;
  long last = -1;
  bool soft_tlb = false;
  bool summary = false;
  bool with_libc = true;
  arch::u64 requests = 0;
  arch::u64 budget = 100'000'000;
  arch::u32 ring = 1u << 16;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "smtrace: %s needs a value\n", a.c_str());
        std::exit(64);
      }
      return argv[++i];
    };
    if (a == "--engine") {
      engine = next();
    } else if (a == "--fraction") {
      fraction = std::atoi(next());
    } else if (a == "--soft-tlb") {
      soft_tlb = true;
    } else if (a == "--budget") {
      budget = std::strtoull(next(), nullptr, 10);
    } else if (a == "--ring") {
      ring = static_cast<arch::u32>(std::strtoul(next(), nullptr, 10));
    } else if (a == "--kind") {
      kinds.push_back(next());
    } else if (a == "--pid") {
      pid_filter = std::atol(next());
    } else if (a == "--last") {
      last = std::atol(next());
    } else if (a == "--summary") {
      summary = true;
    } else if (a == "--requests") {
      requests = std::strtoull(next(), nullptr, 10);
    } else if (a == "--chrome") {
      chrome_path = next();
    } else if (a == "--no-libc") {
      with_libc = false;
    } else if (a == "--help" || a == "-h") {
      return usage();
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "smtrace: unknown option %s\n", a.c_str());
      return usage();
    } else {
      source_path = a;
    }
  }
  if (source_path.empty()) return usage();

  std::ifstream src_file(source_path);
  if (!src_file) {
    std::fprintf(stderr, "smtrace: cannot open %s\n", source_path.c_str());
    return 66;
  }
  const std::string body = slurp(src_file);

  std::unique_ptr<kernel::ProtectionEngine> eng;
  if (fraction >= 0) {
    eng = std::make_unique<core::SplitMemoryEngine>(
        core::SplitPolicy::fraction(static_cast<arch::u32>(fraction)),
        core::ResponseMode::kBreak);
  } else if (const auto mode = tools::engine_mode(engine)) {
    eng = core::make_engine(*mode);
  } else {
    std::fprintf(stderr, "smtrace: unknown engine %s\n", engine.c_str());
    return 64;
  }

  kernel::KernelConfig cfg;
  cfg.software_tlb = soft_tlb;
  cfg.trace = true;
  cfg.trace_ring_capacity = ring;
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
    std::fprintf(stderr, "smtrace: %s\n", e.what());
    return 65;
  }

  k.spawn(source_path);
  k.run(budget);

  const trace::TraceSink& sink = *k.trace_sink();
  if (!chrome_path.empty()) {
    const std::string json = trace::chrome_trace_json(sink.events());
    if (chrome_path == "-") {
      std::fputs(json.c_str(), stdout);
    } else {
      std::ofstream out(chrome_path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "smtrace: cannot write %s\n",
                     chrome_path.c_str());
        return 66;
      }
      out << json;
    }
    return 0;
  }
  if (summary) {
    std::fputs(trace::format_summary(sink.summary(), requests).c_str(),
               stdout);
    return 0;
  }

  // Text dump, oldest first: apply --kind/--pid, then --last.
  const trace::RingBuffer<trace::Event>& events = sink.events();
  std::vector<const trace::Event*> selected;
  selected.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const trace::Event& e = events[i];
    if (!kind_matches(kinds, e.kind)) continue;
    if (pid_filter >= 0 && e.pid != static_cast<arch::u32>(pid_filter)) {
      continue;
    }
    selected.push_back(&e);
  }
  std::size_t first = 0;
  if (last >= 0 && selected.size() > static_cast<std::size_t>(last)) {
    first = selected.size() - static_cast<std::size_t>(last);
  }
  if (events.dropped() != 0) {
    std::fprintf(stderr, "smtrace: ring overflowed, %llu oldest dropped\n",
                 static_cast<unsigned long long>(events.dropped()));
  }
  for (std::size_t i = first; i < selected.size(); ++i) {
    const trace::Event& e = *selected[i];
    std::printf("%12llu %-20s pid=%-3u va=0x%08x info=0x%08x arg=%u\n",
                static_cast<unsigned long long>(e.cycles),
                trace::kind_name(e.kind), e.pid, e.vaddr, e.info, e.arg);
  }
  return 0;
}
