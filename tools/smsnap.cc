// smsnap: checkpoint/restore workbench for the simulated machine.
//
// Drives Kernel::save/restore (src/snapshot) from the command line, using
// the fuzz generator's seeded cases as reproducible workloads:
//
//   smsnap save   --seed=S [--index=I] [--at=N] [--config=LABEL] -o FILE
//       generate case (S, I), boot it under the named oracle config, run
//       N instructions (default: to completion), serialize the machine
//   smsnap resume FILE --seed=S [--index=I] [--config=LABEL] [--budget=C]
//       reconstruct the SAME kernel shape, restore FILE into it, run the
//       remaining budget, report exit status / console / key counters
//   smsnap dump   FILE
//       schema-free field-by-field text dump (works on any snapshot —
//       every field is self-describing)
//   smsnap diff   A B
//       field-by-field comparison; prints differing fields and exits 1
//       if the machines differ, prints nothing and exits 0 if they do
//       not, exits 2 on malformed input
//
// resume deliberately takes the generation flags again: restore() is an
// in-place reset that validates the receiving kernel's config and engine
// against the stream, so reconstructing the kernel from the same flags is
// what makes a snapshot a *portable* checkpoint of a reproducible run.
//
//   --config accepts the oracle's labels (split-break, none, nx,
//   pageexec, nx+split, split-soft-tlb, split-eager, ...); default
//   split-break.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "fuzz/rng.h"
#include "kernel/kernel.h"
#include "snapshot/serializer.h"

namespace {

using namespace sm;
using arch::u32;
using arch::u64;

[[noreturn]] void usage(int rc) {
  std::fprintf(
      rc ? stderr : stdout,
      "usage: smsnap save   --seed=S [--index=I] [--at=N] [--budget=C]\n"
      "                     [--config=LABEL] -o FILE\n"
      "       smsnap resume FILE --seed=S [--index=I] [--budget=C]\n"
      "                     [--config=LABEL]\n"
      "       smsnap dump   FILE\n"
      "       smsnap diff   A B\n");
  std::exit(rc);
}

struct Args {
  std::string cmd;
  std::vector<std::string> files;
  u64 seed = 1;
  u32 index = 0;
  u64 at = UINT64_MAX;  // save: instruction count; default = completion
  u64 budget = 20'000'000;
  std::string config = "split-break";
  std::string out;
};

Args parse(int argc, char** argv) {
  if (argc < 2) usage(2);
  Args a;
  a.cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&](const char* name, std::string& out) {
      const std::size_t n = std::strlen(name);
      if (arg.compare(0, n, name) != 0) return false;
      if (arg.size() > n && arg[n] == '=') {
        out = arg.substr(n + 1);
        return true;
      }
      if (arg.size() == n) {
        if (i + 1 >= argc) usage(2);
        out = argv[++i];
        return true;
      }
      return false;
    };
    std::string v;
    if (arg == "--help") usage(0);
    else if (val("--seed", v)) a.seed = std::strtoull(v.c_str(), nullptr, 0);
    else if (val("--index", v))
      a.index = static_cast<u32>(std::strtoul(v.c_str(), nullptr, 0));
    else if (val("--at", v)) a.at = std::strtoull(v.c_str(), nullptr, 0);
    else if (val("--budget", v))
      a.budget = std::strtoull(v.c_str(), nullptr, 0);
    else if (val("--config", v)) a.config = v;
    else if (val("-o", v)) a.out = v;
    else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "smsnap: unknown flag '%s'\n", arg.c_str());
      usage(2);
    } else {
      a.files.push_back(arg);
    }
  }
  return a;
}

fuzz::OracleConfig find_config(const std::string& label) {
  for (const auto& c : fuzz::behavioral_configs())
    if (c.label == label) return c;
  for (const auto& c : fuzz::billing_configs())
    if (c.label == label) return c;
  std::fprintf(stderr, "smsnap: unknown --config '%s'; known:\n",
               label.c_str());
  for (const auto& c : fuzz::behavioral_configs())
    std::fprintf(stderr, "  %s\n", c.label.c_str());
  for (const auto& c : fuzz::billing_configs())
    std::fprintf(stderr, "  %s\n", c.label.c_str());
  std::exit(2);
}

std::unique_ptr<kernel::Kernel> boot(const Args& a) {
  const fuzz::FuzzCase c =
      fuzz::generate(fuzz::case_seed(a.seed, a.index));
  return fuzz::make_case_kernel(c, find_config(a.config));
}

void report(kernel::Kernel& k, kernel::Kernel::RunResult res) {
  const char* rs = res == kernel::Kernel::RunResult::kAllExited ? "exited"
                   : res == kernel::Kernel::RunResult::kAllBlocked
                       ? "blocked"
                       : "budget-exhausted";
  const auto& st = k.stats();
  std::printf("result:       %s\n", rs);
  std::printf("instructions: %llu\n",
              static_cast<unsigned long long>(st.instructions));
  std::printf("cycles:       %llu\n",
              static_cast<unsigned long long>(st.cycles));
  std::printf("syscalls:     %llu\n",
              static_cast<unsigned long long>(st.syscalls));
  for (kernel::Pid pid = 1; pid <= 64; ++pid) {
    const kernel::Process* p = k.process(pid);
    if (p == nullptr) continue;
    std::printf("pid %u: exit=%d code=%u console=%zuB\n", pid,
                static_cast<int>(p->exit_kind), p->exit_code,
                p->console.size());
  }
}

int cmd_save(const Args& a) {
  if (a.out.empty()) usage(2);
  auto k = boot(a);
  const auto res = k->run(a.at == UINT64_MAX ? a.budget : a.at);
  std::ofstream os(a.out, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "smsnap: cannot open %s\n", a.out.c_str());
    return 2;
  }
  k->save(os);
  os.flush();
  std::printf("saved %s at instruction %llu (%s)\n", a.out.c_str(),
              static_cast<unsigned long long>(k->stats().instructions),
              res == kernel::Kernel::RunResult::kBudgetExhausted
                  ? "mid-run"
                  : "final state");
  return os ? 0 : 2;
}

int cmd_resume(const Args& a) {
  if (a.files.size() != 1) usage(2);
  std::ifstream is(a.files[0], std::ios::binary);
  if (!is) {
    std::fprintf(stderr, "smsnap: cannot open %s\n", a.files[0].c_str());
    return 2;
  }
  auto k = boot(a);
  k->restore(is);
  const u64 done = k->stats().instructions;
  const auto res = k->run(a.budget > done ? a.budget - done : 0);
  std::printf("resumed from instruction %llu\n",
              static_cast<unsigned long long>(done));
  report(*k, res);
  return 0;
}

int cmd_dump(const Args& a) {
  if (a.files.size() != 1) usage(2);
  std::ifstream is(a.files[0], std::ios::binary);
  if (!is) {
    std::fprintf(stderr, "smsnap: cannot open %s\n", a.files[0].c_str());
    return 2;
  }
  for (const auto& line : snapshot::dump(is))
    std::printf("%s = %s\n", line.key.c_str(), line.value.c_str());
  return 0;
}

int cmd_diff(const Args& a) {
  if (a.files.size() != 2) usage(2);
  std::ifstream ia(a.files[0], std::ios::binary);
  std::ifstream ib(a.files[1], std::ios::binary);
  if (!ia || !ib) {
    std::fprintf(stderr, "smsnap: cannot open input\n");
    return 2;
  }
  const auto lines = snapshot::diff(ia, ib);
  for (const auto& l : lines) std::printf("%s\n", l.c_str());
  return lines.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    if (a.cmd == "save") return cmd_save(a);
    if (a.cmd == "resume") return cmd_resume(a);
    if (a.cmd == "dump") return cmd_dump(a);
    if (a.cmd == "diff") return cmd_diff(a);
  } catch (const sm::snapshot::SnapshotError& e) {
    std::fprintf(stderr, "smsnap: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "smsnap: unknown command '%s'\n", a.cmd.c_str());
  usage(2);
}
