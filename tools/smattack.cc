// smattack — run the exploit corpus against a chosen protection engine.
//
//   smattack [--engine none|split|nx|combined]
//            [--response break|observe|forensics]
//            [wilander|realworld|nxbypass|all]
//
// Prints one line per attack with its outcome. Exit status 0 if every
// attack behaved as the engine predicts (success on none, foiled on
// split/combined; nxbypass succeeds on nx).
#include <cstdio>
#include <cstring>
#include <string>

#include "attacks/nx_bypass.h"
#include "attacks/realworld.h"
#include "attacks/wilander.h"
#include "engine_names.h"

using namespace sm;
using namespace sm::attacks;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: smattack [--engine none|split|nx|combined] "
               "[--response break|observe|forensics] "
               "[wilander|realworld|nxbypass|all]\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  core::ProtectionMode mode = core::ProtectionMode::kSplitAll;
  core::ResponseMode response = core::ResponseMode::kBreak;
  std::string suite = "all";

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(usage());
      return argv[++i];
    };
    if (a == "--engine") {
      const auto m = tools::engine_mode(next());
      if (!m) return usage();
      mode = *m;
    } else if (a == "--response") {
      const std::string r = next();
      if (r == "break") {
        response = core::ResponseMode::kBreak;
      } else if (r == "observe") {
        response = core::ResponseMode::kObserve;
      } else if (r == "forensics") {
        response = core::ResponseMode::kForensics;
      } else {
        return usage();
      }
    } else if (a == "--help" || a == "-h") {
      return usage();
    } else {
      suite = a;
    }
  }

  const bool expect_compromise = mode == core::ProtectionMode::kNone;
  int mismatches = 0;

  std::printf("engine: %s\n\n", core::to_string(mode));

  if (suite == "wilander" || suite == "all") {
    std::printf("== Wilander benchmark ==\n");
    for (const auto t : wilander::kAllTechniques) {
      for (const auto s : wilander::kAllSegments) {
        if (!wilander::applicable(t, s)) continue;
        const auto r = wilander::run_case(t, s, mode);
        const bool ok = r.shell_spawned == expect_compromise;
        if (!ok) ++mismatches;
        std::printf("  %-16s %-6s %-12s %s\n", wilander::to_string(t),
                    wilander::to_string(s),
                    r.shell_spawned ? "COMPROMISED" : "foiled",
                    ok ? "" : "  << unexpected");
      }
    }
  }

  if (suite == "realworld" || suite == "all") {
    std::printf("== real-world exploits ==\n");
    for (const auto e : realworld::kAllExploits) {
      realworld::AttackOptions opts;
      opts.response = response;
      const auto r = realworld::run_attack(e, mode, opts);
      const bool expected =
          r.shell_spawned ==
          (expect_compromise || response == core::ResponseMode::kObserve);
      if (!expected) ++mismatches;
      std::printf("  %-16s %-12s detected=%d %s\n", realworld::to_string(e),
                  r.shell_spawned ? "COMPROMISED" : "foiled", r.detected,
                  expected ? "" : "  << unexpected");
    }
  }

  if (suite == "nxbypass" || suite == "all") {
    std::printf("== DEP/NX bypass ==\n");
    const auto r = run_nx_bypass(mode);
    const bool expect_bypass = mode == core::ProtectionMode::kNone ||
                               mode == core::ProtectionMode::kHardwareNx;
    const bool ok = r.shell_spawned == expect_bypass;
    if (!ok) ++mismatches;
    std::printf("  mmap-RWX chain   %-12s %s\n",
                r.shell_spawned ? "COMPROMISED" : "foiled",
                ok ? "" : "  << unexpected");
  }

  if (mismatches != 0) {
    std::printf("\n%d attack(s) behaved unexpectedly for this engine\n",
                mismatches);
    return 1;
  }
  std::printf("\nall attacks behaved as this engine predicts\n");
  return 0;
}
