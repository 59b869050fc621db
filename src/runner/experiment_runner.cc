#include "runner/experiment_runner.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace sm::runner {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void usage_and_exit(const char* bench_name,
                                 const char* description, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out,
               "%s — %s\n"
               "\n"
               "Flags (shared across all bench binaries):\n"
               "  --jobs=N, --jobs N   worker threads for the sweep fan-out\n"
               "                       (default/0: hardware_concurrency).\n"
               "                       Simulated output is byte-identical\n"
               "                       for every N — only wall-clock "
               "changes.\n"
               "  --json <path>        write a JSON result sidecar "
               "(schema:\n"
               "                       DESIGN.md §9; merged into\n"
               "                       BENCH_figures.json by "
               "tools/bench_json.py --figures).\n"
               "  --quick              reduced point set (the bench_smoke\n"
               "                       ctest target).\n"
               "  --no-progress        suppress per-point stderr progress "
               "lines.\n"
               "  --trace-summary      append a cycle-attribution breakdown\n"
               "                       (paper SS4.6) for key protected "
               "points.\n"
               "  --cores=N, --cores N simulated cores for benches that "
               "support\n"
               "                       SMP (0/absent: the bench's default,\n"
               "                       single-core). --cores=1 output is\n"
               "                       byte-identical to omitting the flag.\n"
               "  --help               this text.\n",
               bench_name, description);
  std::exit(code);
}

}  // namespace

RunnerOptions parse_runner_args(int argc, char** argv, const char* bench_name,
                                const char* description) {
  RunnerOptions opts;
  opts.bench_name = bench_name;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* flag) -> std::string {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      if (arg == flag) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s: %s requires a value\n", bench_name, flag);
          usage_and_exit(bench_name, description, 2);
        }
        return argv[++i];
      }
      return {};
    };
    if (arg == "--help" || arg == "-h") {
      usage_and_exit(bench_name, description, 0);
    } else if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--no-progress") {
      opts.progress = false;
    } else if (arg == "--trace-summary") {
      opts.trace_summary = true;
    } else if (arg == "--jobs" || arg.rfind("--jobs=", 0) == 0) {
      const std::string v = value_of("--jobs");
      char* end = nullptr;
      const unsigned long n = std::strtoul(v.c_str(), &end, 10);
      if (v.empty() || end == nullptr || *end != '\0') {
        std::fprintf(stderr, "%s: bad --jobs value '%s'\n", bench_name,
                     v.c_str());
        usage_and_exit(bench_name, description, 2);
      }
      opts.jobs = static_cast<arch::u32>(n);
    } else if (arg == "--cores" || arg.rfind("--cores=", 0) == 0) {
      const std::string v = value_of("--cores");
      char* end = nullptr;
      const unsigned long n = std::strtoul(v.c_str(), &end, 10);
      if (v.empty() || end == nullptr || *end != '\0' || n == 0 || n > 32) {
        std::fprintf(stderr, "%s: bad --cores value '%s' (want 1..32)\n",
                     bench_name, v.c_str());
        usage_and_exit(bench_name, description, 2);
      }
      opts.cores = static_cast<arch::u32>(n);
    } else if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
      opts.json_path = value_of("--json");
      if (opts.json_path.empty()) {
        std::fprintf(stderr, "%s: --json requires a path\n", bench_name);
        usage_and_exit(bench_name, description, 2);
      }
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", bench_name,
                   arg.c_str());
      usage_and_exit(bench_name, description, 2);
    }
  }
  return opts;
}

ExperimentRunner::ExperimentRunner(RunnerOptions opts)
    : opts_(std::move(opts)) {
  jobs_ = opts_.jobs;
  if (jobs_ == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs_ = hw == 0 ? 1 : static_cast<arch::u32>(hw);
  }
}

ResultTable ExperimentRunner::run(const std::vector<SweepPoint>& points) {
  const Clock::time_point sweep_t0 = Clock::now();
  std::vector<PointRecord> records(points.size());
  struct Failure {
    std::size_t index;
    std::exception_ptr error;
  };
  std::vector<Failure> failures;
  std::mutex mu;  // guards `failures`, progress output and `done` counter
  std::size_t done = 0;
  std::atomic<std::size_t> next{0};

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= points.size()) return;
      const Clock::time_point t0 = Clock::now();
      PointRecord& rec = records[i];
      rec.label = points[i].label;
      try {
        rec.result = points[i].run();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        failures.push_back({i, std::current_exception()});
        ++done;
        continue;
      }
      rec.wall_seconds = seconds_since(t0);
      if (opts_.progress) {
        std::lock_guard<std::mutex> lock(mu);
        ++done;
        std::fprintf(stderr, "[%s %zu/%zu] %s (%.2fs)\n",
                     opts_.bench_name.c_str(), done, points.size(),
                     rec.label.c_str(), rec.wall_seconds);
      } else {
        std::lock_guard<std::mutex> lock(mu);
        ++done;
      }
    }
  };

  const std::size_t workers =
      std::min<std::size_t>(jobs_, points.size() == 0 ? 1 : points.size());
  if (workers <= 1) {
    worker();  // --jobs=1: run inline, no threads at all
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  points_run_ += points.size();
  wall_seconds_ += seconds_since(sweep_t0);

  if (!failures.empty()) {
    // Deterministic error surface: always the lowest-index failure,
    // labelled with its point, regardless of --jobs.
    const Failure* first = &failures.front();
    for (const Failure& f : failures) {
      if (f.index < first->index) first = &f;
    }
    try {
      std::rethrow_exception(first->error);
    } catch (const std::exception& e) {
      throw std::runtime_error("sweep point '" + records[first->index].label +
                               "' failed: " + e.what());
    } catch (...) {
      throw std::runtime_error("sweep point '" + records[first->index].label +
                               "' failed: non-standard exception");
    }
  }

  ResultTable table;
  table.reserve(records.size());
  for (PointRecord& rec : records) table.add(std::move(rec));
  return table;
}

void ExperimentRunner::report(const ResultTable& table) const {
  if (!opts_.json_path.empty()) {
    if (!table.write_json(opts_.json_path, opts_.bench_name, jobs_,
                          wall_seconds_)) {
      std::fprintf(stderr, "[%s] failed to write %s\n",
                   opts_.bench_name.c_str(), opts_.json_path.c_str());
    }
  }
  std::fprintf(stderr, "[%s] %zu points, jobs=%u, wall %.2fs\n",
               opts_.bench_name.c_str(), points_run_, jobs_, wall_seconds_);
}

}  // namespace sm::runner
