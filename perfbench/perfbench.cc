// Host-performance benchmark of the split-memory simulator.
//
// One process runs one workload: it sets up, runs a closed loop of ops for
// a fixed number of host seconds (one op starts when the previous returns),
// checks every op's output, and prints one JSON object on stdout.
//
//   perfbench --workload serve|pingpong|fuzz|forkserver --seed N
//             --seconds S --trace 0|1 [--size full|tiny] [--spans FILE]
//
// --trace 0 reports the end-to-end metrics with all tracing off. --trace 1
// reports per-layer metrics: it repeats the same ops with spans recorded
// around every public call this file makes (the benchmark measures layers
// from outside; the simulator is not modified), then makes one more pass
// with the simulator's own cycle-attribution trace on.
//
// Host seconds are what the simulator costs; simulated cycles are what the
// modelled machine costs. Each metric's "kind" says which it is: "host"
// metrics vary run to run, "sim" metrics are a pure function of the inputs
// and must repeat exactly.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "asm/assembler.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "guest/guestlib.h"
#include "image/image.h"
#include "kernel/kernel.h"
#include "metrics/stats.h"
#include "trace/profiler.h"
#include "workloads/workload.h"

namespace {

using sm::arch::u32;
using sm::arch::u64;
using sm::kernel::Kernel;
using sm::metrics::Stats;

// Host time is this process's CPU time, user plus sys. The benchmark runs
// on one thread, so that is the time the simulator ran; unlike wall time
// it leaves out the time a shared host hands the CPU to other work. Only
// wall_s and the length of the timed phase are wall time.
struct Clock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<Clock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return time_point(std::chrono::seconds(ts.tv_sec) +
                      std::chrono::nanoseconds(ts.tv_nsec));
  }
};
using WallClock = std::chrono::steady_clock;

template <class TimePoint>
double seconds_between(TimePoint a, TimePoint b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  long minflt = 0;
  long maxrss_kib = 0;
};

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6;
  u.sys_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  u.minflt = ru.ru_minflt;
  u.maxrss_kib = ru.ru_maxrss;
  return u;
}

u64 mix(u64 x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// --- spans -------------------------------------------------------------------
//
// A span is one call into a layer: name, start, end, the span that caused
// it, and the op it belongs to (op 0 is set-up). Spans live in memory and
// are written out at exit. Off (the default) a scope costs one branch.

struct Span {
  std::string_view name;
  double start = 0;
  double end = 0;
  long minflt = 0;  // host minor faults while the span was open
  int parent = -1;
  u64 op = 0;
};

class Spans {
 public:
  class Scope {
   public:
    Scope(Spans& s, std::string_view name) : s_(s.on ? &s : nullptr) {
      if (s_) idx_ = s_->open(name);
    }
    ~Scope() {
      if (s_) s_->close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* s_;
    int idx_ = -1;
  };

  bool on = false;
  u64 op = 0;
  std::vector<Span> spans;

 private:
  int open(std::string_view name) {
    Span sp;
    sp.name = name;
    sp.start = seconds_between(t0_, Clock::now());
    sp.minflt = usage().minflt;
    sp.parent = stack_.empty() ? -1 : stack_.back();
    sp.op = op;
    spans.push_back(sp);
    stack_.push_back(static_cast<int>(spans.size()) - 1);
    return stack_.back();
  }
  void close(int idx) {
    Span& sp = spans[idx];
    sp.end = seconds_between(t0_, Clock::now());
    sp.minflt = usage().minflt - sp.minflt;
    stack_.pop_back();
  }

  Clock::time_point t0_ = Clock::now();
  std::vector<int> stack_;
};

Spans g_spans;

Spans::Scope span(std::string_view name) { return Spans::Scope(g_spans, name); }

// --- Stats arithmetic --------------------------------------------------------

constexpr std::uint64_t Stats::*kCounted[] = {
    &Stats::cycles,
    &Stats::instructions,
    &Stats::itlb_hits,
    &Stats::itlb_misses,
    &Stats::dtlb_hits,
    &Stats::dtlb_misses,
    &Stats::tlb_flushes,
    &Stats::hardware_walks,
    &Stats::fetch_fastpath_hits,
    &Stats::data_fastpath_hits,
    &Stats::decode_cache_hits,
    &Stats::decode_cache_misses,
    &Stats::block_cache_hits,
    &Stats::block_cache_misses,
    &Stats::block_cache_invalidations,
    &Stats::block_instructions,
    &Stats::page_faults,
    &Stats::split_dtlb_loads,
    &Stats::split_itlb_loads,
    &Stats::split_dtlb_fallbacks,
    &Stats::single_steps,
    &Stats::demand_pages,
    &Stats::cow_copies,
    &Stats::syscalls,
    &Stats::context_switches,
    &Stats::sched_wake_checks,
};

void add_stats(Stats& into, const Stats& s) {
  for (auto f : kCounted) into.*f += s.*f;
}

Stats sub_stats(const Stats& a, const Stats& b) {
  Stats d;
  for (auto f : kCounted) d.*f = a.*f - b.*f;
  return d;
}

// --- percentiles -------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The highest percentile with at least 10 samples beyond it: the value at
// sorted index n-11, which is percentile 100*(n-10)/n. With fewer than 21
// samples that percentile would sit at or below the median, so the maximum
// is reported instead.
struct Tail {
  double value = 0;
  std::string label;
};

Tail tail(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 21) {
    t.value = v.back();
    t.label = "max of " + std::to_string(n) + " (fewer than 21 samples)";
  } else {
    t.value = v[n - 11];
    char buf[64];
    std::snprintf(buf, sizeof buf, "p%.4g of %zu",
                  100.0 * static_cast<double>(n - 10) / n, n);
    t.label = buf;
  }
  return t;
}

// --- workloads ---------------------------------------------------------------

// What one op returned. `ops` is the user-visible unit the op completed
// (requests, round trips, cases, resets); `fingerprint` holds the op's
// simulated results, which must repeat exactly every time the op reruns.
struct OpOut {
  bool ok = true;
  std::string why;
  u64 ops = 1;
  u64 instructions = 0;
  u64 cycles = 0;
  std::vector<u64> fingerprint;
  Stats stats;  // simulated counters of the op (traced ops only for fuzz)
};

// Cycle attribution from the simulator's own trace, summed over one pass.
struct SimTrace {
  std::array<double, static_cast<std::size_t>(sm::trace::Category::kCount)>
      cycles{};
  double ctxsw_flush = 0;
  double capacity = 0;
  double dropped = 0;
  u64 ops = 0;
  std::string error;

  void add(const sm::trace::ProfileSummary& s, double sign = 1) {
    for (std::size_t c = 0; c < cycles.size(); ++c)
      cycles[c] +=
          sign * s.category_cycles(static_cast<sm::trace::Category>(c));
    ctxsw_flush += sign * s.ctx_switch_flush_cycles();
    capacity += sign * s.capacity_fault_cycles();
    dropped += sign * s.events_dropped;
  }
};

struct SimDist {
  double p50 = 0;
  Tail tail;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Repeated set-up: each call redoes it from scratch (timed as setup_s).
  virtual void setup() = 0;
  // Untimed work between set-up and the first op.
  virtual void prepare() {}
  // Distinct ops; the loop runs op(i % pool()).
  virtual std::size_t pool() const = 0;
  virtual OpOut op(std::size_t i) = 0;
  // Median and tail of the simulated cycles per op over the distinct ops.
  virtual SimDist sim_dist(const std::vector<OpOut>& first) const {
    std::vector<double> v;
    for (const OpOut& o : first)
      v.push_back(static_cast<double>(o.cycles) / o.ops);
    return {median(v), tail(v)};
  }
  // One pass over the distinct ops with the simulator's trace layer on.
  virtual SimTrace sim_trace(const std::vector<OpOut>& first) = 0;
  // The op count inside one call, when ops are not timed one by one
  // (serve, pingpong, forkserver); 0 otherwise.
  virtual u64 ops_per_call() const { return 0; }
  // Whether each call is one workloads:: call that builds and runs its own
  // kernel (serve, pingpong).
  virtual bool call_builds_kernel() const { return false; }
  // Mean size of the saved snapshots, for workloads that save any.
  virtual double snapshot_bytes() const { return 0; }
  // Stated in the output beside the metrics.
  virtual std::string notes() const { return ""; }
};

// The case's image, as fuzz::make_case_kernel builds it.
sm::image::Image build_case_image(const sm::fuzz::FuzzCase& c) {
  sm::assembler::Program program;
  {
    auto a = span("asm.assemble");
    program = sm::assembler::assemble(sm::guest::program(c.body));
  }
  auto b = span("image.build");
  sm::image::BuildOptions opts;
  opts.name = "fuzz";
  opts.mixed_text = c.mixed_text;
  return sm::image::build_image(program, opts);
}

// Builds the pieces fuzz::make_case_kernel builds, one span each, so the
// traced run can split kernel construction from assembly and image build.
// The untraced path calls fuzz::make_case_kernel itself.
std::unique_ptr<Kernel> build_case_kernel(const sm::fuzz::FuzzCase& c,
                                          const sm::fuzz::OracleConfig& cfg) {
  auto s = span("fuzz.make_kernel");
  if (!g_spans.on) return sm::fuzz::make_case_kernel(c, cfg);
  sm::image::Image img = build_case_image(c);
  sm::kernel::KernelConfig kc;
  kc.record_syscall_trace = true;
  kc.capture_exit_digest = true;
  kc.software_tlb = cfg.software_tlb;
  kc.eager_load = cfg.eager_load;
  kc.trace = cfg.trace;
  if (cfg.phys_frames != 0) kc.phys_frames = cfg.phys_frames;
  std::unique_ptr<Kernel> k;
  {
    auto k_s = span("kernel.construct");
    k = std::make_unique<Kernel>(kc);
  }
  k->set_engine(sm::core::make_engine(cfg.mode, cfg.response));
  k->register_image(std::move(img));
  k->spawn("fuzz");
  k->mmu().set_data_memo_enabled(cfg.data_memo);
  k->cpu().set_decode_cache_enabled(cfg.decode_cache);
  k->cpu().set_block_engine_enabled(cfg.dbt &&
                                    k->cpu().block_engine_enabled());
  return k;
}

void destroy(std::unique_ptr<Kernel>& k) {
  auto s = span("kernel.destroy");
  k.reset();
}

Kernel::RunResult run_kernel(Kernel& k, u64 budget) {
  auto s = span("kernel.run");
  return k.run(budget);
}

sm::fuzz::RunObservation observe(Kernel& k, Kernel::RunResult r) {
  auto s = span("fuzz.observe");
  return sm::fuzz::observe(k, r);
}

// Kernel construction and destruction with a workload's KernelConfig: the
// set-up cost of the workloads whose single call builds its own kernel.
void construct_and_destroy(const sm::kernel::KernelConfig& kc) {
  std::unique_ptr<Kernel> k;
  {
    auto s = span("kernel.construct");
    k = std::make_unique<Kernel>(kc);
  }
  destroy(k);
}

// Oracle inputs: fixed-size benign programs, long enough that every case
// does a similar amount of work, so a run's average does not hinge on
// which cases its seed drew.
constexpr u32 kActions = 48;

sm::fuzz::FuzzCase generate_case(u64 seed) {
  auto s = span("fuzz.generate");
  sm::fuzz::GenOptions opts;
  opts.min_actions = kActions;
  opts.max_actions = kActions;
  opts.allow_lethal = false;
  return sm::fuzz::generate(seed, opts);
}

sm::fuzz::OracleConfig split_break() {
  return {.label = "split-break", .mode = sm::core::ProtectionMode::kSplitAll};
}

constexpr u64 kBudget = 20'000'000;

// serve: the event-driven server under split protection, 1000 workers,
// a closed-loop seeded request stream. One op is one request.
class Serve : public Workload {
 public:
  Serve(u64 seed, bool tiny) {
    cfg_.workers = tiny ? 50 : 1000;
    cfg_.requests = tiny ? 300 : 12000;
    cfg_.seed = seed;
    cfg_.cores = 1;
  }
  void setup() override {
    sm::kernel::KernelConfig kc;
    kc.phys_frames = cfg_.phys_frames;
    kc.cores = 1;
    construct_and_destroy(kc);
  }
  std::size_t pool() const override { return 1; }
  u64 ops_per_call() const override { return cfg_.requests; }
  bool call_builds_kernel() const override { return true; }
  OpOut op(std::size_t) override {
    sm::workloads::ServerLoadResult r;
    {
      auto s = span("workloads.call");
      r = sm::workloads::run_server_load(sm::workloads::Protection::split_all(),
                                         cfg_);
    }
    return result(r);
  }
  // The guest reports every request's round trip.
  SimDist sim_dist(const std::vector<OpOut>&) const override { return dist_; }
  SimTrace sim_trace(const std::vector<OpOut>& first) override {
    SimTrace t;
    const auto r = sm::workloads::run_server_load(
        sm::workloads::Protection::split_all().with_trace(), cfg_);
    if (result(r).fingerprint != first[0].fingerprint)
      t.error = "traced server run billed differently from the untraced one";
    if (r.base.trace_summary) t.add(*r.base.trace_summary);
    t.ops = cfg_.requests;
    return t;
  }
  std::string notes() const override {
    return "workers=" + std::to_string(cfg_.workers) +
           " requests_per_call=" + std::to_string(cfg_.requests) +
           " window=" + std::to_string(cfg_.window) + " cores=1";
  }

 private:
  OpOut result(const sm::workloads::ServerLoadResult& r) {
    OpOut o;
    o.ops = cfg_.requests;
    o.instructions = r.base.stats.instructions;
    o.cycles = r.base.stats.cycles;
    o.stats = r.base.stats;
    if (!r.base.completed || r.requests_completed != cfg_.requests) {
      o.ok = false;
      o.why = "server completed " + std::to_string(r.requests_completed) +
              " of " + std::to_string(cfg_.requests) + " requests";
    }
    // Tail: the highest percentile with at least 10 requests beyond it.
    const double q = 1.0 - 10.0 / cfg_.requests;
    const u64 p50 = r.latency.quantile(0.5);
    const u64 tail = r.latency.quantile(q);
    char buf[64];
    std::snprintf(buf, sizeof buf, "p%.4g of %u requests", 100 * q,
                  cfg_.requests);
    dist_ = {static_cast<double>(p50), {static_cast<double>(tail), buf}};
    o.fingerprint = {o.cycles, o.instructions, p50, tail,
                     r.requests_completed};
    return o;
  }

  sm::workloads::ServerLoadConfig cfg_;
  SimDist dist_;
};

// pingpong: two processes bounce a token over two pipes under split
// protection; every switch flushes the TLBs. One op is one round trip.
class PingPong : public Workload {
 public:
  explicit PingPong(bool tiny) : iters_(tiny ? 500 : 20000) {}
  void setup() override {
    sm::kernel::KernelConfig kc;  // run_unixbench's configuration
    kc.cores = 1;
    construct_and_destroy(kc);
  }
  std::size_t pool() const override { return 1; }
  u64 ops_per_call() const override { return iters_; }
  bool call_builds_kernel() const override { return true; }
  OpOut op(std::size_t) override {
    sm::workloads::WorkloadResult r;
    {
      auto s = span("workloads.call");
      r = sm::workloads::run_unixbench(
          sm::workloads::UnixBench::kPipeContextSwitch,
          sm::workloads::Protection::split_all(), iters_);
    }
    return result(r);
  }
  SimTrace sim_trace(const std::vector<OpOut>& first) override {
    SimTrace t;
    const auto r = sm::workloads::run_unixbench(
        sm::workloads::UnixBench::kPipeContextSwitch,
        sm::workloads::Protection::split_all().with_trace(), iters_);
    if (result(r).fingerprint != first[0].fingerprint)
      t.error = "traced pingpong run billed differently from the untraced one";
    if (r.trace_summary) t.add(*r.trace_summary);
    t.ops = iters_;
    return t;
  }
  std::string notes() const override {
    return "round_trips_per_call=" + std::to_string(iters_);
  }

 private:
  OpOut result(const sm::workloads::WorkloadResult& r) const {
    OpOut o;
    o.ops = iters_;
    o.instructions = r.stats.instructions;
    o.cycles = r.stats.cycles;
    o.stats = r.stats;
    if (!r.completed) {
      o.ok = false;
      o.why = "pingpong processes did not all exit cleanly";
    }
    o.fingerprint = {o.cycles, o.instructions, r.stats.context_switches};
    return o;
  }

  u32 iters_;
};

// fuzz: the differential oracle (every engine and fast-path config) on
// seeded generated cases. One op is one fuzz::check_case.
class Fuzz : public Workload {
 public:
  Fuzz(u64 seed, bool tiny) : seed_(seed), n_(tiny ? 2 : 16) {}
  void setup() override {
    cases_.clear();
    for (std::size_t i = 0; i < n_; ++i) {
      cases_.push_back(generate_case(mix(seed_ * 1000003 + i)));
      build_case_image(cases_.back());  // as each of the case's kernels does
    }
  }
  // Reference runs under split-break give each case's simulated cycles and
  // retired instructions (every config retires the same count; the oracle
  // checks that).
  void prepare() override {
    configs_ = sm::fuzz::behavioral_configs().size() +
               sm::fuzz::billing_configs().size();
    ref_.clear();
    for (const auto& c : cases_)
      ref_.push_back(sm::fuzz::run_case(c, split_break(), kBudget));
  }
  std::size_t pool() const override { return cases_.size(); }
  OpOut op(std::size_t i) override {
    OpOut o;
    o.instructions = configs_ * ref_[i].instructions;
    o.cycles = ref_[i].stats.cycles;
    o.fingerprint = {o.cycles, o.instructions};
    try {
      if (g_spans.on) return sweep(i, o);
      const sm::fuzz::OracleVerdict v = sm::fuzz::check_case(cases_[i]);
      if (!v.ok) {
        o.ok = false;
        o.why = v.divergence;
      }
    } catch (const std::exception& e) {
      o.ok = false;
      o.why = std::string("exception: ") + e.what();
    }
    return o;
  }
  SimTrace sim_trace(const std::vector<OpOut>&) override {
    SimTrace t;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      auto cfg = split_break();
      cfg.trace = true;
      const auto k = sm::fuzz::make_case_kernel(cases_[i], cfg);
      k->run(kBudget);
      if (k->stats().cycles != ref_[i].stats.cycles)
        t.error = "traced fuzz run billed differently from the untraced one";
      t.add(k->trace_sink()->summary());
      ++t.ops;
    }
    return t;
  }
  std::string notes() const override {
    return "cases=" + std::to_string(n_) +
           " configs_per_case=" + std::to_string(configs_) +
           " actions_per_case=" + std::to_string(kActions) +
           " sim_cycles=split-break run of the case";
  }

 private:
  // check_case's two sweeps, rebuilt from the oracle's public pieces so
  // each call gets its span. Same configs, same comparisons.
  OpOut sweep(std::size_t i, OpOut o) {
    const auto& c = cases_[i];
    u64 instructions = 0;
    const auto run_one = [&](const sm::fuzz::OracleConfig& cfg) {
      auto k = build_case_kernel(c, cfg);
      const auto rr = run_kernel(*k, kBudget);
      auto obs = observe(*k, rr);
      destroy(k);
      add_stats(o.stats, obs.stats);
      instructions += obs.instructions;
      return obs;
    };
    const auto fail = [&](std::string why) {
      if (o.ok) {
        o.ok = false;
        o.why = std::move(why);
      }
    };
    const auto behav = sm::fuzz::behavioral_configs();
    const auto ref = run_one(behav[0]);
    if (ref.result != Kernel::RunResult::kAllExited)
      fail("reference run did not exit");
    for (std::size_t j = 1; j < behav.size(); ++j) {
      const auto got = run_one(behav[j]);
      auto s = span("fuzz.compare");
      const std::string d =
          sm::fuzz::diff_behavior(ref, behav[0].label, got, behav[j].label);
      if (!d.empty()) fail(d);
    }
    const auto bill = sm::fuzz::billing_configs();
    for (std::size_t base = 0; base + 4 < bill.size(); base += 5) {
      const auto bref = run_one(bill[base]);
      for (std::size_t j = base + 1; j < base + 5; ++j) {
        const auto got = run_one(bill[j]);
        auto s = span("fuzz.compare");
        const std::string d =
            sm::fuzz::diff_billing(bref, bill[base].label, got, bill[j].label);
        if (!d.empty()) fail(d);
      }
    }
    if (instructions != o.instructions)
      fail("configs retired " + std::to_string(instructions) +
           " instructions, reference says " + std::to_string(o.instructions));
    return o;
  }

  u64 seed_;
  std::size_t n_;
  std::size_t configs_ = 0;
  std::vector<sm::fuzz::FuzzCase> cases_;
  std::vector<sm::fuzz::RunObservation> ref_;
};

// forkserver: per case, set-up runs the case straight through (the
// reference), reruns it to 90% of its instructions and saves the machine.
// One op is an in-place restore of one case's snapshot, the suffix run,
// and both oracle clauses against the reference. A call resets every case
// once: single resets cost from 2 to 20 ms depending on the case, so a
// per-reset tail would measure whichever case the seed made heaviest,
// while a pass's mean is a steady figure of the same work.
class ForkServer : public Workload {
 public:
  ForkServer(u64 seed, bool tiny) : seed_(seed), n_(tiny ? 2 : 96) {
    // An 8 MiB machine, as the snapshot battery uses: plenty for these
    // programs, and cheap to build for this many cases.
    cfg_.phys_frames = 2048;
  }
  void setup() override {
    cases_.clear();
    k_.reset();
    for (std::size_t i = 0; i < n_; ++i) {
      Case c;
      c.fc = generate_case(mix(seed_ * 1000003 + i) ^ 0xf0f0);
      auto ref_k = build_case_kernel(c.fc, cfg_);
      const auto rr = run_kernel(*ref_k, kBudget);
      c.ref = observe(*ref_k, rr);
      destroy(ref_k);
      c.prefix = c.ref.instructions * 90 / 100;
      // The last case's kernel stays as the one every op restores into.
      if (k_) destroy(k_);
      k_ = build_case_kernel(c.fc, cfg_);
      if (c.prefix > 0) run_kernel(*k_, c.prefix);
      c.saved = k_->stats();
      std::ostringstream os;
      {
        auto s = span("snapshot.save");
        k_->save(os);
      }
      c.blob = os.str();
      cases_.push_back(std::move(c));
    }
  }
  std::size_t pool() const override { return 1; }
  u64 ops_per_call() const override { return n_; }
  OpOut op(std::size_t) override {
    OpOut pass;
    pass.ops = cases_.size();
    for (const Case& c : cases_) {
      const OpOut o = reset(c);
      if (!o.ok && pass.ok) {
        pass.ok = false;
        pass.why = o.why;
      }
      add_stats(pass.stats, o.stats);
      pass.fingerprint.insert(pass.fingerprint.end(), o.fingerprint.begin(),
                              o.fingerprint.end());
    }
    pass.instructions = pass.stats.instructions;
    pass.cycles = pass.stats.cycles;
    return pass;
  }
  // Per reset: each case's suffix cycles, read back from the fingerprint.
  SimDist sim_dist(const std::vector<OpOut>& first) const override {
    std::vector<double> v;
    for (std::size_t i = 0; i < first[0].fingerprint.size(); i += 2)
      v.push_back(static_cast<double>(first[0].fingerprint[i]));
    return {median(v), tail(v)};
  }
  SimTrace sim_trace(const std::vector<OpOut>& first) override {
    SimTrace t;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      const Case& c = cases_[i];
      auto cfg = cfg_;
      cfg.trace = true;
      const auto k = sm::fuzz::make_case_kernel(c.fc, cfg);
      if (c.prefix > 0) k->run(c.prefix);
      const u64 at_save = k->stats().cycles;
      t.add(k->trace_sink()->summary(), -1);
      k->run(kBudget - c.prefix);
      t.add(k->trace_sink()->summary());
      if (k->stats().cycles - at_save != first[0].fingerprint[2 * i])
        t.error = "traced forkserver suffix billed differently";
      ++t.ops;
    }
    return t;
  }
  double snapshot_bytes() const override {
    double b = 0;
    for (const Case& c : cases_) b += static_cast<double>(c.blob.size());
    return cases_.empty() ? 0 : b / cases_.size();
  }
  std::string notes() const override {
    return "cases=" + std::to_string(n_) +
           " actions_per_case=" + std::to_string(kActions) +
           " phys_frames=2048 prefix=90% sim_cycles=suffix of the split-break"
           " run";
  }

 private:
  struct Case {
    sm::fuzz::FuzzCase fc;
    sm::fuzz::RunObservation ref;
    u64 prefix = 0;
    Stats saved;
    std::string blob;
  };

  OpOut reset(const Case& c) {
    OpOut o;
    try {
      {
        auto s = span("snapshot.restore");
        std::istringstream is(c.blob);
        k_->restore(is);
      }
      const auto rr = run_kernel(*k_, kBudget - c.prefix);
      const auto got = observe(*k_, rr);
      auto s = span("fuzz.compare");
      std::string d = sm::fuzz::diff_behavior(c.ref, "straight", got, "reset");
      if (d.empty())
        d = sm::fuzz::diff_billing(c.ref, "straight", got, "reset");
      if (!d.empty()) {
        o.ok = false;
        o.why = d;
      }
      o.stats = sub_stats(got.stats, c.saved);
    } catch (const std::exception& e) {
      o.ok = false;
      o.why = std::string("exception: ") + e.what();
    }
    o.instructions = o.stats.instructions;
    o.cycles = o.stats.cycles;
    o.fingerprint = {o.cycles, o.instructions};
    return o;
  }

  u64 seed_;
  std::size_t n_;
  sm::fuzz::OracleConfig cfg_ = split_break();
  std::vector<Case> cases_;
  std::unique_ptr<Kernel> k_;
};

// --- JSON output -------------------------------------------------------------

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string kind;  // "host" or "sim"
};

// --- the run -----------------------------------------------------------------

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string spans_file;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--size") {
      if (v != "full" && v != "tiny") throw std::runtime_error("bad --size");
      a.tiny = v == "tiny";
    } else if (k == "--spans") {
      a.spans_file = v;
    } else {
      throw std::runtime_error("unknown option " + k);
    }
  }
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "serve") return std::make_unique<Serve>(a.seed, a.tiny);
  if (a.workload == "pingpong") return std::make_unique<PingPong>(a.tiny);
  if (a.workload == "fuzz") return std::make_unique<Fuzz>(a.seed, a.tiny);
  if (a.workload == "forkserver")
    return std::make_unique<ForkServer>(a.seed, a.tiny);
  throw std::runtime_error("unknown workload '" + a.workload + "'");
}

struct Loop {
  std::vector<double> op_ms;  // host ms per op, one sample per call
  std::vector<OpOut> first;   // first result of each distinct op
  std::vector<double> setup_s;  // set-ups redone during the loop
  double seconds = 0;           // host time of the ops
  u64 calls = 0;
  u64 ops = 0;
  u64 failed = 0;
  u64 instructions = 0;
  long first_pass_minflt = 0;  // minor faults until every op ran once
  std::vector<std::string> failures;
};

// Runs op(i % pool) until `seconds` of wall time have passed and every
// distinct op has run once and `min_calls` calls were made, or exactly
// `calls` calls when that is nonzero. After the first pass it redoes the
// set-up `setups` times, at evenly spaced points. Every rerun of an op
// must reproduce its first fingerprint.
Loop run_loop(Workload& w, double seconds, u64 calls, u64 min_calls = 0,
              std::size_t setups = 0) {
  Loop l;
  l.first.resize(w.pool());
  min_calls = std::max<u64>(min_calls, w.pool());
  const long flt0 = usage().minflt;
  const auto wall0 = WallClock::now();
  for (u64 i = 0;; ++i) {
    const double elapsed = seconds_between(wall0, WallClock::now());
    if (calls ? i >= calls : (i >= min_calls && elapsed >= seconds)) break;
    if (i >= w.pool() && l.setup_s.size() < setups &&
        elapsed >= seconds * static_cast<double>(l.setup_s.size() + 1) /
                       static_cast<double>(setups + 1)) {
      const auto s0 = Clock::now();
      w.setup();
      l.setup_s.push_back(seconds_between(s0, Clock::now()));
    }
    const std::size_t idx = i % w.pool();
    g_spans.op = i + 1;
    const auto a = Clock::now();
    OpOut o;
    {
      auto s = span("op");
      o = w.op(idx);
    }
    const double op_s = seconds_between(a, Clock::now());
    l.seconds += op_s;
    l.op_ms.push_back(op_s * 1e3 / o.ops);
    if (i < w.pool()) {
      l.first[idx] = o;
    } else if (o.ok && o.fingerprint != l.first[idx].fingerprint) {
      o.ok = false;
      o.why = "op " + std::to_string(idx) + " rerun gave different results";
    }
    if (!o.ok) {
      l.failed += o.ops;
      if (l.failures.size() < 5) l.failures.push_back(o.why);
    }
    l.ops += o.ops;
    l.instructions += o.instructions;
    ++l.calls;
    if (l.calls == w.pool()) l.first_pass_minflt = usage().minflt - flt0;
  }
  return l;
}

// Per-layer numbers from the recorded spans: mean seconds per call of a
// layer, and its self time (duration minus the time its child spans
// cover) summed per op.
struct LayerTimes {
  std::map<std::string, double> total_s, minflt;
  std::map<std::string, double> self_s;  // ops only, set-up excluded
  std::map<std::string, u64> count;
};

LayerTimes layer_times(const std::vector<Span>& spans) {
  LayerTimes t;
  std::vector<double> child(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent >= 0) child[s.parent] += s.end - s.start;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string n(s.name);
    t.total_s[n] += s.end - s.start;
    if (s.op != 0) t.self_s[n] += s.end - s.start - child[i];
    t.minflt[n] += static_cast<double>(s.minflt);
    ++t.count[n];
  }
  return t;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  for (const Span& s : spans) {
    f << "{\"name\":" << json_string(s.name)
      << ",\"start\":" << json_number(s.start)
      << ",\"end\":" << json_number(s.end) << ",\"parent\":" << s.parent
      << ",\"op\":" << s.op << ",\"minflt\":" << s.minflt << "}\n";
  }
  if (!f) throw std::runtime_error("cannot write spans to " + path);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

int run(const Args& a) {
  const auto t_start = WallClock::now();
  std::unique_ptr<Workload> w = make_workload(a);

  // Set-up runs once before the first timed op. For setup_s (--trace 0) it
  // is redone at evenly spaced points of the timed phase, 9 times in all
  // (3 for forkserver, whose set-up is long), and setup_s is the median:
  // host speed drifts, and this way set-up is sampled over the same
  // stretch of time as the ops, not only at the start of the process. The
  // traced run records spans in set-up too, since some layers (kernel
  // construction for serve and pingpong, snapshot save) run only there.
  g_spans.on = a.trace;
  const std::size_t setups =
      a.trace ? 1 : a.tiny ? 2 : (a.workload == "forkserver" ? 3 : 9);
  // At least 21 timed ops, so that op_tail_ms has ten samples beyond it
  // and sits above the median.
  const u64 min_calls = a.tiny ? 0 : 21;
  const long flt = usage().minflt;
  const auto s0 = Clock::now();
  w->setup();
  std::vector<double> setup_times = {seconds_between(s0, Clock::now())};
  const long setup_minflt = usage().minflt - flt;  // the first, cold set-up
  const std::size_t setup_spans = g_spans.spans.size();
  g_spans.on = false;
  w->prepare();

  std::vector<Metric> m;
  Loop l;
  std::vector<std::string> failures;
  u64 attempted = 0, failed = 0;
  const auto record = [&](const Loop& x) {
    attempted += x.ops;
    failed += x.failed;
    failures.insert(failures.end(), x.failures.begin(), x.failures.end());
  };
  std::string tail_label;
  std::string notes = w->notes();

  if (!a.trace) {
    l = run_loop(*w, a.seconds, 0, min_calls, setups - 1);
    record(l);
    setup_times.insert(setup_times.end(), l.setup_s.begin(), l.setup_s.end());
    const double wall = seconds_between(t_start, WallClock::now());
    const Usage u = usage();
    const Tail op_tail = tail(l.op_ms);
    tail_label = "op_tail_ms=" + op_tail.label;
    if (w->ops_per_call())
      notes += "; op latency is call time / ops in the call, one sample "
               "per call";
    const SimDist sim = w->sim_dist(l.first);
    tail_label += "; sim_tail_cycles=" + sim.tail.label;
    u64 pool_ops = 0, pool_cycles = 0;
    for (const OpOut& o : l.first) {
      pool_ops += o.ops;
      pool_cycles += o.cycles;
    }
    m = {
        {"ops_per_s", l.ops / l.seconds, "1/s", "host"},
        {"host_mips", l.instructions / l.seconds / 1e6, "MIPS", "host"},
        {"wall_s", wall, "s", "host"},
        {"setup_s", median(setup_times), "s", "host"},
        {"op_p50_ms", median(l.op_ms), "ms", "host"},
        {"op_tail_ms", op_tail.value, "ms", "host"},
        // A cold set-up plus every distinct op once: a fixed amount of
        // work, whatever the run length.
        {"minflt", static_cast<double>(setup_minflt + l.first_pass_minflt),
         "count", "host"},
        {"peak_rss_mib", u.maxrss_kib / 1024.0, "MiB", "host"},
        {"sim_cycles_per_op", ratio(pool_cycles, pool_ops), "cycles", "sim"},
        {"sim_p50_cycles", sim.p50, "cycles", "sim"},
        {"sim_tail_cycles", sim.tail.value, "cycles", "sim"},
    };
  } else {
    // Untraced, then the same calls with spans: the difference is the
    // tracing overhead.
    const Loop plain = run_loop(*w, a.seconds / 2, 0, min_calls);
    record(plain);
    g_spans.on = true;
    l = run_loop(*w, 0, plain.calls);
    g_spans.on = false;
    record(l);
    const SimTrace st = w->sim_trace(l.first);
    if (!st.error.empty()) {
      ++failed;
      failures.push_back(st.error);
    }

    const LayerTimes lt = layer_times(g_spans.spans);
    const auto mean = [&](const std::map<std::string, double>& sums,
                          const char* n) {
      auto it = lt.count.find(n);
      return it == lt.count.end() ? 0.0 : sums.at(n) / it->second;
    };
    const auto per_call = [&](const char* n) { return mean(lt.total_s, n); };
    const auto count = [&](const char* n) {
      auto it = lt.count.find(n);
      return it == lt.count.end() ? 0.0 : static_cast<double>(it->second);
    };
    // Kernels built per op: inside ops' spans, or one per workloads:: call.
    u64 op_kernels = w->call_builds_kernel() ? l.calls : 0;
    for (std::size_t i = setup_spans; i < g_spans.spans.size(); ++i)
      if (g_spans.spans[i].name == "kernel.construct") ++op_kernels;
    Stats s;
    u64 pool_ops = 0;
    for (const OpOut& o : l.first) {
      add_stats(s, o.stats);
      pool_ops += o.ops;
    }
    const double n_ops = static_cast<double>(pool_ops);
    const auto per_op = [&](std::uint64_t v) { return ratio(v, n_ops); };
    double run_s = per_call("kernel.run");
    if (w->call_builds_kernel())
      run_s = per_call("workloads.call") - per_call("kernel.construct") -
              per_call("kernel.destroy");
    const Usage u = usage();
    m = {
        {"kernel.construct_s", per_call("kernel.construct"), "s", "host"},
        {"kernel.construct_minflt", mean(lt.minflt, "kernel.construct"),
         "count", "host"},
        {"kernel.destroy_s", per_call("kernel.destroy"), "s", "host"},
        {"kernel.kernels_per_op", ratio(op_kernels, l.ops), "count", "sim"},
        {"fuzz.generate_s", per_call("fuzz.generate"), "s", "host"},
        {"fuzz.make_kernel_s", per_call("fuzz.make_kernel"), "s", "host"},
        {"fuzz.observe_s", per_call("fuzz.observe"), "s", "host"},
        {"fuzz.compare_s", per_call("fuzz.compare"), "s", "host"},
        {"fuzz.configs_per_case",
         a.workload == "fuzz" ? ratio(count("fuzz.make_kernel"), l.ops) : 0,
         "count", "sim"},
        {"snapshot.save_s", per_call("snapshot.save"), "s", "host"},
        {"snapshot.restore_s", per_call("snapshot.restore"), "s", "host"},
        {"snapshot.bytes", w->snapshot_bytes(), "bytes", "sim"},
        {"kernel.run_s", run_s, "s", "host"},
        {"workloads.call_s", per_call("workloads.call"), "s", "host"},
        {"arch.block_insn_frac", ratio(s.block_instructions, s.instructions),
         "ratio", "host"},
        {"arch.block_hit_ratio",
         ratio(s.block_cache_hits, s.block_cache_hits + s.block_cache_misses),
         "ratio", "host"},
        {"arch.block_invalidations_per_minsn",
         ratio(s.block_cache_invalidations * 1e6, s.instructions), "count",
         "host"},
        {"arch.fetch_memo_hit_ratio",
         ratio(s.fetch_fastpath_hits, s.itlb_hits + s.itlb_misses), "ratio",
         "host"},
        {"arch.data_memo_hit_ratio",
         ratio(s.data_fastpath_hits, s.dtlb_hits + s.dtlb_misses), "ratio",
         "host"},
        {"arch.itlb_miss_ratio",
         ratio(s.itlb_misses, s.itlb_hits + s.itlb_misses), "ratio", "sim"},
        {"arch.dtlb_miss_ratio",
         ratio(s.dtlb_misses, s.dtlb_hits + s.dtlb_misses), "ratio", "sim"},
        {"arch.walks_per_kinsn", ratio(s.hardware_walks * 1e3, s.instructions),
         "count", "sim"},
        {"core.split_itlb_loads_per_op", per_op(s.split_itlb_loads), "count",
         "sim"},
        {"core.split_dtlb_loads_per_op", per_op(s.split_dtlb_loads), "count",
         "sim"},
        {"core.single_steps_per_op", per_op(s.single_steps), "count", "sim"},
        {"core.dtlb_fallbacks_per_op", per_op(s.split_dtlb_fallbacks), "count",
         "sim"},
        {"kernel.page_faults_per_op", per_op(s.page_faults), "count", "sim"},
        {"arch.tlb_flushes_per_op", per_op(s.tlb_flushes), "count", "sim"},
        {"arch.decode_hit_ratio",
         ratio(s.decode_cache_hits, s.decode_cache_hits + s.decode_cache_misses),
         "ratio", "host"},
        {"kernel.syscalls_per_op", per_op(s.syscalls), "count", "sim"},
        {"kernel.ctxsw_per_op", per_op(s.context_switches), "count", "sim"},
        {"kernel.wake_checks_per_op", per_op(s.sched_wake_checks), "count",
         "sim"},
        {"kernel.demand_pages_per_op", per_op(s.demand_pages), "count", "sim"},
        {"kernel.cow_copies_per_op", per_op(s.cow_copies), "count", "sim"},
        {"host.user_s", u.user_s, "s", "host"},
        {"host.sys_s", u.sys_s, "s", "host"},
        {"trace.span_overhead_frac", l.seconds / plain.seconds - 1, "ratio",
         "host"},
    };
    const double t_ops = static_cast<double>(st.ops);
    for (std::size_t c = 0; c < st.cycles.size(); ++c) {
      m.push_back({std::string("trace.cycles.") +
                       sm::trace::category_name(
                           static_cast<sm::trace::Category>(c)),
                   ratio(st.cycles[c], t_ops), "cycles", "sim"});
    }
    m.push_back({"trace.ctxsw_flush_cycles", ratio(st.ctxsw_flush, t_ops),
                 "cycles", "sim"});
    m.push_back({"trace.capacity_cycles", ratio(st.capacity, t_ops), "cycles",
                 "sim"});
    m.push_back({"trace.events_dropped", st.dropped, "count", "sim"});

    // Self time per layer, per op, over the traced calls.
    notes += "; self time per op (ms):";
    for (const auto& [name, self] : lt.self_s) {
      char buf[96];
      std::snprintf(buf, sizeof buf, " %s=%.4g", name.c_str(),
                    self * 1e3 / std::max<u64>(l.ops, 1));
      notes += buf;
    }
    if (!a.spans_file.empty()) write_spans(a.spans_file, g_spans.spans);
  }

  std::vector<u64> fingerprint;
  for (const OpOut& o : l.first)
    fingerprint.insert(fingerprint.end(), o.fingerprint.begin(),
                       o.fingerprint.end());

  std::ostringstream js;
  js << "{\"workload\":" << json_string(a.workload) << ",\"seed\":" << a.seed
     << ",\"correct\":" << (failed == 0 ? "true" : "false")
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"calls\":" << l.calls << ",\"metrics\":{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    js << (i ? "," : "") << json_string(m[i].name)
       << ":{\"value\":" << json_number(m[i].value)
       << ",\"unit\":" << json_string(m[i].unit)
       << ",\"kind\":" << json_string(m[i].kind) << "}";
  }
  js << "},\"fingerprint\":[";
  for (std::size_t i = 0; i < fingerprint.size(); ++i)
    js << (i ? "," : "") << fingerprint[i];
  js << "],\"percentiles\":" << json_string(tail_label)
     << ",\"notes\":" << json_string(notes) << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i)
    js << (i ? "," : "") << json_string(failures[i]);
  js << "]}";
  std::cout << js.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
