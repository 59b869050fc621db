// Performance workloads reproducing the paper's evaluation programs
// (§6.2): an Apache-style webserver driven by an ApacheBench-style client,
// a gzip-style compressor, nbench-style compute kernels, and a
// unixbench-style microbenchmark suite (including the pipe-based
// context-switching stressor of Figs. 7 and 9).
//
// Every workload runs the same guest program under a configurable
// protection engine and reports simulated cycles; figures are ratios of
// protected to unprotected runs (normalized performance).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/split_engine.h"
#include "kernel/kernel.h"
#include "metrics/latency_histogram.h"
#include "metrics/stats.h"
#include "trace/profiler.h"

namespace sm::workloads {

using arch::u32;
using arch::u64;

// How a run is protected: either one of the standard modes or a custom
// split fraction (Fig. 9).
struct Protection {
  core::ProtectionMode mode = core::ProtectionMode::kNone;
  // When set (0-100), overrides mode with SplitMemoryEngine(fraction).
  std::optional<u32> split_fraction;
  u32 fraction_seed = 0;
  // SPARC-style software-managed TLBs (paper SS4.7 portability study).
  bool software_tlb = false;
  // I-TLB load method for the split engine (paper SS4.2.4 side note).
  core::ItlbLoadMethod itlb_method = core::ItlbLoadMethod::kSingleStep;
  // Record a cycle-attribution trace of the run (KernelConfig::trace);
  // the result then carries WorkloadResult::trace_summary. Observation
  // only — simulated figures are bit-identical either way.
  bool trace = false;

  static Protection none() { return {}; }
  static Protection split_all() {
    Protection p;
    p.mode = core::ProtectionMode::kSplitAll;
    return p;
  }
  static Protection fraction(u32 percent, u32 seed = 0) {
    Protection p;
    p.mode = core::ProtectionMode::kSplitAll;
    p.split_fraction = percent;
    p.fraction_seed = seed;
    return p;
  }
  Protection with_software_tlb() const {
    Protection p = *this;
    p.software_tlb = true;
    return p;
  }
  Protection with_trace() const {
    Protection p = *this;
    p.trace = true;
    return p;
  }

  std::unique_ptr<kernel::ProtectionEngine> make_engine() const;
  std::string label() const;
};

struct WorkloadResult {
  std::string name;
  u64 cycles = 0;          // simulated CPU cycles
  u64 sim_time = 0;        // cycles incl. the network/IO model (webserver)
  double throughput = 0;   // work units per mega-cycle (workload-specific)
  metrics::Stats stats;
  bool completed = false;
  // Cycle-attribution profile; populated only when the run was traced
  // (KernelConfig::trace).
  std::shared_ptr<trace::ProfileSummary> trace_summary;
};

// Normalized performance of `protected_r` relative to `baseline`
// (the paper's y-axis: 1.0 = full speed).
double normalized(const WorkloadResult& baseline,
                  const WorkloadResult& protected_r);

// --- compute workloads -------------------------------------------------

// gzip-style compressor: LCG-filled input, hash + literal/run encoding,
// two passes (compress + verify), streaming working set of `kilobytes`.
WorkloadResult run_gzip(const Protection& prot, u32 kilobytes = 512);

// nbench-style kernels: numeric sort, string sort, bitfield ops, integer
// arithmetic emulation. Small working sets, computation bound.
WorkloadResult run_nbench(const Protection& prot, u32 scale = 1);

// --- unixbench-style suite ----------------------------------------------

enum class UnixBench {
  kSyscall,       // getpid loop
  kArithmetic,    // dhrystone-style register arithmetic
  kWhetstone,     // floating-point-emulation arithmetic (mul/div/mod mix)
  kPipeThroughput,  // single-process pipe write/read
  kPipeContextSwitch,  // two processes ping-pong over two pipes (Fig. 7)
  kProcessCreation,    // fork + exit + waitpid
  kExecl,         // fork + exec + waitpid
  kFilesystem,    // file write/rewind/read loop ("file copy")
  kFileRead,      // read-only streaming over a preloaded file
};
inline constexpr UnixBench kAllUnixBench[] = {
    UnixBench::kSyscall,        UnixBench::kArithmetic,
    UnixBench::kWhetstone,      UnixBench::kPipeThroughput,
    UnixBench::kPipeContextSwitch, UnixBench::kProcessCreation,
    UnixBench::kExecl,          UnixBench::kFilesystem,
    UnixBench::kFileRead,
};
const char* to_string(UnixBench b);

WorkloadResult run_unixbench(UnixBench bench, const Protection& prot,
                             u32 iterations = 0 /* 0 = default */);

// Geometric-mean index over the whole suite, normalized against the
// unprotected run (the paper's single "Unixbench" bar in Fig. 6).
double unixbench_index(const Protection& prot);

// --- webserver ------------------------------------------------------------

struct WebserverConfig {
  u32 workers = 4;          // Apache-style worker processes
  u32 requests = 64;        // total requests issued by the driver
  u32 response_bytes = 32 * 1024;  // the "page size" served (Figs. 6-8)
  metrics::CostModel cost{};       // net model comes from here
};

struct WebserverResult {
  WorkloadResult base;      // cycles etc.
  u64 bytes_served = 0;
  double requests_per_mcycle = 0;  // incl. the network saturation model
};

WebserverResult run_webserver(const Protection& prot,
                              const WebserverConfig& cfg = {});

// --- high-traffic server (event-driven master + worker pool) --------------
//
// The production-shaped scaling scenario: one master process multiplexes a
// listening channel and a shared response pipe with select2, forwards each
// request (stamped with SYS_TIME) down a shared request pipe to a pool of
// hundreds-to-thousands of forked workers, and reports the per-request
// round-trip latency back to the host, which accumulates it into a
// log-bucketed histogram. Everything measured is simulated cycles, so a
// run is a pure function of its config — deterministic across hosts and
// --jobs.
struct ServerLoadConfig {
  u32 workers = 64;       // forked worker processes
  u32 requests = 2000;    // total requests in the seeded stream
  u32 window = 256;       // max requests in flight (closed loop). Bounded
                          // by pipe framing: window*12 must leave room for
                          // one whole record in a 64 KiB pipe (<= 5460).
  u32 work_base = 64;     // base service-loop iterations per request
  arch::u64 seed = 0x5eedf00d;  // request-stream PRNG seed
  u32 phys_frames = 32768;      // 128 MiB: ~1000 workers of COW pages, x2
                                // under a splitting engine
  u32 cores = 1;                // simulated cores (1 = the historical
                                // single-core run, byte-identical)
  metrics::CostModel cost{};
};

struct ServerLoadResult {
  WorkloadResult base;
  metrics::LatencyHistogram latency;  // per-request round trip, in cycles
  u64 requests_completed = 0;
  double requests_per_mcycle = 0;
};

ServerLoadResult run_server_load(const Protection& prot,
                                 const ServerLoadConfig& cfg = {});

// --- overload server (open-loop arrivals, shedding, retry) ----------------
//
// The graceful-degradation scenario: the host issues requests on an
// OPEN-LOOP schedule (seeded exponential inter-arrivals at a configured
// offered rate, independent of completions), so past saturation the
// server must shed rather than lag. The master applies admission control
// (bounded in-flight queue, deadline-based drop of stale arrivals) and
// collects worker responses over the simulated socket layer: each worker
// delivers its response on a fresh connect() to the master's listening
// port, retrying with exponential backoff + seeded jitter when the accept
// backlog refuses it, and dropping the response after max_attempts.
// Deadline timers bound every blocking wait in the master's event loop so
// a stalled worker degrades goodput instead of wedging it.
struct OverloadConfig {
  u32 workers = 16;        // forked worker processes
  u32 arrivals = 400;      // total arrivals in the open-loop stream
  double offered_rpmc = 40.0;  // offered load, requests per mega-cycle
  u32 qdepth = 48;         // master admission bound (in-flight cap)
  u32 backlog = 4;         // listen-socket accept backlog capacity
  u32 deadline = 300000;   // admission deadline, cycles since arrival
  u32 recv_timeout = 60000;    // master accept/read deadline, cycles
  u32 select_timeout = 30000;  // master event-loop tick, cycles
  u32 max_attempts = 6;    // worker connect attempts before dropping
  u32 backoff_base = 1000;     // first retry backoff, cycles (doubles)
  u32 jitter_mask = 1023;  // seeded jitter added per retry (rand & mask)
  u32 work_base = 64;      // base service-loop iterations per request
  arch::u64 seed = 0x5eedf00d;  // arrival-stream PRNG seed
  u32 phys_frames = 32768;
  u32 cores = 1;
  metrics::CostModel cost{};
};

struct OverloadResult {
  WorkloadResult base;
  metrics::LatencyHistogram latency;  // arrival-to-response, completed only
  u64 arrivals_issued = 0;
  u64 completed = 0;        // responses that made it back (goodput)
  u64 shed_queue = 0;       // dropped at admission: in-flight cap hit
  u64 shed_deadline = 0;    // dropped at admission: already past deadline
  u64 worker_drops = 0;     // dropped by a worker after max_attempts
  u64 lost_responses = 0;   // master gave up waiting (lease/read timeout)
  u64 retries = 0;          // refused connect() attempts (retry pressure)
  double offered_rpmc = 0;  // echo of the configured offered rate
  double goodput_rpmc = 0;  // completed per mega-cycle actually achieved
};

OverloadResult run_overload_load(const Protection& prot,
                                 const OverloadConfig& cfg = {});

}  // namespace sm::workloads
