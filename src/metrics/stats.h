// Event counters and the simulated cycle clock.
//
// Every architectural and kernel event of interest is counted here so tests
// can pin behaviour ("exactly two traps per split I-TLB load") and benches
// can report where time went. kCounters below is the one list of them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <string>
#include <string_view>

namespace sm::metrics {

struct Stats {
  // Simulated time.
  std::uint64_t cycles = 0;

  // CPU.
  std::uint64_t instructions = 0;

  // TLB.
  std::uint64_t itlb_hits = 0;
  std::uint64_t itlb_misses = 0;
  std::uint64_t dtlb_hits = 0;
  std::uint64_t dtlb_misses = 0;
  std::uint64_t tlb_flushes = 0;
  std::uint64_t hardware_walks = 0;

  // Host-side fast paths (simulator speed only; these add NO cycles —
  // every event here is billed as the slow path it short-circuits).
  std::uint64_t fetch_fastpath_hits = 0;  // Mmu one-entry fetch memo
  std::uint64_t data_fastpath_hits = 0;   // Mmu read/write data memos
  std::uint64_t decode_cache_hits = 0;
  std::uint64_t decode_cache_misses = 0;
  std::uint64_t decode_cache_invalidations = 0;  // stale frame generation
  std::uint64_t block_cache_hits = 0;    // basic-block cache (mini-DBT)
  std::uint64_t block_cache_misses = 0;  // entry probes that recorded
  std::uint64_t block_cache_invalidations = 0;  // stale gen / mid-block SMC
  std::uint64_t block_instructions = 0;  // instructions run from a block

  // Faults and kernel crossings.
  std::uint64_t page_faults = 0;
  std::uint64_t split_dtlb_loads = 0;
  std::uint64_t split_itlb_loads = 0;
  std::uint64_t split_dtlb_fallbacks = 0;  // footnote-1 single-step path
  std::uint64_t soft_tlb_fills = 0;        // software-TLB mode (SS4.7)
  std::uint64_t single_steps = 0;
  std::uint64_t demand_pages = 0;
  std::uint64_t cow_copies = 0;
  std::uint64_t syscalls = 0;
  std::uint64_t invalid_opcode_faults = 0;

  // Scheduling.
  std::uint64_t context_switches = 0;
  // Host-side (bills NO cycles): wake-queue entries examined when an event
  // (pipe write/read/close, child exit, host channel traffic) tries to wake
  // sleepers. With event-driven wait queues this scales with the number of
  // processes actually waiting on the object, not with the process count —
  // the O(1)-scheduling regression test pins it.
  std::uint64_t sched_wake_checks = 0;

  // Security events.
  std::uint64_t injections_detected = 0;

  // Robustness: fault injection and the invariant watchdog. These count
  // simulated *hardware/OS misbehaviour* and the kernel's response to it;
  // they are zero in any run without an armed fault schedule.
  std::uint64_t faults_injected = 0;
  std::uint64_t invariant_violations = 0;    // watchdog detections
  std::uint64_t invariant_recoveries = 0;    // resynced, split kept
  std::uint64_t invariant_degradations = 0;  // page locked unsplit
  std::uint64_t split_oom_degradations = 0;  // code frame alloc failed

  // Overload machinery: virtual-time timers and the simulated socket
  // layer (deadline wheel, SYS_SLEEP, accept queues — DESIGN.md §17).
  // All zero in any run that arms no timer and opens no socket.
  std::uint64_t timer_fires = 0;      // wheel deadlines reached
  std::uint64_t wait_timeouts = 0;    // blocked waits returning ERR_TIMEDOUT
  std::uint64_t sleeps = 0;           // SYS_SLEEP calls that parked
  std::uint64_t idle_advances = 0;    // all-blocked jumps to the next deadline
  std::uint64_t sock_connects = 0;    // connections queued on a backlog
  std::uint64_t sock_refused = 0;     // connects shed (no listener/queue full)
  std::uint64_t sock_accepts = 0;     // connections popped by accept()
  std::uint64_t sock_backlog_peak = 0;  // deepest accept queue ever observed

  // SMP: IPI-based TLB shootdown traffic and cross-core scheduling. All
  // zero at cores=1 (no remote cores to interrupt or steal from).
  std::uint64_t ipi_sends = 0;       // shootdown IPIs delivered to targets
  std::uint64_t ipi_acks = 0;        // targets that flushed and acked
  std::uint64_t tlb_shootdowns = 0;  // shootdown rounds with >= 1 target
  std::uint64_t work_steals = 0;     // processes stolen from another core

  void reset() { *this = Stats{}; }
};

// One row per Stats member, in declaration order: the only list of the
// counters. The stream printer, the snapshot record, the fuzz oracle's
// billing clause, the replay battery's exemptions and the billing-identity
// tests all walk this table, so a counter added here reaches every one of
// them, and a member added without a row fails the static_assert below.
//
// host_side marks the counters of the simulator's own fast paths
// (translation memos, decode and block caches) and its wake-queue scans.
// They bill no cycles, so they legitimately differ when a fast path is
// toggled or a restore drops the host caches cold; the billing and replay
// contracts exempt them. Every other row is simulated state. cycles comes
// first, so a billing divergence names the clock before the counters it
// desynchronized.
struct Counter {
  const char* name;
  std::uint64_t Stats::*field;
  bool host_side;
};

inline constexpr Counter kCounters[] = {
    {"cycles", &Stats::cycles, false},
    {"instructions", &Stats::instructions, false},
    {"itlb_hits", &Stats::itlb_hits, false},
    {"itlb_misses", &Stats::itlb_misses, false},
    {"dtlb_hits", &Stats::dtlb_hits, false},
    {"dtlb_misses", &Stats::dtlb_misses, false},
    {"tlb_flushes", &Stats::tlb_flushes, false},
    {"hardware_walks", &Stats::hardware_walks, false},
    {"fetch_fastpath_hits", &Stats::fetch_fastpath_hits, true},
    {"data_fastpath_hits", &Stats::data_fastpath_hits, true},
    {"decode_cache_hits", &Stats::decode_cache_hits, true},
    {"decode_cache_misses", &Stats::decode_cache_misses, true},
    {"decode_cache_invalidations", &Stats::decode_cache_invalidations, true},
    {"block_cache_hits", &Stats::block_cache_hits, true},
    {"block_cache_misses", &Stats::block_cache_misses, true},
    {"block_cache_invalidations", &Stats::block_cache_invalidations, true},
    {"block_instructions", &Stats::block_instructions, true},
    {"page_faults", &Stats::page_faults, false},
    {"split_dtlb_loads", &Stats::split_dtlb_loads, false},
    {"split_itlb_loads", &Stats::split_itlb_loads, false},
    {"split_dtlb_fallbacks", &Stats::split_dtlb_fallbacks, false},
    {"soft_tlb_fills", &Stats::soft_tlb_fills, false},
    {"single_steps", &Stats::single_steps, false},
    {"demand_pages", &Stats::demand_pages, false},
    {"cow_copies", &Stats::cow_copies, false},
    {"syscalls", &Stats::syscalls, false},
    {"invalid_opcode_faults", &Stats::invalid_opcode_faults, false},
    {"context_switches", &Stats::context_switches, false},
    {"sched_wake_checks", &Stats::sched_wake_checks, true},
    {"injections_detected", &Stats::injections_detected, false},
    {"faults_injected", &Stats::faults_injected, false},
    {"invariant_violations", &Stats::invariant_violations, false},
    {"invariant_recoveries", &Stats::invariant_recoveries, false},
    {"invariant_degradations", &Stats::invariant_degradations, false},
    {"split_oom_degradations", &Stats::split_oom_degradations, false},
    {"timer_fires", &Stats::timer_fires, false},
    {"wait_timeouts", &Stats::wait_timeouts, false},
    {"sleeps", &Stats::sleeps, false},
    {"idle_advances", &Stats::idle_advances, false},
    {"sock_connects", &Stats::sock_connects, false},
    {"sock_refused", &Stats::sock_refused, false},
    {"sock_accepts", &Stats::sock_accepts, false},
    {"sock_backlog_peak", &Stats::sock_backlog_peak, false},
    {"ipi_sends", &Stats::ipi_sends, false},
    {"ipi_acks", &Stats::ipi_acks, false},
    {"tlb_shootdowns", &Stats::tlb_shootdowns, false},
    {"work_steals", &Stats::work_steals, false},
};

static_assert(std::size(kCounters) * sizeof(std::uint64_t) == sizeof(Stats),
              "every Stats member needs a row in kCounters");
static_assert(
    [] {
      for (std::size_t i = 0; i < std::size(kCounters); ++i) {
        for (std::size_t j = i + 1; j < std::size(kCounters); ++j) {
          if (kCounters[i].field == kCounters[j].field ||
              std::string_view(kCounters[i].name) == kCounters[j].name) {
            return false;
          }
        }
      }
      return true;
    }(),
    "kCounters lists a member or a name twice");

// The first simulated (not host_side) counter on which `got` differs from
// `want`, as "<name> <got> != <want>"; empty when every simulated counter
// matches. This is the billing-identity check: a host-side fast path or
// an observation layer must leave it empty.
std::string billing_difference(const Stats& want, const Stats& got);

// Every counter as "name=value", space-separated, in table order.
std::ostream& operator<<(std::ostream& os, const Stats& s);

}  // namespace sm::metrics
