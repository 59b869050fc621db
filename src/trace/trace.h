// TraceSink: the event sink + profiler facade the simulator components
// talk to.
//
// Gating is at run time only. Each component holds a TraceSink* that is
// nullptr unless KernelConfig::trace is set, and every instrumentation site
// goes through the SM_TRACE macro: one (unlikely-hinted) branch on that
// pointer per rare event. The per-instruction paths (Cpu::step, Mmu TLB-hit
// fast paths) carry NO trace code at all — their cycles are reconciled at
// summary time as the exec residual (see TraceSink::summary).
//
// The billing-identity invariant: a TraceSink only ever OBSERVES — it
// holds `const metrics::Stats*`, never charges the cost model, and never
// perturbs TLB/memo state. Simulated figures must be bit-identical with
// tracing on or off (enforced by tests/trace/ and the fuzz oracle).
#pragma once

#include <cstddef>

#include "metrics/stats.h"
#include "trace/event.h"
#include "trace/profiler.h"
#include "trace/ring_buffer.h"

// SM_TRACE(sink_ptr, record(...)) — null-checked call through a sink.
// The null (tracing-off) side is the one benchmarked paths take; mark the
// sink-present side unlikely so the call stays out of the hot code layout.
#define SM_TRACE(sink, call)              \
  do {                                    \
    if (auto* sm_ts_ = (sink)) [[unlikely]] { \
      sm_ts_->call;                       \
    }                                     \
  } while (0)

namespace sm::snapshot {
struct Access;
}

namespace sm::trace {

class TraceSink {
 public:
  struct Options {
    std::size_t ring_capacity = 1 << 16;
  };

  TraceSink() : ring_(0) {}

  void enable() { enable(Options{}); }
  void enable(Options opts) {
    ring_ = RingBuffer<Event>(opts.ring_capacity);
    prof_.clear();
    enabled_ = true;
  }
  bool enabled() const { return enabled_; }

  // The simulated clock events are stamped with. Observed, never written.
  void set_stats(const metrics::Stats* stats) { stats_ = stats; }
  // The scheduler announces who is running; events/charges carry this pid.
  void set_current_pid(u32 pid) { pid_ = pid; }
  u32 current_pid() const { return pid_; }
  // The SMP run loop announces the dispatching core; events carry this id
  // (always 0 at cores=1, so single-core traces are unchanged).
  void set_current_core(u8 core) { core_ = core; }
  u8 current_core() const { return core_; }

  void record(EventKind kind, u32 vaddr = 0, u32 info = 0, u8 arg = 0) {
    if (!enabled_) return;
    Event e;
    e.cycles = stats_ ? stats_->cycles : 0;
    e.pid = pid_;
    e.vaddr = vaddr;
    e.info = info;
    e.kind = kind;
    e.arg = arg;
    e.core = core_;
    ring_.push(e);
    prof_.on_event(e);
  }

  // Mirror of a CostModel charge, for attribution only.
  void charge(Category c, u64 cycles, u32 vaddr = 0) {
    if (!enabled_ || cycles == 0) return;
    prof_.charge(c, cycles, pid_, vaddr);
  }

  void begin_scope(Category c, u32 vaddr) {
    if (!enabled_) return;
    prof_.begin_scope(c, pid_, vaddr);
  }
  void end_scope() {
    if (!enabled_) return;
    prof_.end_scope();
  }

  const RingBuffer<Event>& events() const { return ring_; }
  ProfileSummary summary() const;
  void clear() {
    ring_.clear();
    prof_.clear();
  }

 private:
  friend struct sm::snapshot::Access;

  RingBuffer<Event> ring_;
  Profiler prof_;
  const metrics::Stats* stats_ = nullptr;
  u32 pid_ = 0;
  u8 core_ = 0;
  bool enabled_ = false;
};

// RAII trap-handler attribution scope. Construct with a (possibly null)
// sink; a null sink makes both ends no-ops.
class Scope {
 public:
  Scope(TraceSink* sink, Category c, u32 vaddr) : sink_(sink) {
    if (sink_) sink_->begin_scope(c, vaddr);
  }
  ~Scope() {
    if (sink_) sink_->end_scope();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  TraceSink* sink_;
};

}  // namespace sm::trace
