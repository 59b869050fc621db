// End-to-end trace-layer tests against a real kernel run: event ordering
// across fork + COW + split resolution, ring-overflow accounting at
// simulation scale, and the billing-identity invariant (tracing observes,
// never bills — simulated stats are identical with tracing on or off).
#include <gtest/gtest.h>

#include <unordered_map>

#include "support/guest_runner.h"
#include "trace/trace.h"

namespace sm {
namespace {

using core::ProtectionMode;
using trace::EventKind;

// fork + COW write + split-protected execution: exercises every event
// family in one program.
const char* kForkCowBody = R"(
_start:
  movi r4, shared
  movi r5, 42
  store [r4], r5
  movi r0, SYS_FORK
  syscall
  cmpi r0, 0
  jz child
  ; parent: overwrite (breaks COW), then collect the child's verdict
  movi r4, shared
  movi r5, 1
  store [r4], r5
  mov r1, r0
  movi r0, SYS_WAITPID
  syscall
  mov r1, r0
  addi r1, 100
  movi r0, SYS_EXIT
  syscall
child:
  movi r0, SYS_YIELD      ; let the parent write first
  syscall
  movi r0, SYS_YIELD
  syscall
  movi r4, shared
  load r5, [r4]
  mov r1, r5              ; 42 if COW isolated us
  movi r0, SYS_EXIT
  syscall
.data
shared: .word 0
)";

testing::GuestRun run_traced(const char* body,
                             arch::u32 ring_capacity = 1u << 16) {
  kernel::KernelConfig cfg;
  cfg.trace = true;
  cfg.trace_ring_capacity = ring_capacity;
  auto r = testing::start_guest(body, ProtectionMode::kSplitAll,
                                core::ResponseMode::kBreak, cfg);
  r.k->run(50'000'000);
  return r;
}

TEST(TraceEvents, ForkCowSplitRunEmitsOrderedEvents) {
  auto r = run_traced(kForkCowBody);
  ASSERT_TRUE(r.k->all_exited());
  EXPECT_EQ(r.proc().exit_code, 142u);  // 100 + child's 42

  const trace::TraceSink* sink = r.k->trace_sink();
  ASSERT_NE(sink, nullptr);
  const auto& events = sink->events();
  ASSERT_GT(events.size(), 0u);
  EXPECT_EQ(events.dropped(), 0u);

  // The simulated clock never runs backwards across the stream.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].cycles, events[i].cycles) << "at event " << i;
  }

  const auto& counts = sink->summary().event_counts;
  auto count = [&](EventKind k) {
    return counts[static_cast<std::size_t>(k)];
  };
  // Every family this program must touch showed up.
  EXPECT_GT(count(EventKind::kTrap), 0u);
  EXPECT_GT(count(EventKind::kTlbFill), 0u);
  EXPECT_GT(count(EventKind::kTlbFlush), 0u);
  EXPECT_GT(count(EventKind::kSplitItlbLoad), 0u);
  EXPECT_GT(count(EventKind::kSingleStepOpen), 0u);
  EXPECT_GT(count(EventKind::kDemandPage), 0u);
  EXPECT_GT(count(EventKind::kCowCopy), 0u);
  EXPECT_GT(count(EventKind::kSyscall), 0u);
  EXPECT_GT(count(EventKind::kContextSwitch), 0u);

  // Event counts agree with the simulated counters they mirror.
  const metrics::Stats& stats = r.k->stats();
  EXPECT_EQ(count(EventKind::kContextSwitch), stats.context_switches);
  EXPECT_EQ(count(EventKind::kCowCopy), stats.cow_copies);
  EXPECT_EQ(count(EventKind::kSplitItlbLoad), stats.split_itlb_loads);
  EXPECT_EQ(count(EventKind::kSplitDtlbLoad), stats.split_dtlb_loads);
  EXPECT_EQ(count(EventKind::kDemandPage), stats.demand_pages);

  // Algorithm 2 windows are properly bracketed per process: never two
  // opens without a close, never a close without an open.
  std::unordered_map<arch::u32, int> depth;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const trace::Event& e = events[i];
    if (e.kind == EventKind::kSingleStepOpen) {
      EXPECT_EQ(depth[e.pid], 0) << "double-open at event " << i;
      ++depth[e.pid];
    } else if (e.kind == EventKind::kSingleStepClose) {
      EXPECT_EQ(depth[e.pid], 1) << "unmatched close at event " << i;
      --depth[e.pid];
    }
  }

  // The first split I-TLB load resolves through a single-step window: an
  // open by the same pid follows it before any close intervenes.
  std::size_t first_load = events.size();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == EventKind::kSplitItlbLoad) {
      first_load = i;
      break;
    }
  }
  ASSERT_LT(first_load, events.size());
  bool window_opened = false;
  for (std::size_t i = first_load + 1; i < events.size(); ++i) {
    if (events[i].kind == EventKind::kSingleStepOpen &&
        events[i].pid == events[first_load].pid) {
      window_opened = true;
      break;
    }
    if (events[i].kind == EventKind::kSingleStepClose) break;
  }
  EXPECT_TRUE(window_opened);
}

TEST(TraceEvents, TinyRingOverflowsButKeepsAccounting) {
  auto r = run_traced(kForkCowBody, 16);
  ASSERT_TRUE(r.k->all_exited());
  const trace::TraceSink* sink = r.k->trace_sink();
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->events().size(), 16u);
  EXPECT_GT(sink->events().dropped(), 0u);
  const trace::ProfileSummary s = sink->summary();
  EXPECT_EQ(s.events_recorded, 16u + s.events_dropped);
  // Profiling is ring-independent: totals come from the full stream.
  EXPECT_GT(s.total_cycles, 0u);
}

TEST(TraceEvents, SummaryAttributesTheRunsCycles) {
  auto r = run_traced(kForkCowBody);
  const trace::ProfileSummary s = r.k->trace_sink()->summary();
  // Everything the cost model billed is attributed somewhere.
  EXPECT_EQ(s.total_cycles, r.k->stats().cycles);
  EXPECT_GT(s.category_cycles(trace::Category::kSplitItlbLoad), 0u);
  EXPECT_GT(s.category_cycles(trace::Category::kContextSwitch), 0u);
  EXPECT_GT(s.category_cycles(trace::Category::kCowCopy), 0u);
}

// Billing identity, the invariant the whole layer stands on: a traced run
// and an untraced run of the same program report identical simulated
// stats, including cycles. (The fuzz oracle sweeps this per engine; this
// is the deterministic tier-1 anchor.)
TEST(TraceBillingIdentity, TracedAndUntracedStatsAreIdentical) {
  kernel::KernelConfig off;
  auto base = testing::start_guest(kForkCowBody, ProtectionMode::kSplitAll,
                                   core::ResponseMode::kBreak, off);
  base.k->run(50'000'000);

  auto traced = run_traced(kForkCowBody);

  ASSERT_TRUE(base.k->all_exited());
  ASSERT_TRUE(traced.k->all_exited());
  EXPECT_EQ(base.proc().exit_code, traced.proc().exit_code);
  EXPECT_EQ(base.console(), traced.console());

  EXPECT_EQ(metrics::billing_difference(base.k->stats(), traced.k->stats()),
            "");
}

}  // namespace
}  // namespace sm
