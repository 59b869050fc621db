// Metrics: the counter table, its printer and billing comparison, and
// cost-model defaults.
#include <gtest/gtest.h>

#include <sstream>

#include "metrics/cost_model.h"
#include "metrics/stats.h"

namespace sm::metrics {
namespace {

TEST(Stats, StreamFormatNamesEveryHeadlineCounter) {
  Stats s;
  std::uint64_t v = 0;
  for (const Counter& c : kCounters) s.*c.field = ++v;
  std::ostringstream os;
  os << s;
  const std::string out = " " + os.str() + " ";
  v = 0;
  for (const Counter& c : kCounters) {
    const std::string want =
        " " + std::string(c.name) + "=" + std::to_string(++v) + " ";
    EXPECT_NE(out.find(want), std::string::npos) << want << "in: " << out;
  }
}

TEST(Stats, BillingDifferenceSkipsOnlyHostSideCounters) {
  for (const Counter& c : kCounters) {
    Stats want, got;
    got.*c.field = 3;
    const std::string d = billing_difference(want, got);
    if (c.host_side) {
      EXPECT_EQ(d, "") << c.name;
    } else {
      EXPECT_EQ(d, std::string(c.name) + " 3 != 0");
    }
  }
}

TEST(Stats, ResetClearsEverything) {
  Stats s;
  s.cycles = 5;
  s.context_switches = 9;
  s.soft_tlb_fills = 4;
  s.reset();
  EXPECT_EQ(s.cycles, 0u);
  EXPECT_EQ(s.context_switches, 0u);
  EXPECT_EQ(s.soft_tlb_fills, 0u);
}

TEST(CostModel, DefaultsEncodeThePaperCostStructure) {
  const CostModel& m = default_cost_model();
  // A trap costs far more than a hardware walk; the split I-TLB load pays
  // TWO traps (fault + debug), the D-load one trap + touch (SS4.6).
  EXPECT_GT(m.trap_cost, 10 * m.tlb_walk);
  EXPECT_GT(m.context_switch, m.trap_cost);
  EXPECT_LT(m.kernel_touch, m.trap_cost);
  // The SPARC-style fill is a cheap trap (SS4.7).
  EXPECT_LT(m.soft_tlb_fill, m.trap_cost / 10);
  // The abandoned ret-call method's cache flush exceeds the debug trap it
  // saves (SS4.2.4 side note).
  EXPECT_GT(m.icache_sync, m.trap_cost);
}

}  // namespace
}  // namespace sm::metrics
