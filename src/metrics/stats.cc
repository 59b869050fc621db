#include "metrics/stats.h"

#include <ostream>

namespace sm::metrics {

std::string billing_difference(const Stats& want, const Stats& got) {
  for (const Counter& c : kCounters) {
    if (c.host_side || got.*c.field == want.*c.field) continue;
    return std::string(c.name) + " " + std::to_string(got.*c.field) +
           " != " + std::to_string(want.*c.field);
  }
  return "";
}

std::ostream& operator<<(std::ostream& os, const Stats& s) {
  const char* sep = "";
  for (const Counter& c : kCounters) {
    os << sep << c.name << '=' << s.*c.field;
    sep = " ";
  }
  return os;
}

}  // namespace sm::metrics
