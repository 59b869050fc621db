// The --engine names smrun, smtrace and smattack accept, and the
// protection mode each one selects.
#pragma once

#include <optional>
#include <string_view>
#include <utility>

#include "core/split_engine.h"

namespace sm::tools {

inline constexpr std::pair<std::string_view, core::ProtectionMode>
    kEngineNames[] = {
        {"none", core::ProtectionMode::kNone},
        {"split", core::ProtectionMode::kSplitAll},
        {"nx", core::ProtectionMode::kHardwareNx},
        {"combined", core::ProtectionMode::kNxPlusSplitMixed},
};

// The mode `name` selects, or nullopt for a name not in the table.
inline std::optional<core::ProtectionMode> engine_mode(std::string_view name) {
  for (const auto& [n, mode] : kEngineNames) {
    if (n == name) return mode;
  }
  return std::nullopt;
}

}  // namespace sm::tools
