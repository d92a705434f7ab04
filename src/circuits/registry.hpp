// Named-benchmark registry.
//
// One place that knows every benchmark circuit by name, shared by the
// CLI, the batch engine, and the tests. Entries flagged `heavy` (the
// multipliers, whose flat Reed-Muller forms take minutes to hours to
// decompose) are excluded from "--all" style expansion unless explicitly
// requested.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "circuits/spec.hpp"

namespace pd::circuits {

struct RegistryEntry {
    std::string name;
    bool heavy = false;  ///< minutes-to-hours of decomposition; opt-in only
    std::function<Benchmark()> make;
};

/// All registered benchmarks, in stable (alphabetical) order.
[[nodiscard]] const std::vector<RegistryEntry>& benchmarkRegistry();

/// Builds the named benchmark, or nullopt when the name is unknown.
[[nodiscard]] std::optional<Benchmark> makeNamedBenchmark(
    std::string_view name);

/// Names only, in registry order. `includeHeavy` adds the multiplier-class
/// entries.
[[nodiscard]] std::vector<std::string> benchmarkNames(bool includeHeavy);

}  // namespace pd::circuits
