#include "circuits/registry.hpp"

#include "circuits/adder.hpp"
#include "circuits/comparator.hpp"
#include "circuits/counter.hpp"
#include "circuits/lzd.hpp"
#include "circuits/majority.hpp"
#include "circuits/multiplier.hpp"

namespace pd::circuits {

const std::vector<RegistryEntry>& benchmarkRegistry() {
    static const std::vector<RegistryEntry> entries = {
        {"adder16", false, [] { return makeAdder(16); }},
        {"adder3_9", false, [] { return makeAdder3(9); }},
        {"adder8", false, [] { return makeAdder(8); }},
        {"comparator12", false, [] { return makeComparator(12, 13); }},
        {"comparator8", false, [] { return makeComparator(8); }},
        {"counter16", false, [] { return makeCounter(16); }},
        {"counter8", false, [] { return makeCounter(8); }},
        {"lod16", false, [] { return makeLod(16); }},
        {"lod32", false, [] { return makeLod(32); }},
        {"lzd16", false, [] { return makeLzd(16); }},
        {"majority15", false, [] { return makeMajority(15); }},
        {"majority7", false, [] { return makeMajority(7); }},
        // mul4 graduated from the heavy tag once the indexed-ANF hot path
        // brought its cold decomposition from minutes to seconds
        // (BENCH_hotpath.json tracks the trajectory); mul6 remains
        // nightly-only.
        {"mul4", false, [] { return makeMultiplier(4); }},
        {"mul6", true, [] { return makeMultiplier(6); }},
    };
    return entries;
}

std::optional<Benchmark> makeNamedBenchmark(std::string_view name) {
    for (const auto& e : benchmarkRegistry())
        if (e.name == name) return e.make();
    return std::nullopt;
}

std::vector<std::string> benchmarkNames(bool includeHeavy) {
    std::vector<std::string> names;
    for (const auto& e : benchmarkRegistry())
        if (includeHeavy || !e.heavy) names.push_back(e.name);
    return names;
}

}  // namespace pd::circuits
