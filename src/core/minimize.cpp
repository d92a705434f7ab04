#include "core/minimize.hpp"

#include "core/basis.hpp"
#include "gf2/solver.hpp"

namespace pd::core::PD_WIDTH_NS {
namespace {

/// One elimination round over the chosen side. Returns true if a
/// dependency was found and eliminated.
bool eliminateOne(IPairList& pairs, bool onFirsts) {
    if (pairs.size() < 2) return false;  // one non-zero side is independent
    gf2::SpanSolver solver;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto& side = onFirsts ? pairs[i].first : pairs[i].second;
        const auto res = solver.add(side.bits());
        if (res.independent) continue;

        // side_i == XOR of sides listed in the certificate; fold the
        // opposite element of pair i into each participant, then drop i.
        for (std::size_t j = 0; j < i; ++j) {
            if (j < res.combination.size() && res.combination.get(j)) {
                if (onFirsts)
                    pairs[j].second ^= pairs[i].second;
                else
                    pairs[j].first ^= pairs[i].first;
            }
        }
        pairs.erase(pairs.begin() + static_cast<std::ptrdiff_t>(i));
        dropNullPairs(pairs);
        return true;
    }
    return false;
}

}  // namespace

std::size_t minimizeBasisLinear(IPairList& pairs) {
    MergeContext ctx;
    std::size_t removed = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        while (eliminateOne(pairs, /*onFirsts=*/true)) {
            ++removed;
            changed = true;
        }
        while (eliminateOne(pairs, /*onFirsts=*/false)) {
            ++removed;
            changed = true;
        }
        if (changed) mergeAlgebraic(pairs, ctx);
    }
    return removed;
}

}  // namespace pd::core::PD_WIDTH_NS
