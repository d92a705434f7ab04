#include "core/group.hpp"

#include <algorithm>
#include <map>

#include "core/probe/probe.hpp"

namespace pd::core::PD_WIDTH_NS {
namespace {

void combinations(const std::vector<anf::Var>& vars, std::size_t k,
                  std::size_t cap, std::vector<anf::VarSet>& out) {
    std::vector<std::size_t> idx(k);
    for (std::size_t i = 0; i < k; ++i) idx[i] = i;
    while (out.size() < cap) {
        anf::VarSet g;
        for (const auto i : idx) g.insert(vars[i]);
        out.push_back(g);
        // Next combination.
        std::size_t pos = k;
        while (pos > 0) {
            --pos;
            if (idx[pos] != pos + vars.size() - k) break;
            if (pos == 0) return;
        }
        ++idx[pos];
        for (std::size_t q = pos + 1; q < k; ++q) idx[q] = idx[q - 1] + 1;
    }
}

}  // namespace

GroupCandidates groupCandidates(const anf::Anf& folded,
                                const anf::VarTable& vars,
                                const anf::VarSet& tags,
                                const GroupOptions& opt) {
    GroupCandidates out;
    const anf::VarSet visible = folded.support().without(tags);
    if (visible.isOne()) return out;  // empty support: nothing to do

    // Partition visible variables into primary-input bits and the rest.
    std::map<int, std::vector<std::pair<int, anf::Var>>> byInteger;
    std::vector<anf::Var> derived;
    visible.forEachVar([&](anf::Var v) {
        const auto& info = vars.info(v);
        if (info.kind == anf::VarKind::kInput)
            byInteger[info.integerId].emplace_back(info.bitPos, v);
        else
            derived.push_back(v);
    });

    if (!byInteger.empty()) {
        // Paper §5.1: "k/r least significant available bits from each
        // integer (note that this might leave us with a group of size less
        // than k)". Read literally, "least significant available" drifts
        // off block boundaries once low bits stop appearing in the
        // expressions (the 16-bit LZD never references a0, so the first
        // nibble would become {a1..a4} and every later block straddles two
        // of Oklobdzija's nibbles). A small candidate set keeps the
        // heuristic cheap while letting the paper's own selection
        // criterion — smallest rewritten size — pick the right shape:
        //   (1) the literal reading: k/r lowest available bits per integer;
        //   (2) the aligned reading: available bits inside each integer's
        //       lowest unexhausted (k/r)-aligned bit-position window
        //       (this is where the "size less than k" note comes from);
        //   (3) one integer at a time: the k-aligned window of a single
        //       integer (lets a shared subfunction of one operand become a
        //       shared leader instead of being split across groups).
        for (auto& [intId, bits] : byInteger) std::sort(bits.begin(), bits.end());
        const std::size_t r = byInteger.size();
        const std::size_t w = std::max<std::size_t>(1, opt.k / r);

        std::vector<anf::VarSet> candidates;
        {
            anf::VarSet g;  // (1) literal reading
            std::size_t taken = 0;
            for (auto& [intId, bits] : byInteger) {
                for (std::size_t i = 0; i < bits.size() && i < w; ++i) {
                    if (taken >= opt.k) break;
                    g.insert(bits[i].second);
                    ++taken;
                }
                if (taken >= opt.k) break;
            }
            candidates.push_back(g);
        }
        {
            anf::VarSet g;  // (2) aligned windows across all integers
            for (auto& [intId, bits] : byInteger) {
                const std::size_t base =
                    (static_cast<std::size_t>(bits.front().first) / w) * w;
                for (const auto& [pos, v] : bits)
                    if (static_cast<std::size_t>(pos) < base + w) g.insert(v);
            }
            candidates.push_back(g);
        }
        for (auto& [intId, bits] : byInteger) {
            anf::VarSet g;  // (3) one aligned k-window of this integer only
            const std::size_t base =
                (static_cast<std::size_t>(bits.front().first) / opt.k) *
                opt.k;
            for (const auto& [pos, v] : bits)
                if (static_cast<std::size_t>(pos) < base + opt.k) g.insert(v);
            candidates.push_back(g);
        }

        // Dedup first: single-integer circuits often produce one distinct
        // candidate, and scoring an uncontested candidate is a full
        // findBasis for nothing.
        std::vector<const anf::VarSet*> distinct;
        for (const auto& g : candidates) {
            if (g.isOne()) continue;
            bool dup = false;
            for (const auto* seen : distinct)
                if (*seen == g) {
                    dup = true;
                    break;
                }
            if (!dup) distinct.push_back(&g);
        }
        if (distinct.size() == 1) {
            out.forced = *distinct.front();
            return out;
        }
        out.candidates.reserve(distinct.size());
        for (const auto* g : distinct) out.candidates.push_back(*g);
        return out;
    }

    // Exhaustive phase over derived variables.
    std::sort(derived.begin(), derived.end());
    const std::size_t k = std::min(opt.k, derived.size());
    if (derived.size() <= k) {
        for (const auto v : derived) out.forced.insert(v);
        return out;
    }

    // Number of k-subsets may be huge; `combinations` stops at the cap and
    // we additionally seed sliding windows (adjacent ids were created by
    // related iterations) so good locality groups are always present.
    combinations(derived, k, opt.maxCombinations, out.candidates);
    for (std::size_t start = 0; start + k <= derived.size(); ++start) {
        anf::VarSet g;
        for (std::size_t i = 0; i < k; ++i) g.insert(derived[start + i]);
        out.candidates.push_back(g);
    }
    return out;
}

probe::SweepOutcome selectGroup(const anf::Anf& folded,
                                const anf::VarTable& vars,
                                const anf::VarSet& tags,
                                const ring::IdentityDb& ids,
                                const GroupOptions& opt,
                                probe::ProbeContext& ctx) {
    auto gen = groupCandidates(folded, vars, tags, opt);
    if (!gen.forced.isOne() || gen.candidates.empty()) {
        probe::SweepOutcome out;
        out.group = gen.forced;
        return out;
    }
    return ctx.sweep(folded, gen.candidates, ids, opt);
}

anf::VarSet findGroup(const anf::Anf& folded, const anf::VarTable& vars,
                      const anf::VarSet& tags, const ring::IdentityDb& ids,
                      const GroupOptions& opt, bool* budgetExhaustedOut) {
    probe::ProbeContext ctx;  // sequential, single-use
    const auto out = selectGroup(folded, vars, tags, ids, opt, ctx);
    if (budgetExhaustedOut && out.budgetExhausted) *budgetExhaustedOut = true;
    return out.group;
}

}  // namespace pd::core::PD_WIDTH_NS
