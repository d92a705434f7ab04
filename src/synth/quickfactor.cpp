#include "synth/quickfactor.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace pd::synth::PD_WIDTH_NS {
namespace {

using netlist::Builder;
using netlist::NetId;

struct Literal {
    anf::Var var = 0;
    bool negated = false;
};

class QuickFactor {
public:
    QuickFactor(Builder& b, const std::vector<NetId>& nets)
        : b_(b), nets_(nets) {}

    NetId run(std::vector<Cube> cubes) {
        // An empty cover is 0; a cover containing the empty cube is 1.
        if (cubes.empty()) return b_.constant(false);
        for (const auto& c : cubes)
            if (c.pos.isOne() && c.neg.isOne()) return b_.constant(true);

        // Factor out literals common to every cube.
        anf::VarSet commonPos = cubes[0].pos;
        anf::VarSet commonNeg = cubes[0].neg;
        for (const auto& c : cubes) {
            commonPos = commonPos.restrictedTo(c.pos);
            commonNeg = commonNeg.restrictedTo(c.neg);
        }
        if (!commonPos.isOne() || !commonNeg.isOne()) {
            std::vector<NetId> lits;
            commonPos.forEachVar(
                [&](anf::Var v) { lits.push_back(nets_[v]); });
            commonNeg.forEachVar(
                [&](anf::Var v) { lits.push_back(b_.mkNot(nets_[v])); });
            for (auto& c : cubes) {
                c.pos = c.pos.without(commonPos);
                c.neg = c.neg.without(commonNeg);
            }
            lits.push_back(run(std::move(cubes)));
            return b_.mkAndTree(lits);
        }

        // Split on the most frequent literal (ties by variable id, positive
        // phase first, for determinism).
        const Literal pivot = mostFrequent(cubes);
        std::vector<Cube> with;
        std::vector<Cube> without;
        for (auto& c : cubes) {
            anf::VarSet& side = pivot.negated ? c.neg : c.pos;
            if (side.contains(pivot.var)) {
                Cube r = c;
                (pivot.negated ? r.neg : r.pos).erase(pivot.var);
                with.push_back(std::move(r));
            } else {
                without.push_back(std::move(c));
            }
        }
        PD_ASSERT(!with.empty() && !without.empty());
        const NetId lit = pivot.negated ? b_.mkNot(nets_[pivot.var])
                                        : nets_[pivot.var];
        const NetId left = b_.mkAnd(lit, run(std::move(with)));
        const NetId right = run(std::move(without));
        return b_.mkOr(left, right);
    }

private:
    static Literal mostFrequent(const std::vector<Cube>& cubes) {
        std::unordered_map<anf::Var, std::pair<int, int>> counts;
        for (const auto& c : cubes) {
            c.pos.forEachVar([&](anf::Var v) { ++counts[v].first; });
            c.neg.forEachVar([&](anf::Var v) { ++counts[v].second; });
        }
        Literal best;
        int bestCount = -1;
        std::vector<anf::Var> vars;
        vars.reserve(counts.size());
        for (const auto& [v, _] : counts) vars.push_back(v);
        std::sort(vars.begin(), vars.end());
        for (const anf::Var v : vars) {
            const auto [p, n] = counts[v];
            if (p > bestCount) {
                bestCount = p;
                best = {v, false};
            }
            if (n > bestCount) {
                bestCount = n;
                best = {v, true};
            }
        }
        PD_ASSERT(bestCount >= 1);
        return best;
    }

    Builder& b_;
    const std::vector<NetId>& nets_;
};

}  // namespace

netlist::NetId synthCoverFactored(netlist::Builder& b,
                                  std::vector<Cube> cubes,
                                  const std::vector<netlist::NetId>& nets) {
    QuickFactor qf(b, nets);
    return qf.run(std::move(cubes));
}

netlist::Netlist synthSopFactored(const SopSpec& spec,
                                  const anf::VarTable& vars) {
    netlist::Netlist nl;
    Builder b(nl);
    const auto nets = registerInputs(b, vars);
    QuickFactor qf(b, nets);
    for (const auto& out : spec.outputs)
        nl.markOutput(out.name, qf.run(out.cubes));
    return nl;
}

}  // namespace pd::synth::PD_WIDTH_NS
