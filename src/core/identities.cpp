#include "core/identities.hpp"

#include <algorithm>

#include "anf/indexer.hpp"
#include "anf/ops.hpp"
#include "gf2/solver.hpp"
#include "util/error.hpp"

namespace pd::core::PD_WIDTH_NS {
namespace {

/// A candidate term: a product of basis elements tracked both as its ANF
/// value over the group variables and as the formal expression over the
/// new variables.
struct Candidate {
    anf::Anf value;   ///< over group variables
    anf::Anf formal;  ///< over new variables
};

}  // namespace

IdentityScan findIdentities(const std::vector<anf::Anf>& basis,
                            const std::vector<anf::Var>& newVars,
                            int maxDegree) {
    PD_ASSERT(basis.size() == newVars.size());
    IdentityScan out;
    const std::size_t m = basis.size();
    if (m == 0) return out;

    // --- Annihilating products -------------------------------------------
    // Enumerate products of 2..maxDegree distinct elements; a product that
    // is identically 0 (or 1) is an identity over the new variables.
    std::vector<Candidate> products;
    const auto emit = [&](const std::vector<std::size_t>& idx) {
        anf::Anf value = basis[idx[0]];
        anf::Monomial formal = anf::Monomial::var(newVars[idx[0]]);
        for (std::size_t q = 1; q < idx.size(); ++q) {
            value *= basis[idx[q]];
            formal.insert(newVars[idx[q]]);
        }
        if (value.isZero()) {
            out.annihilators.push_back(anf::Anf::term(formal));
        } else if (value.isOne()) {
            out.annihilators.push_back(anf::Anf::term(formal) ^
                                       anf::Anf::one());
        } else {
            products.push_back({std::move(value), anf::Anf::term(formal)});
        }
    };
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = i + 1; j < m; ++j) {
            emit({i, j});
            if (maxDegree >= 3)
                for (std::size_t l = j + 1; l < m; ++l) emit({i, j, l});
        }

    // Pairwise linear relations among non-zero products and singles are
    // also worth keeping (e.g. t1·t3 ⊕ t1·t2 = 0 seeds N(t1)); a single
    // span over everything finds them.
    {
        anf::MonomialIndexer indexer;
        gf2::SpanSolver solver;
        std::vector<anf::Anf> formals;
        const auto insert = [&](const anf::Anf& value,
                                const anf::Anf& formal) {
            const auto res = solver.add(indexer.toBits(value));
            if (!res.independent) {
                anf::Anf id = formal;
                for (std::size_t e = 0; e < formals.size(); ++e)
                    if (e < res.combination.size() && res.combination.get(e))
                        id ^= formals[e];
                if (!id.isZero()) out.annihilators.push_back(id);
            }
            formals.push_back(formal);
        };
        insert(anf::Anf::one(), anf::Anf::one());
        for (const auto& p : products) insert(p.value, p.formal);
        for (std::size_t a = 0; a < m; ++a)
            insert(basis[a], anf::Anf::var(newVars[a]));
    }

    // --- Functional reductions -------------------------------------------
    // Greedy: find every surviving element expressible over the others
    // (and products of the others), then remove the one with the CHEAPEST
    // right-hand side and repeat. The cost choice matters doubly:
    //   * it reproduces the paper's pick (majority-7 reduces s3 = s1·s2, a
    //     2-literal RHS, rather than rewriting a cheap leader over the
    //     expensive rest), and
    //   * expensive right-hand sides inject high-degree product monomials
    //     into the rewritten expression, which can snowball across
    //     iterations (the 3-operand adder blows up this way).
    // Ties prefer the highest-index element: later basis elements are the
    // higher-degree leaders, and removing those keeps the simple leaders
    // as hardware.
    std::vector<char> alive(m, 1);
    bool changed = true;
    while (changed) {
        changed = false;
        std::size_t bestIdx = m;
        anf::Anf bestRhs;
        std::size_t bestCost = 0;
        for (std::size_t a = 0; a < m; ++a) {
            if (!alive[a]) continue;
            anf::MonomialIndexer indexer;
            gf2::SpanSolver solver;
            std::vector<anf::Anf> formals;
            const auto insert = [&](const anf::Anf& value,
                                    const anf::Anf& formal) {
                solver.add(indexer.toBits(value));
                formals.push_back(formal);
            };
            insert(anf::Anf::one(), anf::Anf::one());
            for (std::size_t j = 0; j < m; ++j)
                if (alive[j] && j != a)
                    insert(basis[j], anf::Anf::var(newVars[j]));
            for (const auto& p : products)
                if (!p.formal.usesVar(newVars[a])) {
                    bool ok = true;
                    p.formal.support().forEachVar([&](anf::Var v) {
                        for (std::size_t j = 0; j < m; ++j)
                            if (newVars[j] == v && !alive[j]) ok = false;
                    });
                    if (ok) insert(p.value, p.formal);
                }

            const auto comb = solver.represent(indexer.toBits(basis[a]));
            if (!comb) continue;
            anf::Anf rhs;
            for (std::size_t e = 0; e < formals.size(); ++e)
                if (e < comb->size() && comb->get(e)) rhs ^= formals[e];
            const std::size_t cost = rhs.literalCount();
            if (bestIdx == m || cost <= bestCost) {
                bestIdx = a;
                bestRhs = std::move(rhs);
                bestCost = cost;
            }
        }
        if (bestIdx != m) {
            out.reductions.emplace(newVars[bestIdx], std::move(bestRhs));
            alive[bestIdx] = 0;
            changed = true;
        }
    }

    // Note: a reduction's right-hand side may reference an element that was
    // itself reduced in a later pass of the greedy loop (a chain such as
    // s5 = s4·x, s4 = s1·s2). The map is deliberately NOT closed under
    // substitution — inlining chains inflates the rewritten expression and
    // degrades the hierarchy. Instead the decomposer re-materializes any
    // reduced element that is still referenced after the rewrite.
    return out;
}

}  // namespace pd::core::PD_WIDTH_NS
