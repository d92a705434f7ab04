// Unit and property tests for the ANF (Reed-Muller) engine: Boolean-ring
// axioms, canonicity, and evaluation semantics (paper §4).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "anf/anf.hpp"
#include "anf/indexed.hpp"
#include "anf/printer.hpp"
#include "core/rewrite.hpp"

namespace pd::anf {
namespace {

Monomial mono(std::initializer_list<Var> vars) {
    Monomial m;
    for (const Var v : vars) m.insert(v);
    return m;
}

TEST(Monomial, BasicSetSemantics) {
    Monomial m;
    EXPECT_TRUE(m.isOne());
    EXPECT_EQ(m.degree(), 0u);
    m.insert(3);
    m.insert(200);
    EXPECT_EQ(m.degree(), 2u);
    EXPECT_TRUE(m.contains(3));
    EXPECT_TRUE(m.contains(200));
    EXPECT_FALSE(m.contains(4));
    m.erase(3);
    EXPECT_FALSE(m.contains(3));
}

TEST(Monomial, ProductIsIdempotentUnion) {
    const Monomial a = mono({1, 2});
    const Monomial b = mono({2, 3});
    const Monomial p = a * b;
    EXPECT_EQ(p, mono({1, 2, 3}));
    EXPECT_EQ(p * p, p);  // x^2 = x
}

TEST(Monomial, RestrictAndWithout) {
    const Monomial m = mono({1, 2, 5, 7});
    const Monomial mask = mono({2, 7, 9});
    EXPECT_EQ(m.restrictedTo(mask), mono({2, 7}));
    EXPECT_EQ(m.without(mask), mono({1, 5}));
    EXPECT_TRUE(m.intersects(mask));
    EXPECT_FALSE(m.without(mask).intersects(mask));
    EXPECT_TRUE(mono({2, 7}).subsetOf(m));
    EXPECT_FALSE(mono({2, 9}).subsetOf(m));
}

TEST(Monomial, OrderingIsGraded) {
    EXPECT_LT(mono({5}), mono({1, 2}));      // degree 1 < degree 2
    EXPECT_LT(Monomial{}, mono({0}));        // constant first
    EXPECT_NE(mono({1, 4}), mono({2, 3}));
}

TEST(Anf, ConstantsAndLiterals) {
    EXPECT_TRUE(Anf::zero().isZero());
    EXPECT_TRUE(Anf::one().isOne());
    EXPECT_TRUE(Anf::one().isConstant());
    const Anf x = Anf::var(7);
    EXPECT_TRUE(x.isLiteral());
    EXPECT_FALSE(x.literalNegated());
    EXPECT_EQ(x.literalVar(), 7u);
    const Anf nx = ~x;
    EXPECT_TRUE(nx.isLiteral());
    EXPECT_TRUE(nx.literalNegated());
    EXPECT_EQ(nx.literalVar(), 7u);
    EXPECT_FALSE((x ^ Anf::var(8)).isLiteral());
}

TEST(Anf, XorCancels) {
    const Anf x = Anf::var(1);
    EXPECT_TRUE((x ^ x).isZero());
    const Anf y = Anf::var(2);
    EXPECT_EQ(x ^ y ^ x, y);
}

TEST(Anf, FromTermsCanonicalizes) {
    const auto e = Anf::fromTerms(
        {mono({1}), mono({2}), mono({1}), mono({3}), mono({2}), mono({2})});
    // 1 and 2 collapse mod 2: x1 twice cancels, x2 three times survives.
    EXPECT_EQ(e, Anf::var(2) ^ Anf::var(3));
}

TEST(Anf, MultiplicationDistributesAndIdempotent) {
    const Anf a = Anf::var(1);
    const Anf b = Anf::var(2);
    const Anf c = Anf::var(3);
    EXPECT_EQ(a * (b ^ c), (a * b) ^ (a * c));
    EXPECT_EQ(a * a, a);
    // (a ^ b)^2 = a ^ b in a Boolean ring (char 2, idempotent).
    const Anf s = a ^ b;
    EXPECT_EQ(s * s, s);
    // (a^b)(a^b^1) = a ^ b ^ ab ^ ab ^ ... compute: (a^b)(1^a^b) = a^b ^ a ^ ab ^ ab ^ b = 0.
    EXPECT_TRUE((s * ~s).isZero());
}

TEST(Anf, LiteralCountAndDegree) {
    VarTable vt;
    const Var a = vt.addInput("a", 0, 0);
    const Var b = vt.addInput("b", 0, 1);
    const Var c = vt.addInput("c", 0, 2);
    const Anf e = (Anf::var(a) * Anf::var(b)) ^ Anf::var(c) ^ Anf::one();
    EXPECT_EQ(e.termCount(), 3u);
    EXPECT_EQ(e.literalCount(), 3u);  // ab contributes 2, c contributes 1
    EXPECT_EQ(e.degree(), 2u);
    EXPECT_TRUE(e.support().contains(a));
    EXPECT_TRUE(e.support().contains(c));
}

TEST(Anf, EvaluateMatchesDefinition) {
    const Anf e = (Anf::var(0) * Anf::var(1)) ^ Anf::var(2);
    Assignment all0;
    EXPECT_FALSE(e.evaluate(all0));
    EXPECT_TRUE(e.evaluate(mono({2})));
    EXPECT_TRUE(e.evaluate(mono({0, 1})));
    EXPECT_FALSE(e.evaluate(mono({0, 1, 2})));
}

TEST(Anf, PrinterRoundsNicely) {
    VarTable vt;
    const Var a = vt.addInput("a", 0, 0);
    const Var b = vt.addInput("b", 0, 1);
    EXPECT_EQ(toString(Anf::zero(), vt), "0");
    EXPECT_EQ(toString(Anf::one(), vt), "1");
    EXPECT_EQ(toString(Anf::var(a) * Anf::var(b) ^ Anf::one(), vt),
              "1 ^ a*b");
}

// ---- Ring axioms as randomized properties ---------------------------------

Anf randomAnf(std::mt19937_64& rng, int nVars, int maxTerms) {
    std::vector<Monomial> terms;
    const int n = static_cast<int>(rng() % static_cast<unsigned>(maxTerms));
    for (int t = 0; t < n; ++t) {
        Monomial m;
        for (int v = 0; v < nVars; ++v)
            if (rng() & 1u) m.insert(static_cast<Var>(v));
        terms.push_back(m);
    }
    return Anf::fromTerms(std::move(terms));
}

class AnfRingAxioms : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnfRingAxioms, HoldOnRandomElements) {
    std::mt19937_64 rng(GetParam());
    for (int iter = 0; iter < 50; ++iter) {
        const Anf a = randomAnf(rng, 6, 12);
        const Anf b = randomAnf(rng, 6, 12);
        const Anf c = randomAnf(rng, 6, 12);
        // Commutativity / associativity of both operations.
        EXPECT_EQ(a ^ b, b ^ a);
        EXPECT_EQ((a ^ b) ^ c, a ^ (b ^ c));
        EXPECT_EQ(a * b, b * a);
        EXPECT_EQ((a * b) * c, a * (b * c));
        // Distributivity.
        EXPECT_EQ(a * (b ^ c), (a * b) ^ (a * c));
        // Identities and characteristic 2.
        EXPECT_EQ(a ^ Anf::zero(), a);
        EXPECT_EQ(a * Anf::one(), a);
        EXPECT_TRUE((a ^ a).isZero());
        EXPECT_EQ(a * a, a);  // idempotence
    }
}

TEST_P(AnfRingAxioms, EvaluationIsAHomomorphism) {
    std::mt19937_64 rng(GetParam() ^ 0xabcdef);
    for (int iter = 0; iter < 50; ++iter) {
        const Anf a = randomAnf(rng, 6, 10);
        const Anf b = randomAnf(rng, 6, 10);
        Monomial assign;
        for (Var v = 0; v < 6; ++v)
            if (rng() & 1u) assign.insert(v);
        EXPECT_EQ((a ^ b).evaluate(assign),
                  a.evaluate(assign) != b.evaluate(assign));
        EXPECT_EQ((a * b).evaluate(assign),
                  a.evaluate(assign) && b.evaluate(assign));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnfRingAxioms,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// ---- Merge product kernel vs. independent products -------------------------

/// The textbook product: every term pair, one sort, mod-2 cancellation.
Anf crossProduct(const Anf& a, const Anf& b) {
    std::vector<Monomial> prods;
    for (const auto& ta : a.terms())
        for (const auto& tb : b.terms()) prods.push_back(ta * tb);
    return Anf::fromTerms(std::move(prods));
}

void expectProductAgrees(const Anf& a, const Anf& b) {
    const Anf got = a * b;
    EXPECT_EQ(got, crossProduct(a, b));
    MonomialIndexer ix;
    EXPECT_EQ(got, indexedProduct(ix, IndexedAnf::fromAnf(ix, a),
                                  IndexedAnf::fromAnf(ix, b))
                       .toAnf(ix));
}

/// Random expression over a fixed variable pool. The pool straddles
/// word boundaries of the 256-bit monomial so the order's reverse-word
/// comparison is exercised, and two draws from it share variables.
Anf randomAnfOver(std::mt19937_64& rng, std::span<const Var> pool,
                  std::size_t maxTerms) {
    std::vector<Monomial> terms;
    const std::size_t n = rng() % (maxTerms + 1);
    for (std::size_t t = 0; t < n; ++t) {
        Monomial m;
        for (const Var v : pool)
            if (rng() % 3 == 0) m.insert(v);
        terms.push_back(m);
    }
    return Anf::fromTerms(std::move(terms));
}

TEST(AnfProduct, MergeKernelMatchesCrossProductAndIndexed) {
    const std::vector<Var> pool = {0,  1,   2,   3,   62,  63,
                                   64, 65, 127, 128, 200, 255};
    std::mt19937_64 rng(0x5eedu);
    for (int iter = 0; iter < 300; ++iter) {
        const Anf big = randomAnfOver(rng, pool, 400);
        // Small operands up to past the big×big cut-over.
        const Anf small = randomAnfOver(rng, pool, 1 + iter % 48);
        expectProductAgrees(big, small);
        expectProductAgrees(small, big);
        // A small operand sharing the big one's variables outright.
        if (!big.isZero()) {
            const Anf shared = Anf::term(big.terms().back()) ^
                               Anf::var(pool[iter % pool.size()]);
            expectProductAgrees(big, shared);
        }
    }
}

TEST(AnfProduct, ConstantsAndAnnihilators) {
    const std::vector<Var> pool = {0, 5, 63, 64, 190};
    std::mt19937_64 rng(7);
    const Anf p = randomAnfOver(rng, pool, 60);
    ASSERT_FALSE(p.isZero());
    EXPECT_EQ(p * Anf::one(), p);
    EXPECT_EQ(Anf::one() * p, p);
    EXPECT_TRUE((p * Anf::zero()).isZero());
    EXPECT_TRUE((Anf::zero() * p).isZero());
    EXPECT_TRUE((Anf::one() * Anf::one()).isOne());
    for (const Var x : pool) {
        const Anf v = Anf::var(x);
        EXPECT_TRUE((v * ~v).isZero());  // x·(x⊕1) = 0
        EXPECT_EQ(v * v, v);
        expectProductAgrees(v, p);
        expectProductAgrees(~v, p);
        EXPECT_TRUE((v * p * ~v).isZero());
    }
}

TEST(AnfProduct, UnfoldInvertsRewriteFolded) {
    // Tags K0..K2 fold three outputs; pair i's second carries Σ_k K_k·c_ik
    // and the untouched part Σ_k K_k·u_k. Unfolding the rewrite must give
    // output k = u_k ⊕ Σ_i s_i·c_ik.
    const std::vector<Var> pool = {0, 1, 2, 3, 4, 70, 71};
    const std::vector<Var> tags = {100, 101, 102};
    const std::vector<Var> fresh = {150, 151, 152, 153};
    std::mt19937_64 rng(99);
    for (int round = 0; round < 10; ++round) {
        core::PairList pairs(fresh.size());
        std::vector<Anf> want(tags.size());
        Anf untouched;
        for (std::size_t k = 0; k < tags.size(); ++k) {
            const Anf u = randomAnfOver(rng, pool, 12);
            untouched ^= crossProduct(Anf::var(tags[k]), u);
            want[k] = u;
        }
        for (std::size_t i = 0; i < fresh.size(); ++i) {
            pairs[i].first = Anf::var(pool[i]);
            for (std::size_t k = 0; k < tags.size(); ++k) {
                const Anf c = randomAnfOver(rng, pool, 8);
                pairs[i].second ^= crossProduct(Anf::var(tags[k]), c);
                want[k] ^= crossProduct(Anf::var(fresh[i]), c);
            }
        }
        EXPECT_EQ(core::unfold(core::rewriteFolded(pairs, fresh, untouched),
                               tags),
                  want)
            << "round " << round;
    }
}

bool allLiterals(const std::vector<Anf>& exprs) {
    return std::all_of(exprs.begin(), exprs.end(), [](const Anf& e) {
        return e.isConstant() || e.isLiteral();
    });
}

/// Output i is 0, 1, x or ¬x over a small pool, or (rarely) x ⊕ y.
Anf randomOutput(std::mt19937_64& rng, std::span<const Var> pool) {
    const Anf x = Anf::var(pool[rng() % pool.size()]);
    switch (rng() % 6) {
        case 0: return Anf::zero();
        case 1: return Anf::one();
        case 2: return x;
        case 3: return ~x;
        case 4: return x ^ Anf::var(pool[rng() % pool.size()]);
        default: return x * Anf::var(pool[rng() % pool.size()]);
    }
}

TEST(Convergence, FoldedPredicateMatchesUnfoldedLiterals) {
    const std::vector<Var> pool = {0, 1, 63, 64, 130, 200};
    const std::vector<Var> tagPool = {100, 101, 102, 103};
    std::mt19937_64 rng(7);
    std::size_t converged = 0;
    std::size_t notConverged = 0;
    for (int round = 0; round < 400; ++round) {
        const std::size_t outputs = 1 + rng() % tagPool.size();
        std::vector<Anf> list;
        for (std::size_t i = 0; i < outputs; ++i)
            list.push_back(randomOutput(rng, pool));
        // A single output is not folded: it has no tags.
        std::vector<Var> tags;
        VarSet tagMask;
        Anf folded = list[0];
        if (outputs > 1) {
            folded = Anf{};
            for (std::size_t i = 0; i < outputs; ++i) {
                tags.push_back(tagPool[i]);
                tagMask.insert(tagPool[i]);
                folded ^= Anf::var(tagPool[i]) * list[i];
            }
        }
        const bool want = allLiterals(outputs > 1 ? core::unfold(folded, tags)
                                                  : std::vector<Anf>{folded});
        EXPECT_EQ(core::unfoldsToLiterals(folded, tagMask), want)
            << "round " << round;
        (want ? converged : notConverged) += 1;
    }
    EXPECT_GT(converged, 20u);
    EXPECT_GT(notConverged, 20u);
}

TEST(Convergence, TwoLiteralsInOneOutputIsNotConverged) {
    const VarSet tags = mono({100, 101});
    // K0·a ⊕ K0·b: output 0 is a ⊕ b.
    const Anf twoInOne = Anf::var(100) * (Anf::var(1) ^ Anf::var(2));
    EXPECT_FALSE(core::unfoldsToLiterals(twoInOne, tags));
    // K0·a ⊕ K1·b ⊕ K1: a and ¬b.
    const Anf apart = Anf::var(100) * Anf::var(1) ^
                      Anf::var(101) * ~Anf::var(2);
    EXPECT_TRUE(core::unfoldsToLiterals(apart, tags));
    EXPECT_TRUE(core::unfoldsToLiterals(Anf{}, tags));
    EXPECT_TRUE(core::unfoldsToLiterals(~Anf::var(3), VarSet{}));
    EXPECT_FALSE(core::unfoldsToLiterals(Anf::var(3) ^ Anf::var(4), VarSet{}));
}

}  // namespace
}  // namespace pd::anf
