// Null-space ring and membership tests, mirroring paper §4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "anf/parser.hpp"
#include "obs/metrics.hpp"
#include "ring/identity_db.hpp"
#include "ring/membership.hpp"

namespace pd::ring {
namespace {

using anf::Anf;
using anf::parse;
using anf::VarTable;

TEST(NullSpaceRing, GeneratorHygiene) {
    VarTable vt;
    NullSpaceRing r;
    EXPECT_TRUE(r.trivial());
    r.addGenerator(Anf::zero());
    EXPECT_TRUE(r.trivial());
    r.addGenerator(parse("x", vt));
    r.addGenerator(parse("x", vt));  // duplicate
    EXPECT_EQ(r.generators().size(), 1u);
}

TEST(NullSpaceRing, SpanningSetContainsSubsetProducts) {
    VarTable vt;
    NullSpaceRing r;
    r.addGenerator(parse("x", vt));
    r.addGenerator(parse("y", vt));
    const auto span = r.spanningSet();
    // {x, y, xy}
    EXPECT_EQ(span.size(), 3u);
    EXPECT_NE(std::find(span.begin(), span.end(), parse("x*y", vt)),
              span.end());
}

TEST(NullSpaceRing, ProductClosure) {
    VarTable vt;
    NullSpaceRing a;
    a.addGenerator(parse("z", vt));
    NullSpaceRing b;
    b.addGenerator(parse("x", vt));
    const auto c = NullSpaceRing::productClosure(a, b);
    ASSERT_EQ(c.generators().size(), 1u);
    EXPECT_EQ(c.generators()[0], parse("x*z", vt));
}

TEST(Membership, PaperSection52Witness) {
    // N(a) = rC(z), N(b) = rC(x); (x ^ z) ∈ N(a)⊕N(b) with witness z + x.
    VarTable vt;
    NullSpaceRing na;
    na.addGenerator(parse("z", vt));
    NullSpaceRing nb;
    nb.addGenerator(parse("x", vt));
    const auto m = memberOfSum(parse("x ^ z", vt), na, nb);
    ASSERT_TRUE(m.member);
    EXPECT_EQ(m.part1, parse("z", vt));
    EXPECT_EQ(m.part2, parse("x", vt));
    EXPECT_EQ(m.part1 ^ m.part2, parse("x ^ z", vt));
}

TEST(Membership, RejectsOutsideSum) {
    VarTable vt;
    NullSpaceRing na;
    na.addGenerator(parse("z", vt));
    NullSpaceRing nb;
    nb.addGenerator(parse("x", vt));
    EXPECT_FALSE(memberOfSum(parse("y", vt), na, nb).member);
    EXPECT_FALSE(memberOfSum(parse("x ^ y", vt), na, nb).member);
}

TEST(Membership, ZeroIsAlwaysMember) {
    NullSpaceRing empty;
    const auto m = memberOfSum(Anf::zero(), empty, empty);
    EXPECT_TRUE(m.member);
    EXPECT_TRUE(m.part1.isZero());
    EXPECT_TRUE(m.part2.isZero());
}

TEST(Membership, UsesRingClosureProducts) {
    // N(P) generated by {x, y}: the ring contains x ^ y ^ xy (= x OR y).
    VarTable vt;
    NullSpaceRing r;
    r.addGenerator(parse("x", vt));
    r.addGenerator(parse("y", vt));
    NullSpaceRing empty;
    const auto m = memberOfSum(parse("x ^ y ^ x*y", vt), r, empty);
    EXPECT_TRUE(m.member);
}

TEST(Membership, Section4FactorisationExample) {
    // X = (a⊕b)(p⊕cd) ⊕ (c⊕d)(p⊕ab): ab ∈ N(a⊕b), cd ∈ N(c⊕d), so the
    // cofactor difference (cd ⊕ ab) splits across the two null-spaces and
    // X factorises as (a⊕b⊕c⊕d)(p⊕ab⊕cd).
    VarTable vt;
    const Anf ab = parse("a*b", vt);
    const Anf cd = parse("c*d", vt);
    // Sanity: the generators really annihilate.
    EXPECT_TRUE((parse("a^b", vt) * ab).isZero());
    EXPECT_TRUE((parse("c^d", vt) * cd).isZero());
    NullSpaceRing nab;
    nab.addGenerator(ab);
    NullSpaceRing ncd;
    ncd.addGenerator(cd);
    const Anf q = parse("p ^ c*d", vt);
    const Anf s = parse("p ^ a*b", vt);
    const auto m = memberOfSum(q ^ s, nab, ncd);
    ASSERT_TRUE(m.member);
    const Anf merged = (parse("a^b", vt) ^ parse("c^d", vt)) * (q ^ m.part1);
    const Anf x = parse("(a^b)*(p^c*d) ^ (c^d)*(p^a*b)", vt);
    EXPECT_EQ(merged, x);
}

/// xorshift64: a small deterministic stream for the randomized tests.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next() {
        s_ ^= s_ << 13;
        s_ ^= s_ >> 7;
        s_ ^= s_ << 17;
        return s_;
    }
    std::size_t below(std::size_t n) { return next() % n; }

private:
    std::uint64_t s_;
};

/// Random expression of up to `terms` monomials of degree ≤ 2 over
/// variables [lo, lo + width).
Anf randomAnf(Rng& rng, anf::Var lo, std::size_t width, std::size_t terms) {
    std::vector<anf::Monomial> ts;
    for (std::size_t i = 0; i < terms; ++i) {
        anf::Monomial m;
        const std::size_t deg = rng.below(3);
        for (std::size_t d = 0; d < deg; ++d)
            m.insert(static_cast<anf::Var>(lo + rng.below(width)));
        ts.push_back(m);
    }
    return Anf::fromTerms(std::move(ts));
}

NullSpaceRing randomRing(Rng& rng, anf::Var lo) {
    NullSpaceRing r;
    const std::size_t gens = rng.below(4);
    for (std::size_t g = 0; g < gens; ++g)
        r.addGenerator(randomAnf(rng, lo, 4, 1 + rng.below(3)));
    return r;
}

TEST(Membership, IndexedMatchesReferenceUnderSupportPreCheck) {
    // Rings over variables 0..3 and 2..5; targets are sums of span
    // elements (members), random expressions over 0..5, or either plus a
    // term in variables 6..7, outside both rings' supports. The indexed
    // overload must agree with the reference in verdict and parts, and a
    // support-rejected query must not build a spanning set.
    Rng rng(0x9e3779b97f4a7c15ull);
    auto& rejects = obs::counter("ring.member.support_rejects");
    std::size_t members = 0;
    std::size_t outside = 0;
    for (int round = 0; round < 600; ++round) {
        MembershipContext ctx;
        const NullSpaceRing r1 = randomRing(rng, 0);
        const NullSpaceRing r2 = randomRing(rng, 2);
        Anf target;
        if (rng.below(2) == 0) {
            for (const auto* r : {&r1, &r2})
                for (const auto& e : r->spanningSet())
                    if (rng.below(2) == 0) target ^= e;
        } else {
            target = randomAnf(rng, 0, 6, 1 + rng.below(4));
        }
        if (rng.below(3) == 0) target ^= randomAnf(rng, 6, 2, 1) * Anf::var(6);
        anf::VarSet genVars;
        for (const auto* r : {&r1, &r2})
            for (const auto& g : r->generators())
                genVars = genVars.unionWith(g.support());
        const bool escapes = !target.support().subsetOf(genVars);

        const std::uint64_t rejectsBefore = rejects.value();
        const auto want = memberOfSum(target, r1, r2);
        const auto got = memberOfSum(ctx, target, r1, r2);
        ASSERT_EQ(got.member, want.member) << "round " << round;
        if (want.member) {
            ++members;
            EXPECT_EQ(got.part1, want.part1) << "round " << round;
            EXPECT_EQ(got.part2, want.part2) << "round " << round;
        }
        if (escapes && !target.isZero() &&
            !(r1.trivial() && r2.trivial())) {
            ++outside;
            EXPECT_FALSE(got.member);
            EXPECT_EQ(rejects.value(), rejectsBefore + 1);
            EXPECT_EQ(r1.cachedSpan(ctx.indexer.uid(), 64), nullptr);
            EXPECT_EQ(r2.cachedSpan(ctx.indexer.uid(), 64), nullptr);
        }
    }
    EXPECT_GT(members, 50u);
    EXPECT_GT(outside, 50u);
}

TEST(IdentityDb, NullspaceFromIdentity) {
    VarTable vt;
    IdentityDb db;
    EXPECT_TRUE(db.empty());
    db.add(parse("a*z", vt));        // a·z = 0
    db.add(parse("a*x ^ a*y", vt));  // a·(x^y) = 0
    db.add(parse("b*x", vt));
    db.add(Anf::zero());             // ignored
    db.add(parse("a*z", vt));        // duplicate ignored
    EXPECT_EQ(db.size(), 3u);

    const auto na = db.nullspaceOf(*vt.find("a"));
    ASSERT_EQ(na.generators().size(), 2u);
    EXPECT_EQ(na.generators()[0], parse("z", vt));
    EXPECT_EQ(na.generators()[1], parse("x ^ y", vt));
    EXPECT_EQ(db.nullspaceOf(*vt.find("b")).generators().size(), 1u);
    // b·x = 0 works in both directions: N(x) ∋ b.
    ASSERT_EQ(db.nullspaceOf(*vt.find("x")).generators().size(), 1u);
    EXPECT_EQ(db.nullspaceOf(*vt.find("x")).generators()[0],
              parse("b", vt));
    // y appears only in the multi-term identity whose other monomial
    // lacks it, so nothing factors out: N(y) stays trivial.
    EXPECT_TRUE(db.nullspaceOf(*vt.find("y")).trivial());
}

TEST(IdentityDb, MonomialNullspaceMergesVars) {
    VarTable vt;
    IdentityDb db;
    db.add(parse("a*z", vt));
    db.add(parse("b*x", vt));
    const anf::Monomial ab = parse("a*b", vt).terms()[0];
    const auto r = db.nullspaceOfMonomial(ab);
    EXPECT_EQ(r.generators().size(), 2u);
    // With complements: adds (1^a) and (1^b).
    const auto rc = db.nullspaceOfMonomial(ab, /*withComplements=*/true);
    EXPECT_EQ(rc.generators().size(), 4u);
    // Every complement generator annihilates the monomial.
    for (const auto& g : rc.generators())
        EXPECT_TRUE((Anf::term(ab) * g).isZero() ||
                    g == parse("z", vt) || g == parse("x", vt));
}

TEST(IdentityDb, DropTouching) {
    VarTable vt;
    IdentityDb db;
    db.add(parse("a*z", vt));
    db.add(parse("b*x", vt));
    anf::VarSet consumed;
    consumed.insert(*vt.find("z"));
    db.dropTouching(consumed);
    EXPECT_EQ(db.size(), 1u);
    EXPECT_TRUE(db.nullspaceOf(*vt.find("a")).trivial());
}

}  // namespace
}  // namespace pd::ring
