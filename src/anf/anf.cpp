#include "anf/anf.hpp"

#include <algorithm>

namespace pd::anf::PD_WIDTH_NS {

Anf Anf::fromTerms(std::vector<Monomial> terms) {
    std::sort(terms.begin(), terms.end());
    // Cancel equal monomials mod 2 in a single sweep.
    Anf out;
    out.terms_.reserve(terms.size());
    std::size_t i = 0;
    while (i < terms.size()) {
        std::size_t j = i + 1;
        while (j < terms.size() && terms[j] == terms[i]) ++j;
        if ((j - i) & 1u) out.terms_.push_back(terms[i]);
        i = j;
    }
    return out;
}

bool Anf::isLiteral() const {
    if (terms_.size() == 1) return terms_[0].degree() == 1;
    if (terms_.size() == 2)
        return terms_[0].isOne() && terms_[1].degree() == 1;
    return false;
}

Var Anf::literalVar() const {
    PD_ASSERT(isLiteral());
    return terms_.back().vars()[0];
}

bool Anf::literalNegated() const {
    PD_ASSERT(isLiteral());
    return terms_.size() == 2;
}

std::size_t Anf::literalCount() const {
    std::size_t n = 0;
    for (const auto& t : terms_) n += t.degree();
    return n;
}

std::size_t Anf::degree() const {
    std::size_t d = 0;
    for (const auto& t : terms_) d = std::max(d, t.degree());
    return d;
}

VarSet Anf::support() const {
    VarSet s;
    for (const auto& t : terms_) s = s.unionWith(t);
    return s;
}

bool Anf::intersects(const VarSet& mask) const {
    for (const auto& t : terms_)
        if (t.intersects(mask)) return true;
    return false;
}

Anf& Anf::operator^=(const Anf& rhs) {
    // Merge of two sorted unique sequences with mod-2 cancellation.
    std::vector<Monomial> out;
    out.reserve(terms_.size() + rhs.terms_.size());
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < terms_.size() && j < rhs.terms_.size()) {
        const auto cmp = terms_[i] <=> rhs.terms_[j];
        if (cmp < 0)
            out.push_back(terms_[i++]);
        else if (cmp > 0)
            out.push_back(rhs.terms_[j++]);
        else {
            ++i;
            ++j;  // equal terms cancel
        }
    }
    out.insert(out.end(), terms_.begin() + static_cast<std::ptrdiff_t>(i),
               terms_.end());
    out.insert(out.end(),
               rhs.terms_.begin() + static_cast<std::ptrdiff_t>(j),
               rhs.terms_.end());
    terms_ = std::move(out);
    return *this;
}

namespace {

/// Past this many terms in the smaller operand, a product builds the
/// cross product and sorts once: every term of the smaller operand costs
/// the merge path another pass over the growing sum, so the merges stop
/// paying off around this size. Specs, rewrites and folds multiply by
/// operands of a few terms.
constexpr std::size_t kMergeProductMaxTerms = 16;

/// x·P for a canonical P. Terms lacking x gain bit x: every degree grows
/// by one and every word order is kept, so they stay sorted among
/// themselves. Terms holding x are unchanged. The product is therefore
/// one merge of two sorted runs, equal terms cancelling mod 2.
Anf timesVar(const Anf& p, Var x) {
    std::vector<Monomial> gained;
    std::vector<Monomial> kept;
    for (Monomial t : p.terms()) {
        if (t.contains(x)) {
            kept.push_back(t);
        } else {
            t.insert(x);
            gained.push_back(t);
        }
    }
    Anf r = Anf::fromCanonicalTerms(std::move(gained));
    r ^= Anf::fromCanonicalTerms(std::move(kept));
    return r;
}

}  // namespace

Anf operator*(const Anf& a, const Anf& b) {
    if (a.isZero() || b.isZero()) return Anf::zero();
    const bool aSmaller = a.termCount() <= b.termCount();
    const Anf& small = aSmaller ? a : b;
    const Anf& big = aSmaller ? b : a;
    if (small.termCount() > kMergeProductMaxTerms) {
        std::vector<Monomial> prods;
        prods.reserve(a.terms_.size() * b.terms_.size());
        for (const auto& ta : a.terms_)
            for (const auto& tb : b.terms_) prods.push_back(ta * tb);
        return Anf::fromTerms(std::move(prods));
    }
    // Distribute over the small operand: each term is a chain of
    // variable merges, XOR-merged into the sum.
    Anf sum;
    for (const auto& t : small.terms_) {
        Anf part = big;
        t.forEachVar([&](Var x) { part = timesVar(part, x); });
        sum ^= part;
    }
    return sum;
}

bool Anf::evaluate(const Assignment& trueVars) const {
    bool acc = false;
    for (const auto& t : terms_)
        if (t.subsetOf(trueVars)) acc = !acc;
    return acc;
}

std::size_t Anf::hash() const {
    std::size_t h = terms_.size() * 0x9e3779b97f4a7c15ull;
    for (const auto& t : terms_) h ^= t.hash() + 0x9e3779b9 + (h << 6) + (h >> 2);
    return h;
}

}  // namespace pd::anf::PD_WIDTH_NS
