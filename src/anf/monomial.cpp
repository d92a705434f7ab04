#include "anf/monomial.hpp"

#include <bit>
#include <string>

namespace pd::anf::PD_WIDTH_NS {

std::size_t Monomial::degree() const {
    std::size_t d = 0;
    for (const auto w : w_) d += static_cast<std::size_t>(std::popcount(w));
    return d;
}

std::vector<Var> Monomial::vars() const {
    std::vector<Var> out;
    out.reserve(degree());
    forEachVar([&](Var v) { out.push_back(v); });
    return out;
}

std::strong_ordering Monomial::operator<=>(const Monomial& rhs) const {
    const auto da = degree();
    const auto db = rhs.degree();
    if (da != db) return da <=> db;
    for (std::size_t i = kWords; i-- > 0;)
        if (w_[i] != rhs.w_[i]) return w_[i] <=> rhs.w_[i];
    return std::strong_ordering::equal;
}

void Monomial::failCapacity(Var v) {
    reachedCapacity("insert");
    fail("Monomial",
         "variable id " + std::to_string(v) + " exceeds the " +
             std::to_string(kMaxVars) +
             "-variable capacity of a monomial (job too large for one "
             "decomposition run)");
}

Monomial Monomial::fromWords(std::span<const std::uint64_t> words) {
    Monomial m;
    for (std::size_t i = 0; i < words.size(); ++i) {
        if (i < kWords)
            m.w_[i] = words[i];
        else if (words[i] != 0)
            failCapacity(static_cast<Var>(
                i * 64 + static_cast<std::size_t>(__builtin_ctzll(words[i]))));
    }
    return m;
}

std::size_t Monomial::hash() const {
    // FNV-style mix over the words; quality is plenty for hash maps keyed
    // by monomials during products and pair-list grouping.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto w : w_) {
        h ^= w + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        h *= 0x100000001b3ull;
    }
    return static_cast<std::size_t>(h);
}

}  // namespace pd::anf::PD_WIDTH_NS
