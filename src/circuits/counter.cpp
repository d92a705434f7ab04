#include "circuits/counter.hpp"

#include <bit>

#include "util/error.hpp"

namespace pd::circuits::PD_WIDTH_NS {
namespace {

/// Elementary symmetric polynomial e_k over the given variables, built by
/// dynamic programming over prefixes (avoids deep recursion): e_k(x1..xm)
/// = e_k(x1..x_{m-1}) ⊕ x_m · e_{k-1}(x1..x_{m-1}).
std::vector<anf::Monomial> elementarySymmetric(
    const std::vector<anf::Var>& vars, int k) {
    // dp[j] = term list of e_j over processed prefix.
    std::vector<std::vector<anf::Monomial>> dp(
        static_cast<std::size_t>(k) + 1);
    dp[0].push_back(anf::Monomial{});
    for (const anf::Var v : vars) {
        for (int j = std::min<int>(k, 1 + static_cast<int>(vars.size()));
             j >= 1; --j) {
            auto& cur = dp[static_cast<std::size_t>(j)];
            for (const auto& m : dp[static_cast<std::size_t>(j - 1)]) {
                anf::Monomial ext = m;
                ext.insert(v);
                cur.push_back(ext);
            }
        }
    }
    return dp[static_cast<std::size_t>(k)];
}

}  // namespace

Benchmark makeCounter(int n) {
    if (n < 1 || n > 40) fail("counter", "unsupported width");
    int m = 0;
    while ((1 << m) <= n) ++m;  // count fits in m bits

    Benchmark b;
    b.name = "counter" + std::to_string(n);
    b.ports = {{"a", n}};
    b.outputNames = bitNames("c", m);
    b.reference = [](std::span<const std::uint64_t> v) -> std::uint64_t {
        return static_cast<std::uint64_t>(std::popcount(v[0]));
    };

    b.anf = [n, m](anf::VarTable& vt) {
        const auto vars = registerPortVars(vt, {{"a", n}});
        std::vector<anf::Anf> out;
        out.reserve(static_cast<std::size_t>(m));
        for (int q = 0; q < m; ++q)
            out.push_back(anf::Anf::fromTerms(
                elementarySymmetric(vars[0], 1 << q)));
        return out;
    };
    return b;
}

}  // namespace pd::circuits::PD_WIDTH_NS
