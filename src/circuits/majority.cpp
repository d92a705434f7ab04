#include "circuits/majority.hpp"

#include <bit>

#include "anf/ops.hpp"
#include "util/error.hpp"

namespace pd::circuits::PD_WIDTH_NS {
namespace {

/// Enumerates all k-subsets of vars, invoking fn(Monomial).
template <typename Fn>
void forEachSubset(const std::vector<anf::Var>& vars, int k, Fn&& fn) {
    std::vector<int> idx(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) idx[static_cast<std::size_t>(i)] = i;
    const int n = static_cast<int>(vars.size());
    while (true) {
        anf::Monomial m;
        for (const int i : idx) m.insert(vars[static_cast<std::size_t>(i)]);
        fn(m);
        int pos = k - 1;
        while (pos >= 0 && idx[static_cast<std::size_t>(pos)] == n - k + pos)
            --pos;
        if (pos < 0) break;
        ++idx[static_cast<std::size_t>(pos)];
        for (int q = pos + 1; q < k; ++q)
            idx[static_cast<std::size_t>(q)] =
                idx[static_cast<std::size_t>(q - 1)] + 1;
    }
}

}  // namespace

Benchmark makeMajority(int n) {
    if (n % 2 == 0) fail("majority", "n must be odd");
    if (n > 21) fail("majority", "n too large for truth-table ANF");
    Benchmark b;
    b.name = "maj" + std::to_string(n);
    b.ports = {{"a", n}};
    b.outputNames = {"maj"};
    b.reference = [n](std::span<const std::uint64_t> v) -> std::uint64_t {
        return std::popcount(v[0]) > n / 2 ? 1 : 0;
    };

    b.anf = [n](anf::VarTable& vt) {
        const auto vars = registerPortVars(vt, {{"a", n}});
        const anf::Anf maj =
            anf::fromTruthTable(vars[0], [n](const anf::Assignment& a) {
                int ones = 0;
                for (anf::Var v = 0; v < static_cast<anf::Var>(n); ++v)
                    if (a.contains(v)) ++ones;
                return ones > n / 2;
            });
        return std::vector<anf::Anf>{maj};
    };

    b.sop = [n](anf::VarTable& vt) {
        const auto vars = registerPortVars(vt, {{"a", n}});
        synth::SopSpec spec;
        spec.outputs.resize(1);
        spec.outputs[0].name = "maj";
        forEachSubset(vars[0], n / 2 + 1, [&](const anf::Monomial& m) {
            spec.outputs[0].cubes.push_back({m, {}});
        });
        return spec;
    };
    return b;
}

}  // namespace pd::circuits::PD_WIDTH_NS
