#include "circuits/adder.hpp"

#include "util/error.hpp"

namespace pd::circuits::PD_WIDTH_NS {
namespace {

std::vector<anf::Anf> varAnfs(const std::vector<anf::Var>& vars) {
    std::vector<anf::Anf> out;
    out.reserve(vars.size());
    for (const auto v : vars) out.push_back(anf::Anf::var(v));
    return out;
}

}  // namespace

std::vector<anf::Anf> rippleAnf(const std::vector<anf::Anf>& a,
                                const std::vector<anf::Anf>& b) {
    const std::size_t n = std::max(a.size(), b.size());
    const auto bit = [](const std::vector<anf::Anf>& v, std::size_t i) {
        return i < v.size() ? v[i] : anf::Anf::zero();
    };
    std::vector<anf::Anf> sum;
    sum.reserve(n + 1);
    anf::Anf carry;
    for (std::size_t i = 0; i < n; ++i) {
        const anf::Anf ai = bit(a, i);
        const anf::Anf bi = bit(b, i);
        const anf::Anf axb = ai ^ bi;
        sum.push_back(axb ^ carry);
        carry = (ai * bi) ^ (axb * carry);
    }
    sum.push_back(carry);
    return sum;
}

Benchmark makeAdder(int n) {
    if (n < 1 || n > 32) fail("adder", "unsupported width");
    Benchmark b;
    b.name = "adder" + std::to_string(n);
    b.ports = {{"a", n}, {"b", n}};
    b.outputNames = bitNames("s", n + 1);
    b.reference = [](std::span<const std::uint64_t> v) {
        return v[0] + v[1];
    };
    b.anf = [n](anf::VarTable& vt) {
        const auto vars = registerPortVars(vt, {{"a", n}, {"b", n}});
        return rippleAnf(varAnfs(vars[0]), varAnfs(vars[1]));
    };
    // The carry's canonical Reed-Muller form has ~2^n terms; past 20 bits
    // the flat description is intractable (the paper hits the same wall
    // with the 32-bit LZD).
    if (n > 20) b.anf = nullptr;
    return b;
}

Benchmark makeAdder3(int n) {
    if (n < 1 || n > 14) fail("adder3", "unsupported width");
    Benchmark b;
    b.name = "adder3_" + std::to_string(n);
    b.ports = {{"a", n}, {"b", n}, {"c", n}};
    b.outputNames = bitNames("s", n + 2);
    b.reference = [](std::span<const std::uint64_t> v) {
        return v[0] + v[1] + v[2];
    };
    b.anf = [n](anf::VarTable& vt) {
        const auto vars =
            registerPortVars(vt, {{"a", n}, {"b", n}, {"c", n}});
        // The canonical ANF is construction-independent, but the order of
        // operations decides the intermediate sizes. Rippling (a+b)+c
        // multiplies two already-huge carry expressions per bit and
        // exhausts memory around n = 12; compressing to carry-save first
        // keeps every product of the final ripple (huge × ≤3-term)
        // incremental. The result is the same canonical Reed-Muller form.
        const auto a = varAnfs(vars[0]);
        const auto bo = varAnfs(vars[1]);
        const auto c = varAnfs(vars[2]);
        std::vector<anf::Anf> u(static_cast<std::size_t>(n));
        std::vector<anf::Anf> v(static_cast<std::size_t>(n) + 1);
        for (int i = 0; i < n; ++i) {
            u[static_cast<std::size_t>(i)] = a[i] ^ bo[i] ^ c[i];
            v[static_cast<std::size_t>(i) + 1] =
                (a[i] * bo[i]) ^ (a[i] * c[i]) ^ (bo[i] * c[i]);
        }
        return rippleAnf(u, v);
    };
    return b;
}

}  // namespace pd::circuits::PD_WIDTH_NS
