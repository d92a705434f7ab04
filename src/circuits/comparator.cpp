#include "circuits/comparator.hpp"

#include "util/error.hpp"

namespace pd::circuits::PD_WIDTH_NS {

Benchmark makeComparator(int n, int maxAnfWidth) {
    // The reference compares the ports as 64-bit words, the simulator's
    // port limit; the Reed-Muller spec stops at maxAnfWidth.
    if (n < 1 || n > 64) fail("comparator", "unsupported width");
    Benchmark b;
    b.name = "cmp" + std::to_string(n);
    b.ports = {{"a", n}, {"b", n}};
    b.outputNames = {"gt"};
    b.reference = [](std::span<const std::uint64_t> v) -> std::uint64_t {
        return v[0] > v[1] ? 1 : 0;
    };
    if (n <= maxAnfWidth) {
        b.anf = [n](anf::VarTable& vt) {
            const auto vars = registerPortVars(vt, {{"a", n}, {"b", n}});
            anf::Anf gt;  // LSB-to-MSB accumulation
            for (int i = 0; i < n; ++i) {
                const anf::Anf ai = anf::Anf::var(vars[0][static_cast<std::size_t>(i)]);
                const anf::Anf bi = anf::Anf::var(vars[1][static_cast<std::size_t>(i)]);
                // gt_i = a_i·b̄_i ⊕ (a_i ≡ b_i)·gt_{i-1}
                gt = (ai * ~bi) ^ (~(ai ^ bi)) * gt;
            }
            return std::vector<anf::Anf>{gt};
        };
    }
    return b;
}

}  // namespace pd::circuits::PD_WIDTH_NS
