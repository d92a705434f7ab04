#include "circuits/lzd.hpp"

#include "util/error.hpp"

namespace pd::circuits::PD_WIDTH_NS {
namespace {

int log2i(int n) {
    int m = 0;
    while ((1 << m) < n) ++m;
    if ((1 << m) != n) fail("lzd", "width must be a power of two");
    return m;
}

/// Number of leading zeros (lod=false) or ones (lod=true) of an n-bit
/// value. Follows the paper's Fig. 1 encoding: a word with no
/// "interesting" bit at all (all-zero for LZD, all-one for LOD) aliases
/// to 0 — none of the position terms x1..x(n-1) fires, so every output
/// bit is 0. This keeps the LSB alive in the specification (x15
/// references a0), which matters for the nibble structure PD discovers.
std::uint64_t leadingCount(std::uint64_t a, int n, bool lod) {
    int count = 0;
    for (int i = n - 1; i >= 0; --i) {
        const bool bit = (a >> i) & 1u;
        if (bit == lod)
            ++count;
        else
            break;
    }
    return static_cast<std::uint64_t>(count == n ? 0 : count);
}

Benchmark makeDetector(int n, bool lod) {
    const int m = log2i(n);
    Benchmark b;
    b.name = (lod ? "lod" : "lzd") + std::to_string(n);
    b.ports = {{"a", n}};
    b.outputNames = bitNames("z", m);
    b.reference = [n, lod](std::span<const std::uint64_t> v) {
        return leadingCount(v[0], n, lod);
    };

    // ANF spec. x_i = "first interesting bit at position i", scanning from
    // the MSB: prefix bits all equal `lod`, bit i differs. The x_i are
    // disjoint, so each output bit is the XOR of the x_i with the matching
    // count bit. There is no clamp term: the all-prefix word contributes
    // nothing and aliases to output 0 (paper Fig. 1).
    b.anf = [n, m, lod](anf::VarTable& vt) {
        const auto vars = registerPortVars(
            vt, {{"a", n}});
        const auto& a = vars[0];
        std::vector<anf::Anf> z(static_cast<std::size_t>(m));

        anf::Anf prefix = anf::Anf::one();  // product over bits above i
        for (int i = n - 1; i >= 0; --i) {
            // x_i = prefix · (bit i in the non-prefix phase)
            const anf::Anf bit = lod ? ~anf::Anf::var(a[static_cast<std::size_t>(i)])
                                     : anf::Anf::var(a[static_cast<std::size_t>(i)]);
            const anf::Anf xi = prefix * bit;
            const int count = n - 1 - i;
            for (int q = 0; q < m; ++q)
                if ((count >> q) & 1) z[static_cast<std::size_t>(q)] ^= xi;
            const anf::Anf prefBit =
                lod ? anf::Anf::var(a[static_cast<std::size_t>(i)])
                    : ~anf::Anf::var(a[static_cast<std::size_t>(i)]);
            prefix *= prefBit;
        }
        return z;
    };

    // SOP description (the paper's Fig. 1 input form): z_q = OR over the
    // disjoint position cubes whose count has bit q set.
    b.sop = [n, m, lod](anf::VarTable& vt) {
        const auto vars = registerPortVars(vt, {{"a", n}});
        const auto& a = vars[0];
        synth::SopSpec spec;
        spec.outputs.resize(static_cast<std::size_t>(m));
        for (int q = 0; q < m; ++q)
            spec.outputs[static_cast<std::size_t>(q)].name =
                "z" + std::to_string(q);

        const auto addCube = [&](int q, const synth::Cube& c) {
            spec.outputs[static_cast<std::size_t>(q)].cubes.push_back(c);
        };
        for (int i = n - 1; i >= 0; --i) {
            synth::Cube cube;
            for (int j = n - 1; j > i; --j)
                (lod ? cube.pos : cube.neg).insert(a[static_cast<std::size_t>(j)]);
            (lod ? cube.neg : cube.pos).insert(a[static_cast<std::size_t>(i)]);
            const int count = n - 1 - i;
            for (int q = 0; q < m; ++q)
                if ((count >> q) & 1) addCube(q, cube);
        }
        return spec;
    };

    // A 32-bit LZD's Reed-Muller form has ~2^31 terms; the paper hits the
    // same wall (§6). Refuse to build it rather than thrash.
    if (!lod && n > 20) b.anf = nullptr;
    return b;
}

}  // namespace

Benchmark makeLzd(int n) { return makeDetector(n, false); }
Benchmark makeLod(int n) { return makeDetector(n, true); }

}  // namespace pd::circuits::PD_WIDTH_NS
