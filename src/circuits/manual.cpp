#include "circuits/manual.hpp"

#include <algorithm>
#include <queue>
#include <string>
#include <vector>

#include "netlist/builder.hpp"
#include "util/error.hpp"

namespace pd::circuits {
namespace {

using netlist::Builder;
using netlist::Netlist;
using netlist::NetId;

std::vector<NetId> port(Builder& b, const std::string& name, int n) {
    std::vector<NetId> v;
    v.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) v.push_back(b.input(name + std::to_string(i)));
    return v;
}

void markPort(Netlist& nl, const std::string& name,
              const std::vector<NetId>& nets) {
    for (std::size_t i = 0; i < nets.size(); ++i)
        nl.markOutput(name + std::to_string(i), nets[i]);
}

/// Vector ripple add (unequal lengths allowed); returns sum incl. carry.
std::vector<NetId> rippleVec(Builder& b, std::vector<NetId> x,
                             std::vector<NetId> y) {
    if (x.size() < y.size()) x.swap(y);
    std::vector<NetId> s;
    s.reserve(x.size() + 1);
    NetId carry = netlist::kNoNet;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const bool haveY = i < y.size();
        if (carry == netlist::kNoNet) {
            if (haveY) {
                const auto r = b.halfAdder(x[i], y[i]);
                s.push_back(r.sum);
                carry = r.carry;
            } else {
                s.push_back(x[i]);
            }
        } else if (haveY) {
            const auto r = b.fullAdder(x[i], y[i], carry);
            s.push_back(r.sum);
            carry = r.carry;
        } else {
            const auto r = b.halfAdder(x[i], carry);
            s.push_back(r.sum);
            carry = r.carry;
        }
    }
    if (carry != netlist::kNoNet) s.push_back(carry);
    return s;
}

/// Sklansky prefix add of two equal-width vectors; returns n+1 sum bits.
std::vector<NetId> sklanskyVec(Builder& b, const std::vector<NetId>& a,
                               const std::vector<NetId>& y) {
    const std::size_t n = a.size();
    PD_ASSERT(y.size() == n);
    std::vector<NetId> g(n);
    std::vector<NetId> p(n);
    for (std::size_t i = 0; i < n; ++i) {
        g[i] = b.mkAnd(a[i], y[i]);
        p[i] = b.mkXor(a[i], y[i]);
    }
    // Sklansky tree over (g, p); pAnd tracks the AND-reduced propagate.
    std::vector<NetId> G = g;
    std::vector<NetId> P = p;
    for (std::size_t d = 1; d < n; d <<= 1) {
        std::vector<NetId> nG = G;
        std::vector<NetId> nP = P;
        for (std::size_t i = 0; i < n; ++i) {
            // Combine with the block ending at the lower neighbour.
            if ((i / d) % 2 == 1) {
                const std::size_t j = (i / d) * d - 1;
                nG[i] = b.mkOr(b.mkAnd(P[i], G[j]), G[i]);
                nP[i] = b.mkAnd(P[i], P[j]);
            }
        }
        G = std::move(nG);
        P = std::move(nP);
    }
    std::vector<NetId> s(n + 1);
    s[0] = p[0];
    for (std::size_t i = 1; i < n; ++i) s[i] = b.mkXor(p[i], G[i - 1]);
    s[n] = G[n - 1];
    return s;
}

}  // namespace

Netlist rcaAdder(int n) {
    Netlist nl;
    Builder b(nl);
    const auto a = port(b, "a", n);
    const auto y = port(b, "b", n);
    markPort(nl, "s", rippleVec(b, a, y));
    return nl;
}

Netlist claAdder(int n) {
    Netlist nl;
    Builder b(nl);
    const auto a = port(b, "a", n);
    const auto y = port(b, "b", n);
    markPort(nl, "s", sklanskyVec(b, a, y));
    return nl;
}

Netlist adderTreeCounter(int n) {
    Netlist nl;
    Builder b(nl);
    const auto a = port(b, "a", n);
    // Balanced binary reduction: each input bit is a 1-bit vector.
    std::vector<std::vector<NetId>> vals;
    vals.reserve(static_cast<std::size_t>(n));
    for (const NetId bit : a) vals.push_back({bit});
    while (vals.size() > 1) {
        std::vector<std::vector<NetId>> next;
        for (std::size_t i = 0; i + 1 < vals.size(); i += 2)
            next.push_back(rippleVec(b, vals[i], vals[i + 1]));
        if (vals.size() & 1u) next.push_back(vals.back());
        vals = std::move(next);
    }
    int m = 0;
    while ((1 << m) <= n) ++m;
    vals[0].resize(static_cast<std::size_t>(m), b.constant(false));
    markPort(nl, "c", vals[0]);
    return nl;
}

Netlist tgaCounter(int n) {
    Netlist nl;
    Builder b(nl);
    const auto a = port(b, "a", n);

    // Per-weight priority queues ordered by (approximate) arrival depth.
    using Item = std::pair<std::size_t, NetId>;  // (depth, net)
    std::vector<std::priority_queue<Item, std::vector<Item>, std::greater<>>>
        col;
    col.resize(8);
    for (const NetId bit : a) col[0].emplace(0, bit);

    // Greedy 3:2 reduction, earliest arrivals first [10].
    for (std::size_t w = 0; w < col.size(); ++w) {
        while (col[w].size() >= 3) {
            const auto [d1, x] = col[w].top();
            col[w].pop();
            const auto [d2, y] = col[w].top();
            col[w].pop();
            const auto [d3, z] = col[w].top();
            col[w].pop();
            const auto r = b.fullAdder(x, y, z);
            const std::size_t d = std::max({d1, d2, d3}) + 2;
            col[w].emplace(d, r.sum);
            PD_ASSERT(w + 1 < col.size());
            col[w + 1].emplace(d, r.carry);
        }
    }

    // Final carry-propagate over the at-most-two rows left per column.
    std::vector<NetId> row1;
    std::vector<NetId> row2;
    for (std::size_t w = 0; w < col.size(); ++w) {
        std::vector<NetId> rest;
        while (!col[w].empty()) {
            rest.push_back(col[w].top().second);
            col[w].pop();
        }
        row1.push_back(rest.size() > 0 ? rest[0] : b.constant(false));
        row2.push_back(rest.size() > 1 ? rest[1] : b.constant(false));
    }
    auto sum = rippleVec(b, row1, row2);

    int m = 0;
    while ((1 << m) <= n) ++m;
    sum.resize(static_cast<std::size_t>(m), b.constant(false));
    markPort(nl, "c", sum);
    return nl;
}

Netlist oklobdzijaLzd(int n) {
    if (n % 4 != 0) fail("oklobdzijaLzd", "width must be divisible by 4");
    Netlist nl;
    Builder b(nl);
    const auto a = port(b, "a", n);
    const int nNib = n / 4;

    // First level: per-nibble V (any bit set) and P1 P0 (leading-zero
    // count within the nibble, from its local MSB).
    std::vector<NetId> V(static_cast<std::size_t>(nNib));
    std::vector<NetId> P1(static_cast<std::size_t>(nNib));
    std::vector<NetId> P0(static_cast<std::size_t>(nNib));
    for (int j = 0; j < nNib; ++j) {
        const NetId b0 = a[static_cast<std::size_t>(4 * j + 0)];
        const NetId b1 = a[static_cast<std::size_t>(4 * j + 1)];
        const NetId b2 = a[static_cast<std::size_t>(4 * j + 2)];
        const NetId b3 = a[static_cast<std::size_t>(4 * j + 3)];
        V[static_cast<std::size_t>(j)] =
            b.mkOr(b.mkOr(b3, b2), b.mkOr(b1, b0));
        P1[static_cast<std::size_t>(j)] = b.mkAnd(b.mkNot(b3), b.mkNot(b2));
        P0[static_cast<std::size_t>(j)] =
            b.mkAnd(b.mkNot(b3), b.mkOr(b2, b.mkNot(b1)));
    }

    // Second level: leading-zero count over the V vector (nibble index
    // from the top) and a priority mux selecting the winning nibble's P.
    // For n = 16 this is exactly the paper's Fig. 2; wider n chains the
    // same structure. The all-prefix word aliases to output 0 (the Fig. 1
    // encoding the benchmarks use): no x_j fires for the high bits and the
    // low bits are gated by "any V set".
    std::vector<NetId> z;
    // High bits: LZD over V (MSB nibble = highest index).
    {
        int hb = 0;
        while ((1 << hb) < nNib) ++hb;
        // Build x_j (first set nibble from top) with a prefix chain.
        std::vector<NetId> x(static_cast<std::size_t>(nNib));
        NetId pref = b.constant(true);
        for (int j = nNib - 1; j >= 0; --j) {
            x[static_cast<std::size_t>(j)] =
                b.mkAnd(pref, V[static_cast<std::size_t>(j)]);
            pref = b.mkAnd(pref, b.mkNot(V[static_cast<std::size_t>(j)]));
        }
        std::vector<NetId> high(static_cast<std::size_t>(hb),
                                b.constant(false));
        for (int j = nNib - 1; j >= 0; --j) {
            const int count = nNib - 1 - j;
            for (int q = 0; q < hb; ++q)
                if ((count >> q) & 1)
                    high[static_cast<std::size_t>(q)] = b.mkOr(
                        high[static_cast<std::size_t>(q)],
                        x[static_cast<std::size_t>(j)]);
        }
        // Low bits: priority mux over the nibble P's, top nibble first,
        // gated so the all-prefix word reads 0.
        NetId low1 = P1[0];
        NetId low0 = P0[0];
        NetId vAny = V[0];
        for (int j = 1; j < nNib; ++j) {
            low1 = b.mkMux(V[static_cast<std::size_t>(j)],
                           low1, P1[static_cast<std::size_t>(j)]);
            low0 = b.mkMux(V[static_cast<std::size_t>(j)],
                           low0, P0[static_cast<std::size_t>(j)]);
            vAny = b.mkOr(vAny, V[static_cast<std::size_t>(j)]);
        }
        z = {b.mkAnd(low0, vAny), b.mkAnd(low1, vAny)};
        for (int q = 0; q < hb; ++q)
            z.push_back(high[static_cast<std::size_t>(q)]);
    }
    markPort(nl, "z", z);
    return nl;
}

namespace {

Netlist flatDetector(int n, bool lod) {
    Netlist nl;
    Builder b(nl);
    const auto a = port(b, "a", n);
    int m = 0;
    while ((1 << m) < n) ++m;

    // Per-position cubes built as balanced AND trees (Fig. 1's independent
    // x_i blocks; builder CSE models the sharing a flat synthesizer finds).
    std::vector<std::vector<NetId>> zTerms(static_cast<std::size_t>(m));
    for (int i = n - 1; i >= 0; --i) {
        std::vector<NetId> lits;
        for (int j = n - 1; j > i; --j)
            lits.push_back(lod ? a[static_cast<std::size_t>(j)]
                               : b.mkNot(a[static_cast<std::size_t>(j)]));
        lits.push_back(lod ? b.mkNot(a[static_cast<std::size_t>(i)])
                           : a[static_cast<std::size_t>(i)]);
        const NetId xi = b.mkAndTree(lits);
        const int count = n - 1 - i;
        for (int q = 0; q < m; ++q)
            if ((count >> q) & 1)
                zTerms[static_cast<std::size_t>(q)].push_back(xi);
    }
    for (int q = 0; q < m; ++q)
        nl.markOutput("z" + std::to_string(q),
                      b.mkOrTree(zTerms[static_cast<std::size_t>(q)]));
    return nl;
}

}  // namespace

Netlist flatLzd(int n) { return flatDetector(n, false); }
Netlist flatLod(int n) { return flatDetector(n, true); }

Netlist progressiveComparator(int n) {
    Netlist nl;
    Builder b(nl);
    const auto a = port(b, "a", n);
    const auto y = port(b, "b", n);
    // MSB first: gt = a_i·~b_i ⊕ (a_i ≡ b_i)·gt_below.
    NetId gt = b.constant(false);
    for (int i = 0; i < n; ++i) {
        const NetId ai = a[static_cast<std::size_t>(i)];
        const NetId bi = y[static_cast<std::size_t>(i)];
        const NetId win = b.mkAnd(ai, b.mkNot(bi));
        const NetId eq = b.mkXnor(ai, bi);
        gt = b.mkOr(win, b.mkAnd(eq, gt));
    }
    nl.markOutput("gt", gt);
    return nl;
}

Netlist subtractComparator(int n) {
    Netlist nl;
    Builder b(nl);
    const auto a = port(b, "a", n);
    const auto y = port(b, "b", n);
    // gt = carry-out of A + ~B (i.e. A + 2^n - 1 - B ≥ 2^n ⟺ A > B).
    NetId carry = b.constant(false);
    for (int i = 0; i < n; ++i) {
        const NetId nb = b.mkNot(y[static_cast<std::size_t>(i)]);
        const auto r = b.fullAdder(a[static_cast<std::size_t>(i)], nb, carry);
        carry = r.carry;
    }
    nl.markOutput("gt", carry);
    return nl;
}

Netlist csaAdder3(int n, bool fastFinal) {
    Netlist nl;
    Builder b(nl);
    const auto a = port(b, "a", n);
    const auto x = port(b, "b", n);
    const auto c = port(b, "c", n);

    // Carry-save stage: one full adder per column.
    std::vector<NetId> save;
    std::vector<NetId> carry;
    for (int i = 0; i < n; ++i) {
        const auto r = b.fullAdder(a[static_cast<std::size_t>(i)],
                                   x[static_cast<std::size_t>(i)],
                                   c[static_cast<std::size_t>(i)]);
        save.push_back(r.sum);
        carry.push_back(r.carry);
    }
    // Final add: save + (carry << 1). s0 is save[0] directly.
    std::vector<NetId> hiA(save.begin() + 1, save.end());
    std::vector<NetId> out;
    if (fastFinal) {
        hiA.push_back(b.constant(false));  // equalize widths (n-1 → n)
        out = sklanskyVec(b, hiA, carry);
    } else {
        out = rippleVec(b, hiA, carry);
    }
    std::vector<NetId> s{save[0]};
    s.insert(s.end(), out.begin(), out.end());
    s.resize(static_cast<std::size_t>(n) + 2, b.constant(false));
    markPort(nl, "s", s);
    return nl;
}

Netlist rcaRcaAdder3(int n) {
    Netlist nl;
    Builder b(nl);
    const auto a = port(b, "a", n);
    const auto x = port(b, "b", n);
    const auto c = port(b, "c", n);
    auto t = rippleVec(b, a, x);
    auto s = rippleVec(b, t, c);
    s.resize(static_cast<std::size_t>(n) + 2, b.constant(false));
    markPort(nl, "s", s);
    return nl;
}

Netlist carrySelectAdder(int n, int groupBits) {
    if (groupBits < 1) fail("carrySelectAdder", "group width must be positive");
    Netlist nl;
    Builder b(nl);
    const auto a = port(b, "a", n);
    const auto y = port(b, "b", n);

    std::vector<NetId> s(static_cast<std::size_t>(n) + 1);
    NetId carry = b.constant(false);
    for (int base = 0; base < n; base += groupBits) {
        const auto lo = static_cast<std::size_t>(base);
        const auto hi = static_cast<std::size_t>(std::min(n, base + groupBits));
        // Leader expressions: the group's sums under cin = 0 and cin = 1.
        std::vector<NetId> sum0;
        std::vector<NetId> sum1;
        NetId c0 = b.constant(false);
        NetId c1 = b.constant(true);
        for (std::size_t i = lo; i < hi; ++i) {
            const auto f0 = b.fullAdder(a[i], y[i], c0);
            const auto f1 = b.fullAdder(a[i], y[i], c1);
            sum0.push_back(f0.sum);
            sum1.push_back(f1.sum);
            c0 = f0.carry;
            c1 = f1.carry;
        }
        // Second level: select by the one bit the previous group exposes.
        for (std::size_t i = lo; i < hi; ++i)
            s[i] = b.mkMux(carry, sum0[i - lo], sum1[i - lo]);
        carry = b.mkMux(carry, c0, c1);
    }
    s[static_cast<std::size_t>(n)] = carry;
    markPort(nl, "s", s);
    return nl;
}

}  // namespace pd::circuits
