#include "circuits/multiplier.hpp"

#include <string>
#include <vector>

#include "circuits/adder.hpp"
#include "netlist/builder.hpp"
#include "util/error.hpp"

namespace pd::circuits::PD_WIDTH_NS {
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

/// Columns of partial-product bits: column k collects a_i·b_j, i+j = k.
std::vector<std::vector<NetId>> partialProducts(Builder& b,
                                                const std::vector<NetId>& a,
                                                const std::vector<NetId>& bb) {
    const std::size_t n = a.size();
    std::vector<std::vector<NetId>> col(2 * n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            col[i + j].push_back(b.mkAnd(a[i], bb[j]));
    return col;
}

/// Final two-row addition: ripple, or a Sklansky prefix when `fast`.
std::vector<NetId> addRows(Builder& b, const std::vector<NetId>& x,
                           const std::vector<NetId>& y, bool fast) {
    const std::size_t n = std::max(x.size(), y.size());
    const auto bit = [&](const std::vector<NetId>& v, std::size_t i) {
        return i < v.size() ? v[i] : b.constant(false);
    };
    std::vector<NetId> s;
    if (!fast) {
        NetId carry = b.constant(false);
        for (std::size_t i = 0; i < n; ++i) {
            const auto fa = b.fullAdder(bit(x, i), bit(y, i), carry);
            s.push_back(fa.sum);
            carry = fa.carry;
        }
        s.push_back(carry);
        return s;
    }
    struct GP {
        NetId g, p;
    };
    std::vector<GP> pre(n);
    for (std::size_t i = 0; i < n; ++i)
        pre[i] = {b.mkAnd(bit(x, i), bit(y, i)),
                  b.mkXor(bit(x, i), bit(y, i))};
    std::vector<GP> prefix = pre;
    for (std::size_t d = 1; d < n; d <<= 1) {
        // Sklansky: blocks of width 2d take the block boundary's prefix.
        std::vector<GP> next = prefix;
        for (std::size_t i = 0; i < n; ++i) {
            if (!(i & d)) continue;
            const std::size_t boundary = (i & ~(d - 1)) - 1;
            next[i] = {b.mkOr(prefix[i].g,
                              b.mkAnd(prefix[i].p, prefix[boundary].g)),
                       b.mkAnd(prefix[i].p, prefix[boundary].p)};
        }
        prefix = std::move(next);
    }
    for (std::size_t i = 0; i < n; ++i)
        s.push_back(i == 0 ? pre[0].p : b.mkXor(pre[i].p, prefix[i - 1].g));
    s.push_back(prefix[n - 1].g);
    return s;
}

}  // namespace

Benchmark makeMultiplier(int n, int maxAnfWidth) {
    if (n < 1 || n > 12) fail("multiplier", "unsupported width");
    Benchmark bench;
    bench.name = "mul" + std::to_string(n);
    bench.ports = {{"a", n}, {"b", n}};
    bench.outputNames = bitNames("p", 2 * n);
    bench.reference = [](std::span<const std::uint64_t> v) {
        return v[0] * v[1];
    };
    if (n <= maxAnfWidth) {
        bench.anf = [n](anf::VarTable& vt) {
            const auto vars = registerPortVars(vt, {{"a", n}, {"b", n}});
            // Schoolbook accumulation: add the shifted rows one at a time;
            // every ripple product is (carry expression × 2-literal bit),
            // which keeps intermediates incremental (cf. makeAdder3).
            std::vector<anf::Anf> acc;  // running sum, LSB first
            for (int i = 0; i < n; ++i) {
                std::vector<anf::Anf> row(static_cast<std::size_t>(i),
                                          anf::Anf::zero());
                for (int j = 0; j < n; ++j)
                    row.push_back(anf::Anf::var(vars[0][static_cast<std::size_t>(i)]) *
                                  anf::Anf::var(vars[1][static_cast<std::size_t>(j)]));
                acc = i == 0 ? std::move(row) : rippleAnf(acc, row);
            }
            acc.resize(static_cast<std::size_t>(2 * n), anf::Anf::zero());
            return acc;
        };
    }
    return bench;
}

Netlist arrayMultiplier(int n) {
    if (n < 1) fail("arrayMultiplier", "width must be positive");
    Netlist nl;
    Builder b(nl);
    const auto a = port(b, "a", n);
    const auto bb = port(b, "b", n);

    // Row-sequential array: the running sum absorbs one shifted partial
    // product per row through a ripple chain — the classic O(n) rows ×
    // O(n) ripple structure whose long serial paths Wallace's tree [13]
    // removes.
    std::vector<NetId> acc(static_cast<std::size_t>(2 * n),
                           b.constant(false));
    for (int i = 0; i < n; ++i) {
        NetId carry = b.constant(false);
        for (int j = 0; j < n; ++j) {
            const auto k = static_cast<std::size_t>(i + j);
            const NetId pp = b.mkAnd(a[static_cast<std::size_t>(i)],
                                     bb[static_cast<std::size_t>(j)]);
            const auto fa = b.fullAdder(acc[k], pp, carry);
            acc[k] = fa.sum;
            carry = fa.carry;
        }
        // Propagate the row's carry into the higher accumulator bits.
        for (std::size_t k = static_cast<std::size_t>(i + n);
             k < acc.size() && carry != b.constant(false); ++k) {
            const auto ha = b.halfAdder(acc[k], carry);
            acc[k] = ha.sum;
            carry = ha.carry;
        }
    }
    for (int k = 0; k < 2 * n; ++k)
        nl.markOutput("p" + std::to_string(k), acc[static_cast<std::size_t>(k)]);
    return nl;
}

Netlist wallaceMultiplier(int n, bool fastFinal) {
    if (n < 1) fail("wallaceMultiplier", "width must be positive");
    Netlist nl;
    Builder b(nl);
    const auto a = port(b, "a", n);
    const auto bb = port(b, "b", n);
    auto col = partialProducts(b, a, bb);

    // 3:2 reduction until every column holds at most two bits.
    bool reducible = true;
    while (reducible) {
        reducible = false;
        std::vector<std::vector<NetId>> next(col.size());
        for (std::size_t k = 0; k < col.size(); ++k) {
            auto& c = col[k];
            std::size_t i = 0;
            while (c.size() - i >= 3) {
                const auto fa = b.fullAdder(c[i], c[i + 1], c[i + 2]);
                next[k].push_back(fa.sum);
                if (k + 1 < col.size()) next[k + 1].push_back(fa.carry);
                i += 3;
            }
            if (c.size() - i == 2 && c.size() > 2) {
                const auto ha = b.halfAdder(c[i], c[i + 1]);
                next[k].push_back(ha.sum);
                if (k + 1 < col.size()) next[k + 1].push_back(ha.carry);
                i += 2;
            }
            for (; i < c.size(); ++i) next[k].push_back(c[i]);
        }
        col = std::move(next);
        for (const auto& c : col)
            if (c.size() > 2) reducible = true;
    }

    std::vector<NetId> x, y;
    for (std::size_t k = 0; k < col.size(); ++k) {
        x.push_back(col[k].empty() ? b.constant(false) : col[k][0]);
        y.push_back(col[k].size() > 1 ? col[k][1] : b.constant(false));
    }
    const auto out = addRows(b, x, y, fastFinal);
    for (int k = 0; k < 2 * n; ++k)
        nl.markOutput("p" + std::to_string(k), out[static_cast<std::size_t>(k)]);
    return nl;
}

}  // namespace pd::circuits::PD_WIDTH_NS
