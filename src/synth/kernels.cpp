#include "synth/kernels.hpp"

#include <algorithm>
#include <functional>
#include <string>
#include <unordered_set>

#include "netlist/builder.hpp"
#include "synth/quickfactor.hpp"
#include "util/error.hpp"

namespace pd::synth::PD_WIDTH_NS {
namespace {

// Literals are ordered pos(v) = 2v < neg(v) = 2v+1 for the standard
// "largest literal index" pruning of the kernel recursion.

bool cubeContains(const Cube& c, std::uint32_t lit) {
    const anf::Var v = lit >> 1;
    return (lit & 1u) ? c.neg.contains(v) : c.pos.contains(v);
}

void cubeErase(Cube& c, std::uint32_t lit) {
    const anf::Var v = lit >> 1;
    ((lit & 1u) ? c.neg : c.pos).erase(v);
}

bool cubeDivides(const Cube& d, const Cube& c) {
    return d.pos.subsetOf(c.pos) && d.neg.subsetOf(c.neg);
}

Cube cubeQuotient(const Cube& c, const Cube& d) {
    return {c.pos.without(d.pos), c.neg.without(d.neg)};
}

Cube cubeProduct(const Cube& a, const Cube& b) {
    return {a.pos.unionWith(b.pos), a.neg.unionWith(b.neg)};
}

std::size_t cubeLits(const Cube& c) { return c.pos.degree() + c.neg.degree(); }

bool cubeEqual(const Cube& a, const Cube& b) {
    return a.pos == b.pos && a.neg == b.neg;
}

Cube largestCommonCube(const std::vector<Cube>& cover) {
    PD_ASSERT(!cover.empty());
    Cube common = cover[0];
    for (const auto& c : cover) {
        common.pos = common.pos.restrictedTo(c.pos);
        common.neg = common.neg.restrictedTo(c.neg);
    }
    return common;
}

std::size_t coverLits(const std::vector<Cube>& cover) {
    std::size_t n = 0;
    for (const auto& c : cover) n += cubeLits(c);
    return n;
}

/// Canonical text key for kernel deduplication.
std::string coverKey(std::vector<Cube> cover) {
    std::vector<std::string> parts;
    parts.reserve(cover.size());
    for (const auto& c : cover) {
        std::string p = "+";
        c.pos.forEachVar([&](anf::Var v) { p += std::to_string(v) + ","; });
        p += "-";
        c.neg.forEachVar([&](anf::Var v) { p += std::to_string(v) + ","; });
        parts.push_back(std::move(p));
    }
    std::sort(parts.begin(), parts.end());
    std::string key;
    for (const auto& p : parts) key += p + "|";
    return key;
}

std::uint32_t maxLitId(const std::vector<Cube>& cover) {
    std::uint32_t m = 0;
    for (const auto& c : cover) {
        c.pos.forEachVar([&](anf::Var v) { m = std::max(m, 2 * v + 1); });
        c.neg.forEachVar([&](anf::Var v) { m = std::max(m, 2 * v + 2); });
    }
    return m;
}

struct KernelCollector {
    std::vector<KernelResult> out;
    std::unordered_set<std::string> seen;
    std::size_t cap = 512;

    bool add(const Cube& coKernel, const std::vector<Cube>& kernel) {
        if (out.size() >= cap) return false;
        if (seen.insert(coverKey(kernel)).second)
            out.push_back({coKernel, kernel});
        return true;
    }
};

void kernelsRec(const std::vector<Cube>& cover, std::uint32_t fromLit,
                std::uint32_t numLits, const Cube& path,
                KernelCollector& sink) {
    if (sink.out.size() >= sink.cap) return;
    for (std::uint32_t lit = fromLit; lit < numLits; ++lit) {
        // Quotient by this literal.
        std::vector<Cube> quot;
        for (const auto& c : cover)
            if (cubeContains(c, lit)) {
                Cube q = c;
                cubeErase(q, lit);
                quot.push_back(std::move(q));
            }
        if (quot.size() < 2) continue;
        // Make cube-free; the common cube joins the co-kernel.
        const Cube common = largestCommonCube(quot);
        // Pruning: if the common cube contains a literal smaller than
        // `lit`, this kernel was already found through that literal.
        bool alreadySeen = false;
        for (std::uint32_t l2 = 0; l2 < lit && !alreadySeen; ++l2)
            if (cubeContains(common, l2)) alreadySeen = true;
        if (alreadySeen) continue;
        for (auto& q : quot) q = cubeQuotient(q, common);

        Cube co = cubeProduct(path, common);
        if (lit & 1u)
            co.neg.insert(lit >> 1);
        else
            co.pos.insert(lit >> 1);

        if (!sink.add(co, quot)) return;
        kernelsRec(quot, lit + 1, numLits, co, sink);
    }
}

}  // namespace

std::vector<KernelResult> enumerateKernels(const std::vector<Cube>& cover) {
    KernelCollector sink;
    if (cover.size() < 2) return sink.out;
    const std::uint32_t numLits = maxLitId(cover);

    // Level-0: the cover itself, made cube-free.
    std::vector<Cube> base = cover;
    const Cube common = largestCommonCube(base);
    for (auto& c : base) c = cubeQuotient(c, common);
    sink.add(common, base);

    kernelsRec(base, 0, numLits, common, sink);
    return sink.out;
}

DivisionResult algebraicDivide(const std::vector<Cube>& cover,
                               const std::vector<Cube>& divisor) {
    DivisionResult res;
    if (divisor.empty()) return res;
    // Candidate quotient cubes from the first divisor cube, intersected
    // with those of every other divisor cube (weak division).
    std::vector<Cube> candidates;
    for (const auto& c : cover)
        if (cubeDivides(divisor[0], c))
            candidates.push_back(cubeQuotient(c, divisor[0]));
    for (std::size_t d = 1; d < divisor.size() && !candidates.empty(); ++d) {
        std::vector<Cube> next;
        for (const auto& q : candidates) {
            const Cube want = cubeProduct(q, divisor[d]);
            for (const auto& c : cover)
                if (cubeEqual(c, want)) {
                    next.push_back(q);
                    break;
                }
        }
        candidates = std::move(next);
    }
    // Deduplicate quotient cubes.
    std::vector<Cube> quot;
    for (const auto& q : candidates) {
        bool dup = false;
        for (const auto& existing : quot) dup |= cubeEqual(existing, q);
        if (!dup) quot.push_back(q);
    }
    if (quot.empty()) return res;
    res.quotient = quot;

    // Remainder: cover cubes not expressed as quotient × divisor.
    for (const auto& c : cover) {
        bool covered = false;
        for (const auto& q : res.quotient) {
            for (const auto& d : divisor)
                if (cubeEqual(c, cubeProduct(q, d))) {
                    covered = true;
                    break;
                }
            if (covered) break;
        }
        if (!covered) res.remainder.push_back(c);
    }
    return res;
}

netlist::Netlist synthSopKernels(const SopSpec& spec,
                                 const anf::VarTable& vars,
                                 const KernelSynthOptions& opt) {
    // Node network: output nodes plus extracted intermediate nodes.
    struct Node {
        std::vector<Cube> cover;
        bool isOutput = false;
        std::string name;
    };
    std::vector<Node> nodes;
    for (const auto& out : spec.outputs)
        nodes.push_back({out.cubes, true, out.name});

    anf::Var nextVar = static_cast<anf::Var>(vars.size());
    std::vector<anf::Var> extractedVars;  // parallel to extracted nodes

    for (std::size_t round = 0; round < opt.maxExtractions; ++round) {
        if (nextVar + 1 >= anf::Monomial::kMaxVars) break;
        // Collect candidate kernels from every node.
        std::vector<std::vector<Cube>> candidates;
        std::unordered_set<std::string> seen;
        for (const auto& node : nodes)
            for (auto& kr : enumerateKernels(node.cover)) {
                if (kr.kernel.size() < 2) continue;
                if (seen.insert(coverKey(kr.kernel)).second)
                    candidates.push_back(std::move(kr.kernel));
            }
        // Score: total literal saving across all nodes.
        long bestValue = 0;
        const std::vector<Cube>* best = nullptr;
        std::vector<DivisionResult> bestDivs;
        for (const auto& k : candidates) {
            const long litsK = static_cast<long>(coverLits(k));
            const long cubesK = static_cast<long>(k.size());
            long value = -litsK;  // one-time cost of building the kernel
            std::vector<DivisionResult> divs(nodes.size());
            for (std::size_t n = 0; n < nodes.size(); ++n) {
                divs[n] = algebraicDivide(nodes[n].cover, k);
                if (divs[n].quotient.empty()) continue;
                const long litsQ =
                    static_cast<long>(coverLits(divs[n].quotient));
                const long cubesQ =
                    static_cast<long>(divs[n].quotient.size());
                value += cubesK * litsQ + cubesQ * litsK - litsQ - cubesQ;
            }
            if (value > bestValue) {
                bestValue = value;
                best = &k;
                bestDivs = std::move(divs);
            }
        }
        if (best == nullptr || bestValue < opt.minValue) break;

        // Materialize the kernel as a new node and resubstitute.
        const anf::Var t = nextVar++;
        extractedVars.push_back(t);
        for (std::size_t n = 0; n < nodes.size(); ++n) {
            if (bestDivs[n].quotient.empty()) continue;
            std::vector<Cube> rewritten = bestDivs[n].remainder;
            for (const auto& q : bestDivs[n].quotient) {
                Cube c = q;
                c.pos.insert(t);
                rewritten.push_back(std::move(c));
            }
            nodes[n].cover = std::move(rewritten);
        }
        nodes.push_back({*best, false, "k" + std::to_string(t)});
    }

    // Synthesize. Later extraction rounds may rewrite an earlier
    // intermediate node to reference a later one (never cyclically — a
    // kernel containing t cannot divide t's own cover), so intermediate
    // nets are built on demand, memoized through `nets`.
    netlist::Netlist nl;
    netlist::Builder b(nl);
    std::vector<netlist::NetId> nets = registerInputs(b, vars);
    nets.resize(static_cast<std::size_t>(nextVar), netlist::kNoNet);
    const std::size_t numOutputs = spec.outputs.size();
    const anf::Var firstT = static_cast<anf::Var>(vars.size());

    const std::function<netlist::NetId(std::size_t)> buildNode =
        [&](std::size_t i) -> netlist::NetId {
        // Ensure every referenced intermediate variable has a net.
        for (const auto& c : nodes[i].cover)
            c.pos.forEachVar([&](anf::Var v) {
                if (v >= firstT && nets[v] == netlist::kNoNet)
                    nets[v] = buildNode(numOutputs + (v - firstT));
            });
        return synthCoverFactored(b, nodes[i].cover, nets);
    };

    for (std::size_t i = numOutputs; i < nodes.size(); ++i) {
        const anf::Var t = extractedVars[i - numOutputs];
        if (nets[t] == netlist::kNoNet) nets[t] = buildNode(i);
    }
    for (std::size_t i = 0; i < numOutputs; ++i)
        nl.markOutput(nodes[i].name, buildNode(i));
    return nl;
}

}  // namespace pd::synth::PD_WIDTH_NS
