#include "synth/smallfunc.hpp"

#include <algorithm>
#include <bit>
#include <tuple>

#include "synth/anf_synth.hpp"
#include "util/error.hpp"

namespace pd::synth::PD_WIDTH_NS {
namespace {

/// Gate-cost estimate used to pick a form. XOR cells are markedly more
/// expensive than NAND/NOR-class cells in any CMOS library, so they carry
/// extra weight; inverters are nearly free after mapping.
constexpr double kCostAndOr = 1.0;
constexpr double kCostXor = 2.5;

double coverCost(const std::vector<Implicant>& cover, bool complemented) {
    double cost = complemented ? 0.3 : 0.0;
    for (const auto& imp : cover) {
        const int lits = std::popcount(imp.mask);
        if (lits > 1) cost += kCostAndOr * (lits - 1);
    }
    if (cover.size() > 1) cost += kCostAndOr * (cover.size() - 1);
    return cost;
}

double anfCost(const anf::Anf& e) {
    double cost = 0;
    std::size_t gateTerms = 0;
    for (const auto& m : e.terms()) {
        if (m.isOne()) continue;
        const int lits = static_cast<int>(m.degree());
        if (lits > 1) cost += kCostAndOr * (lits - 1);
        ++gateTerms;
    }
    if (gateTerms > 1) cost += kCostXor * (gateTerms - 1);
    return cost;
}

netlist::NetId buildCover(netlist::Builder& b,
                          const std::vector<Implicant>& cover,
                          const std::vector<netlist::NetId>& supportNets,
                          bool complemented) {
    std::vector<netlist::NetId> cubes;
    cubes.reserve(cover.size());
    for (const auto& imp : cover) {
        std::vector<netlist::NetId> lits;
        for (std::size_t i = 0; i < supportNets.size(); ++i) {
            if (!((imp.mask >> i) & 1u)) continue;
            const netlist::NetId n = supportNets[i];
            lits.push_back(((imp.value >> i) & 1u) ? n : b.mkNot(n));
        }
        cubes.push_back(b.mkAndTree(lits));
    }
    netlist::NetId r = b.mkOrTree(cubes);
    if (complemented) r = b.mkNot(r);
    return r;
}

}  // namespace

std::vector<Implicant> primeImplicants(const std::vector<std::uint32_t>& onSet,
                                       int numVars) {
    PD_ASSERT(numVars >= 0 && numVars <= 16);
    const std::uint32_t fullMask =
        numVars == 32 ? ~0u : ((1u << numVars) - 1u);
    std::vector<Implicant> current;
    current.reserve(onSet.size());
    for (const std::uint32_t m : onSet)
        current.push_back({fullMask, m & fullMask});
    std::sort(current.begin(), current.end(),
              [](const Implicant& a, const Implicant& b) {
                  return std::tie(a.mask, a.value) < std::tie(b.mask, b.value);
              });
    current.erase(std::unique(current.begin(), current.end()), current.end());

    std::vector<Implicant> primes;
    while (!current.empty()) {
        std::vector<char> merged(current.size(), 0);
        std::vector<Implicant> next;
        for (std::size_t i = 0; i < current.size(); ++i) {
            for (std::size_t j = i + 1; j < current.size(); ++j) {
                if (current[i].mask != current[j].mask) continue;
                const std::uint32_t diff = current[i].value ^ current[j].value;
                if (std::popcount(diff) != 1) continue;
                merged[i] = merged[j] = 1;
                next.push_back({current[i].mask & ~diff,
                                current[i].value & ~diff});
            }
        }
        for (std::size_t i = 0; i < current.size(); ++i)
            if (!merged[i]) primes.push_back(current[i]);
        std::sort(next.begin(), next.end(),
                  [](const Implicant& a, const Implicant& b) {
                      return std::tie(a.mask, a.value) <
                             std::tie(b.mask, b.value);
                  });
        next.erase(std::unique(next.begin(), next.end()), next.end());
        current = std::move(next);
    }
    return primes;
}

std::vector<Implicant> coverGreedy(const std::vector<Implicant>& primes,
                                   const std::vector<std::uint32_t>& onSet,
                                   int numVars) {
    (void)numVars;
    std::vector<std::uint32_t> uncovered = onSet;
    std::sort(uncovered.begin(), uncovered.end());
    uncovered.erase(std::unique(uncovered.begin(), uncovered.end()),
                    uncovered.end());
    const auto covers = [](const Implicant& imp, std::uint32_t minterm) {
        return (minterm & imp.mask) == imp.value;
    };

    std::vector<Implicant> cover;
    // Essential primes: a minterm covered by exactly one prime forces it.
    {
        std::vector<char> used(primes.size(), 0);
        for (const std::uint32_t m : uncovered) {
            int hit = -1;
            bool unique = true;
            for (std::size_t p = 0; p < primes.size(); ++p) {
                if (!covers(primes[p], m)) continue;
                if (hit >= 0) {
                    unique = false;
                    break;
                }
                hit = static_cast<int>(p);
            }
            if (unique && hit >= 0 && !used[static_cast<std::size_t>(hit)]) {
                used[static_cast<std::size_t>(hit)] = 1;
                cover.push_back(primes[static_cast<std::size_t>(hit)]);
            }
        }
        std::erase_if(uncovered, [&](std::uint32_t m) {
            return std::any_of(cover.begin(), cover.end(),
                               [&](const Implicant& c) { return covers(c, m); });
        });
    }
    // Greedy rest: widest coverage, then fewest literals.
    while (!uncovered.empty()) {
        std::size_t bestP = primes.size();
        std::size_t bestCount = 0;
        int bestLits = 0;
        for (std::size_t p = 0; p < primes.size(); ++p) {
            std::size_t count = 0;
            for (const std::uint32_t m : uncovered)
                if (covers(primes[p], m)) ++count;
            const int lits = std::popcount(primes[p].mask);
            if (count > bestCount ||
                (count == bestCount && count > 0 && lits < bestLits)) {
                bestP = p;
                bestCount = count;
                bestLits = lits;
            }
        }
        PD_ASSERT(bestP < primes.size());
        cover.push_back(primes[bestP]);
        std::erase_if(uncovered, [&](std::uint32_t m) {
            return covers(primes[bestP], m);
        });
    }
    return cover;
}

netlist::NetId synthSmallAnf(netlist::Builder& b, const anf::Anf& e,
                             const std::vector<netlist::NetId>& nets,
                             int maxTtVars) {
    if (e.isZero()) return b.constant(false);
    if (e.isOne()) return b.constant(true);

    std::vector<anf::Var> support;
    e.support().forEachVar([&](anf::Var v) { support.push_back(v); });
    const int n = static_cast<int>(support.size());
    if (n > maxTtVars) return synthAnf(b, e, nets);

    // Truth table by direct evaluation: for each assignment, XOR of the
    // monomials that are fully contained in the set of true variables.
    std::vector<std::uint32_t> onSet, offSet;
    const std::uint32_t rows = 1u << n;
    for (std::uint32_t row = 0; row < rows; ++row) {
        anf::VarSet trueVars;
        for (int i = 0; i < n; ++i)
            if ((row >> i) & 1u) trueVars.insert(support[static_cast<std::size_t>(i)]);
        bool val = false;
        for (const auto& m : e.terms())
            if (m.subsetOf(trueVars)) val = !val;
        (val ? onSet : offSet).push_back(row);
    }
    if (onSet.empty()) return b.constant(false);
    if (offSet.empty()) return b.constant(true);

    const auto onCover = coverGreedy(primeImplicants(onSet, n), onSet, n);
    const auto offCover = coverGreedy(primeImplicants(offSet, n), offSet, n);

    const double onCost = coverCost(onCover, false);
    const double offCost = coverCost(offCover, true);
    const double directCost = anfCost(e);

    std::vector<netlist::NetId> supportNets;
    supportNets.reserve(support.size());
    for (const anf::Var v : support) {
        PD_ASSERT(v < nets.size() && nets[v] != netlist::kNoNet);
        supportNets.push_back(nets[v]);
    }

    if (directCost <= onCost && directCost <= offCost)
        return synthAnf(b, e, nets);
    if (onCost <= offCost) return buildCover(b, onCover, supportNets, false);
    return buildCover(b, offCover, supportNets, true);
}

}  // namespace pd::synth::PD_WIDTH_NS
