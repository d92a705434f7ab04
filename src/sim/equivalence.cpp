#include "sim/equivalence.hpp"

#include <sstream>

#include "sim/simulator.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"

namespace pd::sim {

EquivResult checkAgainstReference(const netlist::Netlist& nl,
                                  std::span<const PortLayout> ports,
                                  const std::vector<std::string>& outputNames,
                                  const Reference& ref,
                                  const EquivOptions& opt) {
    EquivResult result;

    std::size_t totalBits = 0;
    for (const auto& p : ports) totalBits += static_cast<std::size_t>(p.width);
    if (nl.inputs().size() != totalBits) {
        result.message = "input count mismatch";
        return result;
    }

    // Output port name → packed reference bit index.
    std::vector<std::size_t> outBit(nl.outputs().size(), SIZE_MAX);
    for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
        for (std::size_t j = 0; j < outputNames.size(); ++j)
            if (nl.outputs()[i].name == outputNames[j]) {
                outBit[i] = j;
                break;
            }
        if (outBit[i] == SIZE_MAX) {
            result.message = "unknown output " + nl.outputs()[i].name;
            return result;
        }
    }

    Simulator simulator(nl);
    std::vector<std::uint64_t> words(totalBits, 0);

    const auto runBatch = [&](std::size_t validPatterns) -> bool {
        const auto outWords = simulator.run(words);
        for (std::size_t t = 0; t < validPatterns; ++t) {
            // Rebuild integer port values for pattern t.
            std::vector<std::uint64_t> values(ports.size(), 0);
            std::size_t bit = 0;
            for (std::size_t p = 0; p < ports.size(); ++p)
                for (int q = 0; q < ports[p].width; ++q, ++bit)
                    if ((words[bit] >> t) & 1u)
                        values[p] |= std::uint64_t{1} << q;
            const std::uint64_t expect = ref(values);
            for (std::size_t i = 0; i < outWords.size(); ++i) {
                const bool got = (outWords[i] >> t) & 1u;
                const bool want = (expect >> outBit[i]) & 1u;
                if (got != want) {
                    std::ostringstream os;
                    os << "mismatch on output " << nl.outputs()[i].name
                       << ": inputs";
                    for (std::size_t p = 0; p < ports.size(); ++p)
                        os << ' ' << ports[p].name << '=' << values[p];
                    os << " expected " << want << " got " << got;
                    result.message = os.str();
                    return false;
                }
            }
        }
        result.vectorsTested += validPatterns;
        return true;
    };

    if (totalBits <= opt.exhaustiveLimitBits) {
        const std::uint64_t total = std::uint64_t{1} << totalBits;
        for (std::uint64_t base = 0; base < total; base += 64) {
            const std::size_t valid =
                static_cast<std::size_t>(std::min<std::uint64_t>(64, total - base));
            for (std::size_t q = 0; q < totalBits; ++q) {
                std::uint64_t w = 0;
                for (std::size_t t = 0; t < valid; ++t)
                    if (((base + t) >> q) & 1u) w |= std::uint64_t{1} << t;
                words[q] = w;
            }
            if (!runBatch(valid)) return result;
        }
        result.exhaustive = true;
        result.equivalent = true;
        return result;
    }

    // Corner batch: all-zero, all-one, and walking ones across patterns.
    for (std::size_t q = 0; q < totalBits; ++q) {
        std::uint64_t w = 0;
        // pattern 0: all zero; pattern 1: all one; pattern 2+t: one-hot.
        w |= std::uint64_t{1} << 1;
        if (q + 2 < 64) w |= std::uint64_t{1} << (q + 2);
        words[q] = w;
    }
    if (!runBatch(std::min<std::size_t>(64, totalBits + 2))) return result;

    std::uint64_t rng = opt.seed;
    for (std::size_t batch = 0; batch < opt.randomBatches; ++batch) {
        for (std::size_t q = 0; q < totalBits; ++q)
            words[q] = util::splitmix64(rng);
        if (!runBatch(64)) return result;
    }
    result.equivalent = true;
    return result;
}

}  // namespace pd::sim
