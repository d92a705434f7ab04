#include "engine/compute.hpp"

#include "anf/anf.hpp"
#include "circuits/registry.hpp"
#include "core/decomposer.hpp"
#include "obs/metrics.hpp"
#include "synth/hier_synth.hpp"
#include "util/error.hpp"

// Compiled at both widths: this build defines one of the two passes.
#if PD_MONOMIAL_WORDS == 2
#define PD_COMPUTE_PASS computeNarrow
#else
#define PD_COMPUTE_PASS computeWide
#endif

namespace pd::engine {
namespace {

/// Rebuilds a packed spec at this build's width.
std::vector<anf::Anf> unpack(const PackedSpec& spec) {
    std::vector<anf::Anf> outputs;
    outputs.reserve(spec.outputs.size());
    for (const auto& words : spec.outputs) {
        std::vector<anf::Monomial> terms(words.size() / kPackedWords);
        for (std::size_t t = 0; t < terms.size(); ++t)
            terms[t] = anf::Monomial::fromWords(
                {words.data() + t * kPackedWords, kPackedWords});
        // Zero-extending or truncating the masks keeps the canonical order.
        outputs.push_back(anf::Anf::fromCanonicalTerms(std::move(terms)));
    }
    return outputs;
}

}  // namespace

Computed PD_COMPUTE_PASS(const ComputeRequest& request) {
    anf::VarTable vars;
    std::vector<anf::Anf> outputs;
    std::vector<std::string> outputNames;
    if (request.spec) {
        vars = request.spec->vars;
        outputNames = request.spec->outputNames;
        outputs = unpack(*request.spec);
    } else {
        static auto& expansions = obs::counter("engine.spec.expansions");
        expansions.add();
        const auto bench = circuits::makeNamedBenchmark(request.benchmark);
        PD_ASSERT(bench && bench->anf);
        outputs = bench->anf(vars);
        outputNames = bench->outputNames;
    }
    request.mark(ComputePhase::kResolve);

    const auto d =
        core::decompose(vars, outputs, outputNames, request.options);
    request.mark(ComputePhase::kDecompose);

    Computed c;
    c.blocks = d.blocks.size();
    c.iterations = d.iterations;
    c.leaders = d.totalBlockOutputs();
    c.converged = d.converged;
    c.budgetExhausted = d.budgetExhausted;
    c.probeSweepMs = d.probe.sweepMs;
    c.raw = synth::synthDecomposition(d, vars);
    request.mark(ComputePhase::kSynth);

    if (request.algebraicCheck) {
        c.algebraicMatch = d.expandedOutputs(vars) == outputs;
        request.mark(ComputePhase::kVerify);
    }
    return c;
}

}  // namespace pd::engine
