#include "core/decomposer.hpp"

#include <chrono>

#include "anf/ops.hpp"
#include "anf/printer.hpp"
#include "core/basis.hpp"
#include "core/group.hpp"
#include "core/probe/probe.hpp"
#include "core/identities.hpp"
#include "core/minimize.hpp"
#include "core/rewrite.hpp"
#include "core/sizered.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "ring/identity_db.hpp"
#include "util/error.hpp"

namespace pd::core::PD_WIDTH_NS {
namespace {

/// Why a run ended, in kStopCounters order.
enum Stop : std::size_t {
    kConverged,
    kRename,
    kHeadroom,
    kCapacity,
    kStall,
    kIterations,
};

/// A rename block: every leader it would materialize is a bare,
/// uncomplemented variable of its own group. It costs no gates and only
/// trades the group's variables for fresh ones, so it is never committed.
bool isRename(const Block& block) {
    if (block.outputs.empty()) return false;
    for (const auto& o : block.outputs)
        if (!o.expr.isLiteral() || o.expr.literalNegated() ||
            !block.group.contains(o.expr.literalVar()))
            return false;
    return true;
}

}  // namespace

Decomposition decompose(anf::VarTable& vars,
                        const std::vector<anf::Anf>& outputs,
                        std::vector<std::string> outputNames,
                        const DecomposeOptions& opt,
                        ProbeCaptureHook probeCaptureHook) {
    if (outputs.empty()) fail("decompose", "no output expressions");
    if (outputNames.size() != outputs.size())
        fail("decompose", "output/name count mismatch");

    Decomposition result;
    result.outputNames = std::move(outputNames);

    // ---- Fold the output list into one expression via tag variables.
    std::vector<anf::Var> tags;
    anf::VarSet tagMask;
    anf::Anf folded;
    if (outputs.size() == 1) {
        folded = outputs[0];
    } else {
        for (std::size_t i = 0; i < outputs.size(); ++i) {
            const anf::Var k =
                vars.addTag("K" + std::to_string(i) + "_" +
                            result.outputNames[i]);
            tags.push_back(k);
            tagMask.insert(k);
            folded ^= anf::Anf::var(k) * outputs[i];
        }
    }

    ring::IdentityDb idb;
    std::size_t freshCounter = 0;

    FindBasisOptions fbOpt;
    fbOpt.useNullspaceMerging = opt.useNullspaceMerging;
    fbOpt.complementNullspace = opt.complementNullspace;
    fbOpt.mergeAttemptBudget = opt.mergeAttemptBudget;

    GroupOptions gOpt;
    gOpt.k = opt.k;
    gOpt.probeMergeBudget = opt.mergeAttemptBudget;

    // One probe context for the whole run: per-lane indexers and solver
    // scratch persist across iterations, and the sweep runs over the
    // probe pool's lanes deterministically (bit-identical results at any
    // pool size).
    probe::ProbeContext probeCtx(opt.probePool);
    probeCtx.captureHook = std::move(probeCaptureHook);
    // The winning probe's findBasis is reusable for the iteration
    // exactly when the probes scored under this run's merge options.
    const bool probeBasisReusable =
        probe::probeFindBasisOptions(gOpt) == fbOpt;

    const auto fresh = [&](std::size_t iter) {
        return vars.addDerived("s" + std::to_string(++freshCounter),
                               static_cast<int>(iter));
    };

    Stop stop = kIterations;
    for (std::size_t iter = 0; iter < opt.maxIterations; ++iter) {
        if (unfoldsToLiterals(folded, tagMask)) {
            stop = kConverged;
            break;
        }
        // Headroom stop: once fewer than 2k + 2 variable ids remain, end
        // the run with a residual before probing. Only a run whose blocks
        // keep adding more fresh variables than they consume gets here;
        // the exact capacity check comes once the basis is known. A
        // narrow run re-runs wide instead (anf/width.hpp).
        if (vars.size() + 2 * opt.k + 2 >= anf::Monomial::kMaxVars) {
            anf::reachedCapacity("headroom");
            stop = kHeadroom;
            break;
        }

        const auto probeStart = std::chrono::steady_clock::now();
        auto sel = selectGroup(folded, vars, tagMask, idb, gOpt, probeCtx);
        result.probe.sweepMs +=
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - probeStart)
                .count();
        if (sel.budgetExhausted) result.budgetExhausted = true;
        const anf::VarSet group = sel.group;
        if (group.isOne()) {  // no visible variables left
            stop = kStall;
            break;
        }

        IterationTrace tr;
        tr.level = static_cast<int>(iter);
        tr.foldedTermsBefore = folded.termCount();
        tr.group = anf::setToString(group, vars);

        BasisResult bres;
        if (probeBasisReusable && sel.winnerBasis) {
            // The sweep already ran findBasis on the winner under these
            // exact options; recomputing would be bit-identical work.
            bres = std::move(*sel.winnerBasis);
            ++result.probe.basisReuses;
            static auto& cReuses = obs::counter("probe.basis_reuses");
            cReuses.add();
        } else {
            bres = findBasis(folded, group, idb, fbOpt);
        }
        tr.rawPairCount = bres.pairs.size();
        tr.mergeAttempts = bres.mergeAttempts;
        static auto& cMerges = obs::counter("decompose.merge_attempts");
        cMerges.add(bres.mergeAttempts);
        tr.budgetExhausted = bres.budgetExhausted;
        if (bres.budgetExhausted) result.budgetExhausted = true;
        if (bres.pairs.empty()) {  // group vars vanished
            stop = kStall;
            break;
        }

        // ---- Minimize, size-reduce and sort the basis in one indexed
        // encoding; decode once for the rewrite.
        anf::MonomialIndexer ix;
        IPairList indexed = encodePairs(ix, bres.pairs);
        if (opt.useLinearMinimize)
            tr.linearRemoved = minimizeBasisLinear(indexed);
        if (opt.useSizeReduction)
            tr.sizeReductions = improveBasisSizeReduction(ix, indexed);
        sortPairs(ix, indexed);
        const PairList pairs = decodePairs(ix, indexed);
        tr.mergedPairCount = pairs.size();

        // Variable-capacity guard: the rewrite adds one fresh variable per
        // pair, and a k-group's basis can hold up to 2^k − 1 of them —
        // more than the headroom stop allows for. Stop with a residual
        // rather than overflow the monomial (a narrow run re-runs wide).
        if (vars.size() + pairs.size() > anf::Monomial::kMaxVars) {
            anf::reachedCapacity("capacity");
            stop = kCapacity;
            break;
        }

        // ---- Fresh variables for the basis elements. A rename gives
        // them back (see below), so the leaders keep consecutive names.
        const std::size_t varsMark = vars.size();
        const std::size_t freshMark = freshCounter;
        std::vector<anf::Var> newVars;
        std::vector<anf::Anf> basisExprs;
        newVars.reserve(pairs.size());
        for (const auto& p : pairs) {
            const anf::Var v = fresh(iter);
            newVars.push_back(v);
            basisExprs.push_back(p.first);
            tr.basis.push_back(vars.name(v) + " = " +
                               anf::toString(p.first, vars));
        }

        // ---- Identities among the basis (over the new variables).
        IdentityScan scan;
        if (opt.useIdentities)
            scan = findIdentities(basisExprs, newVars);

        // ---- Rewrite.
        anf::Anf next = rewriteFolded(pairs, newVars, bres.untouched);
        if (!scan.reductions.empty()) {
            {
                obs::ScopedSpan span("decompose.substitute", "decompose");
                next = anf::substitute(next, scan.reductions);
            }
            for (const auto& [v, e] : scan.reductions)
                tr.reductions.push_back(vars.name(v) + " = " +
                                        anf::toString(e, vars));
        }

        // ---- Record the block (reduced elements carry no hardware).
        // Chained reductions (s5 = s4·x with s4 itself reduced) can leave a
        // reduced variable alive in the rewritten expression because the
        // substitution is simultaneous, not iterated. Such variables must
        // be materialized after all — they still have their basis
        // expression over the group, so give them hardware like any other
        // block output instead of inlining the chain (which would inflate
        // the expression and degrade the hierarchy).
        const anf::Monomial liveSupport = next.support();
        Block block;
        block.level = static_cast<int>(iter);
        block.group = group;
        for (std::size_t i = 0; i < newVars.size(); ++i) {
            const bool reduced = scan.reductions.contains(newVars[i]) &&
                                 !liveSupport.contains(newVars[i]);
            if (reduced)
                block.reduced.emplace_back(newVars[i],
                                           scan.reductions.at(newVars[i]));
            else
                block.outputs.push_back({newVars[i], basisExprs[i]});
        }

        // ---- A rename makes no progress. When every output is a
        // function of at most k variables (the group's, or the group's
        // and a few the sweep left out), take the final output step
        // instead: one block over those variables whose leaders are the
        // outputs themselves, and the run converges. Otherwise end the
        // run with the residual as it stood before the rename.
        if (isRename(block)) {
            vars.truncate(varsMark);
            freshCounter = freshMark;
            const anf::VarSet support = folded.support().without(tagMask);
            if (support.degree() > opt.k) {
                stop = kRename;
                break;
            }
            block.group = support;
            tr.group = anf::setToString(support, vars);
            std::vector<anf::Anf> outs =
                tags.empty() ? std::vector<anf::Anf>{folded}
                             : unfold(folded, tags);
            block.outputs.clear();
            block.reduced.clear();
            scan = {};
            tr.basis.clear();
            tr.reductions.clear();
            next = anf::Anf();
            for (std::size_t i = 0; i < outs.size(); ++i) {
                anf::Anf out = std::move(outs[i]);
                if (!out.isConstant() && !out.isLiteral()) {
                    const anf::Var v = fresh(iter);
                    block.outputs.push_back({v, std::move(out)});
                    tr.basis.push_back(
                        vars.name(v) + " = " +
                        anf::toString(block.outputs.back().expr, vars));
                    out = anf::Anf::var(v);
                }
                next ^= tags.empty() ? out : anf::Anf::var(tags[i]) * out;
            }
            tr.mergedPairCount = block.outputs.size();
        }
        result.blocks.push_back(std::move(block));

        // ---- Identity-database upkeep: consumed variables invalidate old
        // identities; fresh annihilators (rewritten through the reductions
        // so they reference live variables) are added.
        idb.dropTouching(group);
        for (const auto& ann : scan.annihilators) {
            const anf::Anf live = scan.reductions.empty()
                                      ? ann
                                      : anf::substitute(ann, scan.reductions);
            idb.add(live);
            if (!live.isZero())
                tr.identities.push_back(anf::toString(live, vars) + " = 0");
        }

        folded = std::move(next);
        tr.foldedTermsAfter = folded.termCount();
        result.trace.push_back(std::move(tr));
        result.iterations = iter + 1;
        // A committed block trades its group's variables for its
        // leaders, so the variable count alone need not shrink; what
        // rules out the zero-progress trade is the rename test above.
        // The iteration cap only guards pathological growth of fresh
        // variables.
    }

    result.converged = unfoldsToLiterals(folded, tagMask);
    if (result.converged) stop = kConverged;
    obs::counter(kStopCounters[stop]).add();
    result.residualOutputs =
        tags.empty() ? std::vector<anf::Anf>{folded} : unfold(folded, tags);
    const auto& ps = probeCtx.stats();
    result.probe.boundMs = ps.boundMs;
    result.probe.sweeps = ps.sweeps;
    result.probe.candidates = ps.candidates;
    result.probe.probed = ps.probed;
    result.probe.pruned = ps.pruned;
    result.probe.deduped = ps.deduped;
    result.probe.helperProbes = ps.helperProbes;
    result.probe.speculativeDiscards = ps.speculativeDiscards;
    return result;
}

}  // namespace pd::core::PD_WIDTH_NS
