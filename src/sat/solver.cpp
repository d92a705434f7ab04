#include "sat/solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace pd::sat {

namespace {
constexpr double kVarDecay = 1.0 / 0.95;
constexpr float kClauseDecay = 1.0f / 0.999f;
constexpr double kActivityRescale = 1e100;
constexpr float kClauseRescale = 1e20f;
constexpr std::uint64_t kRestartUnit = 100;
}  // namespace

Solver::Solver() = default;

Solver::Solver(const SolverOptions& opt) : opt_(opt) {}

Var Solver::newVar() {
    const Var v = static_cast<Var>(assigns_.size());
    assigns_.push_back(LBool::kUndef);
    savedPhase_.push_back(LBool::kFalse);
    varInfo_.push_back({});
    activity_.push_back(0.0);
    seen_.push_back(0);
    heapPos_.push_back(-1);
    watches_.emplace_back();
    watches_.emplace_back();
    binBuild_.emplace_back();
    binBuild_.emplace_back();
    binDirty_ = true;  // the CSR image needs two more (empty) slots
    heapInsert(v);
    return v;
}

bool Solver::addClause(std::vector<Lit> lits) {
    if (unsatAtRoot_) return false;
    PD_ASSERT(trailLim_.empty());  // clauses are added at the root level
    // Simplify: drop duplicate/false literals, detect tautology/satisfied.
    std::sort(lits.begin(), lits.end(),
              [](Lit a, Lit b) { return a.code() < b.code(); });
    std::vector<Lit> out;
    Lit prev = Lit::fromCode(0xfffffffeu);
    for (const Lit l : lits) {
        PD_ASSERT(l.var() < numVars());
        if (l == prev) continue;
        if (l == ~prev) return true;  // tautology: x ∨ ¬x
        const LBool v = value(l);
        if (v == LBool::kTrue) return true;  // already satisfied at root
        if (v == LBool::kFalse) continue;    // literal is dead
        out.push_back(l);
        prev = l;
    }
    if (out.empty()) {
        unsatAtRoot_ = true;
        return false;
    }
    if (out.size() == 1) {
        enqueue(out[0], kNoClause);
        if (propagate() != kNoClause) {
            unsatAtRoot_ = true;
            return false;
        }
        return true;
    }
    watchClause(allocClause(out, /*learned=*/false));
    return true;
}

Solver::ClauseRef Solver::allocClause(const std::vector<Lit>& lits,
                                      bool learned) {
    ClauseHeader h;
    h.begin = static_cast<std::uint32_t>(lits_.size());
    h.size = static_cast<std::uint32_t>(lits.size());
    h.learned = learned;
    lits_.insert(lits_.end(), lits.begin(), lits.end());
    headers_.push_back(h);
    const auto cr = static_cast<ClauseRef>(headers_.size() - 1);
    if (learned) {
        learnedRefs_.push_back(cr);
        ++stats_.learnedClauses;
    }
    return cr;
}

void Solver::watchClause(ClauseRef cr) {
    const ClauseHeader& h = headers_[cr];
    PD_ASSERT(h.size >= 2);
    const Lit l0 = lits_[h.begin];
    const Lit l1 = lits_[h.begin + 1];
    if (h.size == 2) {
        // Learned binaries go into the same CSR image as problem ones:
        // clauses of size <= 2 are never deleted, and learned binaries
        // are rare enough (one per binary conflict clause) that the
        // occasional O(vars + binaries) reflatten is cheaper than a
        // second per-literal list probe on every propagated literal.
        binBuild_[(~l0).code()].push_back({l1, cr});
        binBuild_[(~l1).code()].push_back({l0, cr});
        binDirty_ = true;
        return;
    }
    watches_[(~l0).code()].push_back({cr, l1});
    watches_[(~l1).code()].push_back({cr, l0});
}

void Solver::enqueue(Lit l, ClauseRef reason) {
    PD_ASSERT(assigns_[l.var()] == LBool::kUndef);
    assigns_[l.var()] = l.negated() ? LBool::kFalse : LBool::kTrue;
    varInfo_[l.var()].reason = reason;
    varInfo_[l.var()].level =
        static_cast<std::uint32_t>(trailLim_.size());
    trail_.push_back(l);
}

Solver::ClauseRef Solver::propagate() {
    const auto started = std::chrono::steady_clock::now();
    const ClauseRef conflict = propagateImpl();
    stats_.propagationNanos += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - started)
            .count());
    return conflict;
}

void Solver::flattenBinWatches() {
    binStart_.resize(binBuild_.size() + 1);
    std::size_t total = 0;
    for (std::size_t c = 0; c < binBuild_.size(); ++c) {
        binStart_[c] = static_cast<std::uint32_t>(total);
        total += binBuild_[c].size();
    }
    binStart_[binBuild_.size()] = static_cast<std::uint32_t>(total);
    binOther_.clear();
    binOther_.reserve(total);
    binReason_.clear();
    binReason_.reserve(total);
    for (const auto& list : binBuild_) {
        for (const BinWatcher& b : list) {
            binOther_.push_back(b.other);
            binReason_.push_back(b.clause);
        }
    }
    binDirty_ = false;
}

Solver::ClauseRef Solver::propagateImpl() {
    if (binDirty_) flattenBinWatches();
    // None of these arrays reallocates while propagating (the local enq
    // below only writes through assigns_/varInfo_ and appends to trail_,
    // and the CSR image is immutable until the next flatten), so raw
    // pointers can be hoisted past the vector indirection for the
    // duration of the sweep. The decision level and the propagation
    // counter are likewise hoisted: the level cannot change inside one
    // propagation fixpoint, and the counter flushes once at exit.
    LBool* const assigns = assigns_.data();
    VarInfo* const vinfo = varInfo_.data();
    const std::uint32_t* const binStart = binStart_.data();
    const Lit* const binOther = binOther_.data();
    const ClauseRef* const binReason = binReason_.data();
    const auto lvl = static_cast<std::uint32_t>(trailLim_.size());
    std::uint64_t popped = 0;
    std::size_t tsize = trail_.size();
    ClauseRef conflict = kNoClause;
    const auto val = [assigns](Lit l) {
        const auto raw = static_cast<std::uint8_t>(assigns[l.var()]);
        return static_cast<LBool>(raw ^ (l.code() & 1u));
    };
    const auto enq = [&](Lit l, ClauseRef reason) {
        PD_ASSERT(assigns[l.var()] == LBool::kUndef);
        assigns[l.var()] = l.negated() ? LBool::kFalse : LBool::kTrue;
        vinfo[l.var()] = {reason, lvl};
        trail_.push_back(l);
        ++tsize;
    };
    while (qhead_ < tsize) {
        const Lit p = trail_[qhead_++];
        ++popped;
        // Binary clauses first: each is satisfied, unit, or conflicting
        // by its inline `other` literal alone — a pure read-only sweep
        // over the CSR slab.
        const std::uint32_t b1 = binStart[p.code() + 1];
        for (std::uint32_t i = binStart[p.code()]; i < b1; ++i) {
            const LBool v = val(binOther[i]);
            if (v == LBool::kTrue) continue;
            if (v == LBool::kFalse) {
                conflict = binReason[i];
                qhead_ = tsize;
                goto done;
            }
            enq(binOther[i], binReason[i]);
        }
        auto& ws = watches_[p.code()];
        // Relocated watchers always move to the list of a non-false
        // literal, and ~p is false here, so `ws` never grows during this
        // scan — the size and base pointer can be hoisted out of the loop.
        const std::size_t n = ws.size();
        Watcher* const data = ws.data();
        std::size_t i = 0, j = 0;
        while (i < n) {
            const Watcher w = data[i];
            const LBool blockerVal = val(w.blocker);
            if (blockerVal == LBool::kTrue) {
                data[j++] = data[i++];
                continue;
            }
            ClauseHeader& h = headers_[w.clause];
            Lit* cl = lits_.data() + h.begin;
            // Make sure the false literal (~p) sits at cl[1].
            const Lit falseLit = ~p;
            if (cl[0] == falseLit) std::swap(cl[0], cl[1]);
            PD_ASSERT(cl[1] == falseLit);
            // If the first literal is true the clause is satisfied.
            if (val(cl[0]) == LBool::kTrue) {
                data[j++] = {w.clause, cl[0]};
                ++i;
                continue;
            }
            // Look for a new literal to watch.
            bool moved = false;
            for (std::uint32_t k = 2; k < h.size; ++k) {
                if (val(cl[k]) != LBool::kFalse) {
                    std::swap(cl[1], cl[k]);
                    watches_[(~cl[1]).code()].push_back({w.clause, cl[0]});
                    moved = true;
                    break;
                }
            }
            if (moved) {
                ++i;  // watcher moved to another list; drop from this one
                continue;
            }
            // Clause is unit or conflicting.
            data[j++] = {w.clause, cl[0]};
            ++i;
            if (val(cl[0]) == LBool::kFalse) {
                // Conflict: copy the remaining watchers and report.
                while (i < n) data[j++] = data[i++];
                ws.resize(j);
                conflict = w.clause;
                qhead_ = tsize;
                goto done;
            }
            enq(cl[0], w.clause);
        }
        ws.resize(j);
    }
done:
    stats_.propagations += popped;
    return conflict;
}

void Solver::analyze(ClauseRef conflict, std::vector<Lit>& outLearned,
                     std::uint32_t& outBtLevel) {
    outLearned.clear();
    outLearned.push_back(Lit());  // slot for the asserting literal
    const auto curLevel = static_cast<std::uint32_t>(trailLim_.size());
    int counter = 0;
    Lit p;
    bool haveP = false;
    std::size_t idx = trail_.size();
    ClauseRef reason = conflict;

    for (;;) {
        PD_ASSERT(reason != kNoClause);
        const ClauseHeader& h = headers_[reason];
        if (h.learned) bumpClause(reason);
        // Scan every literal, skipping the implied one by value rather
        // than by position: the binary fast path in propagate() implies
        // the blocker without normalising it to slot 0 of the arena.
        for (std::uint32_t k = 0; k < h.size; ++k) {
            const Lit q = lits_[h.begin + k];
            if (haveP && q == p) continue;
            const Var v = q.var();
            if (seen_[v] || varInfo_[v].level == 0) continue;
            seen_[v] = 1;
            bumpVar(v);
            if (varInfo_[v].level == curLevel) {
                ++counter;
            } else {
                outLearned.push_back(q);
            }
        }
        // Walk the trail back to the next marked literal.
        while (!seen_[trail_[idx - 1].var()]) --idx;
        --idx;
        p = trail_[idx];
        haveP = true;
        seen_[p.var()] = 0;
        reason = varInfo_[p.var()].reason;
        if (--counter == 0) break;
    }
    outLearned[0] = ~p;

    // Minimize: drop literals implied by the rest of the clause. Every
    // variable marked during the redundancy DFS is recorded so the seen_
    // scratch can be wiped completely afterwards (stale marks would
    // corrupt the next conflict analysis).
    analyzeClear_.assign(outLearned.begin(), outLearned.end());
    std::uint32_t abstractLevels = 0;
    for (std::size_t k = 1; k < outLearned.size(); ++k)
        abstractLevels |= 1u << (varInfo_[outLearned[k].var()].level & 31u);
    std::size_t out = 1;
    for (std::size_t k = 1; k < outLearned.size(); ++k) {
        const Lit l = outLearned[k];
        if (varInfo_[l.var()].reason == kNoClause ||
            !litRedundant(l, abstractLevels))
            outLearned[out++] = l;
    }
    outLearned.resize(out);

    // Compute backtrack level = second-highest level in the clause.
    outBtLevel = 0;
    if (outLearned.size() > 1) {
        std::size_t maxIdx = 1;
        for (std::size_t k = 2; k < outLearned.size(); ++k)
            if (varInfo_[outLearned[k].var()].level >
                varInfo_[outLearned[maxIdx].var()].level)
                maxIdx = k;
        std::swap(outLearned[1], outLearned[maxIdx]);
        outBtLevel = varInfo_[outLearned[1].var()].level;
    }
    for (const Lit l : analyzeClear_) seen_[l.var()] = 0;
    for (const Lit l : outLearned) seen_[l.var()] = 0;
}

bool Solver::litRedundant(Lit l, std::uint32_t abstractLevels) {
    // DFS through reasons; `l` is redundant if every path ends in marked
    // or root-level literals. Marks made here are either rolled back (on
    // failure) or appended to analyzeClear_ so analyze() wipes them.
    auto& stack = redundantStack_;
    auto& toClear = redundantClear_;
    stack.clear();
    stack.push_back(l);
    toClear.clear();
    while (!stack.empty()) {
        const Lit q = stack.back();
        stack.pop_back();
        const ClauseRef r = varInfo_[q.var()].reason;
        if (r == kNoClause) {
            for (const Var v : toClear) seen_[v] = 0;
            return false;
        }
        const ClauseHeader& h = headers_[r];
        for (std::uint32_t k = 0; k < h.size; ++k) {
            const Lit x = lits_[h.begin + k];
            if (x.var() == q.var()) continue;
            const auto lev = varInfo_[x.var()].level;
            if (seen_[x.var()] || lev == 0) continue;
            if (varInfo_[x.var()].reason == kNoClause ||
                ((1u << (lev & 31u)) & abstractLevels) == 0) {
                for (const Var v : toClear) seen_[v] = 0;
                return false;
            }
            seen_[x.var()] = 1;
            toClear.push_back(x.var());
            stack.push_back(x);
        }
    }
    for (const Var v : toClear) analyzeClear_.emplace_back(v, false);
    return true;
}

void Solver::backtrack(std::uint32_t level) {
    if (trailLim_.size() <= level) return;
    const std::size_t boundary = trailLim_[level];
    for (std::size_t i = trail_.size(); i-- > boundary;) {
        const Var v = trail_[i].var();
        savedPhase_[v] = assigns_[v];
        assigns_[v] = LBool::kUndef;
        if (heapPos_[v] < 0) heapInsert(v);
    }
    trail_.resize(boundary);
    trailLim_.resize(level);
    qhead_ = boundary;
}

void Solver::bumpVar(Var v) {
    activity_[v] += varInc_;
    if (activity_[v] > kActivityRescale) {
        for (auto& a : activity_) a /= kActivityRescale;
        varInc_ /= kActivityRescale;
    }
    if (heapPos_[v] >= 0) heapSiftUp(static_cast<std::size_t>(heapPos_[v]));
}

void Solver::bumpClause(ClauseRef cr) {
    auto& h = headers_[cr];
    h.activity += clauseInc_;
    if (h.activity > kClauseRescale) {
        for (const ClauseRef r : learnedRefs_)
            headers_[r].activity /= kClauseRescale;
        clauseInc_ /= kClauseRescale;
    }
}

void Solver::decayActivities() {
    varInc_ *= kVarDecay;
    clauseInc_ *= kClauseDecay;
}

void Solver::heapInsert(Var v) {
    heapPos_[v] = static_cast<std::int32_t>(heap_.size());
    heap_.push_back(v);
    heapSiftUp(heap_.size() - 1);
}

void Solver::heapSiftUp(std::size_t i) {
    const Var v = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (activity_[heap_[parent]] >= activity_[v]) break;
        heap_[i] = heap_[parent];
        heapPos_[heap_[i]] = static_cast<std::int32_t>(i);
        i = parent;
    }
    heap_[i] = v;
    heapPos_[v] = static_cast<std::int32_t>(i);
}

void Solver::heapSiftDown(std::size_t i) {
    const Var v = heap_[i];
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= heap_.size()) break;
        if (child + 1 < heap_.size() &&
            activity_[heap_[child + 1]] > activity_[heap_[child]])
            ++child;
        if (activity_[heap_[child]] <= activity_[v]) break;
        heap_[i] = heap_[child];
        heapPos_[heap_[i]] = static_cast<std::int32_t>(i);
        i = child;
    }
    heap_[i] = v;
    heapPos_[v] = static_cast<std::int32_t>(i);
}

Var Solver::heapPop() {
    const Var v = heap_[0];
    heapPos_[v] = -1;
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heapPos_[heap_[0]] = 0;
        heapSiftDown(0);
    }
    return v;
}

Lit Solver::pickBranchLit() {
    while (!heap_.empty()) {
        const Var v = heapPop();
        if (assigns_[v] == LBool::kUndef)
            return Lit(v, savedPhase_[v] != LBool::kTrue);
    }
    return Lit::fromCode(0xfffffffeu);  // all assigned
}

std::uint64_t Solver::luby(std::uint64_t i) {
    // Knuth's formulation of the Luby sequence.
    std::uint64_t k = 1;
    while ((1ull << k) <= i + 1) ++k;
    --k;
    for (;;) {
        if ((1ull << k) == i + 1) return 1ull << (k > 0 ? k - 1 : 0);
        if (i + 1 < (1ull << k)) {
            i -= (1ull << (k - 1)) - 1;
            // restart scan with smaller k
            k = 1;
            while ((1ull << k) <= i + 1) ++k;
            --k;
            continue;
        }
        ++k;
    }
}

void Solver::reduceLearned() {
    // Keep the most active half of learned clauses; never delete reasons.
    if (learnedRefs_.size() < 64) return;
    std::vector<std::uint8_t> isReason(headers_.size(), 0);
    for (const Lit l : trail_) {
        const ClauseRef r = varInfo_[l.var()].reason;
        if (r != kNoClause) isReason[r] = 1;
    }
    std::sort(learnedRefs_.begin(), learnedRefs_.end(),
              [this](ClauseRef a, ClauseRef b) {
                  return headers_[a].activity > headers_[b].activity;
              });
    const std::size_t keep = learnedRefs_.size() / 2;
    std::vector<ClauseRef> kept;
    kept.reserve(keep + 8);
    for (std::size_t i = 0; i < learnedRefs_.size(); ++i) {
        const ClauseRef cr = learnedRefs_[i];
        if (i < keep || isReason[cr] || headers_[cr].size <= 2) {
            kept.push_back(cr);
        } else {
            headers_[cr].deleted = true;
            ++stats_.deletedClauses;
        }
    }
    learnedRefs_ = std::move(kept);
    // Rebuild watch lists without the deleted clauses. Binary lists need
    // no rebuild: clauses of size <= 2 are never deleted.
    for (auto& ws : watches_) {
        std::size_t j = 0;
        for (std::size_t i = 0; i < ws.size(); ++i)
            if (!headers_[ws[i].clause].deleted) ws[j++] = ws[i];
        ws.resize(j);
    }
}

Result Solver::halt(StopCause cause) {
    // Leave the solver reusable: back at the root level, ready for more
    // clauses or another (bigger-budget) solve() call.
    backtrack(0);
    lastStop_ = cause;
    return Result::kUnknown;
}

Result Solver::solve(std::uint64_t conflictBudget) {
    return search({}, conflictBudget);
}

Result Solver::solveUnder(std::span<const Lit> assumptions,
                          std::uint64_t conflictBudget) {
    for (const Lit a : assumptions) PD_ASSERT(a.var() < numVars());
    return search(assumptions, conflictBudget);
}

Result Solver::search(std::span<const Lit> assumptions,
                      std::uint64_t conflictBudget) {
    lastStop_ = StopCause::kNone;
    if (unsatAtRoot_) return Result::kUnsat;
    model_.clear();

    // Budgets are per call: measure against this call's baseline.
    const std::uint64_t maxConflicts =
        conflictBudget != 0 ? conflictBudget : opt_.conflictBudget;
    const std::uint64_t baseConflicts = stats_.conflicts;
    const std::uint64_t basePropagations = stats_.propagations;
    const auto overPropBudget = [&] {
        return opt_.propagationBudget != 0 &&
               stats_.propagations - basePropagations >=
                   opt_.propagationBudget;
    };

    std::uint64_t conflictsSinceRestart = 0;
    std::uint64_t restartLimit = kRestartUnit * luby(stats_.restarts);
    std::uint64_t reduceLimit = 2000;
    std::vector<Lit> learned;

    for (;;) {
        const ClauseRef conflict = propagate();
        if (conflict != kNoClause) {
            ++stats_.conflicts;
            ++conflictsSinceRestart;
            if (trailLim_.empty()) {
                unsatAtRoot_ = true;
                return Result::kUnsat;
            }
            std::uint32_t btLevel = 0;
            analyze(conflict, learned, btLevel);
            backtrack(btLevel);
            if (learned.size() == 1) {
                enqueue(learned[0], kNoClause);
            } else {
                const ClauseRef cr = allocClause(learned, /*learned=*/true);
                watchClause(cr);
                enqueue(learned[0], cr);
            }
            decayActivities();
            if (maxConflicts != 0 &&
                stats_.conflicts - baseConflicts >= maxConflicts)
                return halt(StopCause::kConflictBudget);
            if (overPropBudget())
                return halt(StopCause::kPropagationBudget);
            if (stats_.learnedClauses - stats_.deletedClauses > reduceLimit) {
                reduceLearned();
                reduceLimit += reduceLimit / 2;
            }
            continue;
        }
        if (overPropBudget()) return halt(StopCause::kPropagationBudget);
        if (conflictsSinceRestart >= restartLimit) {
            ++stats_.restarts;
            conflictsSinceRestart = 0;
            restartLimit = kRestartUnit * luby(stats_.restarts);
            backtrack(0);
            continue;
        }
        // Re-establish assumptions first: level k carries assumption k
        // (restarts and backtracks peel them off; this loop puts the
        // next pending one back before any free decision is made).
        Lit next = Lit::fromCode(0xfffffffeu);
        bool assumed = false;
        while (trailLim_.size() < assumptions.size()) {
            const Lit a = assumptions[trailLim_.size()];
            const LBool av = value(a);
            if (av == LBool::kTrue) {
                // Already implied — dedicate an empty level so the
                // level <-> assumption-index correspondence holds.
                trailLim_.push_back(
                    static_cast<std::uint32_t>(trail_.size()));
                continue;
            }
            if (av == LBool::kFalse) {
                // The formula (with earlier assumptions) refutes this
                // assumption: unsatisfiable under the assumption set.
                backtrack(0);
                return Result::kUnsat;
            }
            next = a;
            assumed = true;
            break;
        }
        if (!assumed) next = pickBranchLit();
        if (next == Lit::fromCode(0xfffffffeu)) {
            model_ = assigns_;
            backtrack(0);
            return Result::kSat;
        }
        ++stats_.decisions;
        trailLim_.push_back(static_cast<std::uint32_t>(trail_.size()));
        enqueue(next, kNoClause);
    }
}

}  // namespace pd::sat
