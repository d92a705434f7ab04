// A small CDCL SAT solver.
//
// Used as the formal back-end of combinational equivalence checking
// (sat/equiv.hpp): circuits whose input count exceeds the exhaustive
// simulation limit (e.g. the 32-bit LOD of Table 1) are proven equivalent
// by refuting a miter, not just sampled. The solver is deliberately
// minimal but implements the canonical modern core: two-watched-literal
// propagation, first-UIP conflict analysis with clause learning, VSIDS
// branching with phase saving, Luby restarts, and learned-clause
// reduction. It comfortably handles the miters this repository produces
// (tens of thousands of variables).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace pd::sat {

/// 0-based propositional variable index.
using Var = std::uint32_t;

/// A literal: variable with sign, encoded as 2*var+sign (sign=1 means
/// negated). The encoding makes negation a single XOR and allows literals
/// to index watch lists directly.
class Lit {
public:
    Lit() = default;
    Lit(Var v, bool negated) : code_(2 * v + (negated ? 1u : 0u)) {}

    [[nodiscard]] Var var() const { return code_ >> 1; }
    [[nodiscard]] bool negated() const { return (code_ & 1u) != 0; }
    [[nodiscard]] std::uint32_t code() const { return code_; }
    [[nodiscard]] Lit operator~() const { return fromCode(code_ ^ 1u); }

    friend bool operator==(Lit a, Lit b) { return a.code_ == b.code_; }
    friend bool operator!=(Lit a, Lit b) { return a.code_ != b.code_; }

    static Lit fromCode(std::uint32_t c) {
        Lit l;
        l.code_ = c;
        return l;
    }

private:
    std::uint32_t code_ = 0;
};

/// Ternary assignment value.
enum class LBool : std::uint8_t { kFalse, kTrue, kUndef };

enum class Result : std::uint8_t { kSat, kUnsat, kUnknown };

struct SolverStats {
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learnedClauses = 0;
    std::uint64_t deletedClauses = 0;
    /// Wall time spent inside the propagation procedure. Sampled once per
    /// propagate() call (coarse — one call covers a whole implication
    /// round), so the overhead is negligible next to the work timed.
    /// `propagations / propagationNanos` is the propagation-engine
    /// throughput that bench/bench_sat.cpp races against the DPLL oracle.
    std::uint64_t propagationNanos = 0;
};

/// Per-call resource budgets. Two solvers constructed with the same
/// options and fed the same clauses make identical decisions, so a
/// budgeted verdict is a deterministic fact about the CNF.
struct SolverOptions {
    std::uint64_t conflictBudget = 0;     ///< per solve() call; 0 = unlimited
    std::uint64_t propagationBudget = 0;  ///< per solve() call; 0 = unlimited
};

/// Why the last solve() call returned kUnknown (kNone after a
/// definitive kSat/kUnsat answer). Callers must report budget
/// exhaustion honestly — never coerce kUnknown into an answer.
enum class StopCause : std::uint8_t {
    kNone,
    kConflictBudget,
    kPropagationBudget,
};

/// Conflict-driven clause-learning SAT solver.
///
/// Usage: allocate variables with newVar(), add clauses over their
/// literals, then call solve(). After kSat, model() gives one satisfying
/// assignment. Clauses may be added between solve() calls (incremental
/// use without assumptions).
class Solver {
public:
    Solver();
    explicit Solver(const SolverOptions& opt);

    /// Allocates and returns a fresh variable.
    Var newVar();
    [[nodiscard]] std::size_t numVars() const { return assigns_.size(); }

    /// Adds a clause (disjunction of literals). Returns false if the
    /// clause makes the formula trivially unsatisfiable (empty after
    /// simplification against root-level assignments).
    bool addClause(std::vector<Lit> lits);
    bool addClause(Lit a) { return addClause(std::vector<Lit>{a}); }
    bool addClause(Lit a, Lit b) { return addClause(std::vector<Lit>{a, b}); }
    bool addClause(Lit a, Lit b, Lit c) {
        return addClause(std::vector<Lit>{a, b, c});
    }

    /// Decides satisfiability. `conflictBudget` bounds this call
    /// (0 = fall back to SolverOptions::conflictBudget; both 0 =
    /// unlimited); exhausting any budget returns kUnknown and
    /// lastStop() says which limit fired. Budgets are per call, so an
    /// exhausted solver can be re-run with a larger allowance.
    Result solve(std::uint64_t conflictBudget = 0);

    /// Decides satisfiability under `assumptions` — literals forced true
    /// for this call only, without becoming clauses. kUnsat means
    /// unsatisfiable *under the assumptions* (the formula itself may
    /// still be satisfiable, unless provenUnsat() reports otherwise);
    /// kSat yields a model consistent with every assumption. The solver
    /// stays reusable afterwards, clauses learned during the call are
    /// kept, and repeated calls share them — the cheap way to sweep many
    /// cofactors of one formula (e.g. per-input-vector miter refutations)
    /// on warm data structures.
    Result solveUnder(std::span<const Lit> assumptions,
                      std::uint64_t conflictBudget = 0);

    /// Why the previous solve() returned kUnknown (kNone otherwise).
    [[nodiscard]] StopCause lastStop() const { return lastStop_; }

    /// True once clause addition alone refuted the formula: every later
    /// addClause is dropped and solve() returns kUnsat without search.
    [[nodiscard]] bool provenUnsat() const { return unsatAtRoot_; }

    [[nodiscard]] const SolverOptions& options() const { return opt_; }

    /// Value of `v` in the model found by the last kSat solve.
    [[nodiscard]] bool modelValue(Var v) const {
        PD_ASSERT(v < model_.size());
        return model_[v] == LBool::kTrue;
    }

    [[nodiscard]] const SolverStats& stats() const { return stats_; }

    /// Iterates every original (non-learned, live) clause — DIMACS export.
    template <typename Fn>
    void forEachProblemClause(Fn&& fn) const {
        for (const auto& h : headers_)
            if (!h.learned && !h.deleted)
                fn(std::span<const Lit>(lits_.data() + h.begin, h.size));
    }

    /// Literals fixed at the root level (addClause simplifies units away
    /// from clause storage; exporters must emit these separately).
    [[nodiscard]] std::vector<Lit> rootUnits() const {
        std::vector<Lit> out;
        const std::size_t end =
            trailLim_.empty() ? trail_.size() : trailLim_[0];
        out.assign(trail_.begin(), trail_.begin() + static_cast<long>(end));
        return out;
    }

private:
    // Clause arena: clauses are spans into lits_; header stores size and
    // learned flag. ClauseRef is an index into headers_.
    using ClauseRef = std::uint32_t;
    static constexpr ClauseRef kNoClause = 0xffffffffu;

    struct ClauseHeader {
        std::uint32_t begin = 0;  ///< offset into lits_
        std::uint32_t size = 0;
        bool learned = false;
        bool deleted = false;
        float activity = 0.0f;
    };

    struct Watcher {
        ClauseRef clause = kNoClause;
        Lit blocker;  ///< quick sat check avoids touching the clause
    };

    /// Binary clauses live in their own watch structure: the other
    /// literal is stored inline, so propagation resolves each one
    /// (satisfied, unit, or conflicting) without touching the clause
    /// arena, and — since a binary watcher can never relocate — the lists
    /// are scanned read-only, with none of the compaction writes the main
    /// lists need. All binaries (problem and learned alike — clauses of
    /// size <= 2 are never deleted, so both are permanent) accumulate in
    /// binBuild_ and are flattened into a contiguous CSR image, rebuilt
    /// lazily the next time propagation runs, so the hot cascade loop
    /// streams one cache-friendly slab instead of chasing per-literal
    /// heap vectors. The image is split into parallel arrays — binOther_
    /// (the implied literals, all the satisfied-check needs) and
    /// binReason_ (clause refs, touched only on the rarer enqueue and
    /// conflict paths) — so the sweep streams 4-byte entries. Circuit
    /// CNFs are roughly two-thirds binary clauses, so most watcher
    /// visits take this path.
    struct BinWatcher {
        Lit other;           ///< the clause's second literal
        ClauseRef clause = kNoClause;  ///< reason/conflict reference
    };

    struct VarInfo {
        ClauseRef reason = kNoClause;
        std::uint32_t level = 0;
    };

    /// Truth value of `l` under the current assignment, one XOR deep:
    /// kFalse=0 / kTrue=1 flip under the literal's sign bit, and
    /// kUndef=2 only has that bit toggled *above* the value range — the
    /// result is 2 or 3 for unassigned variables. Callers may therefore
    /// only compare against kTrue/kFalse (unassigned never equals
    /// either); test assigns_[v] directly for undef.
    [[nodiscard]] LBool value(Lit l) const {
        const auto raw = static_cast<std::uint8_t>(assigns_[l.var()]);
        return static_cast<LBool>(raw ^ (l.code() & 1u));
    }

    ClauseRef allocClause(const std::vector<Lit>& lits, bool learned);
    void watchClause(ClauseRef cr);
    void enqueue(Lit l, ClauseRef reason);
    ClauseRef propagate();
    ClauseRef propagateImpl();
    void analyze(ClauseRef conflict, std::vector<Lit>& outLearned,
                 std::uint32_t& outBtLevel);
    [[nodiscard]] bool litRedundant(Lit l, std::uint32_t abstractLevels);
    void backtrack(std::uint32_t level);
    Lit pickBranchLit();
    void bumpVar(Var v);
    void bumpClause(ClauseRef cr);
    void decayActivities();
    void reduceLearned();
    Result search(std::span<const Lit> assumptions,
                  std::uint64_t conflictBudget);
    Result halt(StopCause cause);
    [[nodiscard]] static std::uint64_t luby(std::uint64_t i);

    std::vector<ClauseHeader> headers_;
    std::vector<Lit> lits_;
    std::vector<std::vector<Watcher>> watches_;  // indexed by Lit::code()
    // Binary watches (see BinWatcher): binaries accumulate in binBuild_
    // and are flattened to the binStart_/binFlat_ CSR image the next time
    // propagation runs.
    std::vector<std::vector<BinWatcher>> binBuild_;
    std::vector<std::uint32_t> binStart_;  // CSR offsets, size 2V+1
    std::vector<Lit> binOther_;            // CSR payload: implied literal
    std::vector<ClauseRef> binReason_;     // CSR payload: clause ref
    bool binDirty_ = false;
    void flattenBinWatches();

    std::vector<LBool> assigns_;
    std::vector<LBool> model_;
    std::vector<LBool> savedPhase_;
    std::vector<VarInfo> varInfo_;
    std::vector<Lit> trail_;
    std::vector<std::uint32_t> trailLim_;  // decision-level boundaries
    std::size_t qhead_ = 0;

    std::vector<double> activity_;
    double varInc_ = 1.0;
    float clauseInc_ = 1.0f;
    // Binary max-heap over variables ordered by activity.
    std::vector<Var> heap_;
    std::vector<std::int32_t> heapPos_;
    void heapInsert(Var v);
    void heapSiftUp(std::size_t i);
    void heapSiftDown(std::size_t i);
    Var heapPop();

    std::vector<ClauseRef> learnedRefs_;
    std::vector<std::uint8_t> seen_;  // conflict-analysis scratch
    std::vector<Lit> analyzeClear_;   // vars whose seen_ mark needs wiping
    // litRedundant() scratch, hoisted out of the call: the redundancy DFS
    // runs for every candidate literal of every learned clause, so
    // per-call vectors would allocate millions of times per solve.
    std::vector<Lit> redundantStack_;
    std::vector<Var> redundantClear_;

    bool unsatAtRoot_ = false;
    SolverOptions opt_;
    StopCause lastStop_ = StopCause::kNone;
    SolverStats stats_;
};

}  // namespace pd::sat
