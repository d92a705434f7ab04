#include "eval/claims.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "anf/printer.hpp"
#include "circuits/adder.hpp"
#include "circuits/comparator.hpp"
#include "circuits/counter.hpp"
#include "circuits/lzd.hpp"
#include "circuits/majority.hpp"
#include "circuits/manual.hpp"
#include "circuits/multiplier.hpp"
#include "circuits/prefix.hpp"
#include "eval/report.hpp"
#include "synth/kernels.hpp"
#include "synth/sop.hpp"
#include "util/error.hpp"

namespace pd::eval {
namespace {

using Cells = std::vector<std::vector<std::string>>;
using Designs = std::vector<std::pair<std::string, netlist::Netlist>>;

/// Table 1's claim, on its rows and on the two extensions.
constexpr const char* kPdFasterRule =
    "PD delay < its circuit's baseline delay";

std::string num(double v, int precision) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

/// A Markdown table: the first column left-aligned, the rest right.
std::string table(const std::vector<std::string>& header, const Cells& rows) {
    std::ostringstream os;
    os << '|';
    for (const auto& h : header) os << ' ' << h << " |";
    os << "\n|---|";
    for (std::size_t i = 1; i < header.size(); ++i) os << "---:|";
    os << '\n';
    for (const auto& row : rows) {
        os << '|';
        for (const auto& cell : row) os << ' ' << cell << " |";
        os << '\n';
    }
    return os.str();
}

std::string subsection(const std::string& title, const std::string& body) {
    return "### " + title + "\n\n" + body + '\n';
}

/// `lhs op rhs` when the claim holds, `lhs negated rhs` when it does not.
Verdict compare(bool holds, const std::string& lhs, const char* op,
                const char* negated, const std::string& rhs) {
    return {"", holds, lhs + (holds ? op : negated) + rhs};
}

Verdict about(std::string subject, Verdict v) {
    v.subject = std::move(subject);
    return v;
}

/// pdFaster for every PD row of a report against its circuit's baseline.
std::vector<Verdict> pdFasterVerdicts(const BenchReport& rep) {
    std::vector<Verdict> out;
    for (const auto& row : rep.rows)
        if (const RowResult* base = baselineOf(rep, row);
            base && row.pdIterations > 0)
            out.push_back(
                about(row.circuit, pdFaster(row.qor.delay, base->qor.delay)));
    return out;
}

/// A row group of manual designs: the first is the baseline and PD (when
/// the benchmark has a Reed-Muller spec) follows it; SAT cross-checked.
BenchReport family(Flow& flow, const std::string& title,
                   const circuits::Benchmark& bench, const Designs& designs) {
    BenchReport rep;
    rep.title = title;
    for (const auto& [name, nl] : designs) {
        rep.rows.push_back(flow.runNetlist(name, nl, bench, 0, 0));
        if (rep.rows.size() == 1 && bench.anf)
            rep.rows.push_back(
                flow.runPd("Progressive Decomposition", bench, 0, 0));
    }
    satCrossCheck(rep);
    return rep;
}

/// Structure and QoR of mapped designs, one row each.
std::string structureTable(const std::vector<RowResult>& rows) {
    Cells cells;
    for (const auto& r : rows)
        cells.push_back({r.variant, std::to_string(r.qor.gates),
                         std::to_string(r.interconnect),
                         std::to_string(r.levels), num(r.qor.area, 1),
                         num(r.qor.delay, 3)});
    return table({"implementation", "gates", "interconnect", "levels",
                  "area µm²", "delay ns"},
                 cells);
}

/// PD configurations of one circuit, one row each.
std::string pdTable(const std::string& title,
                    const std::vector<RowResult>& rows) {
    Cells cells;
    for (const auto& r : rows)
        cells.push_back({r.variant, std::to_string(r.pdLeaders),
                         std::to_string(r.pdIterations),
                         std::to_string(r.pdBlocks), num(r.qor.area, 1),
                         num(r.qor.delay, 3)});
    return subsection(title, table({"configuration", "leaders", "iterations",
                                    "blocks", "area µm²", "delay ns"},
                                   cells));
}

Section fig1Fig2(Flow& flow) {
    Section s{"Fig. 1/2: interconnect of the 16-bit LZD",
              "The flat LZD (Fig. 1) feeds every input to many position "
              "blocks; Oklobdzija's hierarchy (Fig. 2) cuts that interconnect, "
              "and PD lands on the hierarchical side.",
              "PD interconnect (mapped gate input pins) ≤ the flat LZD's", "",
              {}};
    const auto lzd = circuits::makeLzd(16);
    const std::vector<RowResult> rows{
        flow.runNetlist("flat (Fig. 1 description)", circuits::flatLzd(16),
                        lzd, 0, 0),
        flow.runNetlist("Oklobdzija [8] (Fig. 2)",
                        circuits::oklobdzijaLzd(16), lzd, 0, 0),
        flow.runPd("Progressive Decomposition", lzd, 0, 0)};
    Cells series;
    for (const int n : {4, 8, 16, 32}) {
        const auto pins = [&](const netlist::Netlist& nl) {
            return std::to_string(
                flow.runNetlist("", nl, circuits::makeLzd(n), 0, 0)
                    .interconnect);
        };
        series.push_back({std::to_string(n), pins(circuits::flatLzd(n)),
                          pins(circuits::oklobdzijaLzd(n))});
    }
    s.body = structureTable(rows) + "\nInterconnect over width:\n\n" +
             table({"width", "flat", "Oklobdzija"}, series);
    s.verdicts.push_back(about(
        lzd.name,
        pdInterconnectAtMostFlat(rows[2].interconnect, rows[0].interconnect)));
    return s;
}

Section fig4(Flow& flow) {
    Section s{"Fig. 4 / Theorem 1: the online-algorithm hierarchy",
              "A function with an online algorithm carrying c bits of state "
              "has a hierarchy whose groups expose c bits to the next. For "
              "addition (c = 1) that is a carry-select adder: each group's "
              "sums under both carries are the f/g leaders, and it is "
              "shallower than the serial ripple form.",
              "the deepest hierarchy has fewer levels than the ripple adder",
              "", {}};
    const auto add = circuits::makeAdder(16);
    std::vector<RowResult> rows{flow.runNetlist(
        "flat ripple (online, serialized)", circuits::rcaAdder(16), add, 0, 0)};
    std::size_t deepest = 0;
    for (const int group : {2, 4, 8}) {
        rows.push_back(flow.runNetlist(
            "Fig. 4 hierarchy, " + std::to_string(group) + "-bit groups",
            circuits::carrySelectAdder(16, group), add, 0, 0));
        deepest = std::max(deepest, rows.back().levels);
    }
    s.body = structureTable(rows);
    s.verdicts.push_back(
        about(add.name, hierarchyShallower(deepest, rows[0].levels)));
    return s;
}

/// The one direct decompose call: only a Decomposition carries the trace.
Section fig6() {
    Section s{"Fig. 6: progressive decomposition of the 7-bit majority",
              "On the 7-input majority, the first group {a0..a3} yields the "
              "4:3 counter basis s1..s4, s3 reduces to s1·s2, and the "
              "identities s1·s4 = s2·s4 = 0 are found.",
              "the first group has 4 basis functions, at least one reduction "
              "and two identities, and the result re-expands to the input",
              "", {}};
    const auto bench = circuits::makeMajority(7);
    anf::VarTable vt;
    const auto outs = bench.anf(vt);
    const auto d = core::decompose(vt, outs, bench.outputNames);
    if (d.trace.empty()) fail("eval", "majority7 decomposed without a trace");
    std::ostringstream os;
    os << "```\ninput: XOR of all 4-subsets of {a0..a6} ("
       << outs[0].termCount() << " monomials)\n";
    for (const auto& tr : d.trace) {
        os << "\nfindBasis(group " << tr.group << "): " << tr.rawPairCount
           << " pairs -> " << tr.mergedPairCount << " after merging\n";
        for (const auto& b : tr.basis) os << "    " << b << '\n';
        for (const auto& r : tr.reductions) os << "    reduce: " << r << '\n';
        for (const auto& i : tr.identities) os << "    identity: " << i << '\n';
    }
    os << "\nresidual output: " << anf::toString(d.residualOutputs[0], vt)
       << "\n```\n";
    s.body = os.str();
    const auto& first = d.trace.front();
    s.verdicts.push_back(about(
        bench.name,
        counterBasis(first.basis.size(), first.reductions.size(),
                     first.identities.size(), d.expandedOutputs(vt) == outs)));
    return s;
}

Section algebraicLadder(Flow& flow) {
    Section s{"§2: algebraic factoring vs Progressive Decomposition",
              "Algebraic methods, up to kernel extraction [2], cannot find the "
              "structure of XOR-rich arithmetic that PD's Boolean-ring "
              "decomposition finds.",
              "PD area < the smallest algebraic area", "", {}};
    for (const auto& bench :
         {circuits::makeLzd(16), circuits::makeMajority(9)}) {
        BenchReport rep;
        rep.title = bench.name +
                    ": SOP flat → quick-factor → kernel extraction → PD";
        anf::VarTable vt;
        const auto sop = bench.sop(vt);
        rep.rows.push_back(flow.runNetlist("SOP flat (two-level)",
                                           synth::synthSopFlat(sop, vt),
                                           bench, 0, 0));
        rep.rows.push_back(
            flow.runSopFactored("SOP quick-factor", bench, 0, 0));
        rep.rows.push_back(flow.runNetlist("SOP kernel extraction [2]",
                                           synth::synthSopKernels(sop, vt),
                                           bench, 0, 0));
        const RowResult best = *std::min_element(
            rep.rows.begin(), rep.rows.end(), [](const auto& a, const auto& b) {
                return a.qor.area < b.qor.area;
            });
        rep.rows.push_back(
            flow.runPd("Progressive Decomposition", bench, 0, 0));
        s.verdicts.push_back(about(
            bench.name,
            pdBelowAlgebraic(rep.rows.back().qor.area, best.qor.area)));
        s.verdicts.back().numbers += " (" + best.variant + ")";
        s.body += subsection(rep.title, formatTable(rep));
    }
    return s;
}

Section featureAblation(Flow& flow) {
    Section s{"§5: what each optimization contributes",
              "Identities with null-space merging (§5.2, §5.5), linear "
              "minimization (§5.3) and size reduction (§5.4) each improve the "
              "decomposition.",
              "area with the feature < area without it on at least one of "
              "maj15, lzd16, adder8 (in that order)",
              "", {}};
    struct Config {
        const char* name;
        bool identities, linear, size, complement;
    };
    // Configs 1..3 each switch off one of the three paper features.
    const Config configs[] = {
        {"full (paper)", true, true, true, false},
        {"no identities/nullspaces", false, true, true, false},
        {"no linear minimization", true, false, true, false},
        {"no size reduction", true, true, false, false},
        {"bare findBasis", false, false, false, false},
        {"+complement nullspaces", true, true, true, true}};
    std::vector<std::pair<double, double>> withVsWithout[3];
    for (const auto& bench : {circuits::makeMajority(15),
                              circuits::makeLzd(16), circuits::makeAdder(8)}) {
        std::vector<RowResult> rows;
        for (const auto& c : configs) {
            core::DecomposeOptions o;
            o.useIdentities = o.useNullspaceMerging = c.identities;
            o.useLinearMinimize = c.linear;
            o.useSizeReduction = c.size;
            o.complementNullspace = c.complement;
            rows.push_back(flow.runPd(c.name, bench, 0, 0, o));
        }
        for (std::size_t f = 0; f < 3; ++f)
            withVsWithout[f].emplace_back(rows[0].qor.area,
                                          rows[f + 1].qor.area);
        s.body += pdTable(bench.name, rows);
    }
    const char* features[] = {"identities/nullspaces", "linear minimization",
                              "size reduction"};
    for (std::size_t f = 0; f < 3; ++f)
        s.verdicts.push_back(
            about(features[f], lowersAreaSomewhere(withVsWithout[f])));
    return s;
}

Section groupSize(Flow& flow) {
    Section s{"§5.1: group size k",
              "The paper fixes k = 4 and notes that other values are "
              "possible; the fixed choice is sound if k = 4 gives the "
              "smallest area.",
              "area at k = 4 ≤ area at every other k in 2..6", "", {}};
    for (const auto& bench : {circuits::makeLzd(16), circuits::makeMajority(15),
                              circuits::makeCounter(12)}) {
        std::vector<RowResult> rows;
        std::vector<std::pair<std::size_t, double>> areaByK;
        for (std::size_t k = 2; k <= 6; ++k) {
            core::DecomposeOptions opt;
            opt.k = k;
            rows.push_back(
                flow.runPd("k = " + std::to_string(k), bench, 0, 0, opt));
            areaByK.emplace_back(k, rows.back().qor.area);
        }
        s.body += pdTable(bench.name, rows);
        s.verdicts.push_back(about(bench.name, kFourSmallest(areaByK)));
    }
    return s;
}

std::size_t termsOf(const circuits::Benchmark& bench) {
    if (!bench.anf) return 0;
    anf::VarTable vt;
    std::size_t total = 0;
    for (const auto& e : bench.anf(vt)) total += e.termCount();
    return total;
}

Section reedMullerGrowth() {
    Section s{"§6/§7: the Reed-Muller wall",
              "The 32-bit LZD cannot be processed because its flat "
              "Reed-Muller form blows up, while the 32-bit LOD stays small; a "
              "compact ring representation is the main open problem.",
              "LOD has at most 2n terms at every width n, and LZD at least "
              "2^n at every width it is built",
              "", {}};
    std::vector<std::pair<int, std::size_t>> lod;
    std::vector<std::pair<int, std::size_t>> lzd;
    Cells cells;
    const auto cell = [](std::size_t terms) {
        return terms ? std::to_string(terms) : std::string("refused");
    };
    for (const int n : {4, 8, 16, 32}) {
        lod.emplace_back(n, termsOf(circuits::makeLod(n)));
        lzd.emplace_back(n, termsOf(circuits::makeLzd(n)));
        cells.push_back({std::to_string(n), cell(lod.back().second),
                         cell(lzd.back().second),
                         cell(termsOf(circuits::makeComparator(n))),
                         cell(termsOf(circuits::makeAdder(n)))});
    }
    s.body = "Terms of the flat form, summed over the outputs (\"refused\": "
             "the benchmark carries no Reed-Muller spec at that width).\n\n" +
             table({"width", "LOD", "LZD", "comparator", "adder"}, cells);
    s.verdicts.push_back(about("LOD vs LZD", reedMullerWall(lod, lzd)));
    return s;
}

Section multiplier(Flow& flow) {
    Section s{"Extension: 4x4 multiplier (paper refs [10], [13])",
              "Table 1's claim carried to the multiplier, the workload of the "
              "compressor trees of refs [10] and [13]: PD is faster than the "
              "unoptimised (array) description.",
              kPdFasterRule, "", {}};
    const auto rep = family(
        flow, "", circuits::makeMultiplier(4),
        {{"Array multiplier (serial rows)", circuits::arrayMultiplier(4)},
         {"Wallace tree + ripple", circuits::wallaceMultiplier(4, false)},
         {"Wallace tree + prefix adder",
          circuits::wallaceMultiplier(4, true)}});
    s.body = formatTable(rep);
    s.verdicts = pdFasterVerdicts(rep);
    return s;
}

Section prefixAdders(Flow& flow) {
    Section s{"Extension: the prefix-adder family (around Table 1, row 6)",
              "Table 1's adder claim, set among the carry-lookahead networks "
              "behind the paper's DesignWare row: PD is faster than the "
              "ripple description. The 32-bit adder has no Reed-Muller spec, "
              "so no PD row.",
              kPdFasterRule, "", {}};
    for (const int n : {16, 32}) {
        const auto rep = family(
            flow, std::to_string(n) + "-bit adders", circuits::makeAdder(n),
            {{"Ripple Carry Adder", circuits::rcaAdder(n)},
             {"Sklansky (DesignWare proxy)", circuits::claAdder(n)},
             {"Kogge-Stone", circuits::koggeStoneAdder(n)},
             {"Brent-Kung", circuits::brentKungAdder(n)},
             {"Han-Carlson", circuits::hanCarlsonAdder(n)}});
        s.body += subsection(rep.title, formatTable(rep));
        for (auto& v : pdFasterVerdicts(rep)) s.verdicts.push_back(v);
    }
    return s;
}

}  // namespace

// ---- Verdict rules ---------------------------------------------------------

Verdict pdFaster(double pdDelay, double baselineDelay) {
    return compare(pdDelay < baselineDelay, num(pdDelay, 3) + " ns", " < ",
                   " ≥ ", num(baselineDelay, 3) + " ns");
}

Verdict pdInterconnectAtMostFlat(std::size_t pd, std::size_t flat) {
    return compare(pd <= flat, std::to_string(pd) + " pins", " ≤ ", " > ",
                   std::to_string(flat) + " pins");
}

Verdict hierarchyShallower(std::size_t deepestHierarchy, std::size_t ripple) {
    return compare(deepestHierarchy < ripple,
                   std::to_string(deepestHierarchy) + " levels", " < ", " ≥ ",
                   std::to_string(ripple) + " levels");
}

Verdict counterBasis(std::size_t basis, std::size_t reductions,
                     std::size_t identities, bool reexpands) {
    return {"", basis == 4 && reductions >= 1 && identities >= 2 && reexpands,
            "basis " + std::to_string(basis) + ", reductions " +
                std::to_string(reductions) + ", identities " +
                std::to_string(identities) + "; " +
                (reexpands ? "re-expands" : "does not re-expand") +
                " to the input"};
}

Verdict pdBelowAlgebraic(double pdArea, double bestAlgebraicArea) {
    return compare(pdArea < bestAlgebraicArea, num(pdArea, 1) + " µm²", " < ",
                   " ≥ ", num(bestAlgebraicArea, 1) + " µm²");
}

Verdict lowersAreaSomewhere(
    const std::vector<std::pair<double, double>>& withVsWithout) {
    Verdict v;
    for (const auto& [with, without] : withVsWithout) {
        v.holds = v.holds || with < without;
        v.numbers += (v.numbers.empty() ? "" : ", ") + num(with, 1) +
                     (with < without ? " < " : " ≥ ") + num(without, 1);
    }
    v.numbers += " µm²";
    return v;
}

Verdict kFourSmallest(
    const std::vector<std::pair<std::size_t, double>>& areaByK) {
    const auto four = std::find_if(areaByK.begin(), areaByK.end(),
                                   [](const auto& p) { return p.first == 4; });
    if (four == areaByK.end()) fail("eval", "kFourSmallest: no k = 4 entry");
    auto best = four;  // then the smallest area at any other k
    for (auto it = areaByK.begin(); it != areaByK.end(); ++it)
        if (it != four && (best == four || it->second < best->second))
            best = it;
    const auto label = [](const auto& p) {
        return "k = " + std::to_string(p.first) + ": " + num(p.second, 1) +
               " µm²";
    };
    return compare(four->second <= best->second, label(*four), " ≤ ", " > ",
                   label(*best));
}

Verdict reedMullerWall(const std::vector<std::pair<int, std::size_t>>& lod,
                       const std::vector<std::pair<int, std::size_t>>& lzd) {
    Verdict v{"", true, ""};
    const auto check = [&v](const char* name, int n, std::size_t terms,
                            bool ok, const char* op, const char* negated,
                            std::size_t bound) {
        v.holds = v.holds && ok;
        v.numbers += (v.numbers.empty() ? "" : ", ") + std::string(name) +
                     std::to_string(n) + " " + std::to_string(terms) +
                     (ok ? op : negated) + std::to_string(bound);
    };
    for (const auto& [n, terms] : lod) {
        const auto bound = 2 * static_cast<std::size_t>(n);
        check("LOD", n, terms, terms <= bound, " ≤ ", " > ", bound);
    }
    for (const auto& [n, terms] : lzd) {
        if (terms == 0) continue;  // refused: the wall itself
        const auto bound = std::size_t{1} << n;
        check("LZD", n, terms, terms >= bound, " ≥ ", " < ", bound);
    }
    return v;
}

// ---- Sections --------------------------------------------------------------

Section table1Section(const BenchReport& rep) {
    return {rep.title, "", kPdFasterRule,
            formatTable(rep), pdFasterVerdicts(rep)};
}

std::vector<Section> claimSections(Flow& flow) {
    std::vector<Section> out;
    out.push_back(fig1Fig2(flow));
    out.push_back(fig4(flow));
    out.push_back(fig6());
    out.push_back(algebraicLadder(flow));
    out.push_back(featureAblation(flow));
    out.push_back(groupSize(flow));
    out.push_back(reedMullerGrowth());
    out.push_back(multiplier(flow));
    out.push_back(prefixAdders(flow));
    return out;
}

}  // namespace pd::eval
