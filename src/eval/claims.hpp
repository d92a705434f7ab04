// The paper's claims as computed verdicts.
//
// Every section of EXPERIMENTS.md states one of the paper's claims, gives
// the numbers measured through the document's one Flow, and ends in a
// verdict per subject (a circuit or a feature): "holds" or "does not
// hold", computed by the section's stated comparison. The comparisons are
// the rules below, kept apart from the measurements so that a test can
// feed them numbers on either side.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "eval/table1.hpp"

namespace pd::eval {

struct Verdict {
    std::string subject;  ///< the circuit or feature judged
    bool holds = false;
    std::string numbers;  ///< the comparison, rendered with its numbers
};

struct Section {
    std::string title;
    std::string claim;  ///< the paper's claim, in words (may be empty)
    std::string rule;   ///< the comparison every verdict applies
    std::string body;   ///< the measured numbers, as Markdown
    std::vector<Verdict> verdicts;
};

// ---- Verdict rules (the subject is left empty) -----------------------------
/// Table 1 and the extensions: PD delay < baseline delay.
[[nodiscard]] Verdict pdFaster(double pdDelay, double baselineDelay);
/// Fig. 1/2: PD interconnect ≤ the flat description's.
[[nodiscard]] Verdict pdInterconnectAtMostFlat(std::size_t pd,
                                               std::size_t flat);
/// Fig. 4: the deepest hierarchy has fewer levels than the ripple adder.
[[nodiscard]] Verdict hierarchyShallower(std::size_t deepestHierarchy,
                                         std::size_t ripple);
/// Fig. 6: the first group has 4 basis functions, at least one reduction
/// and two identities, and the result re-expands to the input.
[[nodiscard]] Verdict counterBasis(std::size_t basis, std::size_t reductions,
                                   std::size_t identities, bool reexpands);
/// §2: PD area < the smallest algebraic area.
[[nodiscard]] Verdict pdBelowAlgebraic(double pdArea,
                                       double bestAlgebraicArea);
/// §5: one {with, without} area pair per circuit; holds when the area
/// with the feature is smaller on at least one.
[[nodiscard]] Verdict lowersAreaSomewhere(
    const std::vector<std::pair<double, double>>& withVsWithout);
/// §5.1: one {k, area} pair per k, including 4; holds when no other k
/// has a smaller area.
[[nodiscard]] Verdict kFourSmallest(
    const std::vector<std::pair<std::size_t, double>>& areaByK);
/// §6/§7: {width n, terms} pairs, 0 terms = refused; holds when LOD has
/// at most 2n terms everywhere and LZD at least 2^n wherever it is built.
[[nodiscard]] Verdict reedMullerWall(
    const std::vector<std::pair<int, std::size_t>>& lod,
    const std::vector<std::pair<int, std::size_t>>& lzd);

// ---- Sections --------------------------------------------------------------
/// Table 1's claim on a row group: pdFaster for each PD row against its
/// own circuit's baseline.
[[nodiscard]] Section table1Section(const BenchReport& rep);

/// Every claim beyond Table 1, measured through `flow`, in document order.
[[nodiscard]] std::vector<Section> claimSections(Flow& flow);

}  // namespace pd::eval
