// Variable table for a decomposition run.
//
// Progressive Decomposition manipulates expressions over a growing set of
// Boolean variables:
//   * primary inputs, tagged with the input integer and bit position they
//     come from (the grouping heuristic of paper §5.1 wants "the k/r least
//     significant available bits of each input integer");
//   * tag variables K_i used to fold a list of expressions into a single
//     expression for multi-output basis extraction (paper §5.2); and
//   * derived variables standing for basis elements discovered in earlier
//     iterations (the leader expressions / block outputs).
//
// Variable ids are dense and allocated in registration order; a run never
// exceeds Monomial::kMaxVars of them (checked).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/error.hpp"

namespace pd::anf {

using Var = std::uint32_t;

enum class VarKind : std::uint8_t {
    kInput,    ///< primary input bit
    kTag,      ///< K_i selector used during multi-output basis extraction
    kDerived,  ///< block output introduced by a rewrite step
};

struct VarInfo {
    std::string name;
    VarKind kind = VarKind::kInput;
    /// For kInput: which input integer the bit belongs to (0-based).
    int integerId = -1;
    /// For kInput: bit position inside that integer (0 = LSB).
    int bitPos = -1;
    /// For kDerived: decomposition iteration that introduced the variable.
    int level = -1;
};

/// Name/metadata registry mapping dense ids to variable descriptions.
class VarTable {
public:
    /// Registers a primary input bit. Names must be unique.
    Var addInput(std::string name, int integerId, int bitPos);

    /// Registers a tag variable (multi-output folding).
    Var addTag(std::string name);

    /// Registers a derived (block output) variable created at `level`.
    Var addDerived(std::string name, int level);

    [[nodiscard]] std::size_t size() const { return info_.size(); }

    /// Unregisters the derived variables from id `n` on, so a discarded
    /// rewrite gives its fresh ids (and names) back.
    void truncate(std::size_t n);

    [[nodiscard]] const VarInfo& info(Var v) const {
        PD_ASSERT(v < info_.size());
        return info_[v];
    }

    [[nodiscard]] const std::string& name(Var v) const { return info(v).name; }

    /// Looks a variable up by name.
    [[nodiscard]] std::optional<Var> find(std::string_view name) const;

    /// Finds or creates an input variable with this name (parser support).
    Var findOrAddInput(std::string_view name);

    /// All currently registered variables of the given kind.
    [[nodiscard]] std::vector<Var> varsOfKind(VarKind kind) const;

    /// Number of distinct input integers registered.
    [[nodiscard]] int numIntegers() const { return numIntegers_; }

private:
    Var addImpl(VarInfo info);

    std::vector<VarInfo> info_;
    std::unordered_map<std::string, Var> byName_;
    int numIntegers_ = 0;
};

}  // namespace pd::anf
