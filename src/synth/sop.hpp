// Sum-of-products specifications and the flat two-level frontend.
//
// Several Table-1 baselines are defined by the paper as "the expression
// for each output bit written in sum-of-product form". A cube is an AND
// of positive and negative literals; an output is an OR of cubes. The
// flat frontend builds literal AND-trees and an OR-tree per output (with
// builder-level sharing only) — the most naive synthesis; the factored
// frontend (quickfactor.hpp) is the realistic algebraic flow.
#pragma once

#include <string>
#include <vector>

#include "anf/monomial.hpp"
#include "anf/vartable.hpp"
#include "netlist/builder.hpp"

namespace pd::synth::PD_WIDTH_NS {

struct Cube {
    anf::VarSet pos;  ///< variables appearing positively
    anf::VarSet neg;  ///< variables appearing complemented
};

struct SopOutput {
    std::string name;
    std::vector<Cube> cubes;
};

struct SopSpec {
    std::vector<SopOutput> outputs;
};

/// Registers every kInput variable of `vars` (in id order) as a netlist
/// input and returns the var → net map. Shared by all frontends.
[[nodiscard]] std::vector<netlist::NetId> registerInputs(
    netlist::Builder& b, const anf::VarTable& vars);

/// Flat two-level synthesis of the spec.
[[nodiscard]] netlist::Netlist synthSopFlat(const SopSpec& spec,
                                            const anf::VarTable& vars);

}  // namespace pd::synth::PD_WIDTH_NS
