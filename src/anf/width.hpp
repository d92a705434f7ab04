// The monomial width of a translation unit.
//
// Every source whose types or results depend on Monomial's size and that
// the compute pass runs — anf/ (but the parser), ring/, core/, the spec
// builders in circuits/, the hierarchy synthesis in synth/ and
// engine/compute.cpp — is compiled twice: at the default 256 bits, and
// at 128 bits with PD_MONOMIAL_WORDS=2. Each build puts its
// declarations in its own inline namespace (w256 or w128), so the two
// copies link into one library side by side while every other source
// (and every test) names the default types as plain pd::anf::Monomial,
// pd::core::decompose and so on. The engine runs each job's compute path
// at 128 bits first and re-runs it at 256 only when the job outgrows the
// narrow width (engine/compute.hpp).
#pragma once

#include <exception>

#ifndef PD_MONOMIAL_WORDS
#define PD_MONOMIAL_WORDS 4
#endif

#if PD_MONOMIAL_WORDS == 4
#define PD_WIDTH_NS inline w256
#elif PD_MONOMIAL_WORDS == 2
#define PD_WIDTH_NS inline w128
#else
#error "PD_MONOMIAL_WORDS must be 2 or 4"
#endif

namespace pd::anf {

/// Thrown by the 128-bit build wherever a run would need a variable id
/// past its capacity. Not a result and not a job failure: the engine
/// catches it and re-runs the job at 256 bits.
struct WidthExceeded : std::exception {
    explicit WidthExceeded(const char* where) : site(where) {}
    [[nodiscard]] const char* what() const noexcept override {
        return "job outgrew the 128-bit monomial width";
    }
    /// The bound that was reached: "insert", "headroom" or "capacity".
    const char* site;
};

}  // namespace pd::anf

namespace pd::anf::PD_WIDTH_NS {

/// True in the 128-bit build.
inline constexpr bool kNarrowWidth = PD_MONOMIAL_WORDS < 4;

/// Called at the three sites where a compute pass reaches
/// Monomial::kMaxVars: the capacity error in Monomial::insert and the
/// decomposer's headroom and capacity stops. The narrow build throws
/// WidthExceeded, so a narrow run never ends on a bound the wide run does
/// not have; the wide build returns and the caller applies its own rule.
inline void reachedCapacity([[maybe_unused]] const char* site) {
    if constexpr (kNarrowWidth) throw WidthExceeded(site);
}

}  // namespace pd::anf::PD_WIDTH_NS
