// JobResult <-> bytes for the pd-cache-v5 store.
//
// Serializes exactly the semantic payload of a cached result — the
// decomposition summary, QoR, verification outcome and the mapped
// netlist — and none of the per-request fields (name, timings, cache
// provenance), which every requester recomputes for itself.
//
// Deserialization is fully validated: gate types, operand counts and
// operand ordering are checked *before* the netlist is rebuilt through
// the Netlist class's own append-only API, so a corrupt payload throws
// pd::Error instead of tripping internal invariants.
#pragma once

#include <memory>
#include <string>

#include "engine/job.hpp"
#include "engine/persist/format.hpp"
#include "netlist/netlist.hpp"

namespace pd::engine::persist {

void serializeNetlist(const netlist::Netlist& nl, ByteWriter& w);
[[nodiscard]] netlist::Netlist deserializeNetlist(ByteReader& r);

/// Appends the result's payload encoding to `out`.
void serializeJobResult(const JobResult& r, std::string& out);

/// Decodes one payload; throws pd::Error on any malformation.
[[nodiscard]] std::shared_ptr<JobResult> deserializeJobResult(
    std::string_view payload);

}  // namespace pd::engine::persist
