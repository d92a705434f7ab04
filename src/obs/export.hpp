// Exporter for the pd-trace subsystem: writeChromeTrace emits Chrome
// trace-event JSON ("X" complete events, µs timestamps), directly
// loadable at https://ui.perfetto.dev. The metrics registry needs no
// exporter of its own: the batch report's `observability` block holds it.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace pd::obs {

/// Emits one trace-event document: a metadata "M" event naming each
/// logical process track (pid → name from `processNames`; unnamed pids
/// fall back to "pd pid <n>"), then one "X" complete event per span with
/// ts/dur in microseconds. Span fp/seq land in the event args, keeping
/// traces diffable. Spans need not be sorted.
void writeChromeTrace(std::ostream& os, const std::vector<Span>& spans,
                      const std::map<std::int32_t, std::string>& processNames);

}  // namespace pd::obs
