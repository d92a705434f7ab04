#include "obs/export.hpp"

#include <set>

#include "util/json_writer.hpp"

namespace pd::obs {

void writeChromeTrace(std::ostream& os, const std::vector<Span>& spans,
                      const std::map<std::int32_t, std::string>& processNames) {
    util::JsonWriter w(os);
    w.beginObject();
    w.key("traceEvents").beginArray();

    // Name every pid track that appears, whether or not the caller
    // supplied a label — Perfetto groups tracks by these.
    std::set<std::int32_t> pids;
    for (const auto& s : spans) pids.insert(s.pid);
    for (const auto& [pid, name] : processNames) pids.insert(pid);
    for (const std::int32_t pid : pids) {
        const auto it = processNames.find(pid);
        const std::string name =
            it != processNames.end()
                ? it->second
                : "pd pid " + std::to_string(pid);
        w.beginObject();
        w.field("name", "process_name");
        w.field("ph", "M");
        w.field("pid", static_cast<std::int64_t>(pid));
        w.field("tid", 0);
        w.key("args").beginObject().field("name", name).endObject();
        w.endObject();
    }

    for (const auto& s : spans) {
        w.beginObject();
        w.field("name", s.name);
        w.field("cat", s.cat);
        w.field("ph", "X");
        // Trace-event timestamps are microseconds; keep sub-µs precision
        // by emitting fractional values.
        w.field("ts", static_cast<double>(s.startNs) / 1000.0);
        w.field("dur", static_cast<double>(s.durNs) / 1000.0);
        w.field("pid", static_cast<std::int64_t>(s.pid));
        w.field("tid", static_cast<std::int64_t>(s.tid));
        w.key("args").beginObject();
        if (s.fp != 0) w.field("fp", s.fp);
        w.field("seq", s.seq);
        if (!s.detail.empty()) w.field("detail", s.detail);
        w.endObject();
        w.endObject();
    }

    w.endArray();
    w.field("displayTimeUnit", "ms");
    w.endObject();
}

}  // namespace pd::obs
