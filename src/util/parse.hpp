// Range-checked integer parsing for command-line values, shared by the
// pd_cli option parser and the shard worker's argv decoder.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <limits>
#include <string>
#include <string_view>

namespace pd::util {

/// Parses all of `text` as a non-negative decimal integer. Rejects junk,
/// signs, empty text and overflow; on failure `error` names `flag` and
/// the offending text.
template <std::unsigned_integral T>
bool parseCount(std::string_view flag, std::string_view text, T& out,
                std::string& error) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    if (ec == std::errc() && ptr == end) return true;
    error = "option " + std::string(flag) +
            " expects a non-negative integer, got '" + std::string(text) + "'";
    if (ec == std::errc::result_out_of_range) error += " (out of range)";
    return false;
}

/// The most threads or processes one count on a command line may ask for:
/// --jobs, --probe-threads and --shards, and the thread
/// counts a shard worker decodes from its argv. Far above the cores of any
/// host this runs on, far below a count that would exhaust the OS.
inline constexpr std::size_t kMaxParallelism = 256;

/// parseCount() for a thread or process count: rejects a value above
/// kMaxParallelism before anything is started with it.
template <std::unsigned_integral T>
bool parseParallelism(std::string_view flag, std::string_view text, T& out,
                      std::string& error) {
    if (!parseCount(flag, text, out, error)) return false;
    if (out <= kMaxParallelism) return true;
    error = "option " + std::string(flag) + " expects at most " +
            std::to_string(kMaxParallelism) + ", got '" + std::string(text) +
            "'";
    return false;
}

/// --verify-threads: SAT verify off (0) or on (1). Any other value is
/// refused with a pointer to the flags that size the thread pool, so a
/// thread count is never silently read as "on".
inline bool parseVerifySwitch(std::string_view flag, std::string_view text,
                              bool& out, std::string& error) {
    if (text == "0" || text == "1") {
        out = text == "1";
        return true;
    }
    error = "option " + std::string(flag) + " expects 0 (off) or 1 (on), got '" +
            std::string(text) +
            "'; --jobs and --probe-threads size the thread pool";
    return false;
}

/// A millisecond value for an `int` field: parseCount() capped at
/// INT_MAX, so a huge value can never wrap into a negative timeout.
inline bool parseMs(std::string_view flag, std::string_view text, int& out,
                    std::string& error) {
    unsigned long long v = 0;
    if (!parseCount(flag, text, v, error)) return false;
    if (v > static_cast<unsigned long long>(std::numeric_limits<int>::max())) {
        error = "option " + std::string(flag) + " expects at most " +
                std::to_string(std::numeric_limits<int>::max()) +
                " ms, got '" + std::string(text) + "'";
        return false;
    }
    out = static_cast<int>(v);
    return true;
}

}  // namespace pd::util
