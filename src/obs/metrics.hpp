// pd-trace metrics registry: named counters, gauges, and log2-bucketed
// histograms with a process-wide registry behind single relaxed atomics.
//
// Unlike spans (see obs.hpp), metrics have no runtime switch — a counter
// bump is one relaxed fetch_add and the report's `observability` block
// depends on them.
//
// Usage at hot sites binds the metric once:
//
//   static auto& hits = obs::counter("cache.hit");
//   hits.add();
//
// The registry never deallocates a metric, so such references stay valid
// for the life of the process; resetForTest() zeroes values in place.
//
// Naming: dot-separated lowercase ("cache.hit", "shard.wire.tx.bytes",
// "ring.member.solve_ns"); units are part of the name where ambiguous
// (_ns, _bytes, _mb). The Prometheus exporter rewrites dots to
// underscores and prefixes "pd_".
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pd::obs {

class Counter {
public:
    void add(std::uint64_t n = 1) {
        v_.fetch_add(n, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t value() const {
        return v_.load(std::memory_order_relaxed);
    }
    void reset() { v_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> v_{0};
};

class Gauge {
public:
    void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
    void setMax(std::int64_t v) {
        std::int64_t cur = v_.load(std::memory_order_relaxed);
        while (v > cur &&
               !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
        }
    }
    [[nodiscard]] std::int64_t value() const {
        return v_.load(std::memory_order_relaxed);
    }
    void reset() { v_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::int64_t> v_{0};
};

/// Log2-bucketed histogram: bucket i counts observations with
/// value <= 2^i for i in [0, 31], bucket 32 is the overflow (+Inf)
/// bucket. Cheap enough for per-solve observation on hot paths.
class Histogram {
public:
    static constexpr std::size_t kBuckets = 33;

    /// Index of the bucket for `v`: v<=1 → 0, else ceil(log2(v)),
    /// capped at the overflow bucket.
    [[nodiscard]] static std::size_t bucketIndex(std::uint64_t v);

    /// Inclusive upper bound of bucket i (2^i); the last bucket has no
    /// finite bound and callers should render "+Inf".
    [[nodiscard]] static std::uint64_t bucketBound(std::size_t i) {
        return 1ull << i;
    }

    void observe(std::uint64_t v) {
        buckets_[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
    }

    [[nodiscard]] std::uint64_t bucketCount(std::size_t i) const {
        return buckets_[i].load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t count() const {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t sum() const {
        return sum_.load(std::memory_order_relaxed);
    }
    void reset();

    /// Accumulates another histogram's buckets/count/sum wholesale —
    /// used when folding shipped worker deltas into the coordinator.
    void merge(const std::array<std::uint64_t, kBuckets>& buckets,
               std::uint64_t count, std::uint64_t sum);

private:
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
};

/// Registry accessors: create-on-first-use, then stable references.
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Gauge& gauge(std::string_view name);
[[nodiscard]] Histogram& histogram(std::string_view name);

/// Point-in-time copy of every registered metric, names sorted, used
/// for report emission, Prometheus dumps, and worker delta shipping.
struct HistogramSample {
    std::string name;
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
};

struct MetricsSnapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<HistogramSample> histograms;
};

[[nodiscard]] MetricsSnapshot snapshotMetrics();

/// cur − prev for monotone kinds (counters, histogram buckets/sums);
/// gauges carry the current value. Metrics absent from `prev` pass
/// through whole. Zero-valued counter/histogram deltas are elided so a
/// quiet worker ships near-empty frames.
[[nodiscard]] MetricsSnapshot deltaMetrics(const MetricsSnapshot& cur,
                                           const MetricsSnapshot& prev);

/// Folds a worker's delta into this process's registry: counters and
/// histogram buckets accumulate into the same names; a gauge lands both
/// as "<name>.w<workerId>" (exact per-worker value) and as a running
/// max on the base name (fleet-level "worst worker" signal).
void applyWorkerDelta(const MetricsSnapshot& delta, int workerId);

/// Zeroes every registered metric's value (names stay registered);
/// tests use this for isolation.
void resetMetricsForTest();

}  // namespace pd::obs
