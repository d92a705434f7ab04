// pd-trace unit tests: histogram bucket math, the metrics registry and
// its delta/merge algebra, span rings + ScopedSpan gating, the Chrome
// trace exporter (validated with the repo's own JSON parser), the
// leveled logger, and the kObs wire codec.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "engine/shard/protocol.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace pd {
namespace {

class ObsTest : public ::testing::Test {
protected:
    void SetUp() override {
        obs::resetMetricsForTest();
        obs::setEnabled(true);
        (void)obs::drainSpans();  // flush spans left by earlier tests
        obs::resetMetricsForTest();
    }
    void TearDown() override {
        obs::setEnabled(false);
        (void)obs::drainSpans();
        obs::resetMetricsForTest();
    }
};

TEST_F(ObsTest, HistogramBucketIndex) {
    EXPECT_EQ(obs::Histogram::bucketIndex(0), 0u);
    EXPECT_EQ(obs::Histogram::bucketIndex(1), 0u);
    EXPECT_EQ(obs::Histogram::bucketIndex(2), 1u);
    EXPECT_EQ(obs::Histogram::bucketIndex(3), 2u);
    EXPECT_EQ(obs::Histogram::bucketIndex(4), 2u);
    EXPECT_EQ(obs::Histogram::bucketIndex(5), 3u);
    EXPECT_EQ(obs::Histogram::bucketIndex(1024), 10u);
    EXPECT_EQ(obs::Histogram::bucketIndex(1025), 11u);
    // 2^31 lands in the last finite bucket; anything above overflows.
    EXPECT_EQ(obs::Histogram::bucketIndex(1ull << 31), 31u);
    EXPECT_EQ(obs::Histogram::bucketIndex((1ull << 31) + 1), 32u);
    EXPECT_EQ(obs::Histogram::bucketIndex(UINT64_MAX), 32u);
}

TEST_F(ObsTest, HistogramObserveAndMerge) {
    obs::Histogram h;
    h.observe(1);
    h.observe(3);
    h.observe(3);
    h.observe(5000);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 5007u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(2), 2u);
    EXPECT_EQ(h.bucketCount(13), 1u);  // 5000 <= 8192

    std::array<std::uint64_t, obs::Histogram::kBuckets> more{};
    more[0] = 7;
    more[32] = 1;
    h.merge(more, 8, 1000);
    EXPECT_EQ(h.count(), 12u);
    EXPECT_EQ(h.sum(), 6007u);
    EXPECT_EQ(h.bucketCount(0), 8u);
    EXPECT_EQ(h.bucketCount(32), 1u);
}

TEST_F(ObsTest, RegistryReturnsStableReferences) {
    obs::Counter& a = obs::counter("test.counter");
    obs::Counter& b = obs::counter("test.counter");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(b.value(), 3u);

    obs::gauge("test.gauge").set(-5);
    EXPECT_EQ(obs::gauge("test.gauge").value(), -5);
    obs::gauge("test.gauge").setMax(2);
    EXPECT_EQ(obs::gauge("test.gauge").value(), 2);
    obs::gauge("test.gauge").setMax(-10);  // lower: no effect
    EXPECT_EQ(obs::gauge("test.gauge").value(), 2);
}

TEST_F(ObsTest, SnapshotAndDelta) {
    obs::counter("d.a").add(10);
    obs::counter("d.b").add(1);
    obs::histogram("d.h").observe(100);
    const obs::MetricsSnapshot before = obs::snapshotMetrics();

    obs::counter("d.a").add(5);
    obs::histogram("d.h").observe(7);
    obs::gauge("d.g").set(42);
    const obs::MetricsSnapshot after = obs::snapshotMetrics();

    const obs::MetricsSnapshot delta = obs::deltaMetrics(after, before);
    // d.b did not move: elided. d.a carries only the increment.
    std::uint64_t a = 0;
    bool sawB = false;
    for (const auto& [name, value] : delta.counters) {
        if (name == "d.a") a = value;
        if (name == "d.b") sawB = true;
    }
    EXPECT_EQ(a, 5u);
    EXPECT_FALSE(sawB);

    bool sawG = false;
    for (const auto& [name, value] : delta.gauges)
        if (name == "d.g") {
            sawG = true;
            EXPECT_EQ(value, 42);
        }
    EXPECT_TRUE(sawG);

    for (const auto& h : delta.histograms)
        if (h.name == "d.h") {
            EXPECT_EQ(h.count, 1u);
            EXPECT_EQ(h.sum, 7u);
        }
}

TEST_F(ObsTest, ApplyWorkerDelta) {
    obs::counter("w.jobs").add(2);
    obs::MetricsSnapshot delta;
    delta.counters.emplace_back("w.jobs", 3);
    delta.gauges.emplace_back("w.rss", 512);
    obs::HistogramSample h;
    h.name = "w.h";
    h.buckets[4] = 2;
    h.count = 2;
    h.sum = 20;
    delta.histograms.push_back(h);

    obs::applyWorkerDelta(delta, 1);
    EXPECT_EQ(obs::counter("w.jobs").value(), 5u);
    EXPECT_EQ(obs::gauge("w.rss.w1").value(), 512);
    EXPECT_EQ(obs::gauge("w.rss").value(), 512);  // running max
    EXPECT_EQ(obs::histogram("w.h").count(), 2u);
    EXPECT_EQ(obs::histogram("w.h").bucketCount(4), 2u);

    // A second, smaller worker must not lower the base gauge.
    obs::MetricsSnapshot delta2;
    delta2.gauges.emplace_back("w.rss", 100);
    obs::applyWorkerDelta(delta2, 0);
    EXPECT_EQ(obs::gauge("w.rss.w0").value(), 100);
    EXPECT_EQ(obs::gauge("w.rss").value(), 512);
}

TEST_F(ObsTest, SpansDrainInOrderWithIdentity) {
    obs::setJobFingerprint(0xabcdef);
    obs::emitSpan("t.one", "test", 100, 50);
    obs::emitSpan("t.two", "test", 200, 25, "k=v");
    obs::setJobFingerprint(0);
    const auto spans = obs::drainSpans();
    ASSERT_GE(spans.size(), 2u);
    // Find ours (other tests' threads may have contributed).
    const obs::Span* one = nullptr;
    const obs::Span* two = nullptr;
    for (const auto& s : spans) {
        if (s.name == "t.one") one = &s;
        if (s.name == "t.two") two = &s;
    }
    ASSERT_NE(one, nullptr);
    ASSERT_NE(two, nullptr);
    EXPECT_EQ(one->fp, 0xabcdefu);
    EXPECT_EQ(one->startNs, 100u);
    EXPECT_EQ(one->durNs, 50u);
    EXPECT_EQ(two->detail, "k=v");
    EXPECT_EQ(two->seq, one->seq + 1);  // per-thread monotone sequence
    EXPECT_EQ(one->pid, 0);

    // Drained: a second drain returns nothing new from this thread.
    for (const auto& s : obs::drainSpans()) {
        EXPECT_NE(s.name, "t.one");
        EXPECT_NE(s.name, "t.two");
    }
}

TEST_F(ObsTest, ScopedSpanRespectsEnableAndMinDuration) {
    {
        obs::ScopedSpan s("t.scoped", "test");
        EXPECT_TRUE(s.live());
        s.setDetail("x");
    }
    {
        // A generous gate no trivial scope can pass.
        obs::ScopedSpan s("t.gated", "test",
                          /*minDurNs=*/3'600'000'000'000ull);
    }
    obs::setEnabled(false);
    {
        obs::ScopedSpan s("t.disabled", "test");
        EXPECT_FALSE(s.live());
    }
    obs::setEnabled(true);

    bool sawScoped = false;
    for (const auto& s : obs::drainSpans()) {
        if (s.name == "t.scoped") sawScoped = true;
        EXPECT_NE(s.name, "t.gated");
        EXPECT_NE(s.name, "t.disabled");
    }
    EXPECT_TRUE(sawScoped);
}

TEST_F(ObsTest, AdoptedSpansComeBackOnNextDrain) {
    std::vector<obs::Span> foreign(1);
    foreign[0].name = "t.adopted";
    foreign[0].pid = 3;
    obs::adoptSpans(std::move(foreign));
    bool saw = false;
    for (const auto& s : obs::drainSpans())
        if (s.name == "t.adopted") {
            saw = true;
            EXPECT_EQ(s.pid, 3);
        }
    EXPECT_TRUE(saw);
}

TEST_F(ObsTest, SpansFromWorkerThreadsAreDrained) {
    std::thread t([] { obs::emitSpan("t.thread", "test", 1, 1); });
    t.join();
    bool saw = false;
    for (const auto& s : obs::drainSpans())
        if (s.name == "t.thread") saw = true;
    EXPECT_TRUE(saw);
}

TEST_F(ObsTest, ChromeTraceIsValidJson) {
    obs::emitSpan("t.json", "test", 1500, 2500, "detail \"quoted\"");
    const auto spans = obs::drainSpans();
    std::ostringstream os;
    obs::writeChromeTrace(os, spans, {{0, "pd test"}, {1, "pd worker 0"}});

    util::JsonValue doc;
    std::string error;
    ASSERT_TRUE(util::parseJson(os.str(), doc, &error)) << error;
    const util::JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    bool sawMeta = false;
    bool sawSpan = false;
    for (const auto& e : events->asArray()) {
        const auto& ph = e.find("ph")->asString();
        if (ph == "M") {
            sawMeta = true;
            EXPECT_EQ(e.find("name")->asString(), "process_name");
        }
        if (ph == "X" && e.find("name")->asString() == "t.json") {
            sawSpan = true;
            EXPECT_DOUBLE_EQ(e.find("ts")->asNumber(), 1.5);
            EXPECT_DOUBLE_EQ(e.find("dur")->asNumber(), 2.5);
            const util::JsonValue* detail = e.findPath("args.detail");
            ASSERT_NE(detail, nullptr);
            EXPECT_EQ(detail->asString(), "detail \"quoted\"");
        }
    }
    EXPECT_TRUE(sawMeta);
    EXPECT_TRUE(sawSpan);
    EXPECT_EQ(doc.find("displayTimeUnit")->asString(), "ms");
}

TEST_F(ObsTest, ObsDeltaCodecRoundTrips) {
    engine::shard::ObsDelta d;
    obs::Span s;
    s.name = "probe.sweep";
    s.cat = "probe";
    s.detail = "candidates=9";
    s.startNs = 123456789;
    s.durNs = 1000;
    s.fp = 0xdeadbeef;
    s.seq = 7;
    s.tid = 2;
    d.spans.push_back(s);
    d.metrics.counters.emplace_back("cache.hit", 4);
    d.metrics.gauges.emplace_back("worker.rss_mb", 321);
    obs::HistogramSample h;
    h.name = "persist.entry.bytes";
    h.buckets[9] = 3;
    h.count = 3;
    h.sum = 1200;
    d.metrics.histograms.push_back(h);

    const std::string payload = engine::shard::encodeObsDelta(d);
    const engine::shard::ObsDelta back =
        engine::shard::decodeObsDelta(payload);
    ASSERT_EQ(back.spans.size(), 1u);
    EXPECT_EQ(back.spans[0].name, "probe.sweep");
    EXPECT_EQ(back.spans[0].detail, "candidates=9");
    EXPECT_EQ(back.spans[0].startNs, 123456789u);
    EXPECT_EQ(back.spans[0].fp, 0xdeadbeefu);
    EXPECT_EQ(back.spans[0].seq, 7u);
    EXPECT_EQ(back.spans[0].tid, 2u);
    ASSERT_EQ(back.metrics.counters.size(), 1u);
    EXPECT_EQ(back.metrics.counters[0].first, "cache.hit");
    EXPECT_EQ(back.metrics.counters[0].second, 4u);
    ASSERT_EQ(back.metrics.gauges.size(), 1u);
    EXPECT_EQ(back.metrics.gauges[0].second, 321);
    ASSERT_EQ(back.metrics.histograms.size(), 1u);
    EXPECT_EQ(back.metrics.histograms[0].buckets[9], 3u);
    EXPECT_EQ(back.metrics.histograms[0].sum, 1200u);

    // Truncated payloads must error, not misparse.
    EXPECT_THROW(engine::shard::decodeObsDelta(
                     std::string_view(payload).substr(0, payload.size() - 3)),
                 std::exception);
}

TEST_F(ObsTest, LogLevelParsing) {
    EXPECT_EQ(log::parseLevel("debug"), log::Level::kDebug);
    EXPECT_EQ(log::parseLevel("info"), log::Level::kInfo);
    EXPECT_EQ(log::parseLevel("warn"), log::Level::kWarn);
    EXPECT_EQ(log::parseLevel("error"), log::Level::kError);
    EXPECT_EQ(log::parseLevel("off"), log::Level::kOff);
    // Typos fall back to the default rather than silencing errors.
    EXPECT_EQ(log::parseLevel("nonsense"), log::Level::kWarn);

    const log::Level saved = log::threshold();
    log::setThreshold(log::Level::kError);
    EXPECT_FALSE(log::enabled(log::Level::kWarn));
    EXPECT_TRUE(log::enabled(log::Level::kError));
    log::setThreshold(saved);
}

}  // namespace
}  // namespace pd
