// Sharded-engine tests: the frame codec (round-trips, hostile bytes —
// run under ASan/UBSan in CI), the worker argv codec (every worker field
// round-trips, malformed argv is rejected), end-to-end equivalence of
// sharded and in-process batches across --shards {1,2,4} over each
// worker's inherited socketpair (byte-identical stores),
// --jobs split across the workers (slot depths; two jobs in flight per
// worker match the in-process report and store), heartbeat liveness
// (beating workers survive, silent ones die at the deadline and their
// jobs retry elsewhere), crash isolation (respawn, retry budgets, clean
// per-job failure, cache completeness, and at depth 2 only the culprit
// charged), wall-budget kills, a worker answering one job twice or an
// unknown tag (wire poisons), worker-pool collapse → in-process
// fallback, spawn failure accounting, drain timeouts, graceful shutdown,
// and the pd_cli batch exit-code contract. Everything that can go wrong
// in a worker must cost at most its own job — never the batch, the
// report, or the store.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuits/registry.hpp"

#include "engine/engine.hpp"
#include "engine/persist/store.hpp"
#include "engine/report_json.hpp"
#include "engine/shard/coordinator.hpp"
#include "engine/shard/protocol.hpp"
#include "engine/shard/worker.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/fault/fault.hpp"
#include "util/parse.hpp"
#include "util/shutdown.hpp"

namespace pd::engine::shard {
namespace {

/// The pd_cli binary carrying the worker mode, baked in by CMake.
const char* workerExe() { return PD_SHARD_TEST_WORKER_EXE; }

class TempFile {
public:
    explicit TempFile(const std::string& tag)
        : path_(std::string(::testing::TempDir()) + "pd_shard_" + tag + "_" +
                std::to_string(::getpid()) + ".pdc") {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    [[nodiscard]] const std::string& path() const { return path_; }

private:
    std::string path_;
};

/// setenv/unsetenv with scope (the crash/hang hooks are env-driven).
class ScopedEnv {
public:
    ScopedEnv(const char* name, const char* value) : name_(name) {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

private:
    const char* name_;
};

/// Arms a fault plan for the test body and disarms every site on exit —
/// the coordinator forwards armed plans to its workers, so a leaked
/// plan would poison later tests in this binary.
class ScopedFaults {
public:
    explicit ScopedFaults(const std::string& plan) {
        std::string error;
        EXPECT_TRUE(fault::armPlan(plan, &error)) << error;
    }
    ~ScopedFaults() { fault::disarmAllForTest(); }
};

[[nodiscard]] EngineOptions shardOptions(std::size_t shards,
                                         std::string cacheFile = {}) {
    EngineOptions opt;
    opt.shards = shards;
    opt.jobs = 2;
    opt.cacheFile = std::move(cacheFile);
    opt.shardWorkerExe = workerExe();
    return opt;
}

[[nodiscard]] std::vector<JobSpec> benchSpecs(
    std::initializer_list<const char*> names) {
    std::vector<JobSpec> specs;
    for (const char* name : names) {
        JobSpec s;
        s.benchmark = name;
        specs.push_back(std::move(s));
    }
    return specs;
}

[[nodiscard]] std::vector<JobSpec> lightSpecs() {
    auto specs = benchSpecs({"majority7", "counter8", "adder8"});
    JobSpec expr;
    expr.name = "maj-expr";
    expr.expressions = {"maj=a*b ^ a*c ^ b*c"};
    specs.push_back(std::move(expr));
    return specs;
}

/// Reads a whole file (empty when missing).
std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// Everything except timings, shard provenance and cache tier — the
/// fields the sharded/in-process equivalence contract excludes.
void expectSameSemantics(const JobResult& a, const JobResult& b) {
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.leaders, b.leaders);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.budgetExhausted, b.budgetExhausted);
    EXPECT_EQ(a.qor.area, b.qor.area);
    EXPECT_EQ(a.qor.delay, b.qor.delay);
    EXPECT_EQ(a.qor.gates, b.qor.gates);
    EXPECT_EQ(a.levels, b.levels);
    EXPECT_EQ(a.interconnect, b.interconnect);
    EXPECT_EQ(a.verification, b.verification);
    EXPECT_EQ(a.vectorsTested, b.vectorsTested);
    EXPECT_EQ(a.exhaustive, b.exhaustive);
    EXPECT_EQ(a.cacheKey, b.cacheKey);
}

void expectSameNetlist(const netlist::Netlist& a, const netlist::Netlist& b) {
    ASSERT_EQ(a.numNets(), b.numNets());
    for (netlist::NetId id = 0; id < a.numNets(); ++id) {
        EXPECT_EQ(a.gate(id).type, b.gate(id).type);
        EXPECT_EQ(a.gate(id).in, b.gate(id).in);
    }
    ASSERT_EQ(a.outputs().size(), b.outputs().size());
    for (std::size_t i = 0; i < a.outputs().size(); ++i) {
        EXPECT_EQ(a.outputs()[i].name, b.outputs()[i].name);
        EXPECT_EQ(a.outputs()[i].net, b.outputs()[i].net);
    }
}

/// A result payload carrying one store record: a cache entry with a
/// small netlist.
[[nodiscard]] std::string recordsResultPayload() {
    JobResult value;
    value.ok = true;
    value.blocks = 2;
    netlist::Netlist nl;
    const auto a = nl.addInput("a");
    const auto b = nl.addInput("b");
    nl.markOutput("y", nl.addGate(netlist::GateType::kXor, a, b));
    value.mapped = std::move(nl);
    StoreRecords records;
    records.push_back({util::digestOf("key"),
                       std::make_shared<const JobResult>(value)});
    JobResult r;
    r.name = "xor2";
    r.ok = true;
    r.cacheKey = util::digestOf("key").hex();
    return encodeResult(7, r, records);
}

// ---- framing codec ---------------------------------------------------------

TEST(ShardProtocol, FrameRoundTripInArbitraryChunks) {
    std::string stream;
    appendFrame(stream, FrameType::kHello, encodeHello({kProtocolVersion, 7}));
    appendFrame(stream, FrameType::kShutdown, "");
    appendFrame(stream, FrameType::kResult, recordsResultPayload());

    // Byte-at-a-time feeding must yield exactly the three frames.
    FrameDecoder d;
    std::vector<Frame> frames;
    for (const char c : stream) {
        d.feed(std::string_view(&c, 1));
        while (auto f = d.next()) frames.push_back(std::move(*f));
    }
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_TRUE(d.drained());
    EXPECT_EQ(frames[0].type, FrameType::kHello);
    const Hello h = decodeHello(frames[0].payload);
    EXPECT_EQ(h.version, kProtocolVersion);
    EXPECT_EQ(h.shardId, 7u);
    EXPECT_EQ(frames[1].type, FrameType::kShutdown);
    EXPECT_TRUE(frames[1].payload.empty());
    EXPECT_EQ(frames[2].type, FrameType::kResult);
    const auto [tag, result, records] = decodeResult(frames[2].payload);
    EXPECT_EQ(tag, 7u);
    EXPECT_EQ(result.name, "xor2");
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].key, util::digestOf("key"));
    EXPECT_EQ(records[0].value->mapped.outputs().size(), 1u);
}

TEST(ShardProtocol, JobSpecRoundTrip) {
    JobSpec spec;
    spec.name = "roundtrip";
    spec.benchmark = "majority7";
    spec.expressions = {"f=a*b ^ c", "g=a ^ b"};
    spec.options.k = 3;
    spec.options.identityMaxDegree = 5;
    spec.options.useLinearMinimize = false;
    spec.options.complementNullspace = true;
    spec.options.maxIterations = 17;
    spec.options.maxExhaustiveCombinations = 1234;
    spec.options.mergeAttemptBudget = 99;
    spec.options.recordTrace = false;
    spec.verify = false;
    spec.keepMapped = true;

    const auto [tag, back] = decodeJob(encodeJob(0xfeedbeefu, spec));
    EXPECT_EQ(tag, 0xfeedbeefu);
    EXPECT_EQ(back.name, spec.name);
    EXPECT_EQ(back.benchmark, spec.benchmark);
    EXPECT_EQ(back.expressions, spec.expressions);
    EXPECT_EQ(back.options.k, spec.options.k);
    EXPECT_EQ(back.options.identityMaxDegree, spec.options.identityMaxDegree);
    EXPECT_EQ(back.options.useLinearMinimize, spec.options.useLinearMinimize);
    EXPECT_EQ(back.options.useSizeReduction, spec.options.useSizeReduction);
    EXPECT_EQ(back.options.useIdentities, spec.options.useIdentities);
    EXPECT_EQ(back.options.useNullspaceMerging,
              spec.options.useNullspaceMerging);
    EXPECT_EQ(back.options.complementNullspace,
              spec.options.complementNullspace);
    EXPECT_EQ(back.options.maxIterations, spec.options.maxIterations);
    EXPECT_EQ(back.options.maxExhaustiveCombinations,
              spec.options.maxExhaustiveCombinations);
    EXPECT_EQ(back.options.mergeAttemptBudget,
              spec.options.mergeAttemptBudget);
    EXPECT_EQ(back.options.recordTrace, spec.options.recordTrace);
    EXPECT_EQ(back.verify, spec.verify);
    EXPECT_EQ(back.keepMapped, spec.keepMapped);
}

TEST(ShardProtocol, BenchPointerSpecRefusesTheWire) {
    JobSpec spec;
    spec.bench = std::make_shared<const circuits::Benchmark>();
    EXPECT_FALSE(wireSerializable(spec));
    EXPECT_THROW((void)encodeJob(0, spec), pd::Error);
}

TEST(ShardProtocol, ResultRoundTrip) {
    JobResult r;
    r.name = "res";
    r.ok = true;
    r.blocks = 4;
    r.iterations = 6;
    r.leaders = 5;
    r.converged = true;
    r.budgetExhausted = true;
    r.qor.area = 99.5;
    r.qor.delay = 0.25;
    r.qor.gates = 12;
    r.levels = 3;
    r.interconnect = 21;
    r.verification = VerifyStatus::kSimulated;
    r.vectorsTested = 128;
    r.exhaustive = true;
    r.wallMs = 12.5;
    r.cpuMs = 11.25;
    r.phases.resolveMs = 0.25;
    r.phases.digestMs = 0.125;
    r.phases.cacheLookupMs = 2.5;
    r.phases.decomposeMs = 7.5;
    r.phases.verifyMs = 1.5;
    r.cacheHit = true;
    r.cacheSource = CacheSource::kDisk;
    r.cacheKey = util::digestOf("job").hex();

    auto [tag, back, records] = decodeResult(encodeResult(42, r, {}));
    EXPECT_EQ(tag, 42u);
    expectSameSemantics(r, back);
    EXPECT_EQ(back.wallMs, r.wallMs);
    EXPECT_EQ(back.cpuMs, r.cpuMs);
    EXPECT_EQ(back.phases.resolveMs, r.phases.resolveMs);
    EXPECT_EQ(back.phases.digestMs, r.phases.digestMs);
    EXPECT_EQ(back.phases.cacheLookupMs, r.phases.cacheLookupMs);
    EXPECT_EQ(back.phases.decomposeMs, r.phases.decomposeMs);
    EXPECT_EQ(back.phases.verifyMs, r.phases.verifyMs);
    EXPECT_EQ(back.cacheHit, r.cacheHit);
    EXPECT_EQ(back.cacheSource, r.cacheSource);
    EXPECT_TRUE(records.empty());
}

TEST(ShardProtocol, TruncationIsIncompleteNotAnError) {
    std::string stream;
    appendFrame(stream, FrameType::kResult, recordsResultPayload());
    // Every proper prefix must park the decoder (nullopt), never throw:
    // a stream socket delivers frames in arbitrary cuts.
    for (std::size_t keep = 0; keep < stream.size(); ++keep) {
        FrameDecoder d;
        d.feed(stream.substr(0, keep));
        EXPECT_FALSE(d.next().has_value()) << "prefix " << keep;
    }
}

TEST(ShardProtocol, MalformedHeadersThrow) {
    // Unknown frame type.
    {
        FrameDecoder d;
        d.feed(std::string("\x2a\x00\x00\x00\x00", 5));
        EXPECT_THROW((void)d.next(), pd::Error);
        // Poisoned decoders refuse further use instead of resyncing on
        // garbage.
        EXPECT_THROW((void)d.next(), pd::Error);
    }
    // The per-record types v8 retired (cache, proof, index entries) are
    // unknown too, even in an otherwise well-formed frame.
    for (const std::uint8_t retired : {5, 8, 10}) {
        std::string stream;
        appendFrame(stream, static_cast<FrameType>(retired), "record");
        FrameDecoder d;
        d.feed(stream);
        try {
            (void)d.next();
            ADD_FAILURE() << "type " << int{retired} << " decoded";
        } catch (const pd::Error& e) {
            EXPECT_NE(std::string(e.what()).find("unknown frame type " +
                                                 std::to_string(retired)),
                      std::string::npos)
                << e.what();
        }
    }
    // Length above the protocol limit must throw immediately — not wait
    // for (or allocate) a gigabyte body.
    {
        FrameDecoder d;
        std::string hdr;
        hdr.push_back(static_cast<char>(FrameType::kJob));
        for (const unsigned char c : {0xff, 0xff, 0xff, 0x7f})
            hdr.push_back(static_cast<char>(c));
        d.feed(hdr);
        EXPECT_THROW((void)d.next(), pd::Error);
    }
    // Flipped payload byte: checksum must catch it.
    {
        std::string stream;
        appendFrame(stream, FrameType::kResult, recordsResultPayload());
        stream[7] = static_cast<char>(stream[7] ^ 0x10);
        FrameDecoder d;
        d.feed(stream);
        EXPECT_THROW((void)d.next(), pd::Error);
    }
}

TEST(ShardProtocol, HeartbeatRoundTrip) {
    Heartbeat hb;
    hb.shardId = 3;
    hb.seq = 0x1122334455667788ull;
    const Heartbeat back = decodeHeartbeat(encodeHeartbeat(hb));
    EXPECT_EQ(back.shardId, hb.shardId);
    EXPECT_EQ(back.seq, hb.seq);
    // Trailing junk is a protocol violation, exactly like every other
    // payload decoder.
    EXPECT_THROW((void)decodeHeartbeat(encodeHeartbeat(hb) + "x"),
                 pd::Error);
    EXPECT_THROW((void)decodeHeartbeat("123"), pd::Error);
}

TEST(ShardProtocol, PoisonDetailNamesFrameAndOffset) {
    // A poisoned decoder must say *where* the stream went bad: one clean
    // frame, then a corrupted one, so the detail pins frame 1 at the
    // offset right after the first frame's bytes.
    std::string stream;
    appendFrame(stream, FrameType::kHello, encodeHello({kProtocolVersion, 0}));
    const std::size_t firstFrameBytes = stream.size();
    appendFrame(stream, FrameType::kResult, recordsResultPayload());
    stream[firstFrameBytes + 7] =
        static_cast<char>(stream[firstFrameBytes + 7] ^ 0x10);
    FrameDecoder d;
    d.feed(stream);
    ASSERT_TRUE(d.next().has_value());  // the clean hello
    try {
        (void)d.next();
        FAIL() << "corrupted frame must throw";
    } catch (const pd::Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("at frame 1"), std::string::npos) << what;
        EXPECT_NE(what.find("stream offset " +
                            std::to_string(firstFrameBytes)),
                  std::string::npos)
            << what;
    }
    EXPECT_TRUE(d.poisoned());
}

/// Property test: random frame streams — each ending in a
/// records-carrying kResult — round-trip; any single-bit mutation either
/// still decodes (frames before the damage, whose results decode too),
/// parks, or throws pd::Error — never UB (ASan/UBSan legs enforce the
/// "never").
TEST(ShardProtocol, FuzzMutatedStreamsNeverMisbehave) {
    std::uint64_t rng = 0x243f6a8885a308d3ull;
    const auto rnd = [&rng](std::uint64_t bound) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        return (rng >> 33) % bound;
    };
    const FrameType types[] = {FrameType::kHello,    FrameType::kJob,
                               FrameType::kShutdown, FrameType::kBye,
                               FrameType::kObs,      FrameType::kHeartbeat};
    constexpr std::size_t kTypeCount = sizeof(types) / sizeof(types[0]);
    const std::string resultPayload = recordsResultPayload();
    for (int round = 0; round < 8; ++round) {
        std::string stream;
        const std::size_t frames = 1 + rnd(4);
        for (std::size_t f = 1; f < frames; ++f) {
            std::string payload(rnd(40), '\0');
            for (auto& c : payload) c = static_cast<char>(rnd(256));
            appendFrame(stream, types[rnd(kTypeCount)], payload);
        }
        appendFrame(stream, FrameType::kResult, resultPayload);
        {  // clean stream decodes completely
            FrameDecoder d;
            d.feed(stream);
            std::size_t n = 0;
            while (d.next()) ++n;
            EXPECT_EQ(n, frames);
            EXPECT_TRUE(d.drained());
        }
        for (std::size_t pos = 0; pos < stream.size(); ++pos) {
            std::string bad = stream;
            bad[pos] = static_cast<char>(bad[pos] ^ (1u << rnd(8)));
            FrameDecoder d;
            d.feed(bad);
            try {
                while (auto f = d.next())
                    if (f->type == FrameType::kResult)
                        (void)decodeResult(f->payload);
            } catch (const pd::Error&) {
                // detected damage: exactly what the protocol promises
            }
        }
    }
    // The checksum shields decodeResult from the flips above, so flip the
    // payload itself too: every damaged result decodes or throws.
    for (std::size_t pos = 0; pos < resultPayload.size(); ++pos) {
        std::string bad = resultPayload;
        bad[pos] = static_cast<char>(bad[pos] ^ (1u << rnd(8)));
        try {
            (void)decodeResult(bad);
        } catch (const pd::Error&) {
        }
    }
}

// ---- worker argv codec -----------------------------------------------------

TEST(ShardWorkerArgs, EveryWorkerFieldSurvivesTheRoundTrip) {
    EngineOptions e;
    e.jobs = 3;
    e.cacheCapacity = 7;
    e.conflictBudget = 11;
    e.probeThreads = 3;
    e.verifyThreads = true;
    e.verifyConflictBudget = 123456789012ull;
    e.verifyPropagationBudget = 987654321098ull;
    e.equiv.exhaustiveLimitBits = 9;
    e.equiv.randomBatches = 13;
    e.equiv.seed = 0xfedcba9876543210ull;
    e.cacheFile = "some dir/warm.pdc";
    e.shardRssMb = 4096;
    e.shardHeartbeatMs = 0;  // non-default: supervision off

    const std::vector<std::string> args = encodeWorkerArgs(17, e);
    std::string error;
    const auto w = decodeWorkerArgs(args, error);
    ASSERT_TRUE(w.has_value()) << error;
    EXPECT_EQ(w->shardId, 17u);
    EXPECT_FALSE(w->obs);
    const EngineOptions& d = w->engine;
    EXPECT_EQ(d.jobs, e.jobs);
    EXPECT_EQ(d.cacheCapacity, e.cacheCapacity);
    EXPECT_EQ(d.conflictBudget, e.conflictBudget);
    EXPECT_EQ(d.probeThreads, e.probeThreads);
    EXPECT_EQ(d.verifyThreads, e.verifyThreads);
    EXPECT_EQ(d.verifyConflictBudget, e.verifyConflictBudget);
    EXPECT_EQ(d.verifyPropagationBudget, e.verifyPropagationBudget);
    EXPECT_EQ(d.equiv.exhaustiveLimitBits, e.equiv.exhaustiveLimitBits);
    EXPECT_EQ(d.equiv.randomBatches, e.equiv.randomBatches);
    EXPECT_EQ(d.equiv.seed, e.equiv.seed);
    EXPECT_EQ(d.cacheFile, e.cacheFile);
    EXPECT_EQ(d.shardRssMb, e.shardRssMb);
    EXPECT_EQ(d.shardHeartbeatMs, e.shardHeartbeatMs);
    // The store stays fingerprint-compatible with the coordinator's.
    EXPECT_EQ(persistFingerprint(d), persistFingerprint(e));
}

TEST(ShardWorkerArgs, TracingAndArmedFaultPlansAreForwarded) {
    ScopedFaults faults("shard.worker.crash:n3");
    const bool wasEnabled = obs::enabled();
    obs::setEnabled(true);
    const auto args = encodeWorkerArgs(0, EngineOptions{});
    obs::setEnabled(wasEnabled);
    std::string error;
    const auto w = decodeWorkerArgs(args, error);
    ASSERT_TRUE(w.has_value()) << error;
    EXPECT_TRUE(w->obs);
    const auto fault = std::find(args.begin(), args.end(), "--fault");
    ASSERT_NE(fault, args.end());
    ASSERT_NE(fault + 1, args.end());
    EXPECT_EQ(fault[1], fault::armedPlans().front());
}

TEST(ShardWorkerArgs, DecodeRejectsUnknownFlagsMissingValuesAndJunk) {
    const auto rejects = [](std::vector<std::string> args,
                            const std::string& expected) {
        std::string error;
        EXPECT_FALSE(decodeWorkerArgs(args, error).has_value())
            << args.front();
        EXPECT_NE(error.find(expected), std::string::npos) << error;
    };
    rejects({"--merge-budget", "5"}, "unknown worker option '--merge-budget'");
    rejects({"--budget"}, "--budget expects a value");
    rejects({"--shard-id"}, "--shard-id expects a value");
    rejects({"--cache-file"}, "--cache-file expects a value");
    rejects({"--budget", "12x"}, "non-negative integer, got '12x'");
    rejects({"--equiv-seed", "-1"}, "non-negative integer, got '-1'");
    rejects({"--shard-id", "4294967296"}, "(out of range)");
    rejects({"--heartbeat-ms", "99999999999"}, "expects at most");
    // Thread counts are capped before a worker starts any thread.
    rejects({"--jobs", "257"}, "expects at most 256");
    rejects({"--probe-threads", "257"}, "expects at most 256");
    // SAT verify is off or on; a count sizes nothing.
    rejects({"--verify-threads", "2"}, "expects 0 (off) or 1 (on), got '2'");
    rejects({"--verify-threads", "256"}, "--probe-threads size the");
    rejects({"--verify-threads", "01"}, "expects 0 (off) or 1 (on)");

    std::string error;
    const auto defaults = decodeWorkerArgs({}, error);
    ASSERT_TRUE(defaults.has_value()) << error;
    EXPECT_EQ(defaults->engine.shardHeartbeatMs,
              EngineOptions{}.shardHeartbeatMs);

    // The cap itself is accepted (decoding starts no thread), and so are
    // both verify settings.
    const std::vector<std::string> atCap = {
        "--jobs", "256", "--probe-threads", "256", "--verify-threads", "1"};
    const auto capped = decodeWorkerArgs(atCap, error);
    ASSERT_TRUE(capped.has_value()) << error;
    EXPECT_EQ(capped->engine.jobs, util::kMaxParallelism);
    EXPECT_EQ(capped->engine.probeThreads, util::kMaxParallelism);
    EXPECT_TRUE(capped->engine.verifyThreads);
    const std::vector<std::string> verifyOff = {"--verify-threads", "0"};
    const auto off = decodeWorkerArgs(verifyOff, error);
    ASSERT_TRUE(off.has_value()) << error;
    EXPECT_FALSE(off->engine.verifyThreads);
}

TEST(ParseParallelism, RejectsCountsAboveTheCap) {
    std::string error;
    std::size_t out = 0;
    EXPECT_TRUE(util::parseParallelism("--jobs", "0", out, error));
    EXPECT_EQ(out, 0u);
    EXPECT_TRUE(util::parseParallelism("--jobs", "256", out, error));
    EXPECT_EQ(out, util::kMaxParallelism);
    for (const char* text : {"257", "1000000", "18446744073709551615"}) {
        error.clear();
        EXPECT_FALSE(util::parseParallelism("--shards", text, out, error))
            << text;
        EXPECT_NE(error.find("option --shards expects at most 256"),
                  std::string::npos)
            << error;
    }
    EXPECT_FALSE(util::parseParallelism("--jobs", "18446744073709551616",
                                        out, error));
    EXPECT_NE(error.find("(out of range)"), std::string::npos) << error;
    EXPECT_FALSE(util::parseParallelism("--jobs", "4x", out, error));
}

TEST(ShardCoordinator, SlotDepthsSplitTheJobs) {
    using Depths = std::vector<std::size_t>;
    EXPECT_EQ(slotDepths(4, 3), (Depths{2, 1, 1}));
    EXPECT_EQ(slotDepths(1, 2), (Depths{1, 1}));
    EXPECT_EQ(slotDepths(8, 2), (Depths{4, 4}));
    EXPECT_EQ(slotDepths(4, 2), (Depths{2, 2}));
    EXPECT_EQ(slotDepths(0, 2), (Depths{1, 1}));  // jobs 0 means 1
    EXPECT_EQ(slotDepths(7, 1), (Depths{7}));
    EXPECT_TRUE(slotDepths(4, 0).empty());
}

// ---- end-to-end ------------------------------------------------------------

TEST(ShardEngine, ShardedBatchesMatchInProcessAcross124) {
    auto specs = lightSpecs();
    // An unnamed job reports as "job<its batch index>" on either path.
    JobSpec unnamed;
    unnamed.expressions = {"x=a ^ b*c"};
    specs.push_back(std::move(unnamed));
    const auto reference = Engine(shardOptions(0)).runBatch(specs);
    for (const auto& r : reference) ASSERT_TRUE(r.ok) << r.error;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}}) {
        Engine engine(shardOptions(shards));
        const auto results = engine.runBatch(specs);
        ASSERT_EQ(results.size(), reference.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            ASSERT_TRUE(results[i].ok)
                << "shards=" << shards << ": " << results[i].error;
            expectSameSemantics(reference[i], results[i]);
            EXPECT_GE(results[i].shard, 0) << "shards=" << shards;
        }
    }
}

/// The report's jobs array with the fields a schedule may change — the
/// timings and the shard that ran the job — cleared.
std::string jobsWithoutTimingOrShard(std::vector<JobResult> results) {
    for (auto& r : results) {
        r.wallMs = 0.0;
        r.cpuMs = 0.0;
        r.phases = {};
        r.shard = -1;
    }
    std::ostringstream os;
    writeBatchReport(os, EngineOptions{}, results, ResultCache::Stats{});
    const std::string doc = os.str();
    const auto from = doc.find("\"jobs\":");
    const auto to = doc.find("\"resilience\":");
    EXPECT_NE(from, std::string::npos);
    EXPECT_NE(to, std::string::npos);
    return doc.substr(from, to - from);
}

TEST(ShardEngine, FourJobsOverTwoShardsEqualTheInProcessBatch) {
    // Two jobs in flight per worker: results come back in any order,
    // each tagged with its job, and each carries exactly its own
    // records, so the report and the store match the in-process run.
    auto specs = lightSpecs();
    for (auto& s : benchSpecs({"lzd16", "comparator8", "majority15",
                               "lod16"}))
        specs.push_back(std::move(s));
    TempFile inproc("jobs4_inproc");
    TempFile sharded("jobs4_sharded");
    std::vector<std::string> jobs;
    for (const std::size_t shards : {std::size_t{0}, std::size_t{2}}) {
        EngineOptions opt =
            shardOptions(shards, (shards ? sharded : inproc).path());
        opt.jobs = 4;
        Engine engine(opt);
        const auto results = engine.runBatch(specs);
        for (const auto& r : results) {
            ASSERT_TRUE(r.ok) << r.name << ": " << r.error;
            EXPECT_EQ(r.shard >= 0, shards > 0) << r.name;
        }
        jobs.push_back(jobsWithoutTimingOrShard(results));
        EXPECT_EQ(engine.resilience().retries, 0u);
        ASSERT_TRUE(engine.flushCache());
    }
    EXPECT_EQ(jobs[0], jobs[1]);
    ASSERT_GT(slurp(inproc.path()).size(), 0u);
    EXPECT_EQ(slurp(inproc.path()), slurp(sharded.path()));
}

TEST(ShardEngine, ProbeThreadsStayByteIdenticalAcrossTheWire) {
    // The probe sweep is deterministic at any thread count, so a sharded
    // run whose workers fan probes out over --probe-threads (plumbed via
    // the worker argv) must match the sequential in-process run
    // semantically, field for field.
    const auto specs = lightSpecs();
    const auto reference = Engine(shardOptions(0)).runBatch(specs);
    for (const auto& r : reference) ASSERT_TRUE(r.ok) << r.error;

    auto opt = shardOptions(2);
    opt.probeThreads = 2;
    Engine engine(opt);
    const auto results = engine.runBatch(specs);
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].ok) << results[i].error;
        expectSameSemantics(reference[i], results[i]);
        EXPECT_GE(results[i].shard, 0);
    }
}

TEST(ShardEngine, KeepMappedNetlistCrossesTheWireIntact) {
    JobSpec spec;
    spec.benchmark = "majority7";
    spec.keepMapped = true;
    const auto reference = Engine(shardOptions(0)).runJob(spec);
    ASSERT_TRUE(reference.ok) << reference.error;
    const auto sharded = Engine(shardOptions(2)).runJob(spec);
    ASSERT_TRUE(sharded.ok) << sharded.error;
    expectSameSemantics(reference, sharded);
    expectSameNetlist(reference.mapped, sharded.mapped);
}

TEST(ShardEngine, BenchPointerSpecsRunOnTheLocalLane) {
    auto bench = circuits::makeNamedBenchmark("counter8");
    ASSERT_TRUE(bench.has_value());
    JobSpec local;
    local.name = "local-lane";
    local.bench = std::make_shared<const circuits::Benchmark>(*bench);
    JobSpec wire;
    wire.benchmark = "majority7";

    Engine engine(shardOptions(2));
    const auto results = engine.runBatch({local, wire});
    ASSERT_EQ(results.size(), 2u);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    ASSERT_TRUE(results[1].ok) << results[1].error;
    EXPECT_EQ(results[0].shard, -1);  // executed in this process
    EXPECT_GE(results[1].shard, 0);   // executed in a worker
}

TEST(ShardEngine, ShardedStoreIsByteIdenticalToInProcess) {
    const auto specs = lightSpecs();
    TempFile inproc("store_inproc");
    TempFile sharded("store_sharded");
    {
        Engine engine(shardOptions(0, inproc.path()));
        for (const auto& r : engine.runBatch(specs))
            ASSERT_TRUE(r.ok) << r.error;
        ASSERT_TRUE(engine.flushCache());
    }
    {
        Engine engine(shardOptions(2, sharded.path()));
        for (const auto& r : engine.runBatch(specs))
            ASSERT_TRUE(r.ok) << r.error;
        ASSERT_TRUE(engine.flushCache());
    }
    std::ifstream a(inproc.path(), std::ios::binary);
    std::ifstream b(sharded.path(), std::ios::binary);
    std::stringstream sa, sb;
    sa << a.rdbuf();
    sb << b.rdbuf();
    ASSERT_GT(sa.str().size(), 0u);
    EXPECT_EQ(sa.str(), sb.str())
        << "a sharded run must leave the same warm artifact bits a "
           "single-process run would";
}

TEST(ShardEngine, WorkersWarmStartFromASharedStore) {
    const auto specs = lightSpecs();
    TempFile store("warm");
    {
        Engine engine(shardOptions(2, store.path()));
        for (const auto& r : engine.runBatch(specs))
            ASSERT_TRUE(r.ok) << r.error;
        ASSERT_TRUE(engine.flushCache());
    }
    Engine warm(shardOptions(2, store.path()));
    const auto results = warm.runBatch(specs);
    for (const auto& r : results) {
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_TRUE(r.cacheHit) << r.name;
        EXPECT_EQ(r.cacheSource, CacheSource::kDisk) << r.name;
    }
}

TEST(ShardEngine, NonDefaultVerifyKnobsReachTheWorkers) {
    // Sampled simulation (every benchmark wider than 6 inputs under
    // 3 random batches) and a SAT budget that binds on every job both
    // change stored verification fields, so a worker that missed either
    // knob would flush different bytes.
    const auto specs = lightSpecs();
    const auto configure = [](std::size_t shards, const TempFile& cache) {
        EngineOptions opt = shardOptions(shards, cache.path());
        opt.equiv.exhaustiveLimitBits = 6;
        opt.equiv.randomBatches = 3;
        opt.verifyThreads = true;
        opt.verifyConflictBudget = 1;
        return opt;
    };
    TempFile inCache("knobs_inproc");
    TempFile shCache("knobs_sharded");
    for (const std::size_t shards : {std::size_t{0}, std::size_t{2}}) {
        const TempFile& cache = shards == 0 ? inCache : shCache;
        Engine engine(configure(shards, cache));
        for (const auto& r : engine.runBatch(specs)) {
            ASSERT_TRUE(r.ok) << r.error;
            if (r.name != "maj-expr") {
                EXPECT_FALSE(r.exhaustive) << r.name;
                EXPECT_TRUE(r.satVerify.budgetExhausted) << r.name;
            }
        }
        ASSERT_TRUE(engine.flushCache());
    }
    ASSERT_GT(slurp(inCache.path()).size(), 0u);
    EXPECT_EQ(slurp(inCache.path()), slurp(shCache.path()));
}

TEST(ShardEngine, HugeRssBudgetMeansNoBudget) {
    // 2^44 MiB in bytes overflows rlim_t; it must act as "unlimited",
    // never wrap to a zero address-space limit that kills every spawn.
    EngineOptions opt = shardOptions(1);
    opt.shardRssMb = std::size_t{1} << 44;
    Engine engine(opt);
    for (const auto& r : engine.runBatch(lightSpecs())) {
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_GE(r.shard, 0) << r.name;
    }
    EXPECT_EQ(engine.resilience().workerCrashes, 0u);
    EXPECT_EQ(engine.resilience().fallbackJobs, 0u);
}

// ---- socket transport & liveness ------------------------------------------

TEST(ShardTransport, SocketBatchesMatchInProcessAcross12) {
    // The transport is pure plumbing: the same pd-shard-wire frames over
    // each worker's socketpair must yield field-identical results.
    const auto specs = lightSpecs();
    const auto reference = Engine(shardOptions(0)).runBatch(specs);
    for (const auto& r : reference) ASSERT_TRUE(r.ok) << r.error;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
        Engine engine(shardOptions(shards));
        const auto results = engine.runBatch(specs);
        ASSERT_EQ(results.size(), reference.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            ASSERT_TRUE(results[i].ok)
                << "shards=" << shards << ": " << results[i].error;
            expectSameSemantics(reference[i], results[i]);
            EXPECT_GE(results[i].shard, 0) << "shards=" << shards;
        }
        // Fault-free socket run: liveness machinery must stay silent.
        EXPECT_EQ(engine.resilience().heartbeatMisses, 0u);
        EXPECT_EQ(engine.resilience().deadlineKills, 0u);
        EXPECT_EQ(engine.resilience().wirePoisons, 0u);
    }
}

TEST(ShardLiveness, HeartbeatsKeepAHangingWorkerAlivePastTheDeadline) {
    // A worker parked inside a job keeps beating from the pump thread,
    // so a deadline several beats long must never fire — the wall
    // budget, not liveness, owns the hung-job failure mode. This also
    // pins the supervision rule: any received bytes (a beat, a partial
    // kResult) reset the silence clock, so a live-but-busy worker is
    // never killed mid-frame.
    ScopedEnv hang(kHangJobEnv, "majority7");
    EngineOptions opt = shardOptions(1);
    opt.shardWallMsPerJob = 1200;
    opt.shardHeartbeatMs = 300;  // four 75 ms beats per deadline
    Engine engine(opt);
    JobSpec s;
    s.benchmark = "majority7";
    const auto results = engine.runBatch({s});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_NE(results[0].error.find("wall budget"), std::string::npos)
        << results[0].error;
    EXPECT_EQ(engine.resilience().heartbeatMisses, 0u);
    EXPECT_EQ(engine.resilience().deadlineKills, 0u);
}

TEST(ShardLiveness, SilentWorkerIsKilledAtTheDeadlineAndTheJobRetried) {
    // SIGSTOP freezes the whole worker — pump included — so only the
    // coordinator's heartbeat deadline can reap it. The victim job is
    // retried on another worker (which stalls on the same name, so the
    // final verdict is the retried-once failure); every other job
    // survives and the coordinator never hangs.
    ScopedEnv stall(kStallJobEnv, "counter8");
    EngineOptions opt = shardOptions(2);
    opt.shardHeartbeatMs = 400;
    Engine engine(opt);
    const auto results = engine.runBatch(lightSpecs());
    ASSERT_EQ(results.size(), 4u);
    for (const auto& r : results) {
        if (r.name == "counter8") {
            EXPECT_FALSE(r.ok);
            EXPECT_NE(r.error.find("heartbeat deadline"), std::string::npos)
                << r.error;
            EXPECT_NE(r.error.find("retried once"), std::string::npos)
                << r.error;
        } else {
            EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
        }
    }
    const auto& res = engine.resilience();
    EXPECT_GE(res.heartbeatMisses, 1u);
    EXPECT_GE(res.deadlineKills, 1u);
    EXPECT_GE(res.retries, 1u);
}

TEST(ShardLiveness, OneSkippedBeatNeverKills) {
    // The deadline is four beat intervals exactly so a single lost
    // heartbeat (scheduling jitter, a dropped wakeup) is harmless.
    ScopedFaults faults("shard.sock.hb.skip:n1");
    EngineOptions opt = shardOptions(2);
    opt.shardHeartbeatMs = 400;
    Engine engine(opt);
    const auto results = engine.runBatch(lightSpecs());
    for (const auto& r : results)
        EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
    EXPECT_EQ(engine.resilience().deadlineKills, 0u);
}

TEST(ShardLiveness, BeatingWorkerSurvivesDrainUntilTheDrainBudget) {
    // A worker wedged in shutdown keeps beating, so drain-time liveness
    // supervision must not reap it early — only the drain budget may.
    // (The converse — a *silent* drain straggler dying at the heartbeat
    // deadline instead of the full drain budget — is why supervision
    // runs in the drain loop at all.)
    ScopedFaults faults("shard.worker.drain.hang:n1");
    EngineOptions opt = shardOptions(1);
    opt.shardHeartbeatMs = 300;
    opt.shardDrainMs = 1000;
    Engine engine(opt);
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = engine.runBatch(lightSpecs());
    const auto elapsedMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    for (const auto& r : results)
        EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
    EXPECT_EQ(engine.resilience().heartbeatMisses, 0u);
    EXPECT_EQ(engine.resilience().deadlineKills, 0u);
    EXPECT_LT(elapsedMs, 30000) << "drain must still time out";
}

TEST(ShardLiveness, TornConnectionMidStreamIsACountedCrash) {
    // shard.sock.read simulates the coordinator-side half of a torn
    // connection: the worker is killed, the death is charged like any
    // crash, the slot respawns (a counted reconnect), and the batch
    // completes.
    ScopedFaults faults("shard.sock.read:n2");
    Engine engine(shardOptions(2));
    const auto results = engine.runBatch(lightSpecs());
    ASSERT_EQ(results.size(), 4u);
    const auto& res = engine.resilience();
    EXPECT_GE(res.workerCrashes, 1u);
    EXPECT_GE(res.reconnects + res.workerRespawns, 1u);
    for (const auto& r : results)
        EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
}

// ---- crash isolation -------------------------------------------------------

TEST(ShardEngine, CrashedJobFailsAloneAfterOneRetry) {
    ScopedEnv crash(kCrashJobEnv, "counter8");
    TempFile store("crash");
    std::vector<JobResult> results;
    {
        Engine engine(shardOptions(2, store.path()));
        results = engine.runBatch(lightSpecs());
        ASSERT_TRUE(engine.flushCache());
    }
    ASSERT_EQ(results.size(), 4u);
    std::size_t failed = 0;
    for (const auto& r : results) {
        if (r.name == "counter8") {
            ++failed;
            EXPECT_FALSE(r.ok);
            EXPECT_NE(r.error.find("retried once"), std::string::npos)
                << r.error;
        } else {
            EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
        }
    }
    EXPECT_EQ(failed, 1u);

    // No partial flush: the store holds exactly the three surviving
    // jobs' entries and loads clean (checksums verified by load()).
    const auto loaded = persist::CacheStore::load(
        store.path(), persistFingerprint(shardOptions(2)));
    ASSERT_TRUE(loaded.ok()) << loaded.detail;
    EXPECT_EQ(loaded.entries.size(), 3u);
}

TEST(ShardEngine, CrashAtDepthTwoFailsOnlyTheTarget) {
    // Two jobs in flight per worker, so a job always runs beside
    // counter8 when its worker dies. That death names no culprit: both
    // retry free and alone, the neighbour succeeds, and counter8 crashes
    // alone, is charged, and fails after its one retry.
    ScopedEnv crash(kCrashJobEnv, "counter8");
    EngineOptions opt = shardOptions(2);
    opt.jobs = 4;
    Engine engine(opt);
    auto specs = lightSpecs();
    for (auto& s : benchSpecs({"lzd16", "comparator8"}))
        specs.push_back(std::move(s));
    const auto results = engine.runBatch(specs);
    ASSERT_EQ(results.size(), specs.size());
    for (const auto& r : results) {
        if (r.name == "counter8") {
            EXPECT_FALSE(r.ok);
            EXPECT_NE(r.error.find("retried once"), std::string::npos)
                << r.error;
        } else {
            EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
        }
    }
    // The first crash is free for both jobs; counter8 then crashes alone
    // twice, charged each time.
    EXPECT_GE(engine.resilience().workerCrashes, 3u);
}

TEST(ShardEngine, CrashWithSingleWorkerStillRespawnsAndCompletes) {
    ScopedEnv crash(kCrashJobEnv, "majority7");
    Engine engine(shardOptions(1));
    const auto results = engine.runBatch(lightSpecs());
    ASSERT_EQ(results.size(), 4u);
    for (const auto& r : results) {
        if (r.name == "majority7")
            EXPECT_FALSE(r.ok);
        else
            EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
    }
}

/// Runs `specs` on one slot of depth 2 whose first worker is a fake: a
/// shell script that waits for the first job frame, sleeps `delayS`,
/// replays `answers` — kResult frames built by the protocol's own
/// encoders — and then answers nothing more. Every later spawn execs the
/// real worker.
struct FakeRun {
    std::vector<JobResult> results;
    BatchResilience resilience;
};
FakeRun runWithFakeFirstWorker(
    const std::vector<JobSpec>& specs,
    const std::vector<std::pair<std::uint32_t, JobResult>>& answers,
    EngineOptions opt, const char* delayS = "0") {
    TempFile hello("fake_hello");
    TempFile results("fake_results");
    TempFile marker("fake_marker");
    TempFile script("fake_worker");
    {
        std::string bytes;
        appendFrame(bytes, FrameType::kHello,
                    encodeHello({kProtocolVersion, 0}));
        std::ofstream(hello.path(), std::ios::binary) << bytes;
        bytes.clear();
        for (const auto& [tag, answer] : answers)
            appendFrame(bytes, FrameType::kResult,
                        encodeResult(tag, answer, {}));
        // One small write arrives whole: the coordinator reads every
        // answer together.
        EXPECT_LT(bytes.size(), std::size_t{PIPE_BUF});
        std::ofstream(results.path(), std::ios::binary) << bytes;
    }
    // The fake speaks on the inherited fd 3, like the real worker.
    std::ofstream(script.path())
        << "#!/bin/bash\n"
        << "if [ -e '" << marker.path() << "' ]; then exec '" << workerExe()
        << "' \"$@\"; fi\n"
        << ": > '" << marker.path() << "'\n"
        << "cat '" << hello.path() << "' >&3\n"
        << "head -c 1 <&3 > /dev/null\n"  // the first job frame has arrived
        << "sleep " << delayS << "\n"
        << "cat '" << results.path() << "' >&3\n"
        << "exec cat <&3 > /dev/null\n";
    EXPECT_EQ(::chmod(script.path().c_str(), 0755), 0);

    opt.shardWorkerExe = script.path();
    opt.shardHeartbeatMs = 0;
    EXPECT_EQ(slotDepths(opt.jobs, opt.shards), std::vector<std::size_t>{2});
    Engine engine(opt);
    FakeRun run{engine.runBatch(specs), {}};
    run.resilience = engine.resilience();
    return run;
}

[[nodiscard]] JobResult computed(const char* name) {
    const JobResult r = Engine{}.runJob(benchSpecs({name}).front());
    EXPECT_TRUE(r.ok) << r.error;
    return r;
}

// A worker that answers its first job twice. A result's tag must name a
// job in flight on its slot, and after the first answer tag 0 is not:
// the second is a protocol violation — a counted wire poison and a killed
// worker, never a crash or a result filed under another job. counter8,
// alone in flight at the death, is charged one retry and succeeds on the
// respawned worker.
TEST(ShardEngine, SecondResultForOneJobIsAWirePoison) {
    const JobResult answer = computed("majority7");
    const FakeRun run =
        runWithFakeFirstWorker(benchSpecs({"majority7", "counter8"}),
                               {{0, answer}, {0, answer}}, shardOptions(1));
    const auto& got = run.results;
    ASSERT_EQ(got.size(), 2u);
    EXPECT_GE(run.resilience.wirePoisons, 1u);
    EXPECT_EQ(got[0].name, "majority7");
    EXPECT_EQ(got[1].name, "counter8");
    EXPECT_TRUE(got[0].ok) << got[0].error;
    expectSameSemantics(answer, got[0]);
    EXPECT_EQ(got[0].shard, 0);
    EXPECT_TRUE(got[1].ok) << got[1].error;
    EXPECT_GE(got[1].shard, 0) << "counter8 ran on the respawned worker";
    EXPECT_EQ(run.resilience.retries, 1u);
}

// A tag naming no job in flight poisons the stream before any result is
// filed. Both jobs were in flight, so neither is charged: each retries
// alone on the respawned worker and succeeds.
TEST(ShardEngine, UnknownResultTagIsAWirePoison) {
    EngineOptions opt = shardOptions(1);
    opt.shardRetries = 0;  // a charged job would fail
    const FakeRun run =
        runWithFakeFirstWorker(benchSpecs({"majority7", "counter8"}),
                               {{99, computed("majority7")}}, opt);
    ASSERT_EQ(run.results.size(), 2u);
    EXPECT_GE(run.resilience.wirePoisons, 1u);
    EXPECT_EQ(run.resilience.retries, 2u);
    for (const auto& r : run.results) {
        EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
        EXPECT_GE(r.shard, 0) << r.name;
    }
}

// At depth 2 a hung job shares its worker: majority7 never answers,
// counter8 answers after 0.2 s, and adder8 takes its place. The wall
// budget kills the worker when majority7's budget runs out, while
// adder8's, started 0.2 s later, has not: only majority7 is charged
// (retries are off, so it fails), and adder8 reruns free.
TEST(ShardEngine, WallBudgetChargesOnlyTheHungJobAtDepthTwo) {
    EngineOptions opt = shardOptions(1);
    opt.shardWallMsPerJob = 1500;
    opt.shardRetries = 0;
    const FakeRun run = runWithFakeFirstWorker(
        benchSpecs({"majority7", "counter8", "adder8"}),
        {{1, computed("counter8")}}, opt, "0.2");
    const auto& got = run.results;
    ASSERT_EQ(got.size(), 3u);
    EXPECT_FALSE(got[0].ok);
    EXPECT_NE(got[0].error.find("wall budget"), std::string::npos)
        << got[0].error;
    EXPECT_NE(got[0].error.find("retries disabled"), std::string::npos)
        << got[0].error;
    EXPECT_TRUE(got[1].ok) << got[1].error;
    EXPECT_EQ(got[1].shard, 0);
    EXPECT_TRUE(got[2].ok) << got[2].error;
    EXPECT_EQ(run.resilience.workerCrashes, 1u);
    EXPECT_EQ(run.resilience.retries, 1u);
}

TEST(ShardEngine, WallBudgetKillsHangingWorkers) {
    ScopedEnv hang(kHangJobEnv, "majority7");
    EngineOptions opt = shardOptions(1);
    // Only the hanging job runs, so the test is immune to CPU starvation
    // from parallel test binaries (a real companion job could be starved
    // past any budget on a loaded 1-CPU host): the sleeping worker never
    // completes whatever the load, the deadline kill fires, and the
    // retry hangs and dies the same way. Batch-completes-around-a-victim
    // is covered by the crash tests above.
    opt.shardWallMsPerJob = 1200;
    Engine engine(opt);
    JobSpec s;
    s.benchmark = "majority7";
    const auto results = engine.runBatch({s});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_NE(results[0].error.find("exceeded the per-job wall budget of "
                                    "1200 ms and was killed"),
              std::string::npos)
        << results[0].error;
}

TEST(ShardEngine, WorkerPoolCollapseFallsBackToInProcess) {
    // /bin/false exits immediately without ever connecting: every slot
    // retires after two spawn failures, and the queued jobs must degrade
    // to in-process execution — same results, fallback provenance —
    // never a hung coordinator or a failed batch.
    if (::access("/bin/false", X_OK) != 0) GTEST_SKIP();
    EngineOptions opt = shardOptions(2);
    opt.shardWorkerExe = "/bin/false";
    Engine engine(opt);
    JobSpec s;
    s.benchmark = "majority7";
    const auto results = engine.runBatch({s});
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(results[0].shard, -1);
    EXPECT_TRUE(results[0].shardFallback);
    EXPECT_EQ(engine.resilience().fallbackJobs, 1u);
    EXPECT_GE(engine.resilience().spawnFailures, 2u);
    EXPECT_EQ(engine.resilience().workerCrashes, 0u);
}

TEST(ShardEngine, SpawnFailureIsCountedApartAndCostsNoRetries) {
    // A worker that exits before connecting (here the exec-failure exit
    // 127) never joined the fleet: the respawned slot picks the work up,
    // no job's retry budget is charged, and the failure is counted apart
    // from genuine crashes.
    ScopedFaults faults("shard.worker.spawn:n1");
    Engine engine(shardOptions(2));
    const auto results = engine.runBatch(lightSpecs());
    for (const auto& r : results)
        EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
    const auto& res = engine.resilience();
    EXPECT_GE(res.spawnFailures, 1u);
    EXPECT_EQ(res.workerCrashes, 0u);
    EXPECT_EQ(res.retries, 0u);
}

TEST(ShardEngine, RetriesDisabledFailsOnTheFirstCrash) {
    ScopedEnv crash(kCrashJobEnv, "counter8");
    EngineOptions opt = shardOptions(2);
    opt.shardRetries = 0;
    Engine engine(opt);
    const auto results = engine.runBatch(lightSpecs());
    for (const auto& r : results) {
        if (r.name == "counter8") {
            EXPECT_FALSE(r.ok);
            EXPECT_NE(r.error.find("retries disabled by --shard-retries 0"),
                      std::string::npos)
                << r.error;
        } else {
            EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
        }
    }
    EXPECT_EQ(engine.resilience().retries, 0u);
}

TEST(ShardEngine, RetryBudgetGrantsTheConfiguredAttempts) {
    ScopedEnv crash(kCrashJobEnv, "counter8");
    EngineOptions opt = shardOptions(2);
    opt.shardRetries = 2;
    Engine engine(opt);
    const auto results = engine.runBatch(lightSpecs());
    for (const auto& r : results) {
        if (r.name == "counter8") {
            EXPECT_FALSE(r.ok);
            EXPECT_NE(r.error.find("already retried 2 times"),
                      std::string::npos)
                << r.error;
        } else {
            EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
        }
    }
    EXPECT_EQ(engine.resilience().retries, 2u);
    EXPECT_GE(engine.resilience().workerCrashes, 3u);
}

TEST(ShardEngine, DrainTimeoutBoundsAWedgedWorkerShutdown) {
    // The worker receives the forwarded fault plan, computes every job
    // normally, then parks forever instead of answering the shutdown
    // frame. Only the configured drain budget (not the 60 s default)
    // stands between the finished batch and a hang; deltas were already
    // streamed after each job, so the kill loses nothing.
    ScopedFaults faults("shard.worker.drain.hang:n1");
    EngineOptions opt = shardOptions(1);
    opt.shardDrainMs = 300;
    Engine engine(opt);
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = engine.runBatch(lightSpecs());
    const auto elapsedMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    for (const auto& r : results)
        EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
    EXPECT_LT(elapsedMs, 30000) << "drain must time out, not wait forever";
}

TEST(ShardEngine, ShutdownRequestInterruptsTheBatchButStillFlushes) {
    // A shutdown requested before the batch starts: every job comes back
    // as interrupted (never silently dropped), and the store still
    // flushes to a loadable artifact.
    TempFile store("shutdown");
    util::requestShutdown();
    Engine engine(shardOptions(2, store.path()));
    const auto results = engine.runBatch(lightSpecs());
    const bool flushed = engine.flushCache();
    util::clearShutdownForTest();
    ASSERT_EQ(results.size(), 4u);
    for (const auto& r : results) {
        EXPECT_FALSE(r.ok) << r.name;
        EXPECT_NE(r.error.find(util::kInterruptedError), std::string::npos)
            << r.name << ": " << r.error;
    }
    EXPECT_TRUE(flushed);
    const auto loaded = persist::CacheStore::load(
        store.path(), persistFingerprint(shardOptions(2)));
    EXPECT_TRUE(loaded.ok()) << loaded.detail;
}

// ---- pd_cli batch exit-code contract ---------------------------------------

/// Runs the pd_cli binary (the same one the shard tests use for
/// workers) through the shell; returns the exit status or -1.
int runCli(const std::string& cmd) {
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(CliExitCodes, ZeroAllOkTwoPartialOneFatalSixtyFourUsage) {
    const std::string cli = workerExe();
    EXPECT_EQ(runCli(cli + " batch majority7 >/dev/null 2>&1"), 0);
    // One injected per-job failure: the batch ran, so partial = 2.
    EXPECT_EQ(runCli("PD_FAULTS=engine.job.fail:n1 " + cli +
                     " batch majority7 >/dev/null 2>&1"),
              2);
    // A failed store flush is an engine failure: fatal = 1 even though
    // every job succeeded.
    TempFile store("exitcodes");
    EXPECT_EQ(runCli("PD_FAULTS=persist.save.enospc:n1 " + cli +
                     " batch majority7 --cache-file " + store.path() +
                     " >/dev/null 2>&1"),
              1);
    // The usage text printed for a usage error names its own exit code.
    TempFile usage("exitcodes_usage");
    EXPECT_EQ(runCli(cli + " batch --not-a-flag >/dev/null 2>" +
                     usage.path()),
              64);
    EXPECT_NE(slurp(usage.path()).find("64 usage error"), std::string::npos)
        << slurp(usage.path());
    // The removed SAT proof-store flag is an unknown option like any
    // other. Spelled in two pieces so a tree-wide grep for leftovers of
    // the removed store finds nothing.
    EXPECT_EQ(runCli(cli + " batch majority7 --proof" "-cache-file x "
                           ">/dev/null 2>&1"),
              64);
    // Transport knobs share the contract: a bogus or removed transport
    // name or an out-of-range ms value is a usage error, a valid socket
    // run is 0.
    EXPECT_EQ(runCli(cli + " batch majority7 --shards 1 --shard-transport "
                           "bogus >/dev/null 2>&1"),
              64);
    EXPECT_EQ(runCli(cli + " batch majority7 --shards 1 --shard-transport "
                           "pipe >/dev/null 2>&1"),
              64);
    EXPECT_EQ(runCli(cli + " batch majority7 --shard-heartbeat-ms "
                           "99999999999 >/dev/null 2>&1"),
              64);
    EXPECT_EQ(runCli(cli + " batch majority7 --shard-drain-ms "
                           "99999999999 >/dev/null 2>&1"),
              64);
    EXPECT_EQ(runCli(cli + " expr --shard-transport socket \"f=a^b\" "
                           ">/dev/null 2>&1"),
              64);  // batch-only flag outside batch mode
    EXPECT_EQ(runCli(cli + " batch majority7 --shards 1 --shard-transport "
                           "socket >/dev/null 2>&1"),
              0);
    // SAT verify is off or on: a searcher count is a usage error.
    EXPECT_EQ(runCli(cli + " batch majority7 --verify-threads 2 "
                           ">/dev/null 2>&1"),
              64);
    EXPECT_EQ(runCli(cli + " batch majority7 --verify-threads 1 "
                           ">/dev/null 2>&1"),
              0);
    // A worker without its socket on fd 3 was not spawned by a
    // coordinator: exit 2, whether fd 3 is closed or some other file.
    EXPECT_EQ(runCli(cli + " worker --shard-id 0 3<&- </dev/null "
                           ">/dev/null 2>&1"),
              2);
    EXPECT_EQ(runCli(cli + " worker --shard-id 0 3</dev/null </dev/null "
                           ">/dev/null 2>&1"),
              2);
}

TEST(CliExitCodes, WorkerReachedWhenItsSocketEndIsAlreadyFd3) {
    // With stdin and fd 3 closed, the coordinator's socketpair() returns
    // {0, 3}: the child's end already sits on fd 3, where dup2 is a no-op
    // that would leave it close-on-exec. The worker must still run the
    // job (shard 0) instead of the pool collapsing into the fallback.
    TempFile report("fd3_report");
    ASSERT_EQ(runCli(std::string(workerExe()) +
                     " batch majority7 --shards 1 --json " + report.path() +
                     " <&- 3<&- >/dev/null 2>&1"),
              0);
    std::ifstream in(report.path());
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("\"shard\": 0"), std::string::npos);
    EXPECT_NE(ss.str().find("\"spawn_failures\": 0"), std::string::npos);
}

TEST(CliExitCodes, SigtermDrainsReportsAndExitsTwo) {
    // SIGTERM mid-batch: the coordinator purges the queue as
    // interrupted, grants the in-flight (hanging) job its drain grace,
    // kills it, and the process still writes the report and exits with
    // the partial-failure code — never dies signal-fatally.
    const std::string report = std::string(::testing::TempDir()) +
                               "pd_sigterm_report_" +
                               std::to_string(::getpid()) + ".json";
    std::remove(report.c_str());
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::setenv(kHangJobEnv, "majority7", 1);
        (void)::freopen("/dev/null", "w", stdout);
        (void)::freopen("/dev/null", "w", stderr);
        ::execl(workerExe(), workerExe(), "batch", "majority7", "counter8",
                "--shards", "1", "--shard-drain-ms", "500", "--json",
                report.c_str(), static_cast<char*>(nullptr));
        ::_exit(127);
    }
    // Let the batch get in flight on the hanging job (if the signal
    // lands earlier, both jobs are purged from the queue — same
    // contract, same exit code).
    std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "must drain on SIGTERM, not die";
    EXPECT_EQ(WEXITSTATUS(status), 2);
    std::ifstream in(report);
    ASSERT_TRUE(in.good()) << "report must still be written";
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("interrupted"), std::string::npos);
    std::remove(report.c_str());
}

}  // namespace
}  // namespace pd::engine::shard
