// Persistent-store tests: byte-level format round-trips, one
// store-contract suite run over both codecs (pd-cache-v4 and
// pd-proof-v1) — loud rejection of every corruption class (truncation,
// bit flips, other versions, foreign fingerprints) as a clean cold
// start, checksummed-prefix salvage, injected save/load faults, and the
// pinned on-disk bytes of each format — wire payloads that are store
// record bodies, engine
// warm-start/flush end-to-end, the persisted name index and the
// reference guard behind it (stale entries, changed specs), and a
// concurrent save-while-computing hammer. All failure paths must
// neither crash nor serve a wrong answer — a bad file is equivalent to
// no file.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <thread>

#include "circuits/registry.hpp"
#include "engine/engine.hpp"
#include "engine/persist/format.hpp"
#include "engine/persist/proof_store.hpp"
#include "engine/persist/serialize.hpp"
#include "engine/persist/store.hpp"
#include "engine/shard/coordinator.hpp"
#include "engine/shard/protocol.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/fault/fault.hpp"

namespace pd::engine::persist {
namespace {

/// Unique-per-test temp path, removed on scope exit.
class TempFile {
public:
    explicit TempFile(const std::string& tag)
        : path_(std::string(::testing::TempDir()) + "pd_persist_" + tag +
                "_" + std::to_string(::getpid()) + ".pdc") {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    [[nodiscard]] const std::string& path() const { return path_; }

private:
    std::string path_;
};

[[nodiscard]] std::string readFile(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return std::move(buf).str();
}

void writeFile(const std::string& path, const std::string& bytes) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Store key for a test label.
[[nodiscard]] util::Digest128 key(const char* label) {
    return util::digestOf(label);
}

/// A representative result with a real netlist: x = a&b, y = x^c.
[[nodiscard]] JobResult sampleResult() {
    JobResult r;
    r.ok = true;
    r.blocks = 3;
    r.iterations = 5;
    r.leaders = 4;
    r.converged = true;
    r.qor.area = 123.5;
    r.qor.delay = 0.875;
    r.qor.gates = 2;
    r.levels = 2;
    r.interconnect = 4;
    r.verification = VerifyStatus::kSat;
    r.vectorsTested = 8;
    r.exhaustive = true;
    r.satVerify.ran = true;
    r.satVerify.conflicts = 17;
    r.satVerify.propagations = 512;
    r.satVerify.restarts = 1;
    r.satVerify.learned = 9;
    r.satVerify.winner = 2;
    r.satVerify.budgetExhausted = false;
    netlist::Netlist nl;
    const auto a = nl.addInput("a");
    const auto b = nl.addInput("b");
    const auto c = nl.addInput("c");
    const auto x = nl.addGate(netlist::GateType::kAnd, a, b);
    const auto y = nl.addGate(netlist::GateType::kXor, x, c);
    nl.markOutput("x", x);
    nl.markOutput("y", y);
    r.mapped = std::move(nl);
    return r;
}

void expectSameResult(const JobResult& a, const JobResult& b) {
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.leaders, b.leaders);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.qor.area, b.qor.area);
    EXPECT_EQ(a.qor.delay, b.qor.delay);
    EXPECT_EQ(a.qor.gates, b.qor.gates);
    EXPECT_EQ(a.levels, b.levels);
    EXPECT_EQ(a.interconnect, b.interconnect);
    EXPECT_EQ(a.verification, b.verification);
    EXPECT_EQ(a.vectorsTested, b.vectorsTested);
    EXPECT_EQ(a.exhaustive, b.exhaustive);
    EXPECT_EQ(a.satVerify.ran, b.satVerify.ran);
    EXPECT_EQ(a.satVerify.conflicts, b.satVerify.conflicts);
    EXPECT_EQ(a.satVerify.propagations, b.satVerify.propagations);
    EXPECT_EQ(a.satVerify.restarts, b.satVerify.restarts);
    EXPECT_EQ(a.satVerify.learned, b.satVerify.learned);
    EXPECT_EQ(a.satVerify.winner, b.satVerify.winner);
    EXPECT_EQ(a.satVerify.budgetExhausted, b.satVerify.budgetExhausted);
    ASSERT_EQ(a.mapped.numNets(), b.mapped.numNets());
    for (netlist::NetId id = 0; id < a.mapped.numNets(); ++id) {
        EXPECT_EQ(a.mapped.gate(id).type, b.mapped.gate(id).type);
        EXPECT_EQ(a.mapped.gate(id).in, b.mapped.gate(id).in);
    }
    ASSERT_EQ(a.mapped.inputs().size(), b.mapped.inputs().size());
    for (std::size_t i = 0; i < a.mapped.inputs().size(); ++i) {
        EXPECT_EQ(a.mapped.inputs()[i], b.mapped.inputs()[i]);
        EXPECT_EQ(a.mapped.inputName(i), b.mapped.inputName(i));
    }
    ASSERT_EQ(a.mapped.outputs().size(), b.mapped.outputs().size());
    for (std::size_t i = 0; i < a.mapped.outputs().size(); ++i) {
        EXPECT_EQ(a.mapped.outputs()[i].name, b.mapped.outputs()[i].name);
        EXPECT_EQ(a.mapped.outputs()[i].net, b.mapped.outputs()[i].net);
    }
}

TEST(PersistFormat, IntegerAndStringRoundTrip) {
    std::string bytes;
    ByteWriter w(bytes);
    w.u8(0xab);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.f64(-1234.56789);
    using namespace std::string_view_literals;
    w.str("hello\0world"sv);  // embedded NUL must survive
    ByteReader r(bytes);
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.f64(), -1234.56789);
    EXPECT_EQ(r.str(), "hello\0world"sv);
    EXPECT_TRUE(r.done());
}

TEST(PersistFormat, LittleEndianOnTheWire) {
    std::string bytes;
    ByteWriter w(bytes);
    w.u32(0x04030201u);
    ASSERT_EQ(bytes.size(), 4u);
    EXPECT_EQ(bytes[0], 1);
    EXPECT_EQ(bytes[1], 2);
    EXPECT_EQ(bytes[2], 3);
    EXPECT_EQ(bytes[3], 4);
}

TEST(PersistFormat, ReaderThrowsOnOverrun) {
    std::string bytes;
    ByteWriter w(bytes);
    w.u32(7);
    ByteReader r(bytes);
    (void)r.u32();
    EXPECT_THROW((void)r.u8(), pd::Error);
    // A length prefix larger than the buffer must throw, not allocate.
    std::string lie;
    ByteWriter w2(lie);
    w2.u32(0xffffffffu);
    ByteReader r2(lie);
    EXPECT_THROW((void)r2.str(), pd::Error);
}

TEST(PersistSerialize, JobResultRoundTrip) {
    const JobResult r = sampleResult();
    std::string payload;
    serializeJobResult(r, payload);
    const auto back = deserializeJobResult(payload);
    ASSERT_TRUE(back);
    expectSameResult(r, *back);
    // Disk provenance is stamped at decode time.
    EXPECT_EQ(back->cacheSource, CacheSource::kDisk);
}

TEST(PersistSerialize, RejectsCorruptNetlist) {
    const JobResult r = sampleResult();
    std::string payload;
    serializeJobResult(r, payload);
    // Any single-byte corruption must decode to an error or to a value —
    // never crash. (Checksums catch these in the full store; this
    // exercises the decoder's own defenses.)
    for (std::size_t i = 0; i < payload.size(); ++i) {
        std::string bad = payload;
        bad[i] = static_cast<char>(bad[i] ^ 0x5a);
        try {
            (void)deserializeJobResult(bad);
        } catch (const pd::Error&) {
            // expected for most positions
        }
    }
}

// ---- the store contract, once for both codecs ------------------------------

/// Arms a plan for the test body; disarms all sites on scope exit.
class ScopedFaults {
public:
    explicit ScopedFaults(const std::string& plan) {
        std::string error;
        EXPECT_TRUE(fault::armPlan(plan, &error)) << error;
    }
    ~ScopedFaults() { fault::disarmAllForTest(); }
};

[[nodiscard]] std::uint64_t fileFnv(const std::string& path) {
    return fnv1a(readFile(path));
}

/// pd-cache-v4 through the store-contract suite. Records are result
/// entries; the index section stays empty except in the pinned file.
struct CacheCodec {
    using Entry = StoreEntry;
    static constexpr std::string_view kMagicBytes = kMagic;
    static constexpr std::uint32_t kVersion = kFormatVersion;
    static constexpr const char* kSites = "persist";
    /// Bytes after the last entry: the empty index section's count.
    static constexpr std::size_t kTail = 8;
    /// A torn last entry still leaves room for one intact minimal entry.
    static constexpr std::uint64_t kTornTailDropped = 1;
    /// FNV-1a of pinnedSave()'s bytes. A different value is a format
    /// change, which needs a kFormatVersion bump, not a new constant.
    static constexpr std::uint64_t kPinnedFnv = 0x4d999b96e0a805feull;

    static std::vector<Entry> three() {
        std::vector<Entry> entries;
        for (const char* label : {"sig-A", "sig-B", "sig-C"})
            entries.push_back(
                {key(label), std::make_shared<const JobResult>(sampleResult())});
        return entries;
    }
    static bool save(const std::string& path, std::string_view fp,
                     std::span<const Entry> entries,
                     std::string* error = nullptr) {
        return CacheStore::save(path, fp, entries, {}, error);
    }
    static bool pinnedSave(const std::string& path) {
        const std::vector<JobIndex::Entry> index = {
            {"adder8|k4", 7, key("sig-A")}, {"counter8|k4", 9, key("sig-C")}};
        return CacheStore::save(path, "pin", three(), index);
    }
    static LoadResult load(const std::string& path, std::string_view fp) {
        return CacheStore::load(path, fp);
    }
    static void expectSame(const Entry& a, const Entry& b) {
        EXPECT_EQ(a.key, b.key);
        expectSameResult(*a.result, *b.result);
    }
};

/// pd-proof-v1 through the store-contract suite.
struct ProofCodec {
    using Entry = sat::ProofCache::SnapshotEntry;
    static constexpr std::string_view kMagicBytes = kProofMagic;
    static constexpr std::uint32_t kVersion = kProofFormatVersion;
    static constexpr const char* kSites = "persist.proof";
    static constexpr std::size_t kTail = 0;
    /// Fixed-size records: a torn one leaves fewer bytes than an intact
    /// record needs, so the clamp counts no intact record as lost.
    static constexpr std::uint64_t kTornTailDropped = 0;
    static constexpr std::uint64_t kPinnedFnv = 0x0622a88a4a60c32dull;

    static std::vector<Entry> three() {
        std::vector<Entry> entries;
        for (std::uint64_t d : {11u, 22u, 33u}) {
            Entry e;
            e.digest = d;
            e.entry.conflicts = 100 + d;
            e.entry.propagations = 1000 + d;
            e.entry.restarts = d % 5;
            e.entry.learned = 50 + d;
            e.entry.winner = static_cast<int>(d % 3);
            entries.push_back(e);
        }
        return entries;
    }
    static bool save(const std::string& path, std::string_view fp,
                     std::span<const Entry> entries,
                     std::string* error = nullptr) {
        return ProofStore::save(path, fp, entries, error);
    }
    static bool pinnedSave(const std::string& path) {
        return ProofStore::save(path, "pin", three());
    }
    static Loaded<ProofRecords> load(const std::string& path,
                                     std::string_view fp) {
        return ProofStore::load(path, fp);
    }
    static void expectSame(const Entry& a, const Entry& b) {
        EXPECT_EQ(a.digest, b.digest);
        EXPECT_EQ(a.entry.conflicts, b.entry.conflicts);
        EXPECT_EQ(a.entry.propagations, b.entry.propagations);
        EXPECT_EQ(a.entry.restarts, b.entry.restarts);
        EXPECT_EQ(a.entry.learned, b.entry.learned);
        EXPECT_EQ(a.entry.winner, b.entry.winner);
    }
};

template <typename Codec>
class StoreContract : public ::testing::Test {
protected:
    using C = Codec;
    /// Offset of the first record in a store saved under "fp".
    static constexpr std::size_t kHeaderEnd =
        8 /*magic*/ + 4 /*version*/ + (4 + 2) /*"fp" str*/ + 8 /*count*/;

    [[nodiscard]] static std::vector<typename Codec::Entry> one() {
        auto all = Codec::three();
        all.resize(1);
        return all;
    }
    [[nodiscard]] static std::string site(const char* suffix) {
        return std::string(Codec::kSites) + suffix;
    }
};

using Codecs = ::testing::Types<CacheCodec, ProofCodec>;
TYPED_TEST_SUITE(StoreContract, Codecs);

TYPED_TEST(StoreContract, SaveLoadRoundTrip) {
    using C = typename TestFixture::C;
    TempFile file("roundtrip");
    std::string error;
    ASSERT_TRUE(C::save(file.path(), "fp1", C::three(), &error)) << error;
    const auto loaded = C::load(file.path(), "fp1");
    ASSERT_TRUE(loaded.ok()) << loaded.detail;
    ASSERT_EQ(loaded.entries.size(), 3u);
    const auto expected = C::three();
    for (std::size_t i = 0; i < 3; ++i)
        C::expectSame(loaded.entries[i], expected[i]);
}

TYPED_TEST(StoreContract, FormatIsPinned) {
    // The on-disk bytes of both formats are a contract: stores written by
    // earlier builds must keep loading. A refactor that changes a single
    // byte of either format fails here, not in a user's warm start.
    using C = typename TestFixture::C;
    TempFile file("pinned");
    ASSERT_TRUE(C::pinnedSave(file.path()));
    EXPECT_EQ(fileFnv(file.path()), C::kPinnedFnv)
        << std::hex << "0x" << fileFnv(file.path());
}

TYPED_TEST(StoreContract, MissingFileIsACleanColdStart) {
    using C = typename TestFixture::C;
    const auto loaded = C::load("/nonexistent/dir/none.pdc", "fp");
    EXPECT_EQ(loaded.status, LoadStatus::kNoFile);
    EXPECT_FALSE(loaded.usable());
    EXPECT_TRUE(loaded.entries.empty());
}

TYPED_TEST(StoreContract, RejectsTruncatedFile) {
    using C = typename TestFixture::C;
    TempFile file("truncated");
    ASSERT_TRUE(C::save(file.path(), "fp", TestFixture::one()));
    const std::string bytes = readFile(file.path());
    ASSERT_GT(bytes.size(), 16u);
    // Every truncation point inside the entry must reject cleanly, never
    // crash.
    for (const std::size_t keep :
         {bytes.size() - C::kTail - 1, bytes.size() / 2, std::size_t{13},
          std::size_t{7}, std::size_t{0}}) {
        writeFile(file.path(), bytes.substr(0, keep));
        const auto loaded = C::load(file.path(), "fp");
        EXPECT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
        EXPECT_TRUE(loaded.entries.empty());
    }
}

TYPED_TEST(StoreContract, RejectsEveryFlippedByte) {
    using C = typename TestFixture::C;
    TempFile file("checksum");
    ASSERT_TRUE(C::save(file.path(), "fp", TestFixture::one()));
    const std::string bytes = readFile(file.path());
    // Flip one byte in every position after magic and version; each must
    // be caught by the fingerprint check, a length prefix, a record
    // checksum or the trailing-byte rule.
    const std::size_t from = C::kMagicBytes.size() + 4;
    std::size_t rejected = 0;
    for (std::size_t i = from; i < bytes.size(); ++i) {
        std::string bad = bytes;
        bad[i] = static_cast<char>(bad[i] ^ 0x01);
        writeFile(file.path(), bad);
        if (!C::load(file.path(), "fp").ok()) ++rejected;
    }
    EXPECT_EQ(rejected, bytes.size() - from);
}

TYPED_TEST(StoreContract, RejectsOtherFormatVersions) {
    using C = typename TestFixture::C;
    TempFile file("version");
    ASSERT_TRUE(C::save(file.path(), "fp", TestFixture::one()));
    const std::string bytes = readFile(file.path());
    // Past versions (a v1 store inherited by CI) and future ones must be
    // rejected loudly as bad-version, never decoded.
    for (const std::uint32_t v :
         {0u, 1u, C::kVersion - 1, C::kVersion + 1, 99u}) {
        if (v == C::kVersion) continue;
        std::string mutated = bytes;
        mutated[C::kMagicBytes.size()] = static_cast<char>(v);  // u32 LE
        writeFile(file.path(), mutated);
        const auto loaded = C::load(file.path(), "fp");
        EXPECT_EQ(loaded.status, LoadStatus::kBadVersion);
        EXPECT_NE(loaded.detail.find("version " + std::to_string(v)),
                  std::string::npos)
            << loaded.detail;
    }
}

TYPED_TEST(StoreContract, RejectsBadMagic) {
    using C = typename TestFixture::C;
    TempFile file("magic");
    writeFile(file.path(), "this is not a store at all");
    EXPECT_EQ(C::load(file.path(), "fp").status, LoadStatus::kBadMagic);
}

TYPED_TEST(StoreContract, RejectsMismatchedFingerprint) {
    using C = typename TestFixture::C;
    TempFile file("fingerprint");
    ASSERT_TRUE(C::save(file.path(), "fp-writer", C::three()));
    const auto loaded = C::load(file.path(), "fp-reader");
    EXPECT_EQ(loaded.status, LoadStatus::kBadFingerprint);
    EXPECT_NE(loaded.detail.find("fp-writer"), std::string::npos);
    EXPECT_NE(loaded.detail.find("fp-reader"), std::string::npos);
}

TYPED_TEST(StoreContract, TruncatedTailSalvagesTheIntactPrefix) {
    using C = typename TestFixture::C;
    TempFile file("salvage_trunc");
    ASSERT_TRUE(C::save(file.path(), "fp", C::three()));
    const std::string bytes = readFile(file.path());
    // One byte into the last entry's checksum.
    writeFile(file.path(), bytes.substr(0, bytes.size() - C::kTail - 1));
    const auto loaded = C::load(file.path(), "fp");
    EXPECT_EQ(loaded.status, LoadStatus::kSalvaged);
    EXPECT_TRUE(loaded.usable());
    EXPECT_FALSE(loaded.ok()) << "salvaged must stay distinct from loaded";
    ASSERT_EQ(loaded.entries.size(), 2u);
    const auto expected = C::three();
    C::expectSame(loaded.entries[0], expected[0]);
    C::expectSame(loaded.entries[1], expected[1]);
    EXPECT_EQ(loaded.droppedEntries, C::kTornTailDropped);
    EXPECT_NE(loaded.detail.find("salvaged 2 of 3"), std::string::npos)
        << loaded.detail;
}

TYPED_TEST(StoreContract, FlippedByteInTheLastEntrySalvagesTheRest) {
    using C = typename TestFixture::C;
    TempFile file("salvage_flip");
    for (const std::size_t fromEnd : {C::kTail + 2, C::kTail + 10}) {
        ASSERT_TRUE(C::save(file.path(), "fp", C::three()));
        std::string bytes = readFile(file.path());
        const std::size_t at = bytes.size() - fromEnd;
        bytes[at] = static_cast<char>(bytes[at] ^ 0x01);
        writeFile(file.path(), bytes);
        const auto loaded = C::load(file.path(), "fp");
        EXPECT_EQ(loaded.status, LoadStatus::kSalvaged);
        EXPECT_TRUE(loaded.usable());
        ASSERT_EQ(loaded.entries.size(), 2u);
        EXPECT_EQ(loaded.droppedEntries, 1u);
        // The surviving entries are checksum-verified, not just hoped-for.
        const auto expected = C::three();
        C::expectSame(loaded.entries[0], expected[0]);
        C::expectSame(loaded.entries[1], expected[1]);
    }
}

TYPED_TEST(StoreContract, DamagedFirstEntryMeansNoSalvage) {
    // A prefix of zero entries is indistinguishable from random damage:
    // the load must reject outright (kCorrupt), not report a successful
    // zero-entry salvage.
    using C = typename TestFixture::C;
    TempFile file("salvage_none");
    for (const std::size_t into : {0u, 4u}) {
        ASSERT_TRUE(C::save(file.path(), "fp", C::three()));
        std::string bytes = readFile(file.path());
        const std::size_t at = TestFixture::kHeaderEnd + into;
        bytes[at] = static_cast<char>(bytes[at] ^ 0x01);
        writeFile(file.path(), bytes);
        const auto loaded = C::load(file.path(), "fp");
        EXPECT_EQ(loaded.status, LoadStatus::kCorrupt);
        EXPECT_FALSE(loaded.usable());
        EXPECT_TRUE(loaded.entries.empty());
    }
}

TYPED_TEST(StoreContract, CorruptCountFieldClampsDroppedEntries) {
    // Worst placement for a single bit flip: the count field itself. The
    // declared count becomes astronomically large, so `count - salvaged`
    // is a garbage number — the drop accounting must clamp to what the
    // remaining bytes could plausibly hold and flag the count untrusted
    // rather than publish the garbage.
    using C = typename TestFixture::C;
    TempFile file("salvage_count");
    ASSERT_TRUE(C::save(file.path(), "fp", C::three()));
    std::string bytes = readFile(file.path());
    // Little-endian high byte: declared count jumps to ~2^59.
    const std::size_t high = TestFixture::kHeaderEnd - 1;
    bytes[high] = static_cast<char>(bytes[high] ^ 0x08);
    writeFile(file.path(), bytes);
    const auto loaded = C::load(file.path(), "fp");
    EXPECT_EQ(loaded.status, LoadStatus::kSalvaged);
    ASSERT_EQ(loaded.entries.size(), 3u)
        << "every checksummed entry must still be adopted";
    EXPECT_EQ(loaded.droppedEntries, 0u)
        << "no room remains, so no real entries can have been dropped";
    EXPECT_NE(loaded.detail.find("declared entry count untrusted"),
              std::string::npos)
        << loaded.detail;
}

TYPED_TEST(StoreContract, TrailingBytesAreSalvagedNotTrusted) {
    // Every declared record validates but the file keeps going: the count
    // fields can't be trusted, the records can.
    using C = typename TestFixture::C;
    TempFile file("trailing");
    ASSERT_TRUE(C::save(file.path(), "fp", C::three()));
    writeFile(file.path(), readFile(file.path()) + "junk");
    const auto loaded = C::load(file.path(), "fp");
    EXPECT_EQ(loaded.status, LoadStatus::kSalvaged);
    EXPECT_EQ(loaded.entries.size(), 3u);
    EXPECT_EQ(loaded.droppedEntries, 0u);
    EXPECT_NE(loaded.detail.find("4 trailing bytes"), std::string::npos)
        << loaded.detail;
}

TYPED_TEST(StoreContract, EnospcFailsTheSaveAndLeavesNoFile) {
    using C = typename TestFixture::C;
    TempFile file("fault_enospc");
    std::string error;
    {
        ScopedFaults faults(TestFixture::site(".save.enospc:n1"));
        EXPECT_FALSE(C::save(file.path(), "fp", C::three(), &error));
        EXPECT_NE(error.find("no space left on device"), std::string::npos)
            << error;
    }
    EXPECT_EQ(C::load(file.path(), "fp").status, LoadStatus::kNoFile)
        << "a failed save must not leave a target file behind";
    EXPECT_TRUE(C::save(file.path(), "fp", C::three()));
}

TYPED_TEST(StoreContract, ShortWriteLeavesATornStoreTheLoadContains) {
    // The nastiest disk failure: the save *reports success* but the
    // store is torn mid-file. The next load must contain the damage —
    // salvage the intact prefix or reject — never crash or serve junk.
    using C = typename TestFixture::C;
    TempFile file("fault_short");
    {
        ScopedFaults faults(TestFixture::site(".save.short_write:n1"));
        EXPECT_TRUE(C::save(file.path(), "fp", C::three()));
    }
    const auto loaded = C::load(file.path(), "fp");
    EXPECT_FALSE(loaded.ok());
    if (loaded.status == LoadStatus::kSalvaged) {
        EXPECT_GE(loaded.entries.size(), 1u);
        EXPECT_LT(loaded.entries.size(), 3u);
    } else {
        EXPECT_EQ(loaded.status, LoadStatus::kCorrupt);
        EXPECT_TRUE(loaded.entries.empty());
    }
}

TYPED_TEST(StoreContract, RenameFailureKeepsThePreviousStoreVersion) {
    using C = typename TestFixture::C;
    TempFile file("fault_rename");
    ASSERT_TRUE(C::save(file.path(), "fp", C::three()));
    const std::string before = readFile(file.path());
    std::string error;
    {
        ScopedFaults faults(TestFixture::site(".save.rename:n1"));
        EXPECT_FALSE(C::save(file.path(), "fp", TestFixture::one(), &error));
        EXPECT_NE(error.find(TestFixture::site(".save.rename")),
                  std::string::npos)
            << error;
    }
    EXPECT_EQ(readFile(file.path()), before)
        << "an aborted save must leave the previous version byte-intact";
}

TYPED_TEST(StoreContract, LoadFlipIsCaughtAndClearsWhenDisarmed) {
    using C = typename TestFixture::C;
    TempFile file("fault_flip");
    ASSERT_TRUE(C::save(file.path(), "fp", C::three()));
    {
        ScopedFaults faults(TestFixture::site(".load.flip:n1"));
        const auto loaded = C::load(file.path(), "fp");
        EXPECT_FALSE(loaded.ok());
        EXPECT_TRUE(loaded.status == LoadStatus::kSalvaged ||
                    loaded.status == LoadStatus::kCorrupt);
    }
    EXPECT_TRUE(C::load(file.path(), "fp").ok())
        << "the file itself was never damaged; disarmed loads are clean";
}

TYPED_TEST(StoreContract, EachStoreFiresOnlyItsOwnSites) {
    // The two stores share one save path; an armed site of one must never
    // fire in the other.
    using C = typename TestFixture::C;
    TempFile file("fault_own");
    const std::string other = std::string(C::kSites) == "persist"
                                  ? "persist.proof"
                                  : "persist";
    ScopedFaults faults(other + ".save.enospc:e1," + other +
                        ".load.flip:e1");
    ASSERT_TRUE(C::save(file.path(), "fp", C::three()));
    EXPECT_TRUE(C::load(file.path(), "fp").ok());
}

// ---- codec specifics ---------------------------------------------------------

TEST(PersistStore, SaveLoadRoundTripKeepsTheIndex) {
    TempFile file("roundtrip_index");
    std::string error;
    const std::vector<JobIndex::Entry> index = {
        {"adder8|k4", 7, key("sig-A")}, {"counter8|k4", 9, key("sig-B")}};
    ASSERT_TRUE(CacheStore::save(file.path(), "fp1", CacheCodec::three(),
                                 index, &error))
        << error;
    const auto loaded = CacheStore::load(file.path(), "fp1");
    ASSERT_TRUE(loaded.ok()) << loaded.detail;
    ASSERT_EQ(loaded.index.size(), 2u);
    EXPECT_EQ(loaded.index[1].name, "counter8|k4");
    EXPECT_EQ(loaded.index[1].stamp, 9u);
    EXPECT_EQ(loaded.index[1].digest, key("sig-B"));
}

TEST(PersistStore, IndexDamageKeepsEveryResult) {
    TempFile file("index_damage");
    const std::vector<JobIndex::Entry> index = {
        {"adder8|k4", 7, key("sig-A")}, {"counter8|k4", 9, key("sig-B")}};
    ASSERT_TRUE(
        CacheStore::save(file.path(), "fp", CacheCodec::three(), index));
    std::string bytes = readFile(file.path());
    // The last index record's checksum.
    bytes[bytes.size() - 2] = static_cast<char>(bytes[bytes.size() - 2] ^ 1);
    writeFile(file.path(), bytes);
    const auto loaded = CacheStore::load(file.path(), "fp");
    EXPECT_EQ(loaded.status, LoadStatus::kSalvaged);
    EXPECT_EQ(loaded.entries.size(), 3u);
    ASSERT_EQ(loaded.index.size(), 1u);
    EXPECT_EQ(loaded.index[0].name, "adder8|k4");
    EXPECT_EQ(loaded.droppedEntries, 0u)
        << "index records are not results; none were dropped";
    EXPECT_NE(loaded.detail.find("salvaged 1 of 2 index entries"),
              std::string::npos)
        << loaded.detail;
}

TEST(PersistProofStore, BudgetExhaustedWinnerSurvivesTheBias) {
    // winner -1 (budget exhausted) is stored biased by one; the bias must
    // round-trip, not underflow.
    TempFile file("winner");
    std::vector<sat::ProofCache::SnapshotEntry> entries = {{5, {}}};
    entries[0].entry.winner = -1;
    ASSERT_TRUE(ProofStore::save(file.path(), "fp", entries));
    const auto loaded = ProofStore::load(file.path(), "fp");
    ASSERT_EQ(loaded.entries.size(), 1u);
    EXPECT_EQ(loaded.entries[0].entry.winner, -1);
}

// ---- wire payloads are store record bodies ---------------------------------

TEST(PersistWire, ProofEntryPayloadIsTheStoreRecordBody) {
    TempFile file("wire_proof");
    const auto proofs = ProofCodec::three();
    ASSERT_TRUE(ProofStore::save(file.path(), "fp", proofs));
    const std::string bytes = readFile(file.path());
    constexpr std::size_t kHeaderEnd = 8 + 4 + (4 + 2) + 8;
    for (std::size_t i = 0; i < proofs.size(); ++i) {
        const std::string body =
            bytes.substr(kHeaderEnd + i * (kProofBodyBytes + 8),
                         kProofBodyBytes);
        EXPECT_EQ(engine::shard::encodeProofEntry(proofs[i]), body);
    }
}

TEST(PersistWire, IndexEntryPayloadIsTheStoreRecordBody) {
    TempFile file("wire_index");
    const JobIndex::Entry e{"adder8|k4", 7, key("sig-A")};
    ASSERT_TRUE(CacheStore::save(file.path(), "fp", {}, {&e, 1}));
    const std::string bytes = readFile(file.path());
    // Header, an empty entry section, the index count, then the record.
    constexpr std::size_t kIndexStart = 8 + 4 + (4 + 2) + 8 + 8;
    const std::string payload = engine::shard::encodeIndexDelta(e);
    EXPECT_EQ(bytes.substr(kIndexStart, payload.size()), payload);
    EXPECT_EQ(bytes.size(), kIndexStart + payload.size() + 8)
        << "the record is the body plus its checksum";
}

TEST(PersistSalvage, EngineWarmStartsFromASalvagedStore) {

    TempFile file("salvage_warm");
    EngineOptions opt;
    opt.cacheFile = file.path();
    std::vector<JobSpec> specs;
    for (const char* name : {"majority7", "counter8"}) {
        JobSpec s;
        s.benchmark = name;
        specs.push_back(std::move(s));
    }
    {
        Engine engine(opt);
        for (const auto& r : engine.runBatch(specs))
            ASSERT_TRUE(r.ok) << r.error;
        ASSERT_TRUE(engine.flushCache());
    }
    // Tear the store three bytes into its last result entry: the index
    // section after it goes too, so every job must recompute its key.
    const auto pristine =
        CacheStore::load(file.path(), persistFingerprint(opt));
    ASSERT_EQ(pristine.index.size(), 2u);
    std::size_t indexBytes = 8;
    for (const auto& e : pristine.index) indexBytes += 4 + e.name.size() + 40;
    const std::string bytes = readFile(file.path());
    writeFile(file.path(), bytes.substr(0, bytes.size() - indexBytes - 3));

    Engine warm(opt);
    EXPECT_EQ(warm.persistInfo().loadStatus, LoadStatus::kSalvaged);
    EXPECT_EQ(warm.persistInfo().loadedEntries, 1u);
    EXPECT_EQ(warm.persistInfo().droppedEntries, 1u);
    const auto results = warm.runBatch(specs);
    std::size_t diskHits = 0;
    for (const auto& r : results) {
        ASSERT_TRUE(r.ok) << r.error;
        diskHits += r.cacheSource == CacheSource::kDisk ? 1 : 0;
    }
    EXPECT_EQ(diskHits, 1u)
        << "the salvaged prefix must still pay for its jobs";
}

// ---- engine-level warm start / flush ---------------------------------------

TEST(PersistEngine, WarmStartServesEverythingFromDisk) {
    TempFile file("warmstart");
    EngineOptions opt;
    opt.cacheFile = file.path();
    std::vector<JobSpec> specs;
    for (const char* name : {"majority7", "counter8"}) {
        JobSpec s;
        s.benchmark = name;
        specs.push_back(std::move(s));
    }

    std::vector<JobResult> first;
    {
        Engine engine(opt);
        EXPECT_EQ(engine.persistInfo().loadStatus,
                  LoadStatus::kNoFile);
        first = engine.runBatch(specs);
        for (const auto& r : first) {
            ASSERT_TRUE(r.ok) << r.error;
            EXPECT_EQ(r.cacheSource, CacheSource::kComputed);
        }
        std::size_t saved = 0;
        std::string error;
        ASSERT_TRUE(engine.flushCache(&saved, &error)) << error;
        EXPECT_EQ(saved, specs.size());
    }

    Engine warm(opt);
    EXPECT_EQ(warm.persistInfo().loadStatus, LoadStatus::kLoaded);
    EXPECT_EQ(warm.persistInfo().loadedEntries, specs.size());
    const auto second = warm.runBatch(specs);
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < second.size(); ++i) {
        ASSERT_TRUE(second[i].ok) << second[i].error;
        EXPECT_TRUE(second[i].cacheHit);
        EXPECT_EQ(second[i].cacheSource, CacheSource::kDisk);
        EXPECT_EQ(second[i].cacheKey, first[i].cacheKey);
        EXPECT_EQ(second[i].qor.area, first[i].qor.area);
        EXPECT_EQ(second[i].qor.delay, first[i].qor.delay);
        EXPECT_EQ(second[i].blocks, first[i].blocks);
        EXPECT_EQ(second[i].verification, first[i].verification);
    }
}

TEST(PersistEngine, DestructorFlushesNewResults) {
    TempFile file("dtorflush");
    EngineOptions opt;
    opt.cacheFile = file.path();
    {
        Engine engine(opt);
        JobSpec s;
        s.benchmark = "majority7";
        const auto r = engine.runJob(s);
        ASSERT_TRUE(r.ok) << r.error;
        // no explicit flush: the destructor must persist the entry
    }
    const auto loaded =
        CacheStore::load(file.path(), persistFingerprint(opt));
    ASSERT_TRUE(loaded.ok()) << loaded.detail;
    EXPECT_EQ(loaded.entries.size(), 1u);
}

TEST(PersistEngine, ReadonlyNeverWrites) {
    TempFile file("readonly");
    EngineOptions opt;
    opt.cacheFile = file.path();
    opt.cacheReadonly = true;
    {
        Engine engine(opt);
        JobSpec s;
        s.benchmark = "majority7";
        ASSERT_TRUE(engine.runJob(s).ok);
        std::string error;
        EXPECT_FALSE(engine.flushCache(nullptr, &error));
    }
    EXPECT_EQ(CacheStore::load(file.path(), persistFingerprint(opt)).status,
              LoadStatus::kNoFile);
}

// Regression: with caching disabled (capacity 0) the snapshot is always
// empty — a flush then must refuse rather than replace a warm store
// with a zero-entry file.
TEST(PersistEngine, DisabledCacheNeverClobbersTheStore) {
    TempFile file("capacity0");
    EngineOptions writer;
    writer.cacheFile = file.path();
    {
        Engine engine(writer);
        JobSpec s;
        s.benchmark = "majority7";
        ASSERT_TRUE(engine.runJob(s).ok);
    }
    EngineOptions disabled = writer;
    disabled.cacheCapacity = 0;
    {
        Engine engine(disabled);
        EXPECT_EQ(engine.persistInfo().loadedEntries, 0u);
        JobSpec s;
        s.benchmark = "majority7";
        ASSERT_TRUE(engine.runJob(s).ok);
        std::string error;
        EXPECT_FALSE(engine.flushCache(nullptr, &error));
        EXPECT_NE(error.find("disabled"), std::string::npos) << error;
    }
    const auto loaded =
        CacheStore::load(file.path(), persistFingerprint(writer));
    ASSERT_TRUE(loaded.ok()) << loaded.detail;
    EXPECT_EQ(loaded.entries.size(), 1u)
        << "the warm store must survive a capacity-0 run untouched";
}

TEST(PersistEngine, CorruptStoreColdStartsAndRecovers) {
    TempFile file("recover");
    writeFile(file.path(), "garbage garbage garbage");
    EngineOptions opt;
    opt.cacheFile = file.path();
    Engine engine(opt);
    EXPECT_EQ(engine.persistInfo().loadStatus,
              LoadStatus::kBadMagic);
    JobSpec s;
    s.benchmark = "majority7";
    const auto r = engine.runJob(s);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.cacheSource, CacheSource::kComputed);
    // And the flush replaces the garbage with a valid store.
    ASSERT_TRUE(engine.flushCache());
    EXPECT_TRUE(
        CacheStore::load(file.path(), persistFingerprint(opt)).ok());
}

TEST(PersistEngine, WrongFingerprintColdStarts) {
    TempFile file("fpmismatch");
    EngineOptions writer;
    writer.cacheFile = file.path();
    {
        Engine engine(writer);
        JobSpec s;
        s.benchmark = "majority7";
        ASSERT_TRUE(engine.runJob(s).ok);
    }
    EngineOptions reader = writer;
    reader.equiv.randomBatches = 9;  // different verification effort
    Engine engine(reader);
    EXPECT_EQ(engine.persistInfo().loadStatus,
              LoadStatus::kBadFingerprint);
    EXPECT_EQ(engine.persistInfo().loadedEntries, 0u);
}

// ---- cross-process cache merge (shard coordinator semantics) ---------------

// Two workers computed overlapping key sets; the coordinator's
// newest-LRU-wins merge must keep exactly one entry per key, the merged
// store must save/load clean (load() verifies every checksum), and the
// surviving entry must be the newest one.
TEST(PersistShardMerge, OverlappingWorkerDeltasMergeNewestWins) {
    TempFile file("shardmerge");
    JobResult older = sampleResult();
    older.qor.area = 100.0;
    JobResult newer = sampleResult();
    newer.qor.area = 200.0;

    const auto payloadOf = [](const JobResult& r) {
        std::string bytes;
        serializeJobResult(r, bytes);
        return bytes;
    };
    // Worker 0 computed sig-A early (stamp 1) and sig-B; worker 1
    // recomputed sig-A later in its own LRU time (stamp 8) and adds
    // sig-C. Drain order: worker 0 first.
    std::vector<engine::shard::CacheDelta> deltas = {
        {key("sig-A"), payloadOf(older), 1},
        {key("sig-B"), payloadOf(older), 2},
        {key("sig-A"), payloadOf(newer), 8},
        {key("sig-C"), payloadOf(newer), 3},
    };
    const auto merged = engine::shard::mergeCacheDeltas(std::move(deltas));
    ASSERT_EQ(merged.size(), 3u);

    std::vector<StoreEntry> entries;
    for (const auto& d : merged)
        entries.push_back({d.key, deserializeJobResult(d.payload)});
    ASSERT_TRUE(CacheStore::save(file.path(), "fp", entries, {}));
    const auto loaded = CacheStore::load(file.path(), "fp");
    ASSERT_TRUE(loaded.ok()) << loaded.detail;
    ASSERT_EQ(loaded.entries.size(), 3u);
    for (const auto& e : loaded.entries) {
        if (e.key == key("sig-A")) {
            EXPECT_EQ(e.result->qor.area, 200.0) << "newest entry must win";
        }
    }
}

// End-to-end flavor with real engines standing in for two workers: both
// compute majority7 (overlapping canonical key), each contributes a
// private job, and the merged adoption + flush must yield exactly three
// entries in a clean store.
TEST(PersistShardMerge, TwoEngineDeltasAdoptAndFlushClean) {
    TempFile file("twoengines");
    const auto deltaFor = [](std::initializer_list<const char*> names) {
        Engine engine{EngineOptions{}};
        for (const char* name : names) {
            JobSpec s;
            s.benchmark = name;
            EXPECT_TRUE(engine.runJob(s).ok);
        }
        return engine.cacheDelta();
    };
    auto deltas = deltaFor({"majority7", "counter8"});
    const auto second = deltaFor({"majority7", "adder8"});
    deltas.insert(deltas.end(), second.begin(), second.end());
    const auto merged = engine::shard::mergeCacheDeltas(std::move(deltas));
    ASSERT_EQ(merged.size(), 3u);

    EngineOptions opt;
    opt.cacheFile = file.path();
    Engine coordinator(opt);
    EXPECT_EQ(coordinator.adoptCacheDeltas(merged), 3u);
    std::size_t saved = 0;
    ASSERT_TRUE(coordinator.flushCache(&saved));
    EXPECT_EQ(saved, 3u);
    const auto loaded =
        CacheStore::load(file.path(), persistFingerprint(opt));
    ASSERT_TRUE(loaded.ok()) << loaded.detail;
    EXPECT_EQ(loaded.entries.size(), 3u);
}

// The worker-side delta must exclude entries the engine was warm-started
// with: N read-only workers re-shipping the shared store back to the
// coordinator would be pure pipe waste (and a subtle way to resurrect
// stale entries).
TEST(PersistShardMerge, CacheDeltaExcludesWarmStartedEntries) {
    TempFile file("deltalocal");
    EngineOptions opt;
    opt.cacheFile = file.path();
    std::string warmKey;
    {
        Engine engine(opt);
        JobSpec s;
        s.benchmark = "majority7";
        warmKey = engine.runJob(s).cacheKey;
        ASSERT_TRUE(engine.flushCache());
    }
    EngineOptions readerOpt = opt;
    readerOpt.cacheReadonly = true;
    Engine reader(readerOpt);
    ASSERT_EQ(reader.persistInfo().loadedEntries, 1u);
    JobSpec warm;
    warm.benchmark = "majority7";  // served from the restored entry
    JobSpec fresh;
    fresh.benchmark = "counter8";  // computed locally
    ASSERT_TRUE(reader.runJob(warm).ok);
    const auto freshKey = reader.runJob(fresh).cacheKey;
    const auto delta = reader.cacheDelta();
    ASSERT_EQ(delta.size(), 1u);
    EXPECT_EQ(delta[0].key.hex(), freshKey);
    EXPECT_NE(delta[0].key.hex(), warmKey);
}

// N workers warm-starting read-only from one warm.pdc simultaneously —
// with a writer flushing the same path concurrently — must each get a
// clean load (the save path's atomic rename guarantees readers never
// observe partial bytes) and must never write the store themselves.
TEST(PersistShardMerge, SharedReadonlyWarmStartUnderConcurrentFlush) {
    TempFile file("sharedro");
    EngineOptions writerOpt;
    writerOpt.cacheFile = file.path();
    {
        Engine writer(writerOpt);
        JobSpec s;
        s.benchmark = "majority7";
        ASSERT_TRUE(writer.runJob(s).ok);
        ASSERT_TRUE(writer.flushCache());
    }

    EngineOptions readerOpt = writerOpt;
    readerOpt.cacheReadonly = true;
    std::atomic<bool> done{false};
    std::thread flusher([&] {
        Engine writer(writerOpt);
        JobSpec s;
        s.benchmark = "majority7";
        EXPECT_TRUE(writer.runJob(s).ok);
        while (!done.load()) {
            writer.flushCache();
            std::this_thread::yield();
        }
    });

    std::vector<std::thread> readers;
    std::atomic<std::size_t> warmLoads{0};
    for (int t = 0; t < 4; ++t)
        readers.emplace_back([&] {
            for (int round = 0; round < 5; ++round) {
                Engine reader(readerOpt);
                if (reader.persistInfo().loadStatus ==
                    LoadStatus::kLoaded)
                    ++warmLoads;
                else
                    ADD_FAILURE()
                        << "reader saw "
                        << loadStatusName(reader.persistInfo().loadStatus)
                        << ": " << reader.persistInfo().loadDetail;
                JobSpec s;
                s.benchmark = "majority7";
                const auto r = reader.runJob(s);
                EXPECT_TRUE(r.ok) << r.error;
                EXPECT_EQ(r.cacheSource, CacheSource::kDisk);
            }
        });
    for (auto& t : readers) t.join();
    done.store(true);
    flusher.join();
    EXPECT_EQ(warmLoads.load(), 20u);
    EXPECT_TRUE(
        CacheStore::load(file.path(), persistFingerprint(writerOpt)).ok());
}

// ---- persisted name index + reference guard --------------------------------

[[nodiscard]] std::uint64_t counterValue(const char* name) {
    return obs::counter(name).value();
}

[[nodiscard]] std::vector<JobSpec> indexBatch() {
    std::vector<JobSpec> specs;
    for (const char* name : {"majority7", "counter8", "adder8"}) {
        JobSpec s;
        s.benchmark = name;
        specs.push_back(std::move(s));
    }
    return specs;
}

void expectSameSemantics(const JobResult& a, const JobResult& b) {
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.qor.area, b.qor.area);
    EXPECT_EQ(a.qor.delay, b.qor.delay);
    EXPECT_EQ(a.verification, b.verification);
    EXPECT_EQ(a.vectorsTested, b.vectorsTested);
    EXPECT_EQ(a.cacheKey, b.cacheKey);
}

/// Runs the index batch cold against `file`, flushing the store.
[[nodiscard]] std::vector<JobResult> coldIndexRun(const std::string& file) {
    EngineOptions opt;
    opt.cacheFile = file;
    Engine engine(opt);
    auto results = engine.runBatch(indexBatch());
    for (const auto& r : results) EXPECT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(engine.flushCache());
    return results;
}

TEST(PersistIndex, WarmRunSkipsSpecExpansion) {
    TempFile file("index_warm");
    const auto cold = coldIndexRun(file.path());
    const auto loaded = CacheStore::load(
        file.path(), persistFingerprint(EngineOptions{}));
    ASSERT_TRUE(loaded.ok()) << loaded.detail;
    EXPECT_EQ(loaded.index.size(), 3u);

    EngineOptions opt;
    opt.cacheFile = file.path();
    opt.cacheReadonly = true;
    Engine warm(opt);
    const auto expansions = counterValue("engine.spec.expansions");
    const auto indexHits = counterValue("cache.index.hits");
    const auto warmResults = warm.runBatch(indexBatch());
    EXPECT_EQ(counterValue("engine.spec.expansions"), expansions)
        << "an index hit must not expand the spec";
    EXPECT_EQ(counterValue("cache.index.hits"), indexHits + 3);
    for (std::size_t i = 0; i < warmResults.size(); ++i) {
        ASSERT_TRUE(warmResults[i].ok) << warmResults[i].error;
        EXPECT_EQ(warmResults[i].cacheSource, CacheSource::kDisk);
        expectSameSemantics(cold[i], warmResults[i]);
    }
}

TEST(PersistIndex, StaleEntryIsCaughtByTheReferenceGuard) {
    // The fault points majority7's index entry at another job's digest:
    // the cached netlist it finds fails majority7's reference, so the job
    // recomputes its key and is served from its own entry — and the
    // read-only store stays byte-identical.
    TempFile file("index_stale");
    const auto cold = coldIndexRun(file.path());
    const std::string before = readFile(file.path());

    EngineOptions opt;
    opt.cacheFile = file.path();
    opt.cacheReadonly = true;
    opt.jobs = 1;
    const auto mismatches = counterValue("cache.digest_mismatch");
    const auto expansions = counterValue("engine.spec.expansions");
    std::vector<JobResult> warmResults;
    {
        ScopedFaults faults("cache.index.stale:n1");
        Engine warm(opt);
        warmResults = warm.runBatch(indexBatch());
    }
    EXPECT_EQ(counterValue("cache.digest_mismatch"), mismatches + 1);
    EXPECT_EQ(counterValue("engine.spec.expansions"), expansions + 1)
        << "only the misled job recomputes its key";
    for (std::size_t i = 0; i < warmResults.size(); ++i) {
        ASSERT_TRUE(warmResults[i].ok) << warmResults[i].error;
        expectSameSemantics(cold[i], warmResults[i]);
    }
    EXPECT_EQ(readFile(file.path()), before)
        << "a read-only store is never rewritten";
}

TEST(PersistIndex, ChangedSpecStampMissesTheIndex) {
    const auto bench = *circuits::makeNamedBenchmark("majority7");
    const std::uint64_t stamp = specStamp(bench);
    EXPECT_EQ(specStamp(*circuits::makeNamedBenchmark("majority7")), stamp);
    auto widened = bench;
    widened.ports[0].width += 1;
    EXPECT_NE(specStamp(widened), stamp);
    auto renamed = bench;
    renamed.ports[0].name = "z";
    EXPECT_NE(specStamp(renamed), stamp);

    // A store whose index entries were recorded under other stamps, as
    // after a registry change to the port layout: every lookup misses the
    // index, the jobs recompute their keys (still served from disk, since
    // the functions did not change), and the flush re-stamps the index.
    TempFile file("index_restamp");
    const auto cold = coldIndexRun(file.path());
    const std::string fp = persistFingerprint(EngineOptions{});
    auto loaded = CacheStore::load(file.path(), fp);
    ASSERT_TRUE(loaded.ok()) << loaded.detail;
    for (auto& e : loaded.index) e.stamp ^= 1;
    ASSERT_TRUE(
        CacheStore::save(file.path(), fp, loaded.entries, loaded.index));

    EngineOptions opt;
    opt.cacheFile = file.path();
    const auto misses = counterValue("cache.index.misses");
    const auto expansions = counterValue("engine.spec.expansions");
    {
        Engine warm(opt);
        const auto results = warm.runBatch(indexBatch());
        for (std::size_t i = 0; i < results.size(); ++i) {
            ASSERT_TRUE(results[i].ok) << results[i].error;
            EXPECT_EQ(results[i].cacheSource, CacheSource::kDisk);
            expectSameSemantics(cold[i], results[i]);
        }
    }
    EXPECT_EQ(counterValue("cache.index.misses"), misses + 3);
    EXPECT_EQ(counterValue("engine.spec.expansions"), expansions + 3);
    const auto restamped = CacheStore::load(file.path(), fp);
    ASSERT_TRUE(restamped.ok()) << restamped.detail;
    ASSERT_EQ(restamped.index.size(), 3u);
    for (const auto& e : restamped.index) {
        if (e.name.starts_with("majority7|")) {
            EXPECT_EQ(e.stamp, stamp);
        }
    }
}

TEST(PersistEngine, ConcurrentSaveWhileComputing) {
    TempFile file("concurrent");
    EngineOptions opt;
    opt.cacheFile = file.path();
    opt.jobs = 4;
    Engine engine(opt);

    std::vector<JobSpec> specs;
    for (const char* name :
         {"majority7", "counter8", "adder8", "comparator8"}) {
        JobSpec s;
        s.benchmark = name;
        specs.push_back(std::move(s));
    }

    // Hammer flushCache from two threads while the batch computes:
    // snapshots must only ever contain ready entries, and every written
    // file version must be fully valid.
    std::atomic<bool> done{false};
    const auto flusher = [&] {
        while (!done.load()) {
            engine.flushCache();
            const auto loaded =
                CacheStore::load(file.path(), persistFingerprint(opt));
            if (loaded.status != LoadStatus::kNoFile) {
                EXPECT_TRUE(loaded.ok()) << loaded.detail;
            }
            std::this_thread::yield();
        }
    };
    std::thread t1(flusher), t2(flusher);
    const auto results = engine.runBatch(specs);
    done.store(true);
    t1.join();
    t2.join();
    for (const auto& r : results) ASSERT_TRUE(r.ok) << r.error;

    ASSERT_TRUE(engine.flushCache());
    const auto loaded =
        CacheStore::load(file.path(), persistFingerprint(opt));
    ASSERT_TRUE(loaded.ok()) << loaded.detail;
    EXPECT_EQ(loaded.entries.size(), specs.size());
}

}  // namespace
}  // namespace pd::engine::persist
