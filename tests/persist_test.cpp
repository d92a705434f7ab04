// Persistent-store tests: byte-level format round-trips, the pd-cache-v5
// store contract — loud rejection of every corruption class (truncation,
// bit flips, other versions, foreign fingerprints) as a clean cold
// start, checksummed-prefix salvage, injected save/load faults, and the
// pinned on-disk bytes of the format — a kResult whose records are
// store record bodies, first-in-wins adoption of worker records, engine
// warm-start/flush end-to-end, the persisted name index and the
// reference guard behind it (stale entries, changed specs), and a
// concurrent save-while-computing hammer. All failure paths must
// neither crash nor serve a wrong answer — a bad file is equivalent to
// no file.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <thread>

#include "circuits/registry.hpp"
#include "engine/engine.hpp"
#include "engine/persist/format.hpp"
#include "engine/persist/serialize.hpp"
#include "engine/persist/store.hpp"
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

// ---- the store contract ----------------------------------------------------

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

/// Offset of the first record in a store saved under "fp".
constexpr std::size_t kHeaderEnd =
    8 /*magic*/ + 4 /*version*/ + (4 + 2) /*"fp" str*/ + 8 /*count*/;
/// Bytes after the last entry: the empty index section's count.
constexpr std::size_t kTail = 8;
/// FNV-1a of pinnedSave()'s bytes. A different value is a format change,
/// which needs a kFormatVersion bump, not a new constant.
constexpr std::uint64_t kPinnedFnv = 0xbaf2c707d939ac9full;  // pd-cache-v5

/// Three result entries; the index section stays empty except in the
/// pinned file.
[[nodiscard]] std::vector<StoreEntry> threeEntries() {
    std::vector<StoreEntry> entries;
    for (const char* label : {"sig-A", "sig-B", "sig-C"})
        entries.push_back(
            {key(label), std::make_shared<const JobResult>(sampleResult())});
    return entries;
}

[[nodiscard]] std::vector<StoreEntry> oneEntry() {
    auto all = threeEntries();
    all.resize(1);
    return all;
}

bool saveEntries(const std::string& path, std::string_view fp,
                 std::span<const StoreEntry> entries,
                 std::string* error = nullptr) {
    return CacheStore::save(path, fp, entries, {}, error);
}

bool pinnedSave(const std::string& path) {
    const std::vector<JobIndex::Entry> index = {
        {"adder8|k4", 7, key("sig-A")}, {"counter8|k4", 9, key("sig-C")}};
    return CacheStore::save(path, "pin", threeEntries(), index);
}

void expectSameEntry(const StoreEntry& a, const StoreEntry& b) {
    EXPECT_EQ(a.key, b.key);
    expectSameResult(*a.result, *b.result);
}

TEST(PersistStore, SaveLoadRoundTrip) {
    TempFile file("roundtrip");
    std::string error;
    ASSERT_TRUE(saveEntries(file.path(), "fp1", threeEntries(), &error))
        << error;
    const auto loaded = CacheStore::load(file.path(), "fp1");
    ASSERT_TRUE(loaded.ok()) << loaded.detail;
    ASSERT_EQ(loaded.entries.size(), 3u);
    const auto expected = threeEntries();
    for (std::size_t i = 0; i < 3; ++i)
        expectSameEntry(loaded.entries[i], expected[i]);
}

TEST(PersistStore, FormatIsPinned) {
    // The on-disk bytes are a contract: stores written by earlier builds
    // must keep loading. A refactor that changes a single byte of the
    // format fails here, not in a user's warm start.
    TempFile file("pinned");
    ASSERT_TRUE(pinnedSave(file.path()));
    EXPECT_EQ(fileFnv(file.path()), kPinnedFnv)
        << std::hex << "0x" << fileFnv(file.path());
}

TEST(PersistStore, MissingFileIsACleanColdStart) {
    const auto loaded = CacheStore::load("/nonexistent/dir/none.pdc", "fp");
    EXPECT_EQ(loaded.status, LoadStatus::kNoFile);
    EXPECT_FALSE(loaded.usable());
    EXPECT_TRUE(loaded.entries.empty());
}

TEST(PersistStore, RejectsTruncatedFile) {
    TempFile file("truncated");
    ASSERT_TRUE(saveEntries(file.path(), "fp", oneEntry()));
    const std::string bytes = readFile(file.path());
    ASSERT_GT(bytes.size(), 16u);
    // Every truncation point inside the entry must reject cleanly, never
    // crash.
    for (const std::size_t keep :
         {bytes.size() - kTail - 1, bytes.size() / 2, std::size_t{13},
          std::size_t{7}, std::size_t{0}}) {
        writeFile(file.path(), bytes.substr(0, keep));
        const auto loaded = CacheStore::load(file.path(), "fp");
        EXPECT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
        EXPECT_TRUE(loaded.entries.empty());
    }
}

TEST(PersistStore, RejectsEveryFlippedByte) {
    TempFile file("checksum");
    ASSERT_TRUE(saveEntries(file.path(), "fp", oneEntry()));
    const std::string bytes = readFile(file.path());
    // Flip one byte in every position after magic and version; each must
    // be caught by the fingerprint check, a length prefix, a record
    // checksum or the trailing-byte rule.
    const std::size_t from = kMagic.size() + 4;
    std::size_t rejected = 0;
    for (std::size_t i = from; i < bytes.size(); ++i) {
        std::string bad = bytes;
        bad[i] = static_cast<char>(bad[i] ^ 0x01);
        writeFile(file.path(), bad);
        if (!CacheStore::load(file.path(), "fp").ok()) ++rejected;
    }
    EXPECT_EQ(rejected, bytes.size() - from);
}

TEST(PersistStore, RejectsOtherFormatVersions) {
    TempFile file("version");
    ASSERT_TRUE(saveEntries(file.path(), "fp", oneEntry()));
    const std::string bytes = readFile(file.path());
    // Past versions (a v1 store inherited by CI) and future ones must be
    // rejected loudly as bad-version, never decoded.
    for (const std::uint32_t v :
         {0u, 1u, kFormatVersion - 1, kFormatVersion + 1, 99u}) {
        if (v == kFormatVersion) continue;
        std::string mutated = bytes;
        mutated[kMagic.size()] = static_cast<char>(v);  // u32 LE
        writeFile(file.path(), mutated);
        const auto loaded = CacheStore::load(file.path(), "fp");
        EXPECT_EQ(loaded.status, LoadStatus::kBadVersion);
        EXPECT_NE(loaded.detail.find("version " + std::to_string(v)),
                  std::string::npos)
            << loaded.detail;
    }
}

TEST(PersistStore, RejectsBadMagic) {
    TempFile file("magic");
    writeFile(file.path(), "this is not a store at all");
    EXPECT_EQ(CacheStore::load(file.path(), "fp").status,
              LoadStatus::kBadMagic);
}

TEST(PersistStore, RejectsMismatchedFingerprint) {
    TempFile file("fingerprint");
    ASSERT_TRUE(saveEntries(file.path(), "fp-writer", threeEntries()));
    const auto loaded = CacheStore::load(file.path(), "fp-reader");
    EXPECT_EQ(loaded.status, LoadStatus::kBadFingerprint);
    EXPECT_NE(loaded.detail.find("fp-writer"), std::string::npos);
    EXPECT_NE(loaded.detail.find("fp-reader"), std::string::npos);
}

TEST(PersistStore, TruncatedTailSalvagesTheIntactPrefix) {
    TempFile file("salvage_trunc");
    ASSERT_TRUE(saveEntries(file.path(), "fp", threeEntries()));
    const std::string bytes = readFile(file.path());
    // One byte into the last entry's checksum.
    writeFile(file.path(), bytes.substr(0, bytes.size() - kTail - 1));
    const auto loaded = CacheStore::load(file.path(), "fp");
    EXPECT_EQ(loaded.status, LoadStatus::kSalvaged);
    EXPECT_TRUE(loaded.usable());
    EXPECT_FALSE(loaded.ok()) << "salvaged must stay distinct from loaded";
    ASSERT_EQ(loaded.entries.size(), 2u);
    const auto expected = threeEntries();
    expectSameEntry(loaded.entries[0], expected[0]);
    expectSameEntry(loaded.entries[1], expected[1]);
    // The torn last entry still leaves room for one intact minimal entry.
    EXPECT_EQ(loaded.droppedEntries, 1u);
    EXPECT_NE(loaded.detail.find("salvaged 2 of 3"), std::string::npos)
        << loaded.detail;
}

TEST(PersistStore, FlippedByteInTheLastEntrySalvagesTheRest) {
    TempFile file("salvage_flip");
    for (const std::size_t fromEnd : {kTail + 2, kTail + 10}) {
        ASSERT_TRUE(saveEntries(file.path(), "fp", threeEntries()));
        std::string bytes = readFile(file.path());
        const std::size_t at = bytes.size() - fromEnd;
        bytes[at] = static_cast<char>(bytes[at] ^ 0x01);
        writeFile(file.path(), bytes);
        const auto loaded = CacheStore::load(file.path(), "fp");
        EXPECT_EQ(loaded.status, LoadStatus::kSalvaged);
        EXPECT_TRUE(loaded.usable());
        ASSERT_EQ(loaded.entries.size(), 2u);
        EXPECT_EQ(loaded.droppedEntries, 1u);
        // The surviving entries are checksum-verified, not just hoped-for.
        const auto expected = threeEntries();
        expectSameEntry(loaded.entries[0], expected[0]);
        expectSameEntry(loaded.entries[1], expected[1]);
    }
}

TEST(PersistStore, DamagedFirstEntryMeansNoSalvage) {
    // A prefix of zero entries is indistinguishable from random damage:
    // the load must reject outright (kCorrupt), not report a successful
    // zero-entry salvage.
    TempFile file("salvage_none");
    for (const std::size_t into : {0u, 4u}) {
        ASSERT_TRUE(saveEntries(file.path(), "fp", threeEntries()));
        std::string bytes = readFile(file.path());
        const std::size_t at = kHeaderEnd + into;
        bytes[at] = static_cast<char>(bytes[at] ^ 0x01);
        writeFile(file.path(), bytes);
        const auto loaded = CacheStore::load(file.path(), "fp");
        EXPECT_EQ(loaded.status, LoadStatus::kCorrupt);
        EXPECT_FALSE(loaded.usable());
        EXPECT_TRUE(loaded.entries.empty());
    }
}

TEST(PersistStore, CorruptCountFieldClampsDroppedEntries) {
    // Worst placement for a single bit flip: the count field itself. The
    // declared count becomes astronomically large, so `count - salvaged`
    // is a garbage number — the drop accounting must clamp to what the
    // remaining bytes could plausibly hold and flag the count untrusted
    // rather than publish the garbage.
    TempFile file("salvage_count");
    ASSERT_TRUE(saveEntries(file.path(), "fp", threeEntries()));
    std::string bytes = readFile(file.path());
    // Little-endian high byte: declared count jumps to ~2^59.
    const std::size_t high = kHeaderEnd - 1;
    bytes[high] = static_cast<char>(bytes[high] ^ 0x08);
    writeFile(file.path(), bytes);
    const auto loaded = CacheStore::load(file.path(), "fp");
    EXPECT_EQ(loaded.status, LoadStatus::kSalvaged);
    ASSERT_EQ(loaded.entries.size(), 3u)
        << "every checksummed entry must still be adopted";
    EXPECT_EQ(loaded.droppedEntries, 0u)
        << "no room remains, so no real entries can have been dropped";
    EXPECT_NE(loaded.detail.find("declared entry count untrusted"),
              std::string::npos)
        << loaded.detail;
}

TEST(PersistStore, TrailingBytesAreSalvagedNotTrusted) {
    // Every declared record validates but the file keeps going: the count
    // fields can't be trusted, the records can.
    TempFile file("trailing");
    ASSERT_TRUE(saveEntries(file.path(), "fp", threeEntries()));
    writeFile(file.path(), readFile(file.path()) + "junk");
    const auto loaded = CacheStore::load(file.path(), "fp");
    EXPECT_EQ(loaded.status, LoadStatus::kSalvaged);
    EXPECT_EQ(loaded.entries.size(), 3u);
    EXPECT_EQ(loaded.droppedEntries, 0u);
    EXPECT_NE(loaded.detail.find("4 trailing bytes"), std::string::npos)
        << loaded.detail;
}

TEST(PersistStore, EnospcFailsTheSaveAndLeavesNoFile) {
    TempFile file("fault_enospc");
    std::string error;
    {
        ScopedFaults faults("persist.save.enospc:n1");
        EXPECT_FALSE(saveEntries(file.path(), "fp", threeEntries(), &error));
        EXPECT_NE(error.find("no space left on device"), std::string::npos)
            << error;
    }
    EXPECT_EQ(CacheStore::load(file.path(), "fp").status, LoadStatus::kNoFile)
        << "a failed save must not leave a target file behind";
    EXPECT_TRUE(saveEntries(file.path(), "fp", threeEntries()));
}

TEST(PersistStore, ShortWriteLeavesATornStoreTheLoadContains) {
    // The nastiest disk failure: the save *reports success* but the
    // store is torn mid-file. The next load must contain the damage —
    // salvage the intact prefix or reject — never crash or serve junk.
    TempFile file("fault_short");
    {
        ScopedFaults faults("persist.save.short_write:n1");
        EXPECT_TRUE(saveEntries(file.path(), "fp", threeEntries()));
    }
    const auto loaded = CacheStore::load(file.path(), "fp");
    EXPECT_FALSE(loaded.ok());
    if (loaded.status == LoadStatus::kSalvaged) {
        EXPECT_GE(loaded.entries.size(), 1u);
        EXPECT_LT(loaded.entries.size(), 3u);
    } else {
        EXPECT_EQ(loaded.status, LoadStatus::kCorrupt);
        EXPECT_TRUE(loaded.entries.empty());
    }
}

TEST(PersistStore, RenameFailureKeepsThePreviousStoreVersion) {
    TempFile file("fault_rename");
    ASSERT_TRUE(saveEntries(file.path(), "fp", threeEntries()));
    const std::string before = readFile(file.path());
    std::string error;
    {
        ScopedFaults faults("persist.save.rename:n1");
        EXPECT_FALSE(saveEntries(file.path(), "fp", oneEntry(), &error));
        EXPECT_NE(error.find("persist.save.rename"),
                  std::string::npos)
            << error;
    }
    EXPECT_EQ(readFile(file.path()), before)
        << "an aborted save must leave the previous version byte-intact";
}

TEST(PersistStore, LoadFlipIsCaughtAndClearsWhenDisarmed) {
    TempFile file("fault_flip");
    ASSERT_TRUE(saveEntries(file.path(), "fp", threeEntries()));
    {
        ScopedFaults faults("persist.load.flip:n1");
        const auto loaded = CacheStore::load(file.path(), "fp");
        EXPECT_FALSE(loaded.ok());
        EXPECT_TRUE(loaded.status == LoadStatus::kSalvaged ||
                    loaded.status == LoadStatus::kCorrupt);
    }
    EXPECT_TRUE(CacheStore::load(file.path(), "fp").ok())
        << "the file itself was never damaged; disarmed loads are clean";
}

// ---- the name-index section ------------------------------------------------

TEST(PersistStore, SaveLoadRoundTripKeepsTheIndex) {
    TempFile file("roundtrip_index");
    std::string error;
    const std::vector<JobIndex::Entry> index = {
        {"adder8|k4", 7, key("sig-A")}, {"counter8|k4", 9, key("sig-B")}};
    ASSERT_TRUE(CacheStore::save(file.path(), "fp1", threeEntries(),
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
        CacheStore::save(file.path(), "fp", threeEntries(), index));
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

// ---- a kResult's records are store record bodies ---------------------------

// One cache entry and one index entry ride one kResult: each decodes
// field by field, and the frame's record section is exactly the record
// bodies the store writes (each record minus its checksum).
TEST(PersistWire, ResultRecordsAreTheStoreRecordBodies) {
    const StoreEntry entry{key("sig-A"),
                           std::make_shared<const JobResult>(sampleResult())};
    const JobIndex::Entry index{"adder8|k4", 7, key("sig-A")};

    TempFile cacheFile("wire_cache");
    ASSERT_TRUE(
        CacheStore::save(cacheFile.path(), "fp", {&entry, 1}, {&index, 1}));
    const std::string cacheBytes = readFile(cacheFile.path());
    // The entry body is its key and its length-prefixed payload; the
    // index record follows the entry's checksum and the index count.
    const std::size_t entryBody =
        16 + 4 + ByteReader(cacheBytes.substr(kHeaderEnd + 16, 4)).u32();
    const std::size_t indexStart = kHeaderEnd + entryBody + 8 + 8;
    std::string expected;
    ByteWriter w(expected);
    w.u32(1);
    expected += cacheBytes.substr(kHeaderEnd, entryBody);
    w.u32(1);
    expected += cacheBytes.substr(indexStart, cacheBytes.size() - indexStart - 8);

    engine::shard::StoreRecords records;
    records.entries.push_back({entry.key, entry.result});
    records.index.push_back(index);
    JobResult r = sampleResult();
    r.name = "adder8";
    const std::string payload = engine::shard::encodeResult(5, r, records);
    ASSERT_GE(payload.size(), expected.size());
    EXPECT_EQ(payload.substr(payload.size() - expected.size()), expected);

    auto [tag, back, got] = engine::shard::decodeResult(payload);
    EXPECT_EQ(tag, 5u);
    EXPECT_EQ(back.name, "adder8");
    ASSERT_EQ(got.entries.size(), 1u);
    EXPECT_EQ(got.entries[0].key, entry.key);
    expectSameResult(*got.entries[0].value, *entry.result);
    ASSERT_EQ(got.index.size(), 1u);
    EXPECT_EQ(got.index[0].name, index.name);
    EXPECT_EQ(got.index[0].stamp, index.stamp);
    EXPECT_EQ(got.index[0].digest, index.digest);
    EXPECT_THROW((void)engine::shard::decodeResult(payload + "x"), pd::Error);
    EXPECT_THROW(
        (void)engine::shard::decodeResult(payload.substr(0, payload.size() - 1)),
        pd::Error);
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
        // The store exists; it was deliberately not read, which is not
        // the same as finding nothing there.
        EXPECT_EQ(engine.persistInfo().loadStatus, LoadStatus::kDisabled);
        EXPECT_EQ(loadStatusName(engine.persistInfo().loadStatus),
                  "disabled");
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

// ---- cross-process record adoption (shard coordinator semantics) -----------

// Two workers' bundles share a cache key. Equal keys name the same
// functions under the same options, so no merge rule can prefer either
// copy on content: the first bundle in wins, and the flushed store holds
// one record for the shared key.
TEST(PersistShardMerge, SharedKeyFirstBundleInWins) {
    TempFile cacheFile("firstin");
    const auto bundle = [](double area, const char* other) {
        JobResult shared = sampleResult();
        shared.qor.area = area;
        engine::shard::StoreRecords r;
        r.entries.push_back(
            {key("sig-A"), std::make_shared<const JobResult>(shared)});
        r.entries.push_back(
            {key(other), std::make_shared<const JobResult>(sampleResult())});
        return r;
    };
    EngineOptions opt;
    opt.cacheFile = cacheFile.path();
    {
        Engine coordinator(opt);
        coordinator.adoptStoreRecords(bundle(100.0, "sig-B"));
        coordinator.adoptStoreRecords(bundle(200.0, "sig-C"));
        std::size_t saved = 0;
        ASSERT_TRUE(coordinator.flushCache(&saved));
        EXPECT_EQ(saved, 3u);
    }
    const auto loaded =
        CacheStore::load(cacheFile.path(), persistFingerprint(opt));
    ASSERT_TRUE(loaded.ok()) << loaded.detail;
    ASSERT_EQ(loaded.entries.size(), 3u);
    for (const auto& e : loaded.entries) {
        if (e.key == key("sig-A")) {
            EXPECT_EQ(e.result->qor.area, 100.0) << "the first bundle wins";
        }
    }
}

// End-to-end flavor with real engines standing in for two workers: both
// compute majority7 (overlapping canonical key), each contributes a
// private job, and adopting every answer's bundle then flushing must
// yield exactly three entries, each named by the index, in a clean store.
TEST(PersistShardMerge, TwoEngineRecordsAdoptAndFlushClean) {
    TempFile file("twoengines");
    const auto recordsFor = [](std::initializer_list<const char*> names) {
        Engine engine{EngineOptions{}};
        std::vector<engine::shard::StoreRecords> bundles;
        for (const char* name : names) {
            JobSpec s;
            s.benchmark = name;
            auto [result, records] = engine.runWireJob(s);
            EXPECT_TRUE(result.ok);
            // Each answer carries its own job's entry and index entry.
            EXPECT_EQ(records.entries.size(), 1u) << name;
            EXPECT_EQ(records.index.size(), 1u) << name;
            bundles.push_back(std::move(records));
        }
        return bundles;
    };
    auto first = recordsFor({"majority7", "counter8"});
    auto second = recordsFor({"majority7", "adder8"});

    EngineOptions opt;
    opt.cacheFile = file.path();
    Engine coordinator(opt);
    for (auto* bundles : {&first, &second})
        for (auto& records : *bundles)
            coordinator.adoptStoreRecords(std::move(records));
    std::size_t saved = 0;
    ASSERT_TRUE(coordinator.flushCache(&saved));
    EXPECT_EQ(saved, 3u);
    const auto loaded =
        CacheStore::load(file.path(), persistFingerprint(opt));
    ASSERT_TRUE(loaded.ok()) << loaded.detail;
    EXPECT_EQ(loaded.entries.size(), 3u);
    EXPECT_EQ(loaded.index.size(), 3u);
}

// A worker's records exclude everything it was warm-started with — N
// read-only workers re-shipping the shared store back to the
// coordinator would be pure pipe waste (and a subtle way to resurrect
// stale entries) — and each record is handed out once.
TEST(PersistShardMerge, StoreRecordsExcludeWarmStartedRecords) {
    TempFile cacheFile("deltalocal");
    EngineOptions opt;
    opt.cacheFile = cacheFile.path();
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
    const auto [warmResult, warmRecords] = reader.runWireJob(warm);
    ASSERT_TRUE(warmResult.ok);
    EXPECT_TRUE(warmRecords.entries.empty());
    EXPECT_TRUE(warmRecords.index.empty());
    const auto [freshResult, records] = reader.runWireJob(fresh);
    const std::string& freshKey = freshResult.cacheKey;
    ASSERT_EQ(records.entries.size(), 1u);
    EXPECT_EQ(records.entries[0].key.hex(), freshKey);
    EXPECT_NE(records.entries[0].key.hex(), warmKey);
    ASSERT_EQ(records.index.size(), 1u);
    EXPECT_EQ(records.index[0].name.rfind("counter8", 0), 0u)
        << records.index[0].name;
    EXPECT_EQ(records.index[0].digest.hex(), freshKey);

    // A repeat is a hit on the entry already handed out.
    const auto again = reader.runWireJob(fresh).second;
    EXPECT_TRUE(again.entries.empty());
    EXPECT_TRUE(again.index.empty());
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
