// Golden-file validation of the pd-batch-report-v1 document: a real
// batch's report is parsed with the repo's JSON parser and checked
// against the schema shipped in tests/data/ — required members present
// and every member of the right JSON type, recursively. The validator
// implements the subset of JSON Schema the golden file uses (type,
// required, properties, items, plus a "values" keyword for map-shaped
// objects), so schema drift in either direction fails loudly here.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "engine/engine.hpp"
#include "engine/report_json.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/json.hpp"

namespace pd {
namespace {

using util::JsonValue;

bool typeMatches(const JsonValue& v, const std::string& type) {
    if (type == "object") return v.isObject();
    if (type == "array") return v.isArray();
    if (type == "string") return v.isString();
    if (type == "number") return v.isNumber();
    if (type == "boolean") return v.isBool();
    if (type == "null") return v.isNull();
    ADD_FAILURE() << "schema names unknown type '" << type << "'";
    return false;
}

void validate(const JsonValue& value, const JsonValue& schema,
              const std::string& path) {
    if (const JsonValue* type = schema.find("type")) {
        if (!typeMatches(value, type->asString())) {
            ADD_FAILURE() << path << ": expected " << type->asString();
            return;
        }
    }
    if (const JsonValue* required = schema.find("required")) {
        for (const auto& name : required->asArray())
            if (value.find(name.asString()) == nullptr)
                ADD_FAILURE() << path << ": missing required member '"
                              << name.asString() << "'";
    }
    if (const JsonValue* props = schema.find("properties")) {
        for (const auto& [name, sub] : props->asObject())
            if (const JsonValue* member = value.find(name))
                validate(*member, sub, path + "." + name);
    }
    if (const JsonValue* values = schema.find("values")) {
        // Map-shaped object: every member validates against one schema.
        if (value.isObject())
            for (const auto& [name, member] : value.asObject())
                validate(member, *values, path + "." + name);
    }
    if (const JsonValue* items = schema.find("items")) {
        if (value.isArray()) {
            std::size_t i = 0;
            for (const auto& e : value.asArray())
                validate(e, *items, path + "[" + std::to_string(i++) + "]");
        }
    }
}

JsonValue loadSchema() {
    std::ifstream is(PD_REPORT_SCHEMA_JSON);
    EXPECT_TRUE(is.is_open())
        << "cannot open schema " << PD_REPORT_SCHEMA_JSON;
    std::ostringstream buf;
    buf << is.rdbuf();
    JsonValue schema;
    std::string error;
    EXPECT_TRUE(util::parseJson(buf.str(), schema, &error)) << error;
    return schema;
}

TEST(ReportSchemaTest, BatchReportMatchesGoldenSchema) {
    obs::resetMetricsForTest();

    engine::EngineOptions eopt;
    eopt.jobs = 2;
    engine::Engine engine(eopt);
    engine::JobSpec a;
    a.benchmark = "majority7";
    engine::JobSpec b;
    b.benchmark = "counter8";
    const auto results = engine.runBatch({a, b});
    ASSERT_EQ(results.size(), 2u);

    std::ostringstream os;
    engine::writeBatchReport(os, eopt, results, engine.cacheStats());

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(util::parseJson(os.str(), doc, &error))
        << error << "\nreport was:\n"
        << os.str();
    validate(doc, loadSchema(), "$");

    // Spot checks beyond shape: schema identity and the observability
    // block reflecting the batch that just ran.
    EXPECT_EQ(doc.find("schema")->asString(), "pd-batch-report-v1");
    EXPECT_EQ(doc.findPath("engine.build.schemas.report")->asString(),
              "pd-batch-report-v1");
    const JsonValue* counters = doc.findPath("observability.counters");
    ASSERT_NE(counters, nullptr);
    const JsonValue* misses = counters->find("cache.miss");
    ASSERT_NE(misses, nullptr) << "a cold batch must record cache misses";
    EXPECT_GE(misses->asInt(), 2);
    // The key path: both cold jobs missed and expanded their spec;
    // nothing was mis-served.
    ASSERT_NE(counters->find("engine.spec.expansions"), nullptr);
    EXPECT_EQ(counters->find("engine.spec.expansions")->asInt(), 2);
    EXPECT_EQ(counters->find("cache.digest_mismatch")->asInt(), 0);
    for (const auto& job : doc.find("jobs")->asArray()) {
        const JsonValue* phases = job.findPath("timing.phases");
        ASSERT_NE(phases, nullptr);
        EXPECT_GT(phases->find("resolve_ms")->asNumber(), 0.0)
            << "a cold job's spec expansion must be attributed";
        EXPECT_EQ(job.findPath("cache.key")->asString().size(), 32u);
    }
    // Queries count at the membership entry point, so they fire even
    // when every query dies in the coverage pre-check (as it does for
    // these small benchmarks); "ring.member.solves" counts only the
    // rarer full solver builds.
    const JsonValue* queries = counters->find("ring.member.queries");
    ASSERT_NE(queries, nullptr);
    EXPECT_GT(queries->asInt(), 0);

    // The LRU-age census runs at the end of every batch. (Member-wise
    // lookup: findPath would split the dotted metric name itself.)
    const JsonValue* hists = doc.findPath("observability.histograms");
    ASSERT_NE(hists, nullptr);
    const JsonValue* age = hists->find("cache.entry.lru_age");
    ASSERT_NE(age, nullptr);
    EXPECT_EQ(age->find("count")->asInt(), 2);
    ASSERT_TRUE(age->find("buckets")->isArray());
    EXPECT_EQ(age->find("buckets")->asArray().size(), 33u);

    // The resilience block is always present and all-zero on a healthy
    // run with no armed faults.
    const JsonValue* resilience = doc.find("resilience");
    ASSERT_NE(resilience, nullptr);
    EXPECT_EQ(resilience->find("worker_crashes")->asInt(), 0);
    EXPECT_EQ(resilience->find("fallback_jobs")->asInt(), 0);
    EXPECT_EQ(resilience->find("interrupted_jobs")->asInt(), 0);
    EXPECT_TRUE(resilience->find("armed_faults")->asArray().empty());
}

TEST(ReportSchemaTest, BuildProvenanceIsPopulated) {
    engine::EngineOptions eopt;
    std::ostringstream os;
    engine::writeBatchReport(os, eopt, {}, engine::ResultCache::Stats{});
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(util::parseJson(os.str(), doc, &error)) << error;
    // The compiler is always identifiable; the git fields depend on the
    // build tree but must at least be non-empty strings.
    EXPECT_FALSE(doc.findPath("engine.build.compiler")->asString().empty());
    EXPECT_FALSE(doc.findPath("engine.build.git_hash")->asString().empty());
    EXPECT_EQ(doc.findPath("engine.build.schemas.shard_wire")->asInt(), 14);
    EXPECT_EQ(doc.findPath("engine.build.schemas.cache_store")->asString(),
              "pd-cache-v6");
    EXPECT_EQ(doc.findPath("engine.shard_transport")->asString(), "socket");
    EXPECT_EQ(doc.findPath("engine.build.schemas.proof_store"), nullptr);
}

}  // namespace
}  // namespace pd
