/**
 * @file
 * Request parsing and response building for the sweep service
 * protocol. The negative cases are the contract the daemon stakes
 * its uptime on: every malformed request — wrong types, unknown
 * fields, invalid specs — must come back as a structured error, with
 * the request id echoed, and never populate a half-parsed request.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "service/protocol.hh"
#include "sim/sweep_runner.hh"

using namespace sbsim;
using namespace sbsim::service;

namespace {

Request
parseOk(const std::string &line)
{
    RequestParse r = parseRequest(line);
    EXPECT_TRUE(r.ok()) << line << " -> " << r.error;
    return r.request;
}

std::string
parseErr(const std::string &line)
{
    RequestParse r = parseRequest(line);
    EXPECT_FALSE(r.ok()) << line << " unexpectedly parsed";
    return r.error;
}

} // namespace

TEST(ServiceProtocol, SimpleOps)
{
    EXPECT_EQ(parseOk(R"({"op": "ping"})").op, RequestOp::PING);
    EXPECT_EQ(parseOk(R"({"op": "stats"})").op, RequestOp::STATS);
    EXPECT_EQ(parseOk(R"({"op": "shutdown"})").op,
              RequestOp::SHUTDOWN);
}

TEST(ServiceProtocol, IdIsEchoedAsAJsonToken)
{
    EXPECT_EQ(parseOk(R"({"op": "ping"})").idJson, "null");
    EXPECT_EQ(parseOk(R"({"id": 7, "op": "ping"})").idJson, "7");
    EXPECT_EQ(parseOk(R"({"id": "a\"b", "op": "ping"})").idJson,
              "\"a\\\"b\"");

    // Ids of other types are rejected, not coerced.
    parseErr(R"({"id": true, "op": "ping"})");
    parseErr(R"({"id": -1, "op": "ping"})");
    parseErr(R"({"id": 1.5, "op": "ping"})");
    parseErr(R"({"id": [1], "op": "ping"})");
}

TEST(ServiceProtocol, RunSpecFieldsAndDefaults)
{
    Request req = parseOk(
        R"({"op": "run", "spec": {"benchmark": "embar"}})");
    EXPECT_EQ(req.op, RequestOp::RUN);
    EXPECT_EQ(req.spec.benchmark, "embar");
    EXPECT_EQ(req.spec.refs, 1500000u);
    EXPECT_EQ(req.spec.streams, 10u);
    EXPECT_EQ(req.spec.depth, 2u);
    EXPECT_FALSE(req.spec.unitFilter);
    EXPECT_FALSE(req.spec.l2Model.has_value());

    req = parseOk(R"({"op": "run", "spec": {
        "benchmark": "embar", "refs": 50000, "streams": 6,
        "depth": 4, "filter": true, "czone": 16,
        "partitioned": true, "victim": 8, "shuffled_pages": true,
        "page_bits": 14, "l2": 256, "l2_model": "both", "bus": 3,
        "sample": true, "scale": "small"}})");
    EXPECT_EQ(req.spec.refs, 50000u);
    EXPECT_EQ(req.spec.streams, 6u);
    EXPECT_EQ(req.spec.depth, 4u);
    EXPECT_TRUE(req.spec.unitFilter);
    ASSERT_TRUE(req.spec.czoneBits.has_value());
    EXPECT_EQ(*req.spec.czoneBits, 16u);
    EXPECT_TRUE(req.spec.partitioned);
    EXPECT_EQ(req.spec.victimEntries, 8u);
    EXPECT_TRUE(req.spec.shuffledPages);
    EXPECT_EQ(req.spec.pageBits, 14u);
    EXPECT_EQ(req.spec.l2KiloBytes, 256u);
    ASSERT_TRUE(req.spec.l2Model.has_value());
    EXPECT_EQ(*req.spec.l2Model, L2ModelKind::BOTH);
    EXPECT_EQ(req.spec.busCycles, 3u);
    EXPECT_TRUE(req.spec.timeSample);
    EXPECT_EQ(req.spec.scale, ScaleLevel::SMALL);
}

TEST(ServiceProtocol, SweepValuesAndDefaults)
{
    Request req = parseOk(
        R"({"op": "sweep", "spec": {"benchmark": "embar"}})");
    EXPECT_EQ(req.op, RequestOp::SWEEP);
    EXPECT_EQ(req.values,
              (std::vector<std::uint32_t>{1, 2, 4, 6, 8, 10}));

    req = parseOk(R"({"op": "sweep",
        "spec": {"benchmark": "embar"}, "values": [2, 8]})");
    EXPECT_EQ(req.values, (std::vector<std::uint32_t>{2, 8}));

    parseErr(R"({"op": "sweep", "spec": {"benchmark": "embar"},
        "values": []})");
    parseErr(R"({"op": "sweep", "spec": {"benchmark": "embar"},
        "values": [0]})");
    parseErr(R"({"op": "sweep", "spec": {"benchmark": "embar"},
        "values": [1, 65]})");
    parseErr(R"({"op": "sweep", "spec": {"benchmark": "embar"},
        "values": [4294967295]})");
    parseErr(R"({"op": "sweep", "spec": {"benchmark": "embar"},
        "values": [1, "two"]})");
    parseErr(R"({"op": "sweep", "spec": {"benchmark": "embar"},
        "values": 4})");
}

TEST(ServiceProtocol, StreamEngineSizeBoundaries)
{
    // The largest sizes the stream set and victim buffer hold are
    // accepted; one more is rejected (SpecTypeAndRangeRejections).
    Request req = parseOk(R"({"op": "run", "spec": {"benchmark": "embar",
        "streams": 64, "depth": 16, "victim": 256}})");
    EXPECT_EQ(req.spec.streams, 64u);
    EXPECT_EQ(req.spec.depth, 16u);
    EXPECT_EQ(req.spec.victimEntries, 256u);
    req = parseOk(R"({"op": "sweep", "spec": {"benchmark": "embar"},
        "values": [1, 64]})");
    EXPECT_EQ(req.values, (std::vector<std::uint32_t>{1, 64}));

    RequestParse r = parseRequest(
        R"({"op": "run", "spec": {"benchmark": "embar", "streams": 65}})");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error, "streams must be at most 64");
    r = parseRequest(
        R"({"op": "run", "spec": {"benchmark": "embar", "depth": 17}})");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error, "depth must be at most 16");
    r = parseRequest(
        R"({"op": "run", "spec": {"benchmark": "embar", "victim": 257}})");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error, "victim entries must be at most 256");
    r = parseRequest(R"({"op": "sweep", "spec": {"benchmark": "embar"},
        "values": [65]})");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error, "values: streams must be at most 64");
}

TEST(ServiceProtocol, StructuralRejections)
{
    parseErr("");                       // not JSON
    parseErr("[]");                     // not an object
    parseErr("\"run\"");                // not an object
    parseErr(R"({"op": "run"})");       // spec required
    parseErr(R"({"op": "warp"})");      // unknown op
    parseErr(R"({"spec": {}})");        // op required
    parseErr(R"({"op": 7})");           // op not a string
    parseErr(R"({"op": "ping", "values": [1]})"); // field/op mismatch
    parseErr(R"({"op": "ping", "spec": {}})");
    parseErr(R"({"op": "run", "spec": {}, "extra": 1})");
    parseErr(R"({"op": "run", "spec": 4})");

    // A JSON-layer failure is flagged as such, with an offset.
    RequestParse r = parseRequest("{\"op\": \"ping\" garbage");
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.syntaxError);
    // Semantic failures are not.
    r = parseRequest(R"({"op": "warp"})");
    ASSERT_FALSE(r.ok());
    EXPECT_FALSE(r.syntaxError);
}

TEST(ServiceProtocol, SpecTypeAndRangeRejections)
{
    auto spec_err = [](const std::string &fields) {
        return parseErr(R"({"op": "run", "spec": {)" + fields + "}}");
    };
    spec_err(R"("benchmark": 7)");
    spec_err(R"("benchmark": "nope")");
    spec_err(R"("benchmark": "embar", "refs": 0)");
    spec_err(R"("benchmark": "embar", "refs": -5)");
    spec_err(R"("benchmark": "embar", "refs": 1.5)");
    spec_err(R"("benchmark": "embar", "refs": "many")");
    spec_err(R"("benchmark": "embar", "streams": 0)");
    spec_err(R"("benchmark": "embar", "streams": 4294967296)");
    spec_err(R"("benchmark": "embar", "depth": 0)");
    // The sizes the per-miss structures scan are bounded.
    spec_err(R"("benchmark": "embar", "streams": 65)");
    spec_err(R"("benchmark": "embar", "depth": 17)");
    spec_err(R"("benchmark": "embar", "depth": 100000000)");
    spec_err(R"("benchmark": "embar", "victim": 257)");
    spec_err(R"("benchmark": "embar", "filter": "yes")");
    spec_err(R"("benchmark": "embar", "czone": 64)");
    spec_err(R"("benchmark": "embar", "page_bits": 5)");
    spec_err(R"("benchmark": "embar", "page_bits": 32)");
    spec_err(R"("benchmark": "embar", "l2": 3)");
    spec_err(R"("benchmark": "embar", "l2_model": "magic")");
    spec_err(R"("benchmark": "embar", "scale": "xl")");
    spec_err(R"("benchmark": "embar", "unknown_knob": 1)");
    // Cross-field rules from validateSpec.
    spec_err(R"("benchmark": "embar", "trace": "t.bin")");
    spec_err(R"("benchmark": "embar", "czone": 12)"); // needs filter
    spec_err(R"("benchmark": "embar", "filter": true,
                 "czone": 12, "min_delta": true)");
    spec_err(R"("benchmark": "embar", "l2_model": "analytic")");

    // The id still echoes through a spec rejection.
    RequestParse r = parseRequest(
        R"({"id": 9, "op": "run", "spec": {"benchmark": "nope"}})");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.request.idJson, "9");
}

TEST(ServiceProtocol, ResponseBuilders)
{
    EXPECT_EQ(simpleResponse("3", "pong"),
              "{\"id\":3,\"ok\":true,\"kind\":\"pong\"}\n");
    EXPECT_EQ(errorResponse("\"x\"", "bad"),
              "{\"id\":\"x\",\"ok\":false,\"error\":\"bad\"}\n");
    EXPECT_EQ(errorResponse("null", "bad", 12),
              "{\"id\":null,\"ok\":false,\"error\":\"bad\","
              "\"offset\":12}\n");
    // The embedded document round-trips through the escape exactly.
    EXPECT_EQ(resultResponse("1", "run", 5, "{\n \"a\": 1\n}\n"),
              "{\"id\":1,\"ok\":true,\"kind\":\"run\","
              "\"references\":5,"
              "\"result\":\"{\\n \\\"a\\\": 1\\n}\\n\"}\n");

    TraceCacheStats stats;
    stats.refTraceHits = 2;
    stats.expiredPurged = 3;
    std::string line = statsResponse("null", stats);
    EXPECT_NE(line.find("\"ref_trace_hits\":2"), std::string::npos);
    EXPECT_NE(line.find("\"expired_purged\":3"), std::string::npos);
    EXPECT_NE(line.find("\"miss_trace_entries\":0"),
              std::string::npos);
    EXPECT_EQ(line.back(), '\n');

    // One writer: the stats response and a sweep document's aggregate
    // carry the same trace_cache object, byte for byte.
    TraceCacheStats all;
    std::uint64_t value = 1;
    for (std::uint64_t *field :
         {&all.refTraceHits, &all.refTracesMaterialized,
          &all.missTraceHits, &all.missTracesRecorded, &all.replays,
          &all.stackJobs, &all.stackDiverged, &all.residentBytes, &all.expiredPurged, &all.refTraceEntries,
          &all.missTraceEntries, &all.phasePlanHits, &all.phasePlansBuilt,
          &all.phasePlanEntries})
        *field = value++;
    auto object = [](const std::string &doc) {
        std::size_t begin = doc.find("\"trace_cache\":{");
        EXPECT_NE(begin, std::string::npos) << doc;
        begin = doc.find('{', begin);
        return doc.substr(begin, doc.find('}', begin) - begin + 1);
    };
    std::ostringstream sweep;
    writeSweepJson({}, sweep, &all);
    const std::string from_stats = object(statsResponse("7", all));
    EXPECT_EQ(from_stats, object(sweep.str()));
    EXPECT_NE(from_stats.find("\"phase_plan_entries\":14}"),
              std::string::npos)
        << from_stats;
}
