/**
 * @file
 * Randomized system-level stress tests. Each seed derives a full
 * feature combination (streams on/off, filters, stride detection,
 * partitioning, victim buffer, L2, bus, page translation) and a mixed
 * random/strided/bursty reference stream, then checks the global
 * invariants that must hold for *any* configuration:
 *
 *  - reference and hit/miss accounting is consistent;
 *  - every issued prefetch is consumed, invalidated or flushed;
 *  - the timing model only moves forward and respects the bus;
 *  - repeated runs with the same seed are bit-identical;
 *  - every stream count the stream-stack pass answers equals replay.
 *
 * The last section fuzzes the service's front door: the strict JSON
 * parser and the request decoder must answer random bytes, truncated
 * requests and hostile nesting with a parse or a structured error,
 * and read back whatever the JSON writers write.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>

#include "service/json.hh"
#include "service/protocol.hh"
#include "sim/analytic_l2.hh"
#include "sim/experiment.hh"
#include "sim/memory_system.hh"
#include "sim/stream_stack.hh"
#include "trace/reuse_profile.hh"
#include "trace/source.hh"
#include "util/log_histogram.hh"
#include "util/random.hh"

using namespace sbsim;

namespace {

MemorySystemConfig
configFromSeed(std::uint64_t seed)
{
    Pcg32 rng(seed);
    MemorySystemConfig c;
    // Small caches keep miss rates high so every path is exercised.
    std::uint32_t assoc = 1u << rng.below(3);
    c.l1.icache = {2048, assoc, 32, ReplacementKind::RANDOM, true,
                   true, seed};
    c.l1.dcache = {2048, assoc, 32,
                   rng.below(2) ? ReplacementKind::RANDOM
                                : ReplacementKind::LRU,
                   true, true, seed + 1};
    c.useStreams = rng.below(4) != 0;
    c.streams.numStreams = 1 + rng.below(10);
    c.streams.depth = 1 + rng.below(4);
    c.streams.blockSize = 32;
    c.streams.partitioned = rng.below(2) != 0;
    c.streams.replacement =
        static_cast<StreamReplacement>(rng.below(3));
    switch (rng.below(3)) {
      case 0:
        c.streams.allocation = AllocationPolicy::ALWAYS;
        break;
      case 1:
        c.streams.allocation = AllocationPolicy::UNIT_FILTER;
        break;
      default:
        c.streams.allocation = AllocationPolicy::UNIT_FILTER;
        c.streams.strideDetection = rng.below(2)
                                        ? StrideDetection::CZONE
                                        : StrideDetection::MIN_DELTA;
        c.streams.czoneBits = 12 + rng.below(12);
        break;
    }
    c.streams.unitFilterEntries = 1 + rng.below(16);
    c.streams.strideFilterEntries = 1 + rng.below(16);
    c.victimBufferEntries = rng.below(2) ? rng.below(8) : 0;
    c.useL2 = rng.below(2) != 0;
    c.l2 = {64 * 1024, 4, 64, ReplacementKind::LRU, true, true,
            seed + 2};
    c.busCyclesPerBlock = rng.below(2) ? rng.below(50) : 0;
    c.translation = rng.below(2) ? TranslationMode::SHUFFLED
                                 : TranslationMode::IDENTITY;
    c.memLatencyCycles = 1 + rng.below(100);
    return c;
}

std::vector<MemAccess>
traceFromSeed(std::uint64_t seed, std::size_t n)
{
    Pcg32 rng(seed * 77 + 1);
    std::vector<MemAccess> trace;
    trace.reserve(n);
    Addr stride_pos = 0x100000;
    std::int64_t stride = 32 * (1 + rng.below(64));
    while (trace.size() < n) {
        switch (rng.below(6)) {
          case 0: // Random load or store anywhere.
            trace.push_back(rng.below(3) == 0
                                ? makeStore(rng.below(1u << 24))
                                : makeLoad(rng.below(1u << 24)));
            break;
          case 1: // Ifetch.
            trace.push_back(makeIfetch(0x4000 + rng.below(4096)));
            break;
          case 2: // Short unit burst.
            for (int i = 0; i < 4; ++i)
                trace.push_back(
                    makeLoad(0x800000 + rng.below(1 << 20) + i * 32));
            break;
          case 3: // Continue a strided walk.
            for (int i = 0; i < 3; ++i) {
                trace.push_back(makeLoad(stride_pos, 8, 0x4100));
                stride_pos += static_cast<Addr>(stride);
            }
            break;
          case 4: // Restart the strided walk elsewhere.
            stride_pos = 0x100000 + rng.below(1 << 22);
            stride = 32 * (1 + rng.below(64));
            break;
          default: // Hot block reuse.
            trace.push_back(makeLoad(0x200000 + rng.below(64) * 8));
            break;
        }
    }
    trace.resize(n);
    return trace;
}

struct FuzzOutcome
{
    SystemResults results;
    StreamEngineStats engine;
    std::uint64_t demand, prefetch, writeback;
};

FuzzOutcome
runSeed(std::uint64_t seed)
{
    MemorySystem sys(configFromSeed(seed));
    VectorSource src(traceFromSeed(seed, 20000));
    sys.run(src);
    FuzzOutcome out;
    out.results = sys.finish();
    if (const PrefetchEngine *e = sys.engine())
        out.engine = e->engineStats();
    out.demand = sys.memory().demandBlocks();
    out.prefetch = sys.memory().prefetchBlocks();
    out.writeback = sys.memory().writebackBlocks();
    return out;
}

class SystemFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

} // namespace

TEST_P(SystemFuzz, InvariantsHoldForArbitraryConfigurations)
{
    std::uint64_t seed = GetParam();
    FuzzOutcome out = runSeed(seed);
    const SystemResults &r = out.results;

    // Reference accounting.
    EXPECT_EQ(r.references, 20000u);
    EXPECT_EQ(r.references, r.instructionRefs + r.dataRefs);
    EXPECT_LE(r.l1DataMisses, r.l1Misses);
    EXPECT_LE(r.l1Misses, r.references);
    EXPECT_LE(r.victimHits + out.engine.hits, r.l1Misses);

    // Prefetch conservation (engine configs only).
    EXPECT_EQ(out.engine.prefetchesIssued,
              out.engine.hits + out.engine.uselessFlushed +
                  out.engine.uselessInvalidated)
        << "seed " << seed;

    // Stream lookups are exactly the L1 misses not served by the
    // victim buffer.
    if (out.engine.lookups > 0) {
        EXPECT_EQ(out.engine.lookups, r.l1Misses - r.victimHits);
    }

    // Timing sanity.
    EXPECT_GE(r.cycles, r.references);
    EXPECT_EQ(r.streamHits,
              r.streamHitsReady + r.streamHitsPending);

    // Memory traffic sanity: every demand block corresponds to a
    // stream miss (or plain miss), never more than total misses.
    EXPECT_LE(out.demand, r.l1Misses);
}

TEST_P(SystemFuzz, DeterministicAcrossRuns)
{
    std::uint64_t seed = GetParam();
    FuzzOutcome a = runSeed(seed);
    FuzzOutcome b = runSeed(seed);
    EXPECT_EQ(a.results.cycles, b.results.cycles);
    EXPECT_EQ(a.results.l1Misses, b.results.l1Misses);
    EXPECT_EQ(a.engine.hits, b.engine.hits);
    EXPECT_EQ(a.demand, b.demand);
    EXPECT_EQ(a.prefetch, b.prefetch);
    EXPECT_EQ(a.writeback, b.writeback);
}

// Random miss streams over a few dozen blocks, so that duplicate heads
// and write-backs of live stream entries are common, at a random depth
// and a random set of stream counts: every count the stream-stack
// pass answers must export replay's document. Write-backs thin out
// from round to round, so that the later rounds leave counts that do
// not diverge.
TEST_P(SystemFuzz, StreamStackAnsweredCountsMatchReplay)
{
    const std::uint64_t seed = GetParam();
    Pcg32 rng(seed * 131 + 7);
    std::size_t answered = 0;
    for (std::uint32_t round = 0; round < 4; ++round) {
        MemorySystemConfig config = paperSystemConfig();
        config.streams.depth = 1 + rng.below(16);
        config.memLatencyCycles = 1 + rng.below(100);
        config.streamHitCycles = rng.below(4);
        std::vector<std::uint32_t> counts;
        for (std::uint32_t k = 1; k <= 20; ++k) {
            if (rng.below(3) == 0)
                counts.push_back(k);
        }
        counts.push_back(1);

        MissTrace trace;
        const Addr blocks = 8 + rng.below(40);
        const std::uint32_t writeback_odds = 4u << (2 * round);
        Addr block = rng.below(blocks);
        for (std::uint32_t i = 0, n = 200 + rng.below(1300); i < n; ++i) {
            // Mostly walk forward, so streams hit; sometimes jump.
            block = rng.below(4) == 0 ? rng.below(blocks) : block + 1;
            const Addr addr = block * 32 + rng.below(32);
            if (rng.below(writeback_odds) == 0) {
                trace.append(MissRecord::Kind::WRITEBACK,
                             makeLoad((block + rng.below(4)) * 32),
                             rng.below(5), 0, 0);
            } else if (rng.below(8) == 0) {
                trace.append(MissRecord::Kind::SW_PREFETCH, makeLoad(addr),
                             rng.below(5), 0, rng.below(3));
            } else {
                trace.append(MissRecord::Kind::DEMAND, makeLoad(addr),
                             rng.below(200), rng.below(3), 0);
            }
        }

        const std::map<std::uint32_t, RunOutput> got =
            runStreamStack(trace, config, counts);
        for (const auto &[k, out] : got) {
            config.streams.numStreams = k;
            std::ostringstream want, have;
            runMetrics(replayOnce(trace, config)).writeJson(want);
            runMetrics(out).writeJson(have);
            EXPECT_EQ(have.str(), want.str())
                << "seed " << seed << " round " << round << ", " << k
                << " streams, depth " << config.streams.depth;
        }
        answered += got.size();
    }
    EXPECT_GT(answered, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SystemFuzz,
                         ::testing::Range<std::uint64_t>(1, 25));

// ---------------------------------------------------------------------
// Analytic L2 engine fuzz: seeded random miss streams through the
// profiler + evaluator. The profiler is checked against a naive
// O(N^2) reference implementation (small inputs), the evaluator for
// crash-freedom, monotonicity in cache size, and bitwise determinism.

namespace {

/** Naive quadratic stack-distance profiler: for each reference, scan
 *  back and count distinct blocks since the previous access to the
 *  same block. The O(log N) Fenwick implementation must agree on
 *  every derived quantity. */
struct NaiveProfile
{
    std::uint64_t refs = 0;
    std::uint64_t cold = 0;
    std::uint64_t maxDistance = 0;
    std::vector<std::uint64_t> bucketCounts;

    explicit NaiveProfile(const std::vector<std::uint64_t> &blocks)
    {
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            refs = refs + 1;
            bool found = false;
            std::vector<std::uint64_t> seen;
            for (std::size_t j = i; j-- > 0;) {
                if (blocks[j] == blocks[i]) {
                    found = true;
                    break;
                }
                if (std::find(seen.begin(), seen.end(), blocks[j]) ==
                    seen.end())
                    seen.push_back(blocks[j]);
            }
            if (!found) {
                ++cold;
                continue;
            }
            std::uint64_t d = seen.size();
            if (d > maxDistance)
                maxDistance = d;
            std::size_t idx = Log2Histogram::indexFor(d);
            if (idx >= bucketCounts.size())
                bucketCounts.resize(idx + 1, 0);
            ++bucketCounts[idx];
        }
    }
};

std::vector<std::uint64_t>
missBlocksFromSeed(std::uint64_t seed, std::size_t n)
{
    Pcg32 rng(seed * 131 + 5);
    std::vector<std::uint64_t> blocks;
    blocks.reserve(n);
    std::uint64_t walk = 1000;
    while (blocks.size() < n) {
        switch (rng.below(4)) {
          case 0: // random far block
            blocks.push_back(rng.below(1u << 16));
            break;
          case 1: // hot set
            blocks.push_back(rng.below(32));
            break;
          case 2: // sequential walk
            for (int i = 0; i < 8; ++i)
                blocks.push_back(walk++);
            break;
          default: // revisit the walk's recent past
            blocks.push_back(walk - 1 - rng.below(64));
            break;
        }
    }
    blocks.resize(n);
    return blocks;
}

} // namespace

TEST_P(SystemFuzz, ProfilerMatchesNaiveReference)
{
    std::uint64_t seed = GetParam();
    std::vector<std::uint64_t> blocks = missBlocksFromSeed(seed, 1500);
    NaiveProfile naive(blocks);

    ReuseProfiler prof(64);
    for (std::uint64_t b : blocks)
        prof.onAccess(b * 64);

    EXPECT_EQ(prof.references(), naive.refs);
    EXPECT_EQ(prof.coldMisses(), naive.cold);
    EXPECT_EQ(prof.maxDistance(), naive.maxDistance);
    EXPECT_EQ(prof.histogram().totalCount(), naive.refs - naive.cold);
    for (std::size_t i = 0; i < naive.bucketCounts.size(); ++i) {
        EXPECT_EQ(prof.histogram().count(i), naive.bucketCounts[i])
            << "bucket " << i << " seed " << seed;
    }
}

TEST_P(SystemFuzz, AnalyticMissRatioMonotoneInCacheSize)
{
    std::uint64_t seed = GetParam();
    std::vector<std::uint64_t> blocks = missBlocksFromSeed(seed, 8000);
    ReuseProfiler prof(64);
    for (std::uint64_t b : blocks)
        prof.onAccess(b * 64);
    AnalyticL2Model model(prof);

    double prev = 200.0;
    for (std::uint64_t kb = 64; kb <= 4096; kb *= 2) {
        CacheConfig c;
        c.sizeBytes = kb * 1024;
        c.assoc = 2;
        c.blockSize = 64;
        c.replacement = ReplacementKind::LRU;
        double miss = model.predictMissRatioPercent(c);
        EXPECT_GE(miss, 0.0);
        EXPECT_LE(miss, 100.0);
        EXPECT_LE(miss, prev + 1e-12) << "size " << kb << " KB";
        prev = miss;
    }
}

TEST_P(SystemFuzz, AnalyticPipelineDeterministic)
{
    std::uint64_t seed = GetParam();
    std::vector<std::uint64_t> blocks = missBlocksFromSeed(seed, 5000);
    CacheConfig c;
    c.sizeBytes = 512 * 1024;
    c.assoc = 4;
    c.blockSize = 64;
    c.replacement = ReplacementKind::LRU;

    double first = 0;
    for (int round = 0; round < 2; ++round) {
        ReuseProfiler prof(64);
        for (std::uint64_t b : blocks)
            prof.onAccess(b * 64);
        double miss =
            AnalyticL2Model(prof).predictMissRatioPercent(c);
        if (round == 0)
            first = miss;
        else
            EXPECT_EQ(miss, first); // bitwise, not approximate
    }
}

// ---------------------------------------------------------------------
// Service front door: the strict JSON parser (service/json.hh) and the
// request decoder (service/protocol.hh) on hostile input.

namespace {

/** Every valid request tools/serve_smoke.py sends, as its client
 *  writes it. */
const char *const kSmokeRequests[] = {
    R"({"op": "ping", "id": 1})",
    R"({"op": "ping", "id": "alive"})",
    R"({"op": "run", "spec": {"benchmark": "embar", "refs": 100000, )"
    R"("streams": 4}, "id": 2})",
    R"({"op": "run", "spec": {"benchmark": "embar", "refs": 100000, )"
    R"("streams": 4, "fidelity": "sampled"}, "id": 3})",
    R"({"op": "sweep", "spec": {"benchmark": "embar", "refs": 100000, )"
    R"("streams": 4}, "values": [1, 2, 4], "id": 4})",
    R"({"op": "sweep", "spec": {"benchmark": "embar", "refs": 100000, )"
    R"("streams": 4, "sample": true, "fidelity": "sampled"}, )"
    R"("values": [1, 2, 4], "id": 5})",
    R"({"op": "sweep", "spec": {"benchmark": "embar", "refs": 1500000, )"
    R"("streams": 4}, "values": [1, 2, 4], "id": 6})",
    R"({"op": "stats", "id": 7})",
};

/** A parse, or an error that says what and where. */
void
expectHandled(std::string_view text)
{
    service::JsonParseResult json = service::parseJson(text);
    if (!json.ok()) {
        EXPECT_FALSE(json.error.empty());
        EXPECT_LE(json.errorOffset, text.size()) << text;
    }
    service::RequestParse req = service::parseRequest(text);
    if (!req.ok() && req.syntaxError) {
        EXPECT_LE(req.errorOffset, text.size()) << text;
    }
}

/** A random JSON value at most @p depth containers deep. */
service::JsonValue
randomValue(Pcg32 &rng, int depth)
{
    using service::JsonValue;
    auto text = [&rng] {
        static const char *const kPieces[] = {
            "a", "Z", "0", " ", "\"", "\\", "/", "\n", "\t", "\x01",
            "\x1f", "\x7f", "\xc3\xa9", "\xe2\x82\xac",
            "\xf0\x9f\x98\x80"};
        std::string s;
        for (std::uint32_t n = rng.below(8); n > 0; --n)
            s += kPieces[rng.below(std::size(kPieces))];
        return s;
    };
    auto wide = [&rng] {
        const std::uint64_t high = rng.next();
        return (high << 32 | rng.next()) >> rng.below(64);
    };
    switch (rng.below(depth > 0 ? 9 : 7)) {
      case 0: return JsonValue::makeNull();
      case 1: return JsonValue::makeBool(rng.below(2) != 0);
      case 2: return JsonValue::makeUint(wide());
      case 3:
        return JsonValue::makeInt(-1 -
                                  static_cast<std::int64_t>(wide() >> 1));
      case 4: {
        double v = (rng.next() + 0.5) / 4294967296.0;
        for (std::uint32_t e = rng.below(40); e > 0; --e)
            v = rng.below(2) ? v * 10 : v / 10;
        return JsonValue::makeReal(rng.below(2) ? v : -v);
      }
      case 5:
      case 6: return JsonValue::makeString(text());
      case 7: {
        JsonValue a = JsonValue::makeArray();
        for (std::uint32_t n = rng.below(4); n > 0; --n)
            a.array().push_back(randomValue(rng, depth - 1));
        return a;
      }
      default: {
        JsonValue o = JsonValue::makeObject();
        for (std::uint32_t n = rng.below(4); n > 0; --n) {
            // Keys are distinct: the parser rejects duplicates.
            o.members().emplace_back(text() + "#" + std::to_string(n),
                                     randomValue(rng, depth - 1));
        }
        return o;
      }
    }
}

/** @p v through the JSON writers (jsonQuote, jsonNumber). */
void
writeValue(const service::JsonValue &v, std::string &out)
{
    using Kind = service::JsonValue::Kind;
    switch (v.kind()) {
      case Kind::NUL: out += "null"; break;
      case Kind::BOOL: out += v.boolValue() ? "true" : "false"; break;
      case Kind::UINT: out += std::to_string(v.uintValue()); break;
      case Kind::INT: out += std::to_string(v.intValue()); break;
      case Kind::REAL: out += jsonNumber(v.realValue()); break;
      case Kind::STRING: out += jsonQuote(v.stringValue()); break;
      case Kind::ARRAY: {
        out += '[';
        for (std::size_t i = 0; i < v.array().size(); ++i) {
            out += i ? ", " : "";
            writeValue(v.array()[i], out);
        }
        out += ']';
        break;
      }
      case Kind::OBJECT: {
        out += '{';
        bool first = true;
        for (const auto &[key, member] : v.members()) {
            out += first ? "" : ",";
            first = false;
            out += jsonQuote(key) + ":";
            writeValue(member, out);
        }
        out += '}';
        break;
      }
    }
}

/** Numeric value of a parsed number of any kind. */
double
numberOf(const service::JsonValue &v)
{
    using Kind = service::JsonValue::Kind;
    switch (v.kind()) {
      case Kind::UINT: return static_cast<double>(v.uintValue());
      case Kind::INT: return static_cast<double>(v.intValue());
      default: return v.realValue();
    }
}

void
expectSameValue(const service::JsonValue &got, const service::JsonValue &want,
                const std::string &text)
{
    using Kind = service::JsonValue::Kind;
    if (want.kind() == Kind::REAL) {
        // An integral real is written as an integer.
        EXPECT_TRUE(got.kind() == Kind::REAL || got.kind() == Kind::UINT ||
                    got.kind() == Kind::INT)
            << text;
        EXPECT_EQ(numberOf(got), want.realValue()) << text;
        return;
    }
    ASSERT_EQ(got.kind(), want.kind()) << text;
    switch (want.kind()) {
      case Kind::NUL: break;
      case Kind::BOOL: EXPECT_EQ(got.boolValue(), want.boolValue()); break;
      case Kind::UINT: EXPECT_EQ(got.uintValue(), want.uintValue()); break;
      case Kind::INT: EXPECT_EQ(got.intValue(), want.intValue()); break;
      case Kind::REAL: break;
      case Kind::STRING:
        EXPECT_EQ(got.stringValue(), want.stringValue()) << text;
        break;
      case Kind::ARRAY:
        ASSERT_EQ(got.array().size(), want.array().size()) << text;
        for (std::size_t i = 0; i < want.array().size(); ++i)
            expectSameValue(got.array()[i], want.array()[i], text);
        break;
      case Kind::OBJECT:
        ASSERT_EQ(got.members().size(), want.members().size()) << text;
        for (std::size_t i = 0; i < want.members().size(); ++i) {
            EXPECT_EQ(got.members()[i].first, want.members()[i].first);
            expectSameValue(got.members()[i].second,
                            want.members()[i].second, text);
        }
        break;
    }
}

} // namespace

TEST(ServiceFuzz, RandomBytesGetAParseOrAStructuredError)
{
    // Bytes drawn mostly from JSON's own punctuation, so inputs get
    // deep into the grammar before they go wrong.
    static const char kAlphabet[] = "{}[]\":,.-+0123456789eEtruefalsn \\/"
                                    "\tu\n";
    Pcg32 rng(0xf022);
    for (int i = 0; i < 4000; ++i) {
        std::string text;
        const bool raw = rng.below(4) == 0;
        for (std::uint32_t n = rng.below(96); n > 0; --n) {
            text += raw ? static_cast<char>(rng.below(256))
                        : kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
        }
        expectHandled(text);
    }
}

TEST(ServiceFuzz, EveryTruncationOfASmokeRequestIsHandled)
{
    for (const char *request : kSmokeRequests) {
        const std::string_view text(request);
        service::RequestParse whole = service::parseRequest(text);
        EXPECT_TRUE(whole.ok()) << text << ": " << whole.error;
        for (std::size_t n = 0; n < text.size(); ++n) {
            const std::string_view cut = text.substr(0, n);
            expectHandled(cut);
            // A proper prefix of an object is never a whole request.
            EXPECT_FALSE(service::parseRequest(cut).ok()) << cut;
        }
    }
}

TEST(ServiceFuzz, NestingCapIsExactAndPointsAtTheExtraLevel)
{
    // @p levels objects, one inside the other, the innermost empty.
    const std::string level = "{\"a\":";
    auto nested = [&level](std::size_t levels) {
        std::string text;
        for (std::size_t i = 1; i < levels; ++i)
            text += level;
        return text + "{}" + std::string(levels - 1, '}');
    };
    EXPECT_TRUE(service::parseJson(nested(service::kJsonMaxDepth)).ok());
    const std::string deep = nested(service::kJsonMaxDepth + 1);
    service::JsonParseResult r = service::parseJson(deep);
    ASSERT_FALSE(r.ok());
    // The offset is the opening brace of the level past the cap.
    EXPECT_EQ(r.errorOffset, service::kJsonMaxDepth * level.size());
    EXPECT_EQ(deep[r.errorOffset], '{');

    // The same in a request, whose own object is the first level: a
    // spec one level short of the cap parses (and is then rejected for
    // its unknown key), one at the cap is a syntax error.
    const std::string prefix = "{\"op\": \"run\", \"spec\": ";
    service::RequestParse req = service::parseRequest(
        prefix + nested(service::kJsonMaxDepth - 1) + "}");
    ASSERT_FALSE(req.ok());
    EXPECT_FALSE(req.syntaxError) << req.error;
    req = service::parseRequest(prefix + nested(service::kJsonMaxDepth) +
                                "}");
    ASSERT_FALSE(req.ok());
    EXPECT_TRUE(req.syntaxError);
    EXPECT_EQ(req.errorOffset,
              prefix.size() + (service::kJsonMaxDepth - 1) * level.size());
}

TEST(ServiceFuzz, WriterParserRoundTripOfRandomValues)
{
    Pcg32 rng(0x7e57);
    for (int i = 0; i < 2000; ++i) {
        const service::JsonValue value = randomValue(rng, 4);
        std::string text;
        writeValue(value, text);
        service::JsonParseResult r = service::parseJson(text);
        ASSERT_TRUE(r.ok()) << text << ": " << r.error << " at "
                            << r.errorOffset;
        expectSameValue(r.value, value, text);
    }
}
