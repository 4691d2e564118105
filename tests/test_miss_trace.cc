/**
 * @file
 * Record/replay round-trip tests for the miss-stream memoisation
 * layer: for every (benchmark, secondary configuration) pair sharing
 * an L1 front end, recordMissTrace + replayOnce must be bit-identical
 * to runOnce over the original source — every scalar of
 * SystemResults, the engine stats, the length distribution and the
 * cycle breakdown. This is the invariance argument of
 * docs/INTERNALS.md made executable.
 *
 * The packed-format tests below pin the 16-byte record layout: every
 * field round-trips through append -> forEach, deltas on both sides
 * of each escape boundary come back whole, across chunk boundaries
 * too, and bytes() counts 16 bytes per record plus the escape table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/l2_study.hh"
#include "sim/sweep_runner.hh"
#include "trace/time_sampler.hh"
#include "workloads/benchmark.hh"

using namespace sbsim;

namespace {

constexpr std::uint64_t kRefs = 120000;

/** Long-unit-stride, non-unit-stride and gather-heavy models. */
const std::vector<std::string> kBenchmarks = {"mgrid", "fftpde", "is"};

std::unique_ptr<TraceSource>
makeSource(const std::string &benchmark)
{
    auto chain = std::make_unique<OwningSourceChain>();
    TraceSource &base =
        chain->add(findBenchmark(benchmark).makeWorkload());
    chain->add(std::make_unique<TruncatingSource>(base, kRefs));
    return chain;
}

/** Every scalar of a RunOutput, compared exactly. */
void
expectIdentical(const RunOutput &got, const RunOutput &want,
                const std::string &label)
{
    SCOPED_TRACE(label);
    const SystemResults &g = got.results;
    const SystemResults &w = want.results;
    EXPECT_EQ(g.references, w.references);
    EXPECT_EQ(g.instructionRefs, w.instructionRefs);
    EXPECT_EQ(g.dataRefs, w.dataRefs);
    EXPECT_EQ(g.l1Misses, w.l1Misses);
    EXPECT_EQ(g.l1DataMisses, w.l1DataMisses);
    EXPECT_EQ(g.streamHits, w.streamHits);
    EXPECT_EQ(g.victimHits, w.victimHits);
    EXPECT_EQ(g.writebacks, w.writebacks);
    EXPECT_EQ(g.l1MissRatePercent, w.l1MissRatePercent);
    EXPECT_EQ(g.l1DataMissRatePercent, w.l1DataMissRatePercent);
    EXPECT_EQ(g.missesPerInstructionPercent,
              w.missesPerInstructionPercent);
    EXPECT_EQ(g.streamHitRatePercent, w.streamHitRatePercent);
    EXPECT_EQ(g.extraBandwidthPercent, w.extraBandwidthPercent);
    EXPECT_EQ(g.l2Hits, w.l2Hits);
    EXPECT_EQ(g.l2Misses, w.l2Misses);
    EXPECT_EQ(g.l2LocalHitRatePercent, w.l2LocalHitRatePercent);
    EXPECT_EQ(g.swPrefetches, w.swPrefetches);
    EXPECT_EQ(g.swPrefetchesIssued, w.swPrefetchesIssued);
    EXPECT_EQ(g.swPrefetchesRedundant, w.swPrefetchesRedundant);
    EXPECT_EQ(g.cycles, w.cycles);
    EXPECT_EQ(g.streamHitsReady, w.streamHitsReady);
    EXPECT_EQ(g.streamHitsPending, w.streamHitsPending);
    EXPECT_EQ(g.busQueueCycles, w.busQueueCycles);
    EXPECT_EQ(g.avgAccessCycles, w.avgAccessCycles);
    EXPECT_EQ(g.cycleBreakdown.l1Hit, w.cycleBreakdown.l1Hit);
    EXPECT_EQ(g.cycleBreakdown.victimHit, w.cycleBreakdown.victimHit);
    EXPECT_EQ(g.cycleBreakdown.streamHit, w.cycleBreakdown.streamHit);
    EXPECT_EQ(g.cycleBreakdown.streamStall,
              w.cycleBreakdown.streamStall);
    EXPECT_EQ(g.cycleBreakdown.demandFetch,
              w.cycleBreakdown.demandFetch);
    EXPECT_EQ(g.cycleBreakdown.busQueue, w.cycleBreakdown.busQueue);
    EXPECT_EQ(g.cycleBreakdown.swPrefetchIssue,
              w.cycleBreakdown.swPrefetchIssue);

    const StreamEngineStats &ge = got.engineStats;
    const StreamEngineStats &we = want.engineStats;
    EXPECT_EQ(ge.lookups, we.lookups);
    EXPECT_EQ(ge.hits, we.hits);
    EXPECT_EQ(ge.streamMisses, we.streamMisses);
    EXPECT_EQ(ge.allocations, we.allocations);
    EXPECT_EQ(ge.prefetchesIssued, we.prefetchesIssued);
    EXPECT_EQ(ge.uselessFlushed, we.uselessFlushed);
    EXPECT_EQ(ge.uselessInvalidated, we.uselessInvalidated);

    EXPECT_EQ(got.lengthSharesPercent, want.lengthSharesPercent);
    EXPECT_EQ(got.results.victimHitRatePercent,
              want.results.victimHitRatePercent);
}

/** Secondary variants sharing the paper L1 front end — the sweep
 *  families the memoisation targets, czone included. */
std::vector<std::pair<std::string, MemorySystemConfig>>
secondaryVariants()
{
    std::vector<std::pair<std::string, MemorySystemConfig>> out;
    out.emplace_back("streams4", paperSystemConfig(4));
    out.emplace_back("streams10", paperSystemConfig(10));
    out.emplace_back("filter",
                     paperSystemConfig(10, AllocationPolicy::UNIT_FILTER));
    out.emplace_back(
        "czone", paperSystemConfig(10, AllocationPolicy::UNIT_FILTER,
                                   StrideDetection::CZONE, 18));

    MemorySystemConfig hybrid = paperSystemConfig(6);
    hybrid.useL2 = true;
    out.emplace_back("hybrid_l2", hybrid);

    MemorySystemConfig conventional = paperSystemConfig(0);
    conventional.useStreams = false;
    conventional.useL2 = true;
    out.emplace_back("conventional_l2", conventional);

    MemorySystemConfig bus = paperSystemConfig(8);
    bus.busCyclesPerBlock = 4;
    out.emplace_back("bus4", bus);
    return out;
}

} // namespace

TEST(MissTrace, ReplayBitIdenticalAcrossSecondaryVariants)
{
    for (const std::string &benchmark : kBenchmarks) {
        // One front end serves every variant: all of them share the
        // paper L1, so one recording feeds seven replays.
        auto rec_src = makeSource(benchmark);
        MissTrace trace =
            recordMissTrace(*rec_src, paperSystemConfig(10));
        EXPECT_FALSE(trace.empty()) << benchmark;
        EXPECT_GT(trace.size(), 0u) << benchmark;
        EXPECT_EQ(trace.summary().counts.references(), kRefs) << benchmark;

        for (const auto &[name, config] : secondaryVariants()) {
            ASSERT_EQ(frontEndKey(config),
                      frontEndKey(paperSystemConfig(10)))
                << name;
            auto src = makeSource(benchmark);
            RunOutput want = runOnce(*src, config);
            RunOutput got = replayOnce(trace, config);
            expectIdentical(got, want, benchmark + "/" + name);
        }
    }
}

TEST(MissTrace, ReplayMatchesWithVictimBufferFrontEnd)
{
    // A victim buffer changes the front end (it filters the demand
    // stream), so it needs its own recording; the replay must carry
    // the captured victim hit rate through to the output.
    MemorySystemConfig config = paperSystemConfig(6);
    config.victimBufferEntries = 4;

    auto rec_src = makeSource("fftpde");
    MissTrace trace = recordMissTrace(*rec_src, config);
    EXPECT_NE(frontEndKey(config), frontEndKey(paperSystemConfig(6)));

    auto src = makeSource("fftpde");
    RunOutput want = runOnce(*src, config);
    RunOutput got = replayOnce(trace, config);
    expectIdentical(got, want, "fftpde/victim");
    EXPECT_EQ(got.results.victimHitRatePercent,
              want.results.victimHitRatePercent);
}

TEST(MissTrace, ReplayMatchesWithShuffledTranslation)
{
    MemorySystemConfig config = paperSystemConfig(
        10, AllocationPolicy::UNIT_FILTER, StrideDetection::CZONE, 18);
    config.translation = TranslationMode::SHUFFLED;

    auto rec_src = makeSource("mgrid");
    MissTrace trace = recordMissTrace(*rec_src, config);
    auto src = makeSource("mgrid");
    expectIdentical(replayOnce(trace, config), runOnce(*src, config),
                    "mgrid/shuffled");
}

TEST(MissTrace, ReplayMatchesWithSoftwarePrefetchStream)
{
    // Synthetic trace mixing PREFETCH references with loads/stores:
    // covers the SW_PREFETCH record kind end to end.
    std::vector<MemAccess> refs;
    for (std::uint64_t i = 0; i < 30000; ++i) {
        Addr a = (i * 40) % (1 << 20);
        refs.push_back(makeIfetch(0x100000 + (i % 4096) * 4));
        refs.push_back(makePrefetch(a + 64));
        refs.push_back(i % 3 == 0 ? makeStore(a) : makeLoad(a));
    }
    MemorySystemConfig config = paperSystemConfig(6);
    config.busCyclesPerBlock = 2;

    VectorSource rec_src(refs);
    MissTrace trace = recordMissTrace(rec_src, config);
    EXPECT_GT(trace.summary().counts.swPrefetches, 0u);

    VectorSource src(refs);
    expectIdentical(replayOnce(trace, config), runOnce(src, config),
                    "synthetic/sw_prefetch");
}

TEST(MissTrace, FrontEndKeySeparatesFrontEndsOnly)
{
    MemorySystemConfig base = paperSystemConfig(4);
    // Secondary-level knobs must not split replay families...
    MemorySystemConfig streams = paperSystemConfig(16);
    MemorySystemConfig l2 = base;
    l2.useL2 = true;
    l2.busCyclesPerBlock = 8;
    l2.memLatencyCycles = 100;
    EXPECT_EQ(frontEndKey(base), frontEndKey(streams));
    EXPECT_EQ(frontEndKey(base), frontEndKey(l2));
    // ...while every front-end knob must.
    MemorySystemConfig l1 = base;
    l1.l1.dcache.sizeBytes *= 2;
    MemorySystemConfig victim = base;
    victim.victimBufferEntries = 4;
    MemorySystemConfig xl = base;
    xl.translation = TranslationMode::SHUFFLED;
    MemorySystemConfig hit = base;
    hit.l1HitCycles = 2;
    EXPECT_NE(frontEndKey(base), frontEndKey(l1));
    EXPECT_NE(frontEndKey(base), frontEndKey(victim));
    EXPECT_NE(frontEndKey(base), frontEndKey(xl));
    EXPECT_NE(frontEndKey(base), frontEndKey(hit));
}

TEST(MissTrace, DemandStreamDrivesL2StudyIdentically)
{
    // The Table 4 halves share one front end: the recorded DEMAND
    // stream must drive a SecondaryCacheStudy to exactly the results
    // L2StudyDriver produces over the raw source.
    std::vector<CacheConfig> candidates = table4CandidateConfigs();

    L2StudyDriver driver(SplitCacheConfig::paperDefault(), candidates,
                         /*sample_log2=*/3);
    auto src = makeSource("appsp");
    driver.run(*src);
    std::vector<L2Result> want = driver.study().results();

    auto rec_src = makeSource("appsp");
    MissTrace trace =
        recordMissTrace(*rec_src, paperSystemConfig(10));
    SecondaryCacheStudy study(candidates, /*sample_log2=*/3);
    std::uint64_t fed = replayMissesInto(study, trace);
    EXPECT_EQ(fed, driver.study().missesSeen());

    std::vector<L2Result> got = study.results();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].localHitRatePercent,
                  want[i].localHitRatePercent)
            << i;
        EXPECT_EQ(got[i].sampledAccesses, want[i].sampledAccesses) << i;
    }
}

namespace {

/** One event as the caller appended it. */
struct Event
{
    MissRecord::Kind kind = MissRecord::Kind::DEMAND;
    MemAccess access;
    std::uint64_t dL1Hit = 0;
    std::uint64_t dVictimHit = 0;
    std::uint64_t dSwPrefetch = 0;

    bool operator==(const Event &) const = default;
};

std::string
describe(const Event &e)
{
    std::ostringstream os;
    os << "kind " << static_cast<int>(e.kind) << " addr 0x" << std::hex
       << e.access.addr << " pc 0x" << e.access.pc << std::dec
       << " type " << toString(e.access.type) << " size "
       << static_cast<int>(e.access.size) << " deltas " << e.dL1Hit
       << "/" << e.dVictimHit << "/" << e.dSwPrefetch;
    return os.str();
}

MissTrace
traceOf(const std::vector<Event> &events)
{
    MissTrace trace;
    for (const Event &e : events) {
        trace.append(e.kind, e.access, e.dL1Hit, e.dVictimHit,
                     e.dSwPrefetch);
    }
    trace.shrink();
    return trace;
}

/** forEach must hand back exactly what was appended, with pc 0. */
void
expectRoundTrip(const MissTrace &trace, std::vector<Event> want)
{
    for (Event &e : want)
        e.access.pc = 0;
    std::vector<Event> got;
    trace.forEach([&](const MissRecord &rec) {
        got.push_back({rec.kind, rec.access, rec.dL1HitCycles,
                       rec.dVictimHitCycles, rec.dSwPrefetchCycles});
    });
    EXPECT_EQ(trace.size(), want.size());
    ASSERT_EQ(got.size(), want.size());
    auto diff = std::mismatch(got.begin(), got.end(), want.begin());
    if (diff.first != got.end()) {
        ADD_FAILURE() << "record " << (diff.first - got.begin())
                      << ": got " << describe(*diff.first)
                      << ", appended " << describe(*diff.second);
    }
}

constexpr MissRecord::Kind kKinds[] = {MissRecord::Kind::WRITEBACK,
                                       MissRecord::Kind::SW_PREFETCH,
                                       MissRecord::Kind::DEMAND};
constexpr AccessType kTypes[] = {AccessType::IFETCH, AccessType::LOAD,
                                 AccessType::STORE, AccessType::PREFETCH};

/** Bytes a record costs in the chunks, and an escaped record's
 *  three full deltas in the side table. */
constexpr std::size_t kRecordBytes = 16;
constexpr std::size_t kEscapeBytes = 3 * sizeof(std::uint64_t);

/** Deltas on both sides of each escape boundary. */
struct BoundaryDeltas
{
    std::uint64_t l1Hit, victimHit, swPrefetch;
    bool escapes;
};
constexpr BoundaryDeltas kBoundaries[] = {
    {0xffffffffull, 0, 0, false},
    {0x100000000ull, 0, 0, true},
    {0, 0xffff, 0, false},
    {0, 0x10000, 0, true},
    {0, 0, 0, false},
    {0, 0, 1, true},
    {0xffffffffull, 0xffff, 0, false},
    {~0ull, ~0ull, ~0ull, true},
};
constexpr std::size_t kNumBoundaries = std::size(kBoundaries);

} // namespace

TEST(MissTracePacking, EveryKindTypeAddressAndSizeRoundTrips)
{
    const Addr addrs[] = {0, Addr{1} << 63, ~Addr{0}};
    std::vector<Event> events;
    for (MissRecord::Kind kind : kKinds) {
        for (AccessType type : kTypes) {
            for (Addr addr : addrs) {
                for (unsigned size = 1; size <= 128; ++size) {
                    Event e;
                    e.kind = kind;
                    // A nonzero pc: the trace must drop it.
                    e.access = {addr, 0x400123, type,
                                static_cast<std::uint8_t>(size)};
                    e.dL1Hit = events.size() % 5;
                    e.dVictimHit = events.size() % 3;
                    events.push_back(e);
                }
            }
        }
    }
    MissTrace trace = traceOf(events);
    expectRoundTrip(trace, events);
    EXPECT_EQ(trace.bytes(),
              sizeof(MissTrace) + kRecordBytes * events.size());
}

TEST(MissTracePacking, EscapedDeltasRoundTripAcrossChunkBoundaries)
{
    const std::size_t sizes[] = {0, 1, MissTrace::kChunkRecords - 1,
                                 MissTrace::kChunkRecords,
                                 MissTrace::kChunkRecords + 1};
    for (std::size_t n : sizes) {
        // Every rotation of the boundary table, so each kind of
        // escaped and plain record lands on the chunk's last and first
        // slots, and alone in the one-record trace.
        for (std::size_t shift = 0; shift < kNumBoundaries; ++shift) {
            SCOPED_TRACE("records " + std::to_string(n) + " shift " +
                         std::to_string(shift));
            std::vector<Event> events(n);
            std::size_t escaped = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const BoundaryDeltas &d =
                    kBoundaries[(i + shift) % kNumBoundaries];
                events[i].kind = kKinds[i % std::size(kKinds)];
                events[i].access = makeLoad(0x1000 + 64 * i, 8);
                events[i].dL1Hit = d.l1Hit;
                events[i].dVictimHit = d.victimHit;
                events[i].dSwPrefetch = d.swPrefetch;
                escaped += d.escapes;
            }
            MissTrace trace = traceOf(events);
            expectRoundTrip(trace, events);
            // Exactly the records past a boundary take a side-table
            // entry: one that fits its fields costs 16 bytes, no more.
            EXPECT_EQ(trace.bytes(), sizeof(MissTrace) +
                                         kRecordBytes * n +
                                         kEscapeBytes * escaped);
        }
    }
}

TEST(MissTracePacking, EscapesSpanSeveralChunksOfTheSideTable)
{
    // A software-prefetch-heavy recording escapes most of its records;
    // here every one does, so the side table fills two chunks and
    // starts a third, each entry with its own deltas.
    const std::size_t n = 2 * MissTrace::kChunkRecords + 1;
    std::vector<Event> events(n);
    for (std::size_t i = 0; i < n; ++i) {
        events[i].kind = MissRecord::Kind::SW_PREFETCH;
        events[i].access = makePrefetch(0x2000 + 64 * i);
        events[i].dL1Hit = i;
        events[i].dVictimHit = i % 7;
        events[i].dSwPrefetch = i + 1;
    }
    MissTrace trace = traceOf(events);
    expectRoundTrip(trace, events);
    EXPECT_EQ(trace.bytes(),
              sizeof(MissTrace) + (kRecordBytes + kEscapeBytes) * n);
}

TEST(MissTracePacking, BytesCountSixteenPerRecordOnARecordedProgram)
{
    auto workload = findBenchmark("appsp").makeWorkload();
    TruncatingSource limited(*workload, 1500000);
    MissTrace trace = recordMissTrace(limited, paperSystemConfig(10));
    ASSERT_GT(trace.size(), MissTrace::kChunkRecords);
    EXPECT_LE(trace.bytes(), kRecordBytes * trace.size() + 4096);
}
