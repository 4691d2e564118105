/**
 * @file
 * The sweep runner's planner against independent references.
 *
 * A sweep shares work between its jobs: it materialises a reference
 * trace once, records one miss stream per front end and replays it,
 * and builds one sampling plan per source; an analytic job profiles
 * its own run or replay at the L2 port. None of that may show in the
 * answers. These tests compare sweep points with runs that share
 * nothing:
 *
 *  - every point of a service sweep (buildSweepJobs through
 *    SweepRunner::run) must export the same runMetrics document as a
 *    single executeRun of that point's spec with the trace cache off,
 *    for exact, analytic and sampled specs, cache on and off;
 *  - a mixed grid, one job of every kind the planner groups, must
 *    export the same documents as each job run alone in a one-job
 *    sweep with the cache off, must build no more artifacts than the
 *    grid needs, and must serve each job by the path its kind routes
 *    it to: a stream-stack pass, a replay or a run;
 *  - a run with the store on is a one-job plan: it exports the
 *    cache-off run's document (and event trace), and moves the store's
 *    counters by exactly what it read: nothing when nothing is
 *    resident, a hit on a held trace, a hit and a replay on a held
 *    recording unless it captures events.
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "service/run_spec.hh"
#include "sim/sweep_runner.hh"
#include "trace/trace_cache.hh"
#include "util/event_trace.hh"

using namespace sbsim;
using namespace sbsim::service;

namespace {

std::string
document(const RunOutput &out)
{
    std::ostringstream os;
    runMetrics(out).writeJson(os);
    return os.str();
}

std::string
jsonl(const EventTrace &trace)
{
    std::ostringstream os;
    trace.writeJsonl(os);
    return os.str();
}

/** One spec of the sweep-equals-run battery. */
struct SpecCase
{
    const char *name;
    std::function<void(RunSpec &)> apply;
};

std::vector<SpecCase>
specCases()
{
    return {
        {"plain", [](RunSpec &) {}},
        {"filter_czone_victim_shuffled_bus",
         [](RunSpec &s) {
             s.unitFilter = true;
             s.czoneBits = 18;
             s.victimEntries = 8;
             s.shuffledPages = true;
             s.busCycles = 4;
         }},
        {"l2_both",
         [](RunSpec &s) {
             s.l2KiloBytes = 256;
             s.l2Model = L2ModelKind::BOTH;
         }},
        {"l2_analytic",
         [](RunSpec &s) {
             s.l2KiloBytes = 256;
             s.l2Model = L2ModelKind::ANALYTIC;
         }},
        {"fidelity_sampled",
         [](RunSpec &s) { s.fidelity = Fidelity::SAMPLED; }},
        // Time sampling (10k on / 90k off): the counts of the input a
        // point consumed belong in its document on every path.
        {"time_sampled", [](RunSpec &s) { s.timeSample = true; }},
        {"time_sampled_fidelity_sampled",
         [](RunSpec &s) {
             s.timeSample = true;
             s.fidelity = Fidelity::SAMPLED;
         }},
    };
}

RunSpec
baseSpec()
{
    RunSpec spec;
    spec.benchmark = "mgrid";
    spec.refs = 120000;
    spec.l2Model = L2ModelKind::SIMULATED;
    return spec;
}

class SweepPointEqualsRun
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>>
{};

} // namespace

TEST_P(SweepPointEqualsRun, EveryPointExportsTheSingleRunDocument)
{
    const SpecCase sc = specCases()[std::get<0>(GetParam())];
    const bool cache = std::get<1>(GetParam());
    RunSpec spec = baseSpec();
    sc.apply(spec);
    ASSERT_EQ(validateSpec(spec), "");
    const std::vector<std::uint32_t> values = {2, 6};

    TraceCache::instance().clear();
    SweepRunner runner(2);
    runner.setCacheReport(false);
    runner.setTraceCacheEnabled(cache);
    std::vector<SweepResult> got = runner.run(buildSweepJobs(spec, values));
    TraceCache::instance().clear();

    ASSERT_EQ(got.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        RunSpec point = spec;
        point.streams = values[i];
        RunExecution want = executeRun(point, nullptr, false);
        EXPECT_EQ(document(got[i].output), document(want.output))
            << sc.name << " at " << values[i] << " streams, cache "
            << (cache ? "on" : "off");
        EXPECT_EQ(got[i].references, want.references);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, SweepPointEqualsRun,
    ::testing::Combine(::testing::Range<std::size_t>(0, specCases().size()),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::string(specCases()[std::get<0>(info.param)].name) +
               (std::get<1>(info.param) ? "_cache_on" : "_cache_off");
    });

// One grid holding every grouping the planner makes: a stream-stack
// family, a diverging one (mgrid's 6-stream point has duplicate heads
// at this length), a singleton in the stack's domain, one job per way
// out of that domain on the first family's front end, an event-traced
// job on the diverging family's source, a sampled pair on one key,
// and an analytic family whose members profile at two L2 block sizes.
TEST(SweepPlanner, MixedGridMatchesOneJobSweepsAndBuildsNoMore)
{
    constexpr std::uint64_t kRefs = 120000;
    std::vector<EventTrace> events(4);
    auto grid = [&](EventTrace *trace, EventTrace *exit_trace) {
        std::vector<SweepJob> jobs;
        for (std::uint32_t streams : {2u, 6u}) {
            jobs.push_back(benchmarkJob("trfd", ScaleLevel::DEFAULT,
                                        paperSystemConfig(streams),
                                        "stack-family", kRefs));
        }
        for (std::uint32_t streams : {2u, 6u}) {
            jobs.push_back(benchmarkJob("mgrid", ScaleLevel::DEFAULT,
                                        paperSystemConfig(streams),
                                        "diverging-family", kRefs));
        }
        jobs.push_back(benchmarkJob("is", ScaleLevel::DEFAULT,
                                    paperSystemConfig(4), "singleton",
                                    kRefs));
        const std::vector<
            std::pair<const char *, std::function<void(SweepJob &)>>>
            exits = {
                {"unit-filter",
                 [](SweepJob &j) {
                     j.config.streams.allocation =
                         AllocationPolicy::UNIT_FILTER;
                 }},
                {"fifo",
                 [](SweepJob &j) {
                     j.config.streams.replacement = StreamReplacement::FIFO;
                 }},
                {"associative",
                 [](SweepJob &j) {
                     j.config.streams.associativeLookup = true;
                 }},
                {"partitioned",
                 [](SweepJob &j) { j.config.streams.partitioned = true; }},
                {"l2",
                 [](SweepJob &j) {
                     j.config.useL2 = true;
                     j.config.l2.sizeBytes = 256 * 1024;
                 }},
                {"bus", [](SweepJob &j) { j.config.busCyclesPerBlock = 4; }},
                {"event-trace",
                 [exit_trace](SweepJob &j) { j.eventTrace = exit_trace; }},
            };
        for (const auto &[name, apply] : exits) {
            jobs.push_back(benchmarkJob("trfd", ScaleLevel::DEFAULT,
                                        paperSystemConfig(4),
                                        std::string("exit-") + name, kRefs));
            apply(jobs.back());
        }
        jobs.push_back(benchmarkJob("mgrid", ScaleLevel::DEFAULT,
                                    paperSystemConfig(4), "event-traced",
                                    kRefs));
        jobs.back().eventTrace = trace;
        for (std::uint32_t streams : {2u, 6u}) {
            jobs.push_back(benchmarkJob("fftpde", ScaleLevel::DEFAULT,
                                        paperSystemConfig(streams),
                                        "sampled", kRefs));
            jobs.back().fidelity = Fidelity::SAMPLED;
        }
        MemorySystemConfig l2 = paperSystemConfig(4);
        l2.useL2 = true;
        l2.l2.sizeBytes = 256 * 1024;
        for (std::uint32_t block : {64u, 128u}) {
            MemorySystemConfig c = l2;
            c.l2.blockSize = block;
            jobs.push_back(benchmarkJob("cgm", ScaleLevel::DEFAULT, c,
                                        "analytic-block", kRefs));
            jobs.back().l2Model = L2ModelKind::BOTH;
        }
        return jobs;
    };

    // References: each job alone, cache off, nothing shared.
    std::vector<SweepJob> solo = grid(&events[0], &events[2]);
    std::vector<std::string> want;
    SweepRunner alone(1);
    alone.setCacheReport(false);
    alone.setTraceCacheEnabled(false);
    for (const SweepJob &job : solo)
        want.push_back(document(alone.run({job}).front().output));

    for (bool cache : {false, true}) {
        SCOPED_TRACE(cache ? "cache on" : "cache off");
        TraceCache::instance().clear();
        SweepRunner runner(2);
        runner.setCacheReport(false);
        runner.setTraceCacheEnabled(cache);
        std::vector<SweepResult> got =
            runner.run(grid(&events[1], &events[3]));
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(document(got[i].output), want[i])
                << i << ": " << got[i].label;
        EXPECT_EQ(jsonl(events[1]), jsonl(events[0]));
        EXPECT_EQ(jsonl(events[3]), jsonl(events[2]));
        events[1].clear();
        events[3].clear();

        // What the grid needs stored, at most: the mgrid and trfd
        // traces (each read by an event-traced job and its family's
        // recording) and the fftpde trace under the sampled pair; the
        // mgrid, trfd and cgm recordings; one sampling plan.
        TraceCacheStats stats = TraceCache::instance().stats();
        EXPECT_LE(stats.refTracesMaterialized, cache ? 3u : 0u);
        EXPECT_LE(stats.missTracesRecorded, cache ? 3u : 0u);
        EXPECT_LE(stats.phasePlansBuilt, cache ? 1u : 0u);
        // The stack answers the trfd family and mgrid's 2 streams;
        // mgrid's 6 diverges and replays, as do the six domain exits
        // that read the trfd recording and the two analytic cgm jobs.
        // The singleton and the event-traced jobs run from sources.
        EXPECT_EQ(stats.stackJobs, cache ? 3u : 0u);
        EXPECT_EQ(stats.stackDiverged, cache ? 1u : 0u);
        EXPECT_EQ(stats.replays, cache ? 9u : 0u);
        TraceCache::instance().clear();
    }
}

namespace {

/** Store counters a run can move: reference-trace hits and builds,
 *  miss-trace hits and recordings, replays, stack-answered jobs,
 *  sampling-plan hits and builds. */
using Moves = std::array<std::uint64_t, 8>;

Moves
counters()
{
    const TraceCacheStats s = TraceCache::instance().stats();
    return {s.refTraceHits,  s.refTracesMaterialized, s.missTraceHits,
            s.missTracesRecorded, s.replays, s.stackJobs,
            s.phasePlanHits, s.phasePlansBuilt};
}

/** @p spec run with the store on, and what that moved in the store. */
std::pair<RunOutput, Moves>
storeRun(const RunSpec &spec, EventTrace *events = nullptr)
{
    const Moves before = counters();
    RunOutput out = executeRun(spec, events, true).output;
    Moves moved = counters();
    for (std::size_t i = 0; i < moved.size(); ++i)
        moved[i] -= before[i];
    return {std::move(out), moved};
}

/** The l2_analytic cells of @p out's document, name=value;... */
std::string
analyticCells(const RunOutput &out)
{
    const MetricsRegistry reg = runMetrics(out);
    const std::vector<std::string> names = reg.flatFieldNames();
    const std::vector<std::string> values = reg.flatFieldValues();
    std::string cells;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i].starts_with("l2_analytic."))
            cells += names[i] + '=' + values[i] + ';';
    }
    return cells;
}

/** Hold @p spec's front-end recording in the store. */
std::shared_ptr<const MissTrace>
holdRecording(const RunSpec &spec)
{
    const MemorySystemConfig config = specSystemConfig(spec);
    return TraceCache::instance().getOrRecord(
        missTraceKey(specSourceKey(spec), config),
        [&] { return recordMissTrace(*makeSpecInput(spec), config); });
}

} // namespace

TEST(RunPlan, StoreOnWithNothingResidentBuildsNothing)
{
    TraceCache::instance().clear();
    const RunSpec spec = baseSpec();
    auto [out, moved] = storeRun(spec);
    EXPECT_EQ(document(out),
              document(executeRun(spec, nullptr, false).output));
    EXPECT_EQ(moved, Moves{});
    EXPECT_EQ(TraceCache::instance().stats().residentBytes, 0u);
    TraceCache::instance().clear();
}

TEST(RunPlan, ReadsAHeldTraceAndBuildsNothing)
{
    TraceCache &cache = TraceCache::instance();
    cache.clear();
    const RunSpec spec = baseSpec();
    std::shared_ptr<const MaterializedTrace> held =
        cache.getOrMaterializeTrace(specSourceKey(spec), [&spec] {
            return MaterializedTrace::fromSource(*makeSpecInput(spec));
        });
    auto [out, moved] = storeRun(spec);
    EXPECT_EQ(document(out),
              document(executeRun(spec, nullptr, false).output));
    EXPECT_EQ(moved, (Moves{1, 0, 0, 0, 0, 0, 0, 0}));
    cache.clear();
}

TEST(RunPlan, ReplaysAHeldRecordingAndTapsTheReplay)
{
    TraceCache &cache = TraceCache::instance();
    cache.clear();
    const RunSpec exact = baseSpec();
    RunSpec both = exact;
    both.l2KiloBytes = 256;
    both.l2Model = L2ModelKind::BOTH;
    std::shared_ptr<const MissTrace> held = holdRecording(exact);
    // The L2 is not part of the front end: one recording serves both.
    ASSERT_EQ(missTraceKey(specSourceKey(both), specSystemConfig(both)),
              missTraceKey(specSourceKey(exact), specSystemConfig(exact)));
    for (const RunSpec &spec : {exact, both}) {
        auto [out, moved] = storeRun(spec);
        const RunOutput want = executeRun(spec, nullptr, false).output;
        EXPECT_EQ(document(out), document(want));
        EXPECT_EQ(moved, (Moves{0, 0, 1, 0, 1, 0, 0, 0}));
        EXPECT_EQ(analyticCells(out), analyticCells(want));
        if (effectiveL2Model(spec) != L2ModelKind::SIMULATED) {
            EXPECT_GT(out.l2Analytic.profiledMisses, 0u);
        }
    }
    cache.clear();
}

TEST(RunPlan, EventTracedRunDoesNotReplayAHeldRecording)
{
    TraceCache &cache = TraceCache::instance();
    cache.clear();
    const RunSpec spec = baseSpec();
    std::shared_ptr<const MissTrace> held = holdRecording(spec);
    EventTrace got;
    EventTrace want;
    auto [out, moved] = storeRun(spec, &got);
    EXPECT_EQ(document(out),
              document(executeRun(spec, &want, false).output));
    EXPECT_EQ(moved, Moves{});
    EXPECT_FALSE(jsonl(want).empty());
    EXPECT_EQ(jsonl(got), jsonl(want));
    cache.clear();
}
