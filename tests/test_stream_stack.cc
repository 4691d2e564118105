/**
 * @file
 * The stream-stack pass against replay. Every stream count the pass
 * answers must export the runMetrics document replayOnce exports at
 * that count, on the paper's programs and on synthetic miss traces
 * that force each divergence rule; a count it cannot follow must be
 * reported as diverged, not answered wrongly.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/stream_stack.hh"
#include "sim/sweep_runner.hh"
#include "trace/time_sampler.hh"
#include "trace/trace_cache.hh"
#include "workloads/benchmark.hh"

using namespace sbsim;

namespace {

constexpr std::uint64_t kRefs = 200000;
constexpr Addr kBlock = 32;

std::string
document(const RunOutput &out)
{
    std::ostringstream os;
    runMetrics(out).writeJson(os);
    return os.str();
}

std::vector<std::uint32_t>
countsUpTo(std::uint32_t n)
{
    std::vector<std::uint32_t> counts(n);
    std::iota(counts.begin(), counts.end(), 1u);
    return counts;
}

MissTrace
recordProgram(const std::string &name, const MemorySystemConfig &config)
{
    auto workload = findBenchmark(name).makeWorkload();
    TruncatingSource limited(*workload, kRefs);
    return recordMissTrace(limited, config);
}

/**
 * Run the pass over @p trace at @p counts and expect every answered
 * count to export replayOnce's document. @return the diverged counts.
 */
std::vector<std::uint32_t>
expectAnsweredMatchReplay(const MissTrace &trace, MemorySystemConfig config,
                          const std::vector<std::uint32_t> &counts,
                          const std::string &label)
{
    const std::map<std::uint32_t, RunOutput> got =
        runStreamStack(trace, config, counts);
    std::vector<std::uint32_t> diverged;
    for (std::uint32_t k : counts) {
        auto it = got.find(k);
        if (it == got.end()) {
            diverged.push_back(k);
            continue;
        }
        config.streams.numStreams = k;
        EXPECT_EQ(document(it->second), document(replayOnce(trace, config)))
            << label << " at " << k << " streams, depth "
            << config.streams.depth;
    }
    EXPECT_EQ(got.size() + diverged.size(), counts.size()) << label;
    return diverged;
}

/** A synthetic post-L1 stream, built record by record. */
class SyntheticTrace
{
  public:
    SyntheticTrace &
    demand(Addr block, std::uint64_t front_cycles = 3)
    {
        trace_.append(MissRecord::Kind::DEMAND, makeLoad(block * kBlock),
                      front_cycles, 0, 0);
        return *this;
    }

    SyntheticTrace &
    writeback(Addr block)
    {
        trace_.append(MissRecord::Kind::WRITEBACK, makeLoad(block * kBlock),
                      1, 0, 0);
        return *this;
    }

    const MissTrace &trace() const { return trace_; }

  private:
    MissTrace trace_;
};

} // namespace

TEST(StreamStack, DomainIsTheFigureThreeSecondaryLevel)
{
    EXPECT_TRUE(streamStackDomain(paperSystemConfig(10)));
    auto outside = [](auto change) {
        MemorySystemConfig c = paperSystemConfig(4);
        change(c);
        return streamStackDomain(c);
    };
    EXPECT_FALSE(outside([](MemorySystemConfig &c) {
        c.streams.allocation = AllocationPolicy::UNIT_FILTER;
    }));
    EXPECT_FALSE(outside([](MemorySystemConfig &c) {
        c.streams.replacement = StreamReplacement::FIFO;
    }));
    EXPECT_FALSE(outside(
        [](MemorySystemConfig &c) { c.streams.associativeLookup = true; }));
    EXPECT_FALSE(
        outside([](MemorySystemConfig &c) { c.streams.partitioned = true; }));
    EXPECT_FALSE(outside([](MemorySystemConfig &c) { c.useL2 = true; }));
    EXPECT_FALSE(
        outside([](MemorySystemConfig &c) { c.busCyclesPerBlock = 4; }));
    EXPECT_FALSE(outside([](MemorySystemConfig &c) { c.useStreams = false; }));
}

// Figure 3 on every program: counts 1-10 at the paper's depth.
TEST(StreamStack, EveryProgramMatchesReplayAtDepthTwo)
{
    const MemorySystemConfig config = paperSystemConfig(10);
    std::size_t answered = 0, total = 0;
    std::vector<std::uint32_t> mgrid_diverged;
    for (const Benchmark &b : allBenchmarks()) {
        const MissTrace trace = recordProgram(b.name, config);
        std::vector<std::uint32_t> diverged = expectAnsweredMatchReplay(
            trace, config, countsUpTo(10), b.name);
        total += 10;
        answered += 10 - diverged.size();
        if (b.name == "mgrid")
            mgrid_diverged = diverged;
    }
    EXPECT_EQ(total, 150u);
    // Most pairs are answered, and mgrid has duplicate heads.
    EXPECT_GT(answered, total / 2);
    EXPECT_FALSE(mgrid_diverged.empty());
}

TEST(StreamStack, DepthsOneAndFourMatchReplayUpToSixteenStreams)
{
    for (std::uint32_t depth : {1u, 4u}) {
        MemorySystemConfig config = paperSystemConfig(10);
        config.streams.depth = depth;
        for (const char *name : {"mgrid", "fftpde", "cgm", "appsp"}) {
            const MissTrace trace = recordProgram(name, config);
            expectAnsweredMatchReplay(trace, config, countsUpTo(16), name);
        }
    }
}

// A diverging family still gets exact answers: its diverged counts are
// replayed whole, the rest copied from the pass.
TEST(StreamStack, SweepAnswersADivergingFamilyExactly)
{
    std::vector<SweepJob> jobs;
    for (std::uint32_t k : countsUpTo(10)) {
        jobs.push_back(benchmarkJob("mgrid", ScaleLevel::DEFAULT,
                                    paperSystemConfig(k), "", kRefs));
    }
    TraceCache &cache = TraceCache::instance();
    cache.clear();
    SweepRunner off(1);
    off.setCacheReport(false);
    off.setTraceCacheEnabled(false);
    const std::vector<SweepResult> want = off.run(jobs);

    SweepRunner on(1);
    on.setCacheReport(false);
    on.setTraceCacheEnabled(true);
    const std::vector<SweepResult> got = on.run(jobs);
    const TraceCacheStats stats = cache.stats();
    cache.clear();

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(document(got[i].output), document(want[i].output))
            << (i + 1) << " streams";
    }
    EXPECT_GT(stats.stackJobs, 0u);
    EXPECT_GT(stats.stackDiverged, 0u);
    EXPECT_EQ(stats.stackJobs + stats.stackDiverged, jobs.size());
    EXPECT_EQ(stats.replays, stats.stackDiverged);
    EXPECT_EQ(stats.missTracesRecorded, 1u);
}

// Two streams with one head, the older in the lower slot: with two
// streams the engine hits the older one, the stack the newer one.
TEST(StreamStack, DuplicateHeadInALowerSlotDiverges)
{
    SyntheticTrace t;
    t.demand(100).demand(100).demand(101).demand(102).demand(7).demand(103);
    const MemorySystemConfig config = paperSystemConfig(2);
    EXPECT_EQ(expectAnsweredMatchReplay(t.trace(), config, {1, 2}, "dup"),
              std::vector<std::uint32_t>{2});
}

// The newer duplicate took the lower slot (it replaced the LRU stream
// in slot 0): the engine's pick is the stack's, so two streams stay
// answered. With three, the newer one sits in slot 2 and diverges.
TEST(StreamStack, DuplicateHeadInTheLowestSlotStaysAnswered)
{
    SyntheticTrace t;
    t.demand(5).demand(100).demand(100).demand(101).demand(102).demand(5)
        .demand(103);
    const MemorySystemConfig config = paperSystemConfig(2);
    EXPECT_EQ(expectAnsweredMatchReplay(t.trace(), config, {1, 2, 3},
                                        "dup-lowest"),
              std::vector<std::uint32_t>{3});
}

// A write-back invalidates a stream's second entry; the next hit makes
// it the head, so the stream is dead for that count.
TEST(StreamStack, InvalidatedSlotBecomingHeadDiverges)
{
    SyntheticTrace t;
    t.demand(100).writeback(102).demand(101).demand(102).demand(103);
    const MemorySystemConfig config = paperSystemConfig(1);
    EXPECT_EQ(expectAnsweredMatchReplay(t.trace(), config, {1, 2}, "dead"),
              (std::vector<std::uint32_t>{1, 2}));
}

// A write-back of a head leaves the stream dead in every count holding
// it: the next lookup of that block misses everywhere and allocates.
TEST(StreamStack, WritebackOfAHeadStaysAnswered)
{
    SyntheticTrace t;
    t.demand(100).demand(200).writeback(101).demand(101).demand(102)
        .demand(201).demand(300).writeback(301).writeback(999)
        .demand(202).demand(101);
    for (std::uint32_t depth : {1u, 2u, 4u}) {
        MemorySystemConfig config = paperSystemConfig(3);
        config.streams.depth = depth;
        EXPECT_TRUE(expectAnsweredMatchReplay(t.trace(), config, {1, 2, 3, 4},
                                              "head-writeback")
                        .empty())
            << "depth " << depth;
    }
}

TEST(StreamStack, EmptyAndWritebackOnlyTracesMatchReplay)
{
    const MemorySystemConfig config = paperSystemConfig(4);
    EXPECT_TRUE(expectAnsweredMatchReplay(MissTrace{}, config, {1, 4, 10},
                                          "empty")
                    .empty());
    SyntheticTrace t;
    t.writeback(1).writeback(2).writeback(1);
    EXPECT_TRUE(expectAnsweredMatchReplay(t.trace(), config, {1, 4, 10},
                                          "writebacks")
                    .empty());
}
