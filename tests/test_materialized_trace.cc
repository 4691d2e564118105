/**
 * @file
 * Edge cases of draining a source into a MaterializedTrace: empty
 * sources, reference limits far beyond what a finite generator
 * produces, ragged batch sizes, the bytes a finished trace reports
 * holding (and the cache report built from them), the TimeSampler
 * counts a drain of a spec's input chain attaches, and views over one
 * range of a trace.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "service/run_spec.hh"
#include "trace/materialized_trace.hh"
#include "trace/time_sampler.hh"
#include "trace/trace_cache.hh"
#include "util/random.hh"
#include "workloads/benchmark.hh"

using namespace sbsim;
using namespace sbsim::service;

namespace {

/** A finite generator: appbt at small scale ends after 641,700
 *  references. */
constexpr std::uint64_t kAppbtSmallRefs = 641700;

std::unique_ptr<TraceSource>
appbtSmall()
{
    return findBenchmark("appbt").makeWorkload(ScaleLevel::SMALL);
}

/** A "VmPeak:"/"VmSize:" figure of /proc/self/status in bytes, when
 *  the platform has one. */
std::optional<std::uint64_t>
procStatusBytes(const std::string &field)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind(field, 0) == 0)
            return std::stoull(line.substr(field.size())) * 1024;
    }
    return std::nullopt;
}

/** Delivers its source in batches of pseudo-random length, often
 *  shorter than asked for. */
class RaggedSource final : public TraceSource
{
  public:
    explicit RaggedSource(TraceSource &src) : src_(src) {}

    bool next(MemAccess &out) override { return src_.next(out); }

    std::size_t
    nextBatch(MemAccess *out, std::size_t max) override
    {
        const std::size_t want =
            std::min<std::size_t>(max, 1 + rng_.below(97));
        return src_.nextBatch(out, want);
    }

    void reset() override { src_.reset(); }

  private:
    TraceSource &src_;
    Pcg32 rng_{7};
};

/** Delivers at most one reference per call. */
class OneByOneSource final : public TraceSource
{
  public:
    explicit OneByOneSource(TraceSource &src) : src_(src) {}

    std::size_t
    nextBatch(MemAccess *out, std::size_t max) override
    {
        return src_.nextBatch(out, std::min<std::size_t>(max, 1));
    }

    void reset() override { src_.reset(); }

  private:
    TraceSource &src_;
};

void
expectSameRefs(const MaterializedTrace &got, const MaterializedTrace &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got.data()[i], want.data()[i]) << "reference " << i;
}

} // namespace

TEST(MaterializedTrace, EmptySourceGivesAnEmptyTrace)
{
    VectorSource empty({});
    auto trace = MaterializedTrace::fromSource(empty);
    EXPECT_EQ(trace->size(), 0u);
    EXPECT_EQ(trace->bytes(), sizeof(MaterializedTrace));
    SharedTraceView view(trace);
    MemAccess a;
    EXPECT_FALSE(view.next(a));
    const MemAccess *span = nullptr;
    EXPECT_EQ(view.nextSpan(&span, nullptr, view.remaining()), 0u);
}

TEST(MaterializedTrace, RangedViewsStayInsideTheirRange)
{
    std::vector<MemAccess> refs;
    for (std::uint64_t i = 0; i < 100; ++i)
        refs.push_back(makeLoad(i * 64));
    VectorSource src(refs);
    auto trace = MaterializedTrace::fromSource(src);
    ASSERT_EQ(trace->size(), refs.size());

    // Ranges at both ends of the trace, inside it, and empty ones.
    const std::pair<std::size_t, std::size_t> ranges[] = {
        {0, 10}, {17, 83}, {90, 100}, {40, 40}, {100, 100}};
    for (const auto &[begin, end] : ranges) {
        SCOPED_TRACE(std::to_string(begin) + ".." + std::to_string(end));
        const std::vector<MemAccess> want(refs.begin() + begin,
                                          refs.begin() + end);
        MemAccess a;

        SharedTraceView by_next(trace, begin, end);
        EXPECT_EQ(by_next.remaining(), end - begin);
        std::vector<MemAccess> got;
        while (by_next.next(a))
            got.push_back(a);
        EXPECT_EQ(got, want);
        EXPECT_FALSE(by_next.next(a));
        EXPECT_EQ(by_next.remaining(), 0u);

        // Asked for the whole trace, a batch stops at the range end.
        SharedTraceView by_batch(trace, begin, end);
        std::vector<MemAccess> batch(refs.size());
        ASSERT_EQ(by_batch.nextBatch(batch.data(), batch.size()),
                  end - begin);
        batch.resize(end - begin);
        EXPECT_EQ(batch, want);
        EXPECT_EQ(by_batch.nextBatch(&a, 1), 0u);

        // Spans point into the trace itself; reset() rewinds to the
        // range's start, not the trace's.
        SharedTraceView by_span(trace, begin, end);
        for (int pass = 0; pass < 2; ++pass) {
            got.clear();
            const MemAccess *span = nullptr;
            std::size_t n;
            while ((n = by_span.nextSpan(&span, nullptr, 7)) > 0) {
                EXPECT_LE(n, 7u);
                EXPECT_EQ(span, trace->data() + begin + got.size());
                got.insert(got.end(), span, span + n);
            }
            EXPECT_EQ(got, want);
            EXPECT_EQ(by_span.remaining(), 0u);
            by_span.reset();
            EXPECT_EQ(by_span.remaining(), end - begin);
        }
    }
}

TEST(MaterializedTrace, HugeLimitOverAFiniteGeneratorMatchesTheExactLimit)
{
    auto exactGen = appbtSmall();
    TruncatingSource exact(*exactGen, kAppbtSmallRefs);
    auto want = MaterializedTrace::fromSource(exact);
    ASSERT_EQ(want->size(), kAppbtSmallRefs);

    // A drain that sized anything from the limit would fail here
    // (2^62 references are 96 EiB) or show in the peak address space.
    const std::optional<std::uint64_t> peakBefore =
        procStatusBytes("VmPeak:");
    auto hugeGen = appbtSmall();
    TruncatingSource huge(*hugeGen, std::uint64_t{1} << 62);
    auto got = MaterializedTrace::fromSource(huge);
    expectSameRefs(*got, *want);
    const std::optional<std::uint64_t> peakAfter =
        procStatusBytes("VmPeak:");
    if (peakBefore && peakAfter) {
        EXPECT_LT(*peakAfter - *peakBefore, std::uint64_t{64} << 20)
            << "the drain reserved far more than the 15 MB it holds";
    }
}

TEST(MaterializedTrace, RaggedAndSingleReferenceBatchesGiveTheSameBytes)
{
    auto exactGen = appbtSmall();
    TruncatingSource exact(*exactGen, 300000);
    auto want = MaterializedTrace::fromSource(exact);

    auto raggedGen = appbtSmall();
    TruncatingSource raggedLimit(*raggedGen, std::uint64_t{1} << 62);
    TruncatingSource raggedExact(raggedLimit, 300000);
    RaggedSource ragged(raggedExact);
    expectSameRefs(*MaterializedTrace::fromSource(ragged), *want);

    auto oneGen = appbtSmall();
    TruncatingSource oneLimit(*oneGen, 300000);
    OneByOneSource one(oneLimit);
    expectSameRefs(*MaterializedTrace::fromSource(one), *want);
}

TEST(MaterializedTrace, BytesCountWhatIsHeldNotWhatWasReserved)
{
    // One reference past 2 MiB: the drain's mapping doubled to 4 MiB
    // on the way, and the finished trace keeps only what it holds.
    const std::size_t n = (std::size_t{2} << 20) / sizeof(MemAccess) + 1;
    std::vector<MemAccess> refs(n);
    for (std::size_t i = 0; i < n; ++i)
        refs[i] = makeLoad(static_cast<Addr>(i) * 8);
    VectorSource src(std::move(refs));

    const std::optional<std::uint64_t> sizeBefore =
        procStatusBytes("VmSize:");
    auto trace = MaterializedTrace::fromSource(src);
    const std::optional<std::uint64_t> sizeAfter =
        procStatusBytes("VmSize:");
    ASSERT_EQ(trace->size(), n);
    EXPECT_EQ(trace->bytes(),
              sizeof(MaterializedTrace) + n * sizeof(MemAccess));
    if (sizeBefore && sizeAfter) {
        EXPECT_LT(*sizeAfter - *sizeBefore,
                  n * sizeof(MemAccess) + (std::uint64_t{1} << 20))
            << "the unused tail of the drain's mapping was not released";
    }

    TraceCache &cache = TraceCache::instance();
    cache.clear();
    auto cached =
        cache.getOrMaterializeTrace("held-bytes", [&] { return trace; });
    ASSERT_EQ(cached.get(), trace.get());
    EXPECT_EQ(cache.stats().residentBytes, trace->bytes());
    cache.clear();
}

TEST(MaterializedTrace, SpecInputKeepsTheTimeSamplerCounts)
{
    RunSpec spec;
    spec.benchmark = "mgrid";
    spec.scale = ScaleLevel::SMALL;
    spec.refs = 100000;
    spec.timeSample = true;
    auto trace = MaterializedTrace::fromSource(*makeSpecInput(spec));

    auto workload = findBenchmark("mgrid").makeWorkload(ScaleLevel::SMALL);
    TimeSampler sampler(*workload, 10000, 90000);
    TruncatingSource limited(sampler, spec.refs);
    auto want = MaterializedTrace::fromSource(limited);

    expectSameRefs(*trace, *want);
    ASSERT_TRUE(trace->samplerCounts());
    ASSERT_TRUE(want->samplerCounts());
    EXPECT_EQ(trace->samplerCounts()->sampled, sampler.sampledCount());
    EXPECT_EQ(trace->samplerCounts()->skipped, sampler.skippedCount());
    EXPECT_EQ(want->samplerCounts()->sampled, sampler.sampledCount());
    EXPECT_EQ(want->samplerCounts()->skipped, sampler.skippedCount());
    EXPECT_EQ(trace->samplerCounts()->sampled, spec.refs);
    EXPECT_GT(trace->samplerCounts()->skipped, 0u);

    spec.timeSample = false;
    EXPECT_FALSE(
        MaterializedTrace::fromSource(*makeSpecInput(spec))->samplerCounts());
}
