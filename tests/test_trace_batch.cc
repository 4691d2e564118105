/**
 * @file
 * Batch-size independence of every TraceSource. nextBatch is the one
 * way a source delivers references, and next() is a one-element
 * batch, so for every source type the sequence must not depend on the
 * batch sizes it is asked for: one reference at a time, batch sizes
 * that divide the trace, that don't and that exceed it, the two
 * mixed, and again after reset(). MemorySystem::run reads 256-reference
 * spans while drain, TraceWriter::appendAll and the CLI's analyze read
 * one reference at a time, so these pins keep every consumer seeing
 * the same sequence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "trace/file_trace.hh"
#include "trace/footprint.hh"
#include "trace/source.hh"
#include "trace/time_sampler.hh"
#include "trace/trace_stats.hh"
#include "workloads/benchmark.hh"
#include "workloads/pattern.hh"

using namespace sbsim;

namespace {

/** Drain @p src one reference at a time via next(). */
std::vector<MemAccess>
drainSerial(TraceSource &src)
{
    std::vector<MemAccess> out;
    MemAccess a;
    while (src.next(a))
        out.push_back(a);
    return out;
}

/** Drain @p src through nextBatch with a fixed batch size. */
std::vector<MemAccess>
drainBatched(TraceSource &src, std::size_t batch_size)
{
    std::vector<MemAccess> out;
    std::vector<MemAccess> batch(batch_size);
    std::size_t got;
    while ((got = src.nextBatch(batch.data(), batch_size)) > 0) {
        EXPECT_LE(got, batch_size) << "nextBatch overran the buffer";
        out.insert(out.end(), batch.begin(),
                   batch.begin() + static_cast<std::ptrdiff_t>(got));
    }
    return out;
}

/** Batch sizes that divide a trace of @p n references, that don't,
 *  and one that exceeds it. */
std::vector<std::size_t>
batchSizes(std::size_t n)
{
    return {1, 3, 7, 64, n + 13};
}

/**
 * The core differential: serial and batched drains of @p src must
 * agree for every batchSizes() size; and a reset() must restart the
 * batched sequence from the top.
 */
void
expectBatchedMatchesSerial(TraceSource &src)
{
    src.reset();
    std::vector<MemAccess> serial = drainSerial(src);
    ASSERT_FALSE(serial.empty()) << "fixture produced an empty trace";

    for (std::size_t batch_size : batchSizes(serial.size())) {
        src.reset();
        std::vector<MemAccess> batched = drainBatched(src, batch_size);
        ASSERT_EQ(batched.size(), serial.size())
            << "batch size " << batch_size;
        for (std::size_t i = 0; i < serial.size(); ++i) {
            ASSERT_TRUE(batched[i] == serial[i])
                << "batch size " << batch_size << ", reference " << i;
        }
        // Exhausted for good: further calls keep returning 0.
        MemAccess extra;
        EXPECT_EQ(src.nextBatch(&extra, 1), 0u);
        EXPECT_FALSE(src.next(extra));
    }

    // Mixed-granularity consumption: alternate next() and nextBatch()
    // against the serial reference sequence.
    src.reset();
    std::vector<MemAccess> mixed;
    MemAccess one;
    std::vector<MemAccess> chunk(5);
    for (;;) {
        if (mixed.size() % 3 == 0) {
            std::size_t got = src.nextBatch(chunk.data(), chunk.size());
            if (got == 0)
                break;
            mixed.insert(mixed.end(), chunk.begin(),
                         chunk.begin() + static_cast<std::ptrdiff_t>(got));
        } else {
            if (!src.next(one))
                break;
            mixed.push_back(one);
        }
    }
    ASSERT_EQ(mixed.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        ASSERT_TRUE(mixed[i] == serial[i]) << "mixed drain, reference " << i;
}

std::vector<MemAccess>
syntheticTrace(std::size_t n)
{
    std::vector<MemAccess> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Addr a = 0x1000 + 40 * static_cast<Addr>(i);
        switch (i % 3) {
          case 0: v.push_back(makeLoad(a)); break;
          case 1: v.push_back(makeStore(a, 4)); break;
          default: v.push_back(makeIfetch(0x40 + 4 * (i % 16))); break;
        }
    }
    return v;
}

/** Delivers its source in batches of at most 1, 2, 3, 1, 2, ...
 *  references: short batches long before the source runs dry. */
class ShortBatchSource final : public TraceSource
{
  public:
    explicit ShortBatchSource(TraceSource &src) : src_(src) {}

    std::size_t
    nextBatch(MemAccess *out, std::size_t max) override
    {
        cap_ = cap_ % 3 + 1;
        return src_.nextBatch(out, std::min(max, cap_));
    }

    void
    reset() override
    {
        src_.reset();
        cap_ = 0;
    }

  private:
    TraceSource &src_;
    std::size_t cap_ = 0;
};

std::string
tempPath(const char *name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

} // namespace

TEST(TraceBatch, VectorSource)
{
    VectorSource src(syntheticTrace(517));
    expectBatchedMatchesSerial(src);
}

TEST(TraceBatch, FileTraceReader)
{
    std::string path = tempPath("sbsim_batch.trace");
    {
        TraceWriter writer(path);
        for (const MemAccess &a : syntheticTrace(1291))
            writer.append(a);
    }
    TraceReader src(path);
    expectBatchedMatchesSerial(src);
    std::filesystem::remove(path);
}

TEST(TraceBatch, TimeSampler)
{
    // Windows deliberately misaligned with every batch size used by
    // the differential, so batches straddle on/off boundaries.
    VectorSource base(syntheticTrace(4001));
    TimeSampler src(base, /*on_count=*/37, /*off_count=*/23);
    expectBatchedMatchesSerial(src);
}

TEST(TraceBatch, TimeSamplerOverShortBatches)
{
    // A short batch from the sampled source is not its end: the
    // windows span the same references, and count the same, whatever
    // batches the source hands out.
    VectorSource whole_base(syntheticTrace(4001));
    TimeSampler whole(whole_base, /*on_count=*/37, /*off_count=*/23);
    const std::vector<MemAccess> want = drainSerial(whole);

    VectorSource base(syntheticTrace(4001));
    ShortBatchSource ragged(base);
    TimeSampler src(ragged, /*on_count=*/37, /*off_count=*/23);
    EXPECT_EQ(drainSerial(src), want);
    EXPECT_EQ(src.sampledCount(), whole.sampledCount());
    EXPECT_EQ(src.skippedCount(), whole.skippedCount());
    expectBatchedMatchesSerial(src);
}

TEST(TraceBatch, TraceStats)
{
    // Every reference type, so each counter has something to count.
    std::vector<MemAccess> refs = syntheticTrace(613);
    for (std::size_t i = 0; i < refs.size(); i += 5)
        refs[i] = makePrefetch(refs[i].addr);
    std::uint64_t ifetches = 0, loads = 0, stores = 0, prefetches = 0;
    BlockFootprint blocks(32);
    for (const MemAccess &a : refs) {
        switch (a.type) {
          case AccessType::IFETCH: ++ifetches; break;
          case AccessType::LOAD: ++loads; break;
          case AccessType::STORE: ++stores; break;
          case AccessType::PREFETCH: ++prefetches; break;
        }
        if (!a.isInstruction())
            blocks.touch(a.addr);
    }
    ASSERT_GT(ifetches * loads * stores * prefetches, 0u);

    VectorSource base(refs);
    TraceStats src(base, 32);
    expectBatchedMatchesSerial(src);

    // The counters see each forwarded batch exactly once: after a
    // reset() and a whole drain at any batch size, they describe the
    // trace once.
    for (std::size_t batch_size : batchSizes(refs.size())) {
        SCOPED_TRACE(batch_size);
        src.reset();
        ASSERT_EQ(drainBatched(src, batch_size), refs);
        EXPECT_EQ(src.ifetches(), ifetches);
        EXPECT_EQ(src.loads(), loads);
        EXPECT_EQ(src.stores(), stores);
        EXPECT_EQ(src.prefetches(), prefetches);
        EXPECT_EQ(src.total(), refs.size());
        EXPECT_EQ(src.uniqueDataBlocks(), blocks.uniqueBlocks());
    }
}

TEST(TraceBatch, TruncatingSource)
{
    VectorSource base(syntheticTrace(700));
    TruncatingSource src(base, /*limit=*/333);
    expectBatchedMatchesSerial(src);
}

TEST(TraceBatch, SamplerOverTruncationStack)
{
    // The composition the CLI builds: workload -> truncate -> sample.
    const Benchmark &bench = findBenchmark("mgrid");
    auto chain = std::make_unique<OwningSourceChain>();
    TraceSource &workload =
        chain->add(bench.makeWorkload(ScaleLevel::SMALL));
    TraceSource &limited = chain->add(
        std::make_unique<TruncatingSource>(workload, 20000));
    chain->add(std::make_unique<TimeSampler>(limited, 501, 299));
    expectBatchedMatchesSerial(*chain);
}

TEST(TraceBatch, OwningSourceChainEmpty)
{
    OwningSourceChain chain;
    MemAccess a;
    EXPECT_EQ(chain.nextBatch(&a, 1), 0u);
    EXPECT_FALSE(chain.next(a));
}

TEST(TraceBatch, EveryBenchmarkGenerator)
{
    // Every workload generator in the registry, at the small scale,
    // truncated so the whole suite stays fast. The truncation cap is
    // prime so batch boundaries never line up with op boundaries.
    for (const Benchmark &bench : allBenchmarks()) {
        SCOPED_TRACE(bench.name);
        auto workload = bench.makeWorkload(ScaleLevel::SMALL);
        TruncatingSource limited(*workload, 9973);
        expectBatchedMatchesSerial(limited);
    }
}

TEST(TraceBatch, ComposedWorkloadDirect)
{
    // The generator itself (no truncation): the batched drain must
    // also agree on where the workload *ends*.
    WorkloadSpec spec;
    spec.name = "batch-pin";
    spec.timeSteps = 3;
    spec.hotPerAccess = 2;
    spec.hotBytes = 4096;
    spec.ifetchPerAccess = 1;
    spec.loopBodyBytes = 768; // Not a power of two: exercises the
                              // modulo fallback for the pc salt.
    SweepOp sweep;
    sweep.count = 97;
    sweep.segments = 2;
    sweep.segmentStride = 4096;
    sweep.streams = {{0x100000, 32}, {0x200000, 64, AccessType::STORE, 8}};
    spec.ops.push_back(sweep);
    GatherOp gather;
    gather.idxBase = 0x300000;
    gather.count = 151;
    gather.dataBase = 0x400000;
    gather.dataRangeBytes = 1 << 20;
    spec.ops.push_back(gather);

    ComposedWorkload src(spec);
    expectBatchedMatchesSerial(src);
}
