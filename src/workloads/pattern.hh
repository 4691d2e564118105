/**
 * @file
 * Composable synthetic address-pattern engine.
 *
 * The paper drove its simulator with Shade traces of fifteen Fortran
 * programs. Those traces are not available, so each benchmark is
 * modelled as a WorkloadSpec: a sequence of pattern *ops* replayed for
 * a number of time steps. Stream-buffer behaviour depends only on the
 * pattern of primary-cache misses, which the ops reproduce:
 *
 *  - SweepOp: several strided reference streams walked round-robin
 *    (interleaved array sweeps in a loop nest); optionally segmented
 *    to model column-by-column traversals where the run restarts.
 *  - GatherOp: a unit-stride index array driving indirect accesses
 *    into a target region (scatter/gather array indirection), with
 *    tunable spatial clustering.
 *  - BurstOp: many short unit-stride runs at pseudo-random bases
 *    (small dense blocks of block-structured codes).
 *
 * Around every pattern access the engine interleaves instruction
 * fetches walking a small loop body (hitting the I-cache after the
 * first lap) and "hot" accesses to a cache-resident region, which
 * model the register/cache-resident work that keeps real miss rates
 * low. Everything is driven by a seeded Pcg32, so traces are exactly
 * reproducible.
 */

#ifndef STREAMSIM_WORKLOADS_PATTERN_HH
#define STREAMSIM_WORKLOADS_PATTERN_HH

#include <cstdint>
#include <deque>
#include <string>
#include <variant>
#include <vector>

#include "mem/types.hh"
#include "trace/source.hh"
#include "util/random.hh"

namespace sbsim {

/** One strided reference stream inside a SweepOp. */
struct StreamSpec
{
    Addr base = 0;
    std::int64_t stride = 32;
    AccessType type = AccessType::LOAD;
    std::uint8_t size = 8;
};

/** Interleaved strided sweeps, optionally segmented. */
struct SweepOp
{
    std::vector<StreamSpec> streams;
    std::uint64_t count = 0; ///< Iterations per segment; one access per
                             ///< stream per iteration.
    std::uint64_t segments = 1;
    std::int64_t segmentStride = 0; ///< Base advance between segments.
};

/** Index-driven gather (and optional scatter-back). */
struct GatherOp
{
    Addr idxBase = 0;            ///< Index array, swept unit-stride.
    std::uint64_t count = 0;     ///< Gather iterations.
    Addr dataBase = 0;           ///< Indirection target region.
    std::uint64_t dataRangeBytes = 0;
    std::uint32_t elemSize = 8;
    std::uint32_t clusterLen = 1; ///< Sequential elements per jump.
    bool storeBack = false;       ///< Also write the gathered element.
};

/** Short unit-stride runs at pseudo-random block-aligned bases. */
struct BurstOp
{
    Addr base = 0;
    std::uint64_t regionBytes = 0;
    std::uint64_t bursts = 0;
    std::uint32_t burstBlocks = 4;      ///< Blocks per run.
    std::uint32_t blockBytes = 32;
    std::uint32_t accessesPerBlock = 1; ///< Sub-block granularity.
    bool stores = false;                ///< Runs are writes.
};

using PatternOp = std::variant<SweepOp, GatherOp, BurstOp>;

/** A complete synthetic workload description. */
struct WorkloadSpec
{
    std::string name;
    std::vector<PatternOp> ops;
    std::uint64_t timeSteps = 1; ///< Whole-op-list repetitions.

    /** Cache-resident filler accesses per pattern access. */
    std::uint32_t hotPerAccess = 0;
    Addr hotBase = 0x00200000;
    std::uint64_t hotBytes = 4096;

    /** Instruction fetches per pattern access. */
    std::uint32_t ifetchPerAccess = 1;
    Addr codeBase = 0x00010000;
    std::uint64_t loopBodyBytes = 1024;

    /**
     * Interleaved irregular disturbance: after every @p noiseEvery
     * pattern accesses, one access lands at a random block inside the
     * noise region (0 disables). These are the isolated references of
     * real codes — address bookkeeping, scalar spills, indirection —
     * that miss both cache and streams and churn stream allocations.
     */
    std::uint32_t noiseEvery = 0;
    Addr noiseBase = 0;
    std::uint64_t noiseBytes = 0;
    /**
     * Noise accesses per trigger. Bursts of a dozen scattered misses
     * model pointer-chasing/setup phases; with allocate-on-every-miss
     * streams a burst longer than the stream count flushes every
     * active stream, which is the disturbance the paper's filter
     * protects against.
     */
    std::uint32_t noiseBurstLen = 1;

    /**
     * Compiler-inserted software prefetching (Mowry-style, Section 2
     * of the paper), modelled at the generator level because the
     * "compiler" knows the loop structure. 0 disables. A nonzero
     * distance d makes:
     *  - sweeps prefetch the element d iterations ahead (one prefetch
     *    instruction per cache line, as an unrolled loop would emit);
     *  - gathers software-pipeline the indirection: index positions
     *    are drawn d jumps ahead so a[b[i+d]] can be prefetched;
     *  - bursts emit nothing (conflict/capacity misses at random
     *    bases are exactly what software cannot predict).
     * Each prefetch costs one instruction fetch and one issue slot in
     * the trace — the execution overhead the paper criticizes.
     */
    std::uint32_t swPrefetchDistance = 0;

    std::uint64_t seed = 1;
};

/** Interprets a WorkloadSpec as a deterministic TraceSource. */
class ComposedWorkload : public TraceSource
{
  public:
    explicit ComposedWorkload(WorkloadSpec spec);

    /**
     * Delivery shared by every benchmark generator: the interpreter
     * refills the internal buffer op-step by op-step, and the batch
     * drains it in bulk copies.
     */
    std::size_t nextBatch(MemAccess *out, std::size_t max) override;

    void reset() override;

    const WorkloadSpec &spec() const { return spec_; }

  private:
    /** Emit the next pattern access (+ fillers) into the buffer.
     *  @return false when the workload is exhausted. */
    bool generateMore();

    /**
     * Queue @p access surrounded by ifetch and hot fillers.
     * @param pc_salt Selects a stable pseudo-PC within the loop body:
     *        the same static instruction issues the same slot of an
     *        op on every iteration, which is what PC-indexed
     *        prefetcher baselines key on.
     */
    void emitPattern(Addr addr, AccessType type, std::uint8_t size,
                     std::uint32_t pc_salt);

    /** Queue one software prefetch (with its instruction fetch). */
    void emitSwPrefetch(Addr addr);

    void advanceOp();

    bool stepSweep(const SweepOp &op);
    bool stepGather(const GatherOp &op);
    bool stepBurst(const BurstOp &op);

    WorkloadSpec spec_;
    /**
     * Generated-but-undelivered references. A flat vector with a read
     * cursor, not a deque: the interpreter only refills once the
     * buffer is fully drained, so consumption is an index bump (or one
     * bulk copy in nextBatch) and refilling starts from clear().
     */
    std::vector<MemAccess> buffer_;
    std::size_t readPos_ = 0;

    // Interpreter state.
    std::uint64_t step_ = 0;
    std::size_t opIdx_ = 0;
    std::uint64_t iter_ = 0;   ///< Iteration within the current segment.
    std::uint64_t segment_ = 0;
    std::size_t sub_ = 0;      ///< Stream index / phase within iteration.
    Pcg32 rng_;

    // Gather state.
    Addr gatherPos_ = 0;
    std::uint32_t clusterLeft_ = 0;
    /** Pre-drawn future jump targets (software pipelining). */
    std::deque<Addr> gatherFuture_;

    // Burst state.
    Addr burstAddr_ = 0;

    // Filler state.
    Addr ifetchPC_ = 0;
    /** Byte offset of the next hot access: kept incrementally (the
     *  same value as (accesses * 8) % hotBytes, without the divide). */
    std::uint64_t hotOffset_ = 0;
    /** loopBodyBytes - 1 when it is a power of two, else 0 (use %). */
    std::uint64_t loopMask_ = 0;
    std::uint32_t noiseCountdown_ = 0;
    bool exhausted_ = false;
};

/** Bump allocator for laying out benchmark arrays in address space. */
class AddressArena
{
  public:
    explicit AddressArena(Addr base = 0x10000000) : next_(base) {}

    /** Allocate @p bytes aligned to @p align (power of two). */
    Addr
    alloc(std::uint64_t bytes, std::uint64_t align = 4096)
    {
        next_ = (next_ + align - 1) & ~(align - 1);
        Addr a = next_;
        next_ += bytes;
        return a;
    }

  private:
    Addr next_;
};

} // namespace sbsim

#endif // STREAMSIM_WORKLOADS_PATTERN_HH
