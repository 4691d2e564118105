/**
 * @file
 * The TraceSource interface: a pull-based stream of memory references.
 * Workload generators, trace-file readers and samplers all implement
 * it, so simulators are agnostic to where references come from — the
 * same role Shade traces played for the paper.
 */

#ifndef STREAMSIM_TRACE_SOURCE_HH
#define STREAMSIM_TRACE_SOURCE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mem/types.hh"

namespace sbsim {

/** What a TimeSampler passed through and dropped so far. */
struct SamplerCounts
{
    std::uint64_t sampled = 0;
    std::uint64_t skipped = 0;
};

/** A pull-based producer of memory references. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce up to @p max references into @p out: the one way a
     * source delivers references. Consumers like MemorySystem::run pay
     * one virtual dispatch per batch instead of one per reference. A
     * batch may come up short (a wrapper may pass on its source's
     * short batches), but the sequence delivered never depends on the
     * batch sizes asked for.
     *
     * @return the number of references produced; 0 means exhausted.
     */
    virtual std::size_t nextBatch(MemAccess *out, std::size_t max) = 0;

    /**
     * Produce the next reference: a one-element batch, for the
     * per-reference consumers (drain, TraceWriter::appendAll, ...).
     * @return false when the trace is exhausted.
     */
    virtual bool next(MemAccess &out) { return nextBatch(&out, 1) == 1; }

    /**
     * Point @p out at the next up to @p max references and consume
     * them: the path MemorySystem::run reads every source through.
     * A source holding its references in memory hands out a span of
     * its own storage; the default copies one nextBatch into
     * @p scratch (room for @p max) and points there. Either way the
     * sequence is exactly the nextBatch sequence.
     *
     * @return the span length; 0 means exhausted.
     */
    virtual std::size_t
    nextSpan(const MemAccess **out, MemAccess *scratch, std::size_t max)
    {
        *out = scratch;
        return nextBatch(scratch, max);
    }

    /** Rewind to the beginning, if the source supports it. */
    virtual void reset() = 0;

    /**
     * The counts of the TimeSampler in this source's chain; none when
     * the chain has no sampler. Wrappers forward to the source they
     * read, and a view of a materialised trace reports the counts its
     * drain ended with, so a run can report them whatever it read.
     */
    virtual std::optional<SamplerCounts>
    samplerCounts() const
    {
        return std::nullopt;
    }
};

/** A TraceSource over an in-memory vector; used heavily by tests. */
class VectorSource : public TraceSource
{
  public:
    explicit VectorSource(std::vector<MemAccess> accesses)
        : accesses_(std::move(accesses))
    {}

    std::size_t
    nextBatch(MemAccess *out, std::size_t max) override
    {
        std::size_t n = std::min(max, accesses_.size() - pos_);
        std::copy_n(accesses_.begin() +
                        static_cast<std::ptrdiff_t>(pos_),
                    n, out);
        pos_ += n;
        return n;
    }

    void reset() override { pos_ = 0; }

    std::size_t size() const { return accesses_.size(); }

  private:
    std::vector<MemAccess> accesses_;
    std::size_t pos_ = 0;
};

/**
 * A TraceSource that owns a whole chain of sources and reads from the
 * most recently added link. Wrappers like TimeSampler and
 * TruncatingSource hold references to the source below them, so a
 * caller handing a composed chain across a boundary (a sweep job, a
 * CLI command) needs one object keeping every link alive.
 */
class OwningSourceChain : public TraceSource
{
  public:
    /** Append a link; the chain now reads from it. @return the link. */
    TraceSource &
    add(std::unique_ptr<TraceSource> link)
    {
        links_.push_back(std::move(link));
        return *links_.back();
    }

    std::size_t
    nextBatch(MemAccess *out, std::size_t max) override
    {
        return links_.empty() ? 0 : links_.back()->nextBatch(out, max);
    }

    void
    reset() override
    {
        // The head resets its wrapped source recursively.
        if (!links_.empty())
            links_.back()->reset();
    }

    std::optional<SamplerCounts>
    samplerCounts() const override
    {
        return links_.empty() ? std::nullopt
                              : links_.back()->samplerCounts();
    }

  private:
    std::vector<std::unique_ptr<TraceSource>> links_;
};

/** Drain an entire source into a vector (testing / small traces only). */
inline std::vector<MemAccess>
drain(TraceSource &src)
{
    std::vector<MemAccess> out;
    MemAccess a;
    while (src.next(a))
        out.push_back(a);
    return out;
}

} // namespace sbsim

#endif // STREAMSIM_TRACE_SOURCE_HH
