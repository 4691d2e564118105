#include "prefetch_engine.hh"

#include <algorithm>
#include <iterator>

#include "util/logging.hh"

namespace sbsim {

PrefetchEngine::PrefetchEngine(const StreamEngineConfig &config)
    : config_(config),
      mapper_(config.blockSize),
      lengthDist_({std::begin(kStreamLengthBounds),
                   std::end(kStreamLengthBounds)}),
      // Partitioned: the data bank gets the odd stream, the
      // instruction bank at least one.
      dataStreams_(config.partitioned ? (config.numStreams + 1) / 2
                                      : config.numStreams,
                   config.depth, config.blockSize, config.replacement)
{
    SBSIM_ASSERT(config.numStreams > 0, "need at least one stream");

    if (config.partitioned) {
        std::uint32_t i_streams =
            std::max(config.numStreams - dataStreams_.numStreams(), 1u);
        instStreams_ = std::make_unique<StreamSet>(
            i_streams, config.depth, config.blockSize, config.replacement);
    }

    if (config.allocation == AllocationPolicy::UNIT_FILTER) {
        unitFilter_ =
            std::make_unique<UnitStrideFilter>(config.unitFilterEntries);
        switch (config.strideDetection) {
          case StrideDetection::NONE:
            break;
          case StrideDetection::CZONE:
            czoneFilter_ = std::make_unique<CzoneFilter>(
                config.strideFilterEntries, config.czoneBits);
            break;
          case StrideDetection::MIN_DELTA:
            minDelta_ = std::make_unique<MinDeltaDetector>(
                config.strideFilterEntries, config.minDeltaMaxStride);
            break;
        }
    } else {
        SBSIM_ASSERT(config.strideDetection == StrideDetection::NONE,
                     "stride detection requires the unit-filter policy");
    }
}

void
PrefetchEngine::recordRun(const StreamFlush &flushed, std::uint64_t now)
{
    if (flushed.wasActive) {
        SBSIM_EVENT(events_, now, TraceEvent::STREAM_FLUSH, 0,
                    flushed.hitRun);
    }
    if (flushed.wasActive && flushed.hitRun > 0)
        lengthDist_.sample(flushed.hitRun, flushed.hitRun);
}

// analyze:hot-path
EngineOutcome
PrefetchEngine::onStreamMiss(StreamSet &set, const MemAccess &access,
                             std::uint64_t now)
{
    EngineOutcome outcome;
    ++stats_.streamMisses;

    // Allocation decision: a unit-stride stream at the miss (always,
    // or once the unit filter verified it), a stream at a stride the
    // non-unit detector verified, or none.
    Addr start = access.addr;
    auto stride = static_cast<std::int64_t>(config_.blockSize);
    if (config_.allocation == AllocationPolicy::UNIT_FILTER) {
        std::uint64_t block = mapper_.blockNumber(access.addr);
        if (unitFilter_->onStreamMiss(block)) {
            SBSIM_EVENT(events_, now, TraceEvent::FILTER_ACCEPT,
                        access.addr, block);
        } else {
            SBSIM_EVENT(events_, now, TraceEvent::FILTER_REJECT,
                        access.addr, block);
            std::optional<StrideAllocation> detected;
            if (czoneFilter_) {
                SBSIM_EVENT(events_, now, TraceEvent::CZONE_ASSIGN,
                            access.addr,
                            access.addr >> czoneFilter_->czoneBits());
                detected = czoneFilter_->onMiss(access.addr);
            } else if (minDelta_) {
                detected = minDelta_->onMiss(access.addr);
            }
            if (!detected)
                return outcome;
            start = detected->startAddr;
            stride = detected->stride;
        }
    }

    StreamFlush flushed;
    set.allocate(start, stride, now, flushed);
    SBSIM_EVENT(events_, now, TraceEvent::STREAM_ALLOC, start,
                static_cast<std::uint64_t>(stride));
    lastIssued_ = set.issued();
    const auto issued = static_cast<std::uint32_t>(lastIssued_.size());
    ++stats_.allocations;
    stats_.prefetchesIssued += issued;
    stats_.uselessFlushed += flushed.uselessPrefetches;
    recordRun(flushed, now);
    outcome.allocated = true;
    outcome.prefetchesIssued = issued;
    return outcome;
}

// analyze:hot-path
void
PrefetchEngine::onWriteback(BlockAddr block)
{
    stats_.uselessInvalidated += dataStreams_.invalidate(block);
    if (instStreams_)
        stats_.uselessInvalidated += instStreams_->invalidate(block);
}

void
PrefetchEngine::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;
    for (StreamSet *set : {&dataStreams_, instStreams_.get()}) {
        if (!set)
            continue;
        for (std::uint32_t i = 0; i < set->numStreams(); ++i) {
            StreamFlush f = set->drain(i);
            stats_.uselessFlushed += f.uselessPrefetches;
            recordRun(f, lastTick_);
        }
    }
}

StatGroup
PrefetchEngine::stats() const
{
    StatGroup g("streams");
    g.add("lookups", static_cast<double>(stats_.lookups),
          "primary-cache misses presented");
    g.add("hits", static_cast<double>(stats_.hits));
    g.add("stream_misses", static_cast<double>(stats_.streamMisses));
    g.add("allocations", static_cast<double>(stats_.allocations));
    g.add("prefetches_issued", static_cast<double>(stats_.prefetchesIssued));
    g.add("useless_flushed", static_cast<double>(stats_.uselessFlushed));
    g.add("useless_invalidated",
          static_cast<double>(stats_.uselessInvalidated));
    g.add("hit_rate_pct", stats_.hitRatePercent());
    g.add("extra_bandwidth_pct", stats_.extraBandwidthPercent());
    return g;
}

void
PrefetchEngine::reset()
{
    dataStreams_.reset();
    if (instStreams_)
        instStreams_->reset();
    if (unitFilter_)
        unitFilter_->reset();
    if (czoneFilter_)
        czoneFilter_->reset();
    if (minDelta_)
        minDelta_->reset();
    stats_ = StreamEngineStats{};
    lengthDist_.reset();
    lastIssued_ = {};
    lastTick_ = 0;
    finalized_ = false;
}

} // namespace sbsim
