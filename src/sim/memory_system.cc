#include "memory_system.hh"

#include <sstream>

#include "trace/reuse_profile.hh"
#include "util/audit.hh"
#include "util/logging.hh"

namespace sbsim {

MemorySystem::MemorySystem(const MemorySystemConfig &config)
    : config_(config),
      pageMapper_(config.translation, config.pageBits, 20,
                  config.translationSeed),
      l1_(config.l1),
      memory_(config.memLatencyCycles)
{
    if (config.useStreams) {
        StreamEngineConfig sc = config.streams;
        if (sc.blockSize != config.l1.dcache.blockSize) {
            // Streams prefetch primary-cache blocks; keep them in sync.
            sc.blockSize = config.l1.dcache.blockSize;
        }
        engine_ = std::make_unique<PrefetchEngine>(sc);
    }
    if (config.useL2)
        l2_ = std::make_unique<Cache>(config.l2, "l2");
    if (config.victimBufferEntries > 0) {
        victimBuffer_ = std::make_unique<VictimBuffer>(
            config.victimBufferEntries, config.l1.dcache.blockSize);
    }
}

void
MemorySystem::attachEventTrace(EventTrace *trace)
{
    events_ = trace;
    if (engine_)
        engine_->setEventTrace(trace);
}

std::uint64_t
MemorySystem::occupyBus()
{
    if (config_.busCyclesPerBlock == 0)
        return 0;
    std::uint64_t delay =
        busFreeAt_ > cycles_ ? busFreeAt_ - cycles_ : 0;
    busFreeAt_ = cycles_ + delay + config_.busCyclesPerBlock;
    return delay;
}

void
MemorySystem::writebackToMemory(BlockAddr block)
{
    // Write-backs bypass the streams on their way down and invalidate
    // any stale copies (Section 3).
    if (missRecorder_)
        recordMissEvent(MissRecord::Kind::WRITEBACK, makeLoad(block));
    SBSIM_EVENT(events_, cycles_, TraceEvent::L1_WRITEBACK, block, 0);
    if (engine_)
        engine_->onWriteback(block);

    if (l2_) {
        // The secondary cache absorbs the write-back; memory sees
        // traffic only when the L2 spills a dirty victim.
        CacheResult r = l2_->fill(block, /*dirty=*/true);
        if (r.writeback) {
            SBSIM_EVENT(events_, cycles_, TraceEvent::L2_WRITEBACK,
                        r.writebackAddr, 0);
            occupyBus();
            memory_.transfer(TrafficKind::WRITEBACK);
        }
        return;
    }
    occupyBus();
    memory_.transfer(TrafficKind::WRITEBACK);
}

void
MemorySystem::handleEviction(const CacheResult &result)
{
    if (victimBuffer_ && result.victimEvicted) {
        // The victim (clean or dirty) parks in the buffer; only an
        // entry displaced from the buffer actually leaves the chip.
        VictimDisplaced displaced = victimBuffer_->insert(
            l1_.mapper().blockBase(result.victimAddr),
            result.writeback);
        if (displaced.valid && displaced.dirty)
            writebackToMemory(displaced.addr);
        return;
    }
    if (result.writeback)
        writebackToMemory(l1_.mapper().blockBase(result.writebackAddr));
}

std::uint64_t
MemorySystem::fetchBlock(Addr addr, TrafficKind kind)
{
    if (l2_) {
        CacheResult r = l2_->access(makeLoad(addr));
        if (r.writeback) {
            SBSIM_EVENT(events_, cycles_, TraceEvent::L2_WRITEBACK,
                        r.writebackAddr, 0);
            occupyBus();
            memory_.transfer(TrafficKind::WRITEBACK);
        }
        if (r.hit)
            return config_.l2HitCycles;
    }
    std::uint64_t delay = occupyBus();
    memory_.transfer(kind);
    if (kind == TrafficKind::DEMAND)
        busQueueCycles_ += delay;
    return delay + config_.memLatencyCycles;
}

// analyze:hot-path
void
MemorySystem::processAccess(const MemAccess &virt_access)
{
    SBSIM_ASSERT(!finished_, "processAccess after finish");

    // Caches, victim buffer and streams are all physically addressed.
    MemAccess access = virt_access;
    access.addr = pageMapper_.translate(virt_access.addr);

    if (access.type == AccessType::PREFETCH) {
        // A non-binding software prefetch: costs its issue slot, never
        // stalls, bypasses the streams (it IS the prefetcher).
        ++swPrefetches_;
        cycles_ += config_.l1HitCycles;
        cyclesSwPrefetch_ += config_.l1HitCycles;
        if (l1_.dcache().probe(access.addr)) {
            ++swPrefetchesRedundant_;
            return;
        }
        ++swPrefetchesIssued_;
        CacheResult fill = l1_.fill(access.addr, AccessType::LOAD);
        handleEviction(fill);
        secondarySwPrefetchFetch(access);
        return;
    }

    CacheResult l1_result = l1_.access(access);
    handleEviction(l1_result);

    if (l1_result.hit) {
        cycles_ += config_.l1HitCycles;
        cyclesL1Hit_ += config_.l1HitCycles;
        return;
    }

    // On-chip miss: the victim buffer (when present) catches recently
    // evicted blocks before anything leaves the chip.
    if (victimBuffer_ && !access.isInstruction()) {
        bool dirty = false;
        if (victimBuffer_->probeAndExtract(access.addr, dirty)) {
            // The block moves back into the L1 (which already
            // allocated it); restore its dirty state.
            if (dirty)
                l1_.fill(access.addr, access.type, true);
            ++victimHits_;
            cycles_ += config_.victimHitCycles;
            cyclesVictimHit_ += config_.victimHitCycles;
            SBSIM_EVENT(events_, cycles_, TraceEvent::VICTIM_HIT,
                        access.addr, 0);
            return;
        }
    }

    secondaryDemand(access);
}

void
MemorySystem::secondarySwPrefetchFetch(const MemAccess &access)
{
    if (missRecorder_)
        recordMissEvent(MissRecord::Kind::SW_PREFETCH, access);
    fetchBlock(access.addr, TrafficKind::PREFETCH);
}

// analyze:hot-path
void
MemorySystem::secondaryDemand(const MemAccess &access)
{
    if (missRecorder_)
        recordMissEvent(MissRecord::Kind::DEMAND, access);
    if (reuseProfiler_)
        reuseProfiler_->onAccess(access.addr);

    // Consult the streams next.
    if (engine_) {
        EngineOutcome outcome = engine_->onPrimaryMiss(access, cycles_);
        for (BlockAddr block : engine_->lastIssuedBlocks()) {
            // Prefetches come from the secondary cache when it holds
            // the block (Jouppi's arrangement), otherwise from memory.
            SBSIM_EVENT(events_, cycles_, TraceEvent::PREFETCH_ISSUE,
                        block, 0);
            fetchBlock(block, TrafficKind::PREFETCH);
        }

        if (outcome.streamHit) {
            // The block moves from the stream buffer into the L1 (the
            // L1 already allocated it during access()). If its
            // prefetch has not yet completed, stall for the residue.
            std::uint64_t elapsed = cycles_ - outcome.issueTick;
            std::uint64_t stall = 0;
            if (elapsed < config_.memLatencyCycles) {
                stall = config_.memLatencyCycles - elapsed;
                ++streamHitsPending_;
            } else {
                ++streamHitsReady_;
            }
            SBSIM_EVENT(events_, cycles_, TraceEvent::STREAM_HIT,
                        access.addr, stall);
            SBSIM_EVENT(events_, cycles_, TraceEvent::PREFETCH_COMPLETE,
                        l1_.mapper().blockBase(access.addr),
                        outcome.issueTick + config_.memLatencyCycles);
            cycles_ += config_.streamHitCycles + stall;
            cyclesStreamHit_ += config_.streamHitCycles;
            cyclesStreamStall_ += stall;
            return;
        }
    }

    // Fast path: fetch the block from the L2 / main memory. Split the
    // service time into the queueing component (fetchBlock folds it
    // into busQueueCycles_ for demand traffic) and the fetch proper,
    // so the breakdown components stay disjoint.
    std::uint64_t queued_before = busQueueCycles_.value();
    std::uint64_t service = fetchBlock(access.addr, TrafficKind::DEMAND);
    std::uint64_t queued = busQueueCycles_.value() - queued_before;
    cycles_ += service;
    cyclesBusQueue_ += queued;
    cyclesDemandFetch_ += service - queued;
}

// analyze:hot-path
std::uint64_t
MemorySystem::run(TraceSource &src)
{
    // One virtual nextSpan() dispatch per kRunBatch references instead
    // of one next() per reference. A materialised trace hands out its
    // own storage; any other source fills the stack buffer. Equivalence
    // with the serial path is pinned by the differential tests (the
    // span sequence is required to be exactly the next() sequence).
    MemAccess scratch[kRunBatch];
    const MemAccess *span = nullptr;
    std::uint64_t n = 0;
    std::size_t got;
    while ((got = src.nextSpan(&span, scratch, kRunBatch)) > 0) {
        SBSIM_AUDIT(got <= kRunBatch, "source over-delivered: ", got);
#ifdef STREAMSIM_CHECKED
        std::uint64_t cycles_before = cycles_;
#endif
        for (std::size_t i = 0; i < got; ++i)
            processAccess(span[i]);
        // Simulated time is monotonic: every reference costs at least
        // its hit latency, so a batch can never move the clock
        // backwards (a regression here would corrupt every prefetch
        // issue timestamp downstream of the TimeSampler).
        SBSIM_AUDIT(cycles_ >= cycles_before,
                    "cycle clock ran backwards across a batch");
        n += got;
    }
    return n;
}

void
MemorySystem::recordMissEvent(MissRecord::Kind kind,
                              const MemAccess &access)
{
    missRecorder_->append(
        kind, access, cyclesL1Hit_.value() - recBaseL1HitCycles_,
        cyclesVictimHit_.value() - recBaseVictimHitCycles_,
        cyclesSwPrefetch_.value() - recBaseSwPrefetchCycles_);
    recBaseL1HitCycles_ = cyclesL1Hit_.value();
    recBaseVictimHitCycles_ = cyclesVictimHit_.value();
    recBaseSwPrefetchCycles_ = cyclesSwPrefetch_.value();
}

void
MemorySystem::applyFrontEndDeltas(std::uint64_t d_l1_hit,
                                  std::uint64_t d_victim_hit,
                                  std::uint64_t d_sw_prefetch)
{
    cycles_ += d_l1_hit + d_victim_hit + d_sw_prefetch;
    cyclesL1Hit_ += d_l1_hit;
    cyclesVictimHit_ += d_victim_hit;
    cyclesSwPrefetch_ += d_sw_prefetch;
}

void
MemorySystem::attachMissRecorder(MissTrace *trace)
{
    SBSIM_ASSERT(!finished_ && !replayed_ && !warmed_,
                 "attachMissRecorder on a finished/replayed/warmed "
                 "system");
    missRecorder_ = trace;
    recBaseL1HitCycles_ = cyclesL1Hit_.value();
    recBaseVictimHitCycles_ = cyclesVictimHit_.value();
    recBaseSwPrefetchCycles_ = cyclesSwPrefetch_.value();
}

void
MemorySystem::attachReuseProfiler(ReuseProfiler *profiler)
{
    SBSIM_ASSERT(!finished_ && !warmed_,
                 "attachReuseProfiler on a finished/warmed system");
    reuseProfiler_ = profiler;
}

void
MemorySystem::finalizeMissRecorder()
{
    SBSIM_ASSERT(missRecorder_, "finalizeMissRecorder without recorder");
    MissTraceSummary &s = missRecorder_->summary();
    s.instructionRefs = l1_.icache().accesses();
    s.dataRefs = l1_.dcache().accesses();
    s.swPrefetches = swPrefetches_.value();
    s.swPrefetchesIssued = swPrefetchesIssued_.value();
    s.swPrefetchesRedundant = swPrefetchesRedundant_.value();
    s.references = s.instructionRefs + s.dataRefs + s.swPrefetches;
    s.l1Misses = l1_.misses();
    s.l1DataMisses = l1_.dcache().misses();
    s.victimHits = victimHits_.value();
    s.writebacks =
        l1_.icache().writebacks() + l1_.dcache().writebacks();
    // Derived percentages are captured as computed doubles so a
    // replayed finish() reports them bitwise-identically.
    s.l1MissRatePercent = l1_.missRatePercent();
    s.l1DataMissRatePercent = l1_.dcache().missRatePercent();
    s.missesPerInstructionPercent =
        percent(s.l1DataMisses, s.instructionRefs);
    s.victimHitRatePercent =
        victimBuffer_ ? victimBuffer_->hitRatePercent() : 0.0;
    s.tailL1HitCycles = cyclesL1Hit_.value() - recBaseL1HitCycles_;
    s.tailVictimHitCycles =
        cyclesVictimHit_.value() - recBaseVictimHitCycles_;
    s.tailSwPrefetchCycles =
        cyclesSwPrefetch_.value() - recBaseSwPrefetchCycles_;
    missRecorder_->shrink();
    missRecorder_ = nullptr;
}

void
MemorySystem::endWarmup()
{
    SBSIM_ASSERT(!finished_ && !replayed_ && !warmed_,
                 "endWarmup on a finished/replayed/warmed system");
    SBSIM_ASSERT(!missRecorder_, "endWarmup while recording");
    SBSIM_ASSERT(!reuseProfiler_, "endWarmup while profiling");
    WarmupBase &b = warmupBase_;
    b.iAccesses = l1_.icache().accesses();
    b.dAccesses = l1_.dcache().accesses();
    b.iMisses = l1_.icache().misses();
    b.dMisses = l1_.dcache().misses();
    b.writebacks =
        l1_.icache().writebacks() + l1_.dcache().writebacks();
    b.swPrefetches = swPrefetches_.value();
    b.swPrefetchesIssued = swPrefetchesIssued_.value();
    b.swPrefetchesRedundant = swPrefetchesRedundant_.value();
    b.victimHits = victimHits_.value();
    if (l2_) {
        b.l2Hits = l2_->hits();
        b.l2Misses = l2_->misses();
    }
    b.cycles = cycles_;
    b.streamHitsReady = streamHitsReady_.value();
    b.streamHitsPending = streamHitsPending_.value();
    b.busQueueCycles = busQueueCycles_.value();
    b.breakdown.l1Hit = cyclesL1Hit_.value();
    b.breakdown.victimHit = cyclesVictimHit_.value();
    b.breakdown.streamHit = cyclesStreamHit_.value();
    b.breakdown.streamStall = cyclesStreamStall_.value();
    b.breakdown.demandFetch = cyclesDemandFetch_.value();
    b.breakdown.busQueue = cyclesBusQueue_.value();
    b.breakdown.swPrefetchIssue = cyclesSwPrefetch_.value();
    if (engine_)
        b.engine = engine_->engineStats();
    warmed_ = true;
}

StreamEngineStats
MemorySystem::engineStatsSinceWarmup() const
{
    if (!engine_)
        return {};
    StreamEngineStats es = engine_->engineStats();
    if (!warmed_)
        return es;
    const StreamEngineStats &b = warmupBase_.engine;
    es.lookups -= b.lookups;
    es.hits -= b.hits;
    es.streamMisses -= b.streamMisses;
    es.allocations -= b.allocations;
    es.prefetchesIssued -= b.prefetchesIssued;
    es.uselessFlushed -= b.uselessFlushed;
    es.uselessInvalidated -= b.uselessInvalidated;
    return es;
}

std::uint64_t
MemorySystem::replayMissTrace(const MissTrace &trace)
{
    SBSIM_ASSERT(!finished_ && !replayed_ && !warmed_,
                 "replayMissTrace on a finished/replayed/warmed system");
    SBSIM_ASSERT(!missRecorder_,
                 "replayMissTrace while recording");
    trace.forEach([this](const MissRecord &rec) {
        // Restore the cycle clock to exactly where the front end left
        // it before this event, then let the secondary level advance
        // it as a full run would.
        applyFrontEndDeltas(rec.dL1HitCycles, rec.dVictimHitCycles,
                            rec.dSwPrefetchCycles);
        switch (rec.kind) {
          case MissRecord::Kind::WRITEBACK:
            writebackToMemory(rec.access.addr);
            break;
          case MissRecord::Kind::SW_PREFETCH:
            secondarySwPrefetchFetch(rec.access);
            break;
          case MissRecord::Kind::DEMAND:
            secondaryDemand(rec.access);
            break;
        }
    });
    const MissTraceSummary &s = trace.summary();
    applyFrontEndDeltas(s.tailL1HitCycles, s.tailVictimHitCycles,
                        s.tailSwPrefetchCycles);
    replaySummary_ = s;
    replayed_ = true;
    return s.references;
}

double
MemorySystem::victimHitRatePercent() const
{
    if (replayed_)
        return replaySummary_.victimHitRatePercent;
    return victimBuffer_ ? victimBuffer_->hitRatePercent() : 0.0;
}

SystemResults
MemorySystem::finish()
{
    if (!finished_) {
        if (engine_)
            engine_->finalize();
        finished_ = true;
    }

    SystemResults r;
    if (replayed_) {
        // The front end never ran here; report the summary captured
        // at record time (bitwise-identical to the naive run's).
        r.instructionRefs = replaySummary_.instructionRefs;
        r.dataRefs = replaySummary_.dataRefs;
        r.swPrefetches = replaySummary_.swPrefetches;
        r.swPrefetchesIssued = replaySummary_.swPrefetchesIssued;
        r.swPrefetchesRedundant = replaySummary_.swPrefetchesRedundant;
        r.l1Misses = replaySummary_.l1Misses;
        r.l1DataMisses = replaySummary_.l1DataMisses;
        r.victimHits = replaySummary_.victimHits;
        r.writebacks = replaySummary_.writebacks;
        r.l1MissRatePercent = replaySummary_.l1MissRatePercent;
        r.l1DataMissRatePercent =
            replaySummary_.l1DataMissRatePercent;
        r.missesPerInstructionPercent =
            replaySummary_.missesPerInstructionPercent;
    } else {
        // Subtract the endWarmup() snapshot; warmupBase_ is
        // zero-filled when endWarmup() was never called, so the exact
        // path computes bitwise-identical values to before (the
        // derived percentages call percent() with the same operands
        // SplitCache/Cache would).
        const WarmupBase &b = warmupBase_;
        r.instructionRefs = l1_.icache().accesses() - b.iAccesses;
        r.dataRefs = l1_.dcache().accesses() - b.dAccesses;
        r.swPrefetches = swPrefetches_.value() - b.swPrefetches;
        r.swPrefetchesIssued =
            swPrefetchesIssued_.value() - b.swPrefetchesIssued;
        r.swPrefetchesRedundant =
            swPrefetchesRedundant_.value() - b.swPrefetchesRedundant;
        r.l1Misses = l1_.misses() - (b.iMisses + b.dMisses);
        r.l1DataMisses = l1_.dcache().misses() - b.dMisses;
        r.victimHits = victimHits_.value() - b.victimHits;
        r.writebacks = l1_.icache().writebacks() +
                       l1_.dcache().writebacks() - b.writebacks;
        r.l1MissRatePercent =
            percent(r.l1Misses, r.instructionRefs + r.dataRefs);
        r.l1DataMissRatePercent = percent(r.l1DataMisses, r.dataRefs);
        r.missesPerInstructionPercent =
            percent(r.l1DataMisses, r.instructionRefs);
    }
    r.references = r.instructionRefs + r.dataRefs + r.swPrefetches;

    if (engine_) {
        StreamEngineStats es = engineStatsSinceWarmup();
        r.streamHits = es.hits;
        r.streamHitRatePercent = es.hitRatePercent();
        r.extraBandwidthPercent = es.extraBandwidthPercent();
    }
    if (l2_) {
        r.l2Hits = l2_->hits() - warmupBase_.l2Hits;
        r.l2Misses = l2_->misses() - warmupBase_.l2Misses;
        r.l2LocalHitRatePercent =
            percent(r.l2Hits, r.l2Hits + r.l2Misses);
    }

    r.cycles = cycles_ - warmupBase_.cycles;
    r.streamHitsReady =
        streamHitsReady_.value() - warmupBase_.streamHitsReady;
    r.streamHitsPending =
        streamHitsPending_.value() - warmupBase_.streamHitsPending;
    r.busQueueCycles =
        busQueueCycles_.value() - warmupBase_.busQueueCycles;
    r.cycleBreakdown.l1Hit =
        cyclesL1Hit_.value() - warmupBase_.breakdown.l1Hit;
    r.cycleBreakdown.victimHit =
        cyclesVictimHit_.value() - warmupBase_.breakdown.victimHit;
    r.cycleBreakdown.streamHit =
        cyclesStreamHit_.value() - warmupBase_.breakdown.streamHit;
    r.cycleBreakdown.streamStall =
        cyclesStreamStall_.value() - warmupBase_.breakdown.streamStall;
    r.cycleBreakdown.demandFetch =
        cyclesDemandFetch_.value() - warmupBase_.breakdown.demandFetch;
    r.cycleBreakdown.busQueue =
        cyclesBusQueue_.value() - warmupBase_.breakdown.busQueue;
    r.cycleBreakdown.swPrefetchIssue =
        cyclesSwPrefetch_.value() -
        warmupBase_.breakdown.swPrefetchIssue;
    SBSIM_ASSERT(r.cycleBreakdown.total() == r.cycles,
                 "cycle breakdown (", r.cycleBreakdown.total(),
                 ") does not account for every simulated cycle (",
                 r.cycles, ")");
    r.avgAccessCycles =
        r.references == 0
            ? 0.0
            : static_cast<double>(r.cycles) /
                  static_cast<double>(r.references);
    return r;
}

std::string
frontEndKey(const MemorySystemConfig &config)
{
    std::ostringstream os;
    auto cache = [&os](const CacheConfig &c) {
        os << c.sizeBytes << '/' << c.assoc << '/' << c.blockSize << '/'
           << static_cast<int>(c.replacement) << '/' << c.writeAllocate
           << c.writeBack << '/' << c.seed;
    };
    os << "l1i:";
    cache(config.l1.icache);
    os << ";l1d:";
    cache(config.l1.dcache);
    os << ";hit:" << config.l1HitCycles
       << ";vb:" << config.victimBufferEntries << '/'
       << config.victimHitCycles
       << ";xl:" << static_cast<int>(config.translation) << '/'
       << config.pageBits << '/' << config.translationSeed;
    return os.str();
}

MissTrace
recordMissTrace(TraceSource &src, const MemorySystemConfig &config)
{
    // Only the front end matters for the recorded stream; stripping
    // streams, L2 and the bus makes the recording run roughly an
    // L1-only simulation. (The stripped parameters are exactly the
    // ones frontEndKey excludes.)
    MemorySystemConfig fe = config;
    fe.useStreams = false;
    fe.useL2 = false;
    fe.busCyclesPerBlock = 0;
    MemorySystem system(fe);
    MissTrace trace;
    system.attachMissRecorder(&trace);
    system.run(src);
    system.finalizeMissRecorder();
    trace.summary().samplerCounts = src.samplerCounts();
    return trace;
}

} // namespace sbsim
