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

MemorySystem::FetchCost
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
            return {config_.l2HitCycles, 0};
    }
    std::uint64_t delay = occupyBus();
    memory_.transfer(kind);
    return {delay + config_.memLatencyCycles, delay};
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
    // service time into the queueing component and the fetch proper,
    // so the breakdown components stay disjoint. Only demand fetches
    // stall for the bus, so busQueue is all of the queueing a run
    // reports.
    FetchCost fetch = fetchBlock(access.addr, TrafficKind::DEMAND);
    cycles_ += fetch.cycles;
    cyclesBusQueue_ += fetch.queued;
    cyclesDemandFetch_ += fetch.cycles - fetch.queued;
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
    SBSIM_ASSERT(!finished_ && !replayedFrontEnd_ && !warmed_,
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
    s.counts = readCounts().frontEnd;
    s.tailL1HitCycles = cyclesL1Hit_.value() - recBaseL1HitCycles_;
    s.tailVictimHitCycles =
        cyclesVictimHit_.value() - recBaseVictimHitCycles_;
    s.tailSwPrefetchCycles =
        cyclesSwPrefetch_.value() - recBaseSwPrefetchCycles_;
    missRecorder_->shrink();
    missRecorder_ = nullptr;
}

RunCounts
MemorySystem::readCounts() const
{
    RunCounts c;
    FrontEndCounts &fe = c.frontEnd;
    fe.instructionRefs = l1_.icache().accesses();
    fe.dataRefs = l1_.dcache().accesses();
    fe.swPrefetches = swPrefetches_.value();
    fe.swPrefetchesIssued = swPrefetchesIssued_.value();
    fe.swPrefetchesRedundant = swPrefetchesRedundant_.value();
    fe.l1Misses = l1_.misses();
    fe.l1DataMisses = l1_.dcache().misses();
    fe.victimHits = victimHits_.value();
    fe.writebacks =
        l1_.icache().writebacks() + l1_.dcache().writebacks();
    if (l2_) {
        c.l2Hits = l2_->hits();
        c.l2Misses = l2_->misses();
    }
    c.streamHitsReady = streamHitsReady_.value();
    c.streamHitsPending = streamHitsPending_.value();
    c.cycles = cycles_;
    CycleBreakdown &cb = c.cycleBreakdown;
    cb.l1Hit = cyclesL1Hit_.value();
    cb.victimHit = cyclesVictimHit_.value();
    cb.streamHit = cyclesStreamHit_.value();
    cb.streamStall = cyclesStreamStall_.value();
    cb.demandFetch = cyclesDemandFetch_.value();
    cb.busQueue = cyclesBusQueue_.value();
    cb.swPrefetchIssue = cyclesSwPrefetch_.value();
    if (engine_)
        c.engine = engine_->engineStats();
    // deriveResults() takes the victim hit rate over L1 data misses:
    // every one of them probes the buffer, and nothing else does.
    SBSIM_AUDIT(!victimBuffer_ ||
                    victimBuffer_->probes() == fe.l1DataMisses,
                "victim-buffer probes (", victimBuffer_->probes(),
                ") differ from L1 data misses (", fe.l1DataMisses, ")");
    return c;
}

void
MemorySystem::endWarmup()
{
    SBSIM_ASSERT(!finished_ && !replayedFrontEnd_ && !warmed_,
                 "endWarmup on a finished/replayed/warmed system");
    SBSIM_ASSERT(!missRecorder_, "endWarmup while recording");
    SBSIM_ASSERT(!reuseProfiler_, "endWarmup while profiling");
    warmupCounts_ = readCounts();
    warmed_ = true;
}

std::uint64_t
MemorySystem::replayMissTrace(const MissTrace &trace)
{
    SBSIM_ASSERT(!finished_ && !replayedFrontEnd_ && !warmed_,
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
    replayedFrontEnd_ = s.counts;
    return s.counts.references();
}

RunCounts
MemorySystem::finishCounts()
{
    if (!finished_) {
        if (engine_)
            engine_->finalize();
        finished_ = true;
    }
    RunCounts c = readCounts();
    forEachCount([&](auto count) { count(c) -= count(warmupCounts_); });
    // The front end never ran here; report the recorded one.
    if (replayedFrontEnd_)
        c.frontEnd = *replayedFrontEnd_;
    SBSIM_ASSERT(c.cycleBreakdown.total() == c.cycles,
                 "cycle breakdown (", c.cycleBreakdown.total(),
                 ") does not account for every simulated cycle (",
                 c.cycles, ")");
    return c;
}

std::vector<double>
MemorySystem::lengthSharesPercent() const
{
    if (!engine_)
        return {};
    return engine_->lengthDistribution().sharesPercent();
}

void
RateOperands::add(const RunCounts &counts, double weight)
{
    auto weigh = [weight](double &sum, std::uint64_t count) {
        sum += weight * static_cast<double>(count);  // analyze:allow(float-accum) weighted operand, deterministic order
    };
    const FrontEndCounts &fe = counts.frontEnd;
    weigh(instructionRefs, fe.instructionRefs);
    weigh(dataRefs, fe.dataRefs);
    weigh(accesses, fe.instructionRefs + fe.dataRefs);
    weigh(references, fe.references());
    weigh(l1Misses, fe.l1Misses);
    weigh(l1DataMisses, fe.l1DataMisses);
    weigh(victimHits, fe.victimHits);
    weigh(streamLookups, counts.engine.lookups);
    weigh(streamHits, counts.engine.hits);
    weigh(uselessPrefetches,
          counts.engine.uselessFlushed + counts.engine.uselessInvalidated);
    weigh(l2Hits, counts.l2Hits);
    weigh(l2Misses, counts.l2Misses);
    weigh(cycles, counts.cycles);
}

SystemResults
deriveResults(const RunCounts &counts, const RateOperands &op)
{
    const FrontEndCounts &fe = counts.frontEnd;
    SystemResults r;
    r.references = fe.references();
    r.instructionRefs = fe.instructionRefs;
    r.dataRefs = fe.dataRefs;
    r.l1Misses = fe.l1Misses;
    r.l1DataMisses = fe.l1DataMisses;
    r.streamHits = counts.engine.hits;
    r.victimHits = fe.victimHits;
    r.writebacks = fe.writebacks;
    r.l1MissRatePercent = percentOf(op.l1Misses, op.accesses);
    r.l1DataMissRatePercent = percentOf(op.l1DataMisses, op.dataRefs);
    r.missesPerInstructionPercent =
        percentOf(op.l1DataMisses, op.instructionRefs);
    r.streamHitRatePercent = percentOf(op.streamHits, op.streamLookups);
    r.extraBandwidthPercent =
        percentOf(op.uselessPrefetches, op.streamLookups);
    r.victimHitRatePercent = percentOf(op.victimHits, op.l1DataMisses);
    r.l2Hits = counts.l2Hits;
    r.l2Misses = counts.l2Misses;
    r.l2LocalHitRatePercent =
        percentOf(op.l2Hits, op.l2Hits + op.l2Misses);
    r.swPrefetches = fe.swPrefetches;
    r.swPrefetchesIssued = fe.swPrefetchesIssued;
    r.swPrefetchesRedundant = fe.swPrefetchesRedundant;
    r.cycles = counts.cycles;
    r.streamHitsReady = counts.streamHitsReady;
    r.streamHitsPending = counts.streamHitsPending;
    // Only demand fetches queue for the bus, and their queueing is
    // exactly the busQueue component.
    r.busQueueCycles = counts.cycleBreakdown.busQueue;
    r.avgAccessCycles =
        op.references == 0 ? 0.0 : op.cycles / op.references;
    r.cycleBreakdown = counts.cycleBreakdown;
    return r;
}

SystemResults
deriveResults(const RunCounts &counts)
{
    RateOperands exact;
    exact.add(counts, 1.0);
    return deriveResults(counts, exact);
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
