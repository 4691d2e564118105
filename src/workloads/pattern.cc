#include "pattern.hh"

#include "util/bitutil.hh"
#include "util/logging.hh"

namespace sbsim {

ComposedWorkload::ComposedWorkload(WorkloadSpec spec)
    : spec_(std::move(spec)), rng_(spec_.seed)
{
    SBSIM_ASSERT(!spec_.ops.empty(), "workload '", spec_.name,
                 "' has no ops");
    ifetchPC_ = spec_.codeBase;
    if (isPowerOf2(spec_.loopBodyBytes))
        loopMask_ = spec_.loopBodyBytes - 1;
}

void
ComposedWorkload::reset()
{
    buffer_.clear();
    readPos_ = 0;
    step_ = 0;
    opIdx_ = 0;
    iter_ = 0;
    segment_ = 0;
    sub_ = 0;
    rng_ = Pcg32(spec_.seed);
    gatherPos_ = 0;
    clusterLeft_ = 0;
    gatherFuture_.clear();
    burstAddr_ = 0;
    ifetchPC_ = spec_.codeBase;
    hotOffset_ = 0;
    noiseCountdown_ = 0;
    exhausted_ = false;
}

std::size_t
ComposedWorkload::nextBatch(MemAccess *out, std::size_t max)
{
    std::size_t n = 0;
    while (n < max) {
        if (readPos_ == buffer_.size()) {
            buffer_.clear();
            readPos_ = 0;
            if (!generateMore())
                break;
            continue; // An op step may emit nothing (op boundaries).
        }
        // Drain whatever the interpreter buffered in one bulk copy.
        std::size_t take = std::min(max - n, buffer_.size() - readPos_);
        std::copy_n(buffer_.begin() +
                        static_cast<std::ptrdiff_t>(readPos_),
                    take, out + n);
        readPos_ += take;
        n += take;
    }
    return n;
}

void
ComposedWorkload::emitPattern(Addr addr, AccessType type, std::uint8_t size,
                              std::uint32_t pc_salt)
{
    for (std::uint32_t i = 0; i < spec_.ifetchPerAccess; ++i) {
        buffer_.push_back(makeIfetch(ifetchPC_));
        ifetchPC_ += 4;
        if (ifetchPC_ >= spec_.codeBase + spec_.loopBodyBytes)
            ifetchPC_ = spec_.codeBase;
    }
    // A stable pseudo-PC per static instruction slot. Loop bodies are
    // almost always power-of-two sized; mask instead of divide then.
    Addr salt_bytes = static_cast<Addr>(pc_salt) * 4;
    Addr pc = spec_.codeBase + (loopMask_ ? (salt_bytes & loopMask_)
                                          : salt_bytes % spec_.loopBodyBytes);
    buffer_.push_back({addr, pc, type, size});
    for (std::uint32_t i = 0; i < spec_.hotPerAccess; ++i) {
        Addr hot = spec_.hotBase + hotOffset_;
        hotOffset_ += 8;
        while (hotOffset_ >= spec_.hotBytes)
            hotOffset_ -= spec_.hotBytes;
        buffer_.push_back(makeLoad(hot, 8, spec_.codeBase + 4088));
    }
    if (spec_.noiseEvery != 0) {
        ++noiseCountdown_;
        if (noiseCountdown_ >= spec_.noiseEvery) {
            noiseCountdown_ = 0;
            std::uint64_t blocks = spec_.noiseBytes / 32;
            if (blocks > 0) {
                for (std::uint32_t i = 0; i < spec_.noiseBurstLen; ++i) {
                    Addr a =
                        spec_.noiseBase +
                        rng_.below(static_cast<std::uint32_t>(blocks)) *
                            32;
                    buffer_.push_back(
                        makeLoad(a, 8, spec_.codeBase + 4084));
                }
            }
        }
    }
}

void
ComposedWorkload::emitSwPrefetch(Addr addr)
{
    // One prefetch instruction: an issue slot plus its fetch.
    buffer_.push_back(makeIfetch(ifetchPC_));
    ifetchPC_ += 4;
    if (ifetchPC_ >= spec_.codeBase + spec_.loopBodyBytes)
        ifetchPC_ = spec_.codeBase;
    buffer_.push_back(makePrefetch(addr, spec_.codeBase + 4080));
}

void
ComposedWorkload::advanceOp()
{
    iter_ = 0;
    segment_ = 0;
    sub_ = 0;
    clusterLeft_ = 0;
    gatherFuture_.clear();
    ++opIdx_;
    if (opIdx_ == spec_.ops.size()) {
        opIdx_ = 0;
        ++step_;
    }
}

bool
ComposedWorkload::stepSweep(const SweepOp &op)
{
    if (op.count == 0 || op.streams.empty()) {
        advanceOp();
        return true;
    }
    const StreamSpec &s = op.streams[sub_];
    Addr base = s.base +
                static_cast<Addr>(op.segmentStride) * segment_;
    Addr addr = base + static_cast<Addr>(s.stride) * iter_;
    emitPattern(addr, s.type, s.size,
                static_cast<std::uint32_t>(opIdx_ * 16 + sub_));
    if (spec_.swPrefetchDistance > 0 &&
        iter_ + spec_.swPrefetchDistance < op.count) {
        emitSwPrefetch(addr + static_cast<Addr>(s.stride) *
                                  spec_.swPrefetchDistance);
    }

    ++sub_;
    if (sub_ == op.streams.size()) {
        sub_ = 0;
        ++iter_;
        if (iter_ == op.count) {
            iter_ = 0;
            ++segment_;
            if (segment_ == op.segments) {
                advanceOp();
            }
        }
    }
    return true;
}

bool
ComposedWorkload::stepGather(const GatherOp &op)
{
    if (op.count == 0) {
        advanceOp();
        return true;
    }
    if (sub_ == 0) {
        // Phase 0: read the index element (4-byte int, unit stride).
        emitPattern(op.idxBase + iter_ * 4, AccessType::LOAD, 4,
                    static_cast<std::uint32_t>(opIdx_ * 16));
        sub_ = 1;
        return true;
    }

    // Phase 1: the indirect data access.
    if (clusterLeft_ == 0) {
        std::uint64_t elems = op.dataRangeBytes / op.elemSize;
        SBSIM_ASSERT(elems > 0, "gather target region too small");
        auto draw = [&] {
            std::uint64_t pick =
                rng_.below(static_cast<std::uint32_t>(elems));
            return op.dataBase + pick * op.elemSize;
        };
        if (spec_.swPrefetchDistance > 0) {
            // Software pipelining: keep d future jump targets drawn
            // ahead, prefetch the newest, gather from the oldest.
            while (gatherFuture_.size() <= spec_.swPrefetchDistance) {
                gatherFuture_.push_back(draw());
                emitSwPrefetch(gatherFuture_.back());
            }
            gatherPos_ = gatherFuture_.front();
            gatherFuture_.pop_front();
        } else {
            gatherPos_ = draw();
        }
        clusterLeft_ = op.clusterLen;
    }
    Addr addr = gatherPos_;
    gatherPos_ += op.elemSize;
    if (gatherPos_ >= op.dataBase + op.dataRangeBytes)
        gatherPos_ = op.dataBase;
    --clusterLeft_;

    emitPattern(addr, AccessType::LOAD,
                static_cast<std::uint8_t>(op.elemSize > 8 ? 8
                                                          : op.elemSize),
                static_cast<std::uint32_t>(opIdx_ * 16 + 1));
    if (op.storeBack)
        buffer_.push_back(makeStore(addr));

    sub_ = 0;
    ++iter_;
    if (iter_ == op.count)
        advanceOp();
    return true;
}

bool
ComposedWorkload::stepBurst(const BurstOp &op)
{
    if (op.bursts == 0) {
        advanceOp();
        return true;
    }
    std::uint32_t accesses_per_burst = op.burstBlocks * op.accessesPerBlock;
    if (sub_ == 0) {
        std::uint64_t blocks_in_region = op.regionBytes / op.blockBytes;
        SBSIM_ASSERT(blocks_in_region > op.burstBlocks,
                     "burst region too small");
        std::uint64_t start = rng_.below(static_cast<std::uint32_t>(
            blocks_in_region - op.burstBlocks));
        burstAddr_ = op.base + start * op.blockBytes;
    }
    std::uint64_t block = sub_ / op.accessesPerBlock;
    std::uint64_t word = sub_ % op.accessesPerBlock;
    Addr addr = burstAddr_ + block * op.blockBytes +
                word * (op.blockBytes / op.accessesPerBlock);
    emitPattern(addr, op.stores ? AccessType::STORE : AccessType::LOAD, 8,
                static_cast<std::uint32_t>(
                    opIdx_ * 16 +
                    sub_ % (op.burstBlocks * op.accessesPerBlock)));

    ++sub_;
    if (sub_ == accesses_per_burst) {
        sub_ = 0;
        ++iter_;
        if (iter_ == op.bursts)
            advanceOp();
    }
    return true;
}

bool
ComposedWorkload::generateMore()
{
    if (exhausted_ || step_ >= spec_.timeSteps) {
        exhausted_ = true;
        return false;
    }
    const PatternOp &op = spec_.ops[opIdx_];
    return std::visit(
        [this](const auto &o) {
            using T = std::decay_t<decltype(o)>;
            if constexpr (std::is_same_v<T, SweepOp>)
                return stepSweep(o);
            else if constexpr (std::is_same_v<T, GatherOp>)
                return stepGather(o);
            else
                return stepBurst(o);
        },
        op);
}

} // namespace sbsim
