#include "layers.hh"

#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "cache/split_cache.hh"
#include "mem/translation.hh"
#include "sim/analytic_l2.hh"
#include "sim/memory_system.hh"
#include "stream/prefetch_engine.hh"
#include "trace/reuse_profile.hh"

namespace perfbench {

using namespace sbsim;

std::string
runDocument(const RunOutput &out)
{
    std::ostringstream doc;
    runMetrics(out).writeJson(doc);
    return doc.str();
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

void
resetPeakRss()
{
    // Without permission the mark stays the lifetime peak.
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr);
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss);
}

namespace {

/** Forwards to a source, one span per nextBatch call. */
class SpannedSource final : public TraceSource
{
  public:
    SpannedSource(TraceSource &src, SpanRecorder &spans,
                  std::uint64_t group)
        : src_(src), spans_(spans), group_(group)
    {}

    bool
    next(MemAccess &out) override
    {
        return nextBatch(&out, 1) == 1;
    }

    std::size_t
    nextBatch(MemAccess *out, std::size_t max) override
    {
        ScopedSpan span(spans_, "workloads.generate", group_);
        std::size_t n = src_.nextBatch(out, max);
        span.setItems(n);
        return n;
    }

    void reset() override { src_.reset(); }

  private:
    TraceSource &src_;
    SpanRecorder &spans_;
    std::uint64_t group_;
};

PageMapper
mapperFor(const MemorySystemConfig &config)
{
    // As MemorySystem builds its own.
    return PageMapper(config.translation, config.pageBits, 20,
                      config.translationSeed);
}

} // namespace

std::shared_ptr<const MaterializedTrace>
materializeTraced(SpanRecorder &spans, std::uint64_t group,
                  TraceSource &src)
{
    ScopedSpan span(spans, "trace.materialize", group);
    SpannedSource spanned(src, spans, group);
    std::shared_ptr<const MaterializedTrace> trace =
        MaterializedTrace::fromSource(spanned);
    span.setItems(trace->size());
    return trace;
}

void
deliverTraced(SpanRecorder &spans, std::uint64_t group,
              const std::shared_ptr<const MaterializedTrace> &trace)
{
    ScopedSpan span(spans, "trace.deliver", group);
    SharedTraceView view(trace);
    MemAccess batch[MemorySystem::kRunBatch];
    std::uint64_t refs = 0;
    Addr sink = 0;
    std::size_t got;
    while ((got = view.nextBatch(batch, MemorySystem::kRunBatch)) > 0) {
        refs += got;
        sink ^= batch[got - 1].addr;
    }
    span.setItems(refs);
    // Keep the copies observable so they cannot be elided.
    if (sink == 1)
        std::fputc('\0', stderr);
}

void
translateTraced(SpanRecorder &spans, std::uint64_t group,
                const MaterializedTrace &trace,
                const MemorySystemConfig &config)
{
    PageMapper mapper = mapperFor(config);
    ScopedSpan span(spans, "mem.translate", group);
    Addr sink = 0;
    const MemAccess *refs = trace.data();
    for (std::size_t i = 0; i < trace.size(); ++i)
        sink ^= mapper.translate(refs[i].addr);
    span.setItems(trace.size());
    if (sink == 1)
        std::fputc('\0', stderr);
}

std::uint64_t
l1Traced(SpanRecorder &spans, std::uint64_t group,
         const MaterializedTrace &trace, const MemorySystemConfig &config)
{
    PageMapper mapper = mapperFor(config);
    SplitCache l1(config.l1);
    // Translation is timed on its own ("mem.translate"); do it first.
    std::vector<MemAccess> physical(trace.data(),
                                    trace.data() + trace.size());
    for (MemAccess &a : physical)
        a.addr = mapper.translate(a.addr);
    ScopedSpan span(spans, "cache.l1", group);
    for (const MemAccess &a : physical) {
        if (a.type != AccessType::PREFETCH)
            l1.access(a);
    }
    span.setItems(physical.size());
    return l1.misses();
}

MissTrace
recordTraced(SpanRecorder &spans, std::uint64_t group,
             const std::shared_ptr<const MaterializedTrace> &trace,
             const MemorySystemConfig &config)
{
    ScopedSpan span(spans, "sim.record", group);
    SharedTraceView view(trace);
    MissTrace miss = recordMissTrace(view, config);
    span.setItems(trace->size());
    return miss;
}

StreamEngineStats
engineTraced(SpanRecorder &spans, std::uint64_t group, const char *name,
             const MissTrace &miss, const StreamEngineConfig &config)
{
    PrefetchEngine engine(config);
    ScopedSpan span(spans, name, group);
    std::uint64_t tick = 0;
    std::uint64_t demands = 0;
    miss.forEach([&](const MissRecord &rec) {
        // Any strictly increasing clock orders stream recency the way
        // the memory system's cycle counter does.
        tick += 1 + rec.dL1HitCycles + rec.dVictimHitCycles +
                rec.dSwPrefetchCycles;
        if (rec.kind == MissRecord::Kind::DEMAND) {
            engine.onPrimaryMiss(rec.access, tick);
            ++demands;
        } else if (rec.kind == MissRecord::Kind::WRITEBACK) {
            engine.onWriteback(rec.access.addr);
        }
    });
    engine.finalize();
    span.setItems(demands);
    return engine.engineStats();
}

RunOutput
replayTraced(SpanRecorder &spans, std::uint64_t group,
             const MissTrace &miss, const MemorySystemConfig &config)
{
    ScopedSpan span(spans, "sim.replay", group);
    RunOutput out = replayOnce(miss, config);
    span.setItems(miss.size());
    return out;
}

RunOutput
ladderTraced(SpanRecorder &spans, std::uint64_t group,
             const std::shared_ptr<const MaterializedTrace> &trace,
             const MemorySystemConfig &full, LadderCounts &counts)
{
    deliverTraced(spans, group, trace);

    MemorySystemConfig l1 = full;
    l1.useStreams = false;
    l1.useL2 = false;
    l1.victimBufferEntries = 0;
    l1.busCyclesPerBlock = 0;
    MemorySystemConfig victim = l1;
    victim.victimBufferEntries = full.victimBufferEntries;
    MemorySystemConfig streams = victim;
    streams.useStreams = true;
    streams.streams = full.streams;
    streams.streams.allocation = AllocationPolicy::ALWAYS;
    streams.streams.strideDetection = StrideDetection::NONE;
    MemorySystemConfig unit = streams;
    unit.streams.allocation = AllocationPolicy::UNIT_FILTER;
    MemorySystemConfig czone = unit;
    czone.streams = full.streams;

    const std::pair<const char *, const MemorySystemConfig *> rungs[] = {
        {"sim.ladder.l1", &l1},         {"sim.ladder.victim", &victim},
        {"sim.ladder.streams", &streams},
        {"sim.ladder.unit_filter", &unit},
        {"sim.ladder.czone", &czone},   {"sim.ladder.l2_bus", &full},
    };
    RunOutput out;
    for (const auto &[name, config] : rungs) {
        ScopedSpan span(spans, name, group);
        SharedTraceView view(trace);
        out = runOnce(view, *config);
        span.setItems(out.results.references);
        if (config == &l1)
            counts.l1DataMisses += out.results.l1DataMisses;
    }
    counts.l2Accesses += out.results.l2Hits + out.results.l2Misses;
    return out;
}

void
analyticTraced(SpanRecorder &spans, std::uint64_t group,
               const MissTrace &miss, const MemorySystemConfig &config,
               L2ModelKind kind, RunOutput &out)
{
    // The same steps executeRun takes after its full run.
    ScopedSpan span(spans, "sim.analytic", group);
    const bool covered = config.l2.numSets() > 1 && config.l2.assoc <= 16;
    ReuseProfiler profile(config.l2.blockSize,
                          /*track_distances=*/!covered);
    if (covered)
        profile.trackGeometry(
            static_cast<std::uint32_t>(config.l2.numSets()),
            config.l2.assoc);
    profileMissTraceInto(profile, miss);
    AnalyticL2Model model(profile);
    L2AnalyticReport &rep = out.l2Analytic;
    rep.model = toString(kind);
    rep.predictedMissRatioPct = model.predictMissRatioPercent(config.l2);
    rep.predictedHitRatePct = model.predictLocalHitRatePercent(config.l2);
    rep.profiledMisses = profile.references();
    rep.uniqueBlocks = profile.uniqueBlocks();
    if (kind == L2ModelKind::BOTH && config.useL2 &&
        profile.references() > 0) {
        rep.simulatedMissRatioPct =
            100.0 - out.results.l2LocalHitRatePercent;
        rep.absErrorPct =
            std::abs(rep.predictedMissRatioPct - rep.simulatedMissRatioPct);
    }
    span.setItems(profile.references());
}

std::shared_ptr<const SamplingPlan>
planTraced(SpanRecorder &spans, std::uint64_t group,
           const MaterializedTrace &trace)
{
    ScopedSpan span(spans, "trace.phase_profile", group);
    auto plan = std::make_shared<const SamplingPlan>(
        buildSamplingPlan(trace, PhaseProfileConfig{}));
    span.setItems(trace.size());
    return plan;
}

RunOutput
sampledTraced(SpanRecorder &spans, std::uint64_t group,
              const std::shared_ptr<const MaterializedTrace> &trace,
              const SamplingPlan &plan, const MemorySystemConfig &config)
{
    ScopedSpan span(spans, "sim.sampled", group);
    RunOutput out = runSampled(trace, plan, config);
    span.setItems(1);
    return out;
}

} // namespace perfbench
