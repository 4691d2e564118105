#include "trace_cache.hh"

#include "util/audit.hh"

namespace sbsim {

namespace {

/** Each kind's row of TraceCacheStats, indexed by ArtifactKind. */
struct KindFields
{
    std::uint64_t TraceCacheStats::*hits;
    std::uint64_t TraceCacheStats::*built;
    std::uint64_t TraceCacheStats::*entries;
};

constexpr KindFields kKindFields[] = {
    {&TraceCacheStats::refTraceHits, &TraceCacheStats::refTracesMaterialized,
     &TraceCacheStats::refTraceEntries},
    {&TraceCacheStats::missTraceHits, &TraceCacheStats::missTracesRecorded,
     &TraceCacheStats::missTraceEntries},
    {&TraceCacheStats::phasePlanHits, &TraceCacheStats::phasePlansBuilt,
     &TraceCacheStats::phasePlanEntries},
};

const KindFields &
fieldsOf(ArtifactKind kind)
{
    return kKindFields[static_cast<std::size_t>(kind)];
}

} // namespace

TraceCache &
TraceCache::instance()
{
    // Process-wide registry guarded by mutex_; it memoises values that
    // are pure functions of their key, so sharing it across sweeps
    // cannot make any result depend on run history.
    static TraceCache cache; // analyze:allow(static-state) mutex-guarded memo of key-deterministic traces; affects speed only, results are pinned cached==naive by differential tests
    return cache;
}

std::shared_ptr<const void>
TraceCache::hitLocked(ArtifactKind kind, const std::string &key)
{
    auto it = entries_.find({kind, key});
    if (it == entries_.end())
        return nullptr;
    std::shared_ptr<const void> artifact = it->second.artifact.lock();
    if (artifact)
        ++(counters_.*fieldsOf(kind).hits);
    return artifact;
}

void
TraceCache::purgeExpiredLocked()
{
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (it->second.artifact.expired()) {
            it = entries_.erase(it);
            ++counters_.expiredPurged;
        } else {
            ++it;
        }
    }
    // The bound the purge exists to maintain: a sweep leaves only
    // live entries behind, so the map can never exceed the live
    // working set plus whatever expired since the last sweep — and a
    // sweep runs on every insert and stats() snapshot.
    SBSIM_AUDIT_BLOCK(
        for (const auto &entry : entries_)
            SBSIM_AUDIT(!entry.second.artifact.expired(),
                        "expired entry survived the purge: ",
                        entry.first.second););
}

std::shared_ptr<const void>
TraceCache::getOrBuildEntry(
    ArtifactKind kind, const std::string &key,
    const std::function<std::shared_ptr<const void>()> &build, SizeFn bytes)
{
    {
        MutexLock lock(mutex_);
        if (auto artifact = hitLocked(kind, key))
            return artifact;
    }
    // Build outside the lock: production is the expensive part and
    // holding the mutex across it would serialise the sweep pool.
    std::shared_ptr<const void> built = build();

    MutexLock lock(mutex_);
    if (auto winner = hitLocked(kind, key)) {
        // Lost the race; adopt the first writer's copy (identical
        // content — production is deterministic per key).
        return winner;
    }
    // Inserts are the only operation that grows the map, so they are
    // the natural amortisation point for the expired-entry sweep.
    purgeExpiredLocked();
    entries_[{kind, key}] = {built, bytes};
    ++(counters_.*fieldsOf(kind).built);
    return built;
}

std::shared_ptr<const void>
TraceCache::peekEntry(ArtifactKind kind, const std::string &key) const
{
    MutexLock lock(mutex_);
    auto it = entries_.find({kind, key});
    return it == entries_.end() ? nullptr : it->second.artifact.lock();
}

void
TraceCache::noteReplay(bool diverged)
{
    MutexLock lock(mutex_);
    ++counters_.replays;
    counters_.stackDiverged += diverged;
}

void
TraceCache::noteStackJob()
{
    MutexLock lock(mutex_);
    ++counters_.stackJobs;
}

TraceCacheStats
TraceCache::stats()
{
    MutexLock lock(mutex_);
    purgeExpiredLocked();
    TraceCacheStats s = counters_;
    for (const auto &[key, entry] : entries_) {
        ++(s.*fieldsOf(key.first).entries);
        if (std::shared_ptr<const void> artifact = entry.artifact.lock())
            s.residentBytes += entry.bytes(artifact.get());
    }
    return s;
}

void
TraceCache::clear()
{
    MutexLock lock(mutex_);
    entries_.clear();
    counters_ = TraceCacheStats{};
}

void
printTraceCacheReport(const TraceCacheStats &stats, std::FILE *out)
{
    std::fprintf(
        out,
        "sweep: trace cache: ref %llu hit / %llu built, miss "
        "%llu hit / %llu recorded, plan %llu hit / %llu built, "
        "%llu replays, %llu stack-answered, %llu stack-diverged, "
        "%llu bytes resident, %llu expired purged "
        "(%llu+%llu+%llu keys live)\n",
        static_cast<unsigned long long>(stats.refTraceHits),
        static_cast<unsigned long long>(stats.refTracesMaterialized),
        static_cast<unsigned long long>(stats.missTraceHits),
        static_cast<unsigned long long>(stats.missTracesRecorded),
        static_cast<unsigned long long>(stats.phasePlanHits),
        static_cast<unsigned long long>(stats.phasePlansBuilt),
        static_cast<unsigned long long>(stats.replays),
        static_cast<unsigned long long>(stats.stackJobs),
        static_cast<unsigned long long>(stats.stackDiverged),
        static_cast<unsigned long long>(stats.residentBytes),
        static_cast<unsigned long long>(stats.expiredPurged),
        static_cast<unsigned long long>(stats.refTraceEntries),
        static_cast<unsigned long long>(stats.missTraceEntries),
        static_cast<unsigned long long>(stats.phasePlanEntries));
}

void
writeTraceCacheJson(const TraceCacheStats &stats, std::ostream &os)
{
    os << "{\"ref_trace_hits\":" << stats.refTraceHits
       << ",\"ref_traces_materialized\":" << stats.refTracesMaterialized
       << ",\"miss_trace_hits\":" << stats.missTraceHits
       << ",\"miss_traces_recorded\":" << stats.missTracesRecorded
       << ",\"phase_plan_hits\":" << stats.phasePlanHits
       << ",\"phase_plans_built\":" << stats.phasePlansBuilt
       << ",\"replays\":" << stats.replays
       << ",\"stack_jobs\":" << stats.stackJobs
       << ",\"stack_diverged\":" << stats.stackDiverged
       << ",\"resident_bytes\":" << stats.residentBytes
       << ",\"expired_purged\":" << stats.expiredPurged
       << ",\"ref_trace_entries\":" << stats.refTraceEntries
       << ",\"miss_trace_entries\":" << stats.missTraceEntries
       << ",\"phase_plan_entries\":" << stats.phasePlanEntries << '}';
}

} // namespace sbsim
