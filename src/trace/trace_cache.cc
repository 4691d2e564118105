#include "trace_cache.hh"

#include "util/audit.hh"
#include "util/env.hh"

namespace sbsim {

namespace {

/**
 * Erase every expired entry of @p map and return how many went. The
 * two key maps only differ in mapped type, hence the template.
 */
template <typename Map>
std::size_t
eraseExpired(Map &map)
{
    std::size_t purged = 0;
    for (auto it = map.begin(); it != map.end();) {
        if (it->second.expired()) {
            it = map.erase(it);
            ++purged;
        } else {
            ++it;
        }
    }
    return purged;
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

bool
TraceCache::enabledByEnv()
{
    return envBool("SBSIM_TRACE_CACHE").value_or(true);
}

std::shared_ptr<const MaterializedTrace>
TraceCache::refHitLocked(const std::string &key)
{
    auto it = refTraces_.find(key);
    if (it == refTraces_.end())
        return nullptr;
    if (auto trace = it->second.lock()) {
        ++counters_.refTraceHits;
        return trace;
    }
    return nullptr;
}

std::shared_ptr<const MissTrace>
TraceCache::missHitLocked(const std::string &key)
{
    auto it = missTraces_.find(key);
    if (it == missTraces_.end())
        return nullptr;
    if (auto trace = it->second.lock()) {
        ++counters_.missTraceHits;
        return trace;
    }
    return nullptr;
}

std::shared_ptr<const SamplingPlan>
TraceCache::planHitLocked(const std::string &key)
{
    auto it = plans_.find(key);
    if (it == plans_.end())
        return nullptr;
    if (auto plan = it->second.lock()) {
        ++counters_.phasePlanHits;
        return plan;
    }
    return nullptr;
}

std::size_t
TraceCache::purgeExpiredLocked()
{
    std::size_t purged = eraseExpired(refTraces_);
    purged += eraseExpired(missTraces_);
    purged += eraseExpired(plans_);
    counters_.expiredPurged += purged;
    // The bound the purge exists to maintain: a sweep leaves only
    // live entries behind, so map size can never exceed the live
    // working set plus whatever expired since the last sweep — and a
    // sweep runs on every insert and stats() snapshot.
    SBSIM_AUDIT_BLOCK(
        for (const auto &entry : refTraces_)
            SBSIM_AUDIT(!entry.second.expired(),
                        "expired ref-trace entry survived the purge: ",
                        entry.first);
        for (const auto &entry : missTraces_)
            SBSIM_AUDIT(!entry.second.expired(),
                        "expired miss-trace entry survived the purge: ",
                        entry.first);
        for (const auto &entry : plans_)
            SBSIM_AUDIT(!entry.second.expired(),
                        "expired sampling-plan entry survived the purge: ",
                        entry.first););
    return purged;
}

std::size_t
TraceCache::purgeExpired()
{
    MutexLock lock(mutex_);
    return purgeExpiredLocked();
}

std::shared_ptr<const MaterializedTrace>
TraceCache::getOrMaterializeTrace(
    const std::string &key,
    const std::function<std::shared_ptr<const MaterializedTrace>()>
        &produce)
{
    {
        MutexLock lock(mutex_);
        if (auto trace = refHitLocked(key))
            return trace;
    }
    // Produce outside the lock: materialisation is the expensive part
    // and holding the mutex across it would serialise the sweep pool.
    std::shared_ptr<const MaterializedTrace> produced = produce();

    MutexLock lock(mutex_);
    if (auto winner = refHitLocked(key)) {
        // Lost the race; adopt the first writer's copy (identical
        // content — production is deterministic per key).
        return winner;
    }
    // Inserts are the only operation that grows the maps, so they are
    // the natural amortisation point for the expired-entry sweep.
    purgeExpiredLocked();
    refTraces_[key] = produced;
    ++counters_.refTracesMaterialized;
    return produced;
}

std::shared_ptr<const MaterializedTrace>
TraceCache::lookupRefTrace(const std::string &key) const
{
    MutexLock lock(mutex_);
    auto it = refTraces_.find(key);
    return it == refTraces_.end() ? nullptr : it->second.lock();
}

std::shared_ptr<const MissTrace>
TraceCache::lookupMissTrace(const std::string &key) const
{
    MutexLock lock(mutex_);
    auto it = missTraces_.find(key);
    return it == missTraces_.end() ? nullptr : it->second.lock();
}

std::shared_ptr<const MissTrace>
TraceCache::getOrRecord(const std::string &key,
                        const std::function<MissTrace()> &record)
{
    {
        MutexLock lock(mutex_);
        if (auto trace = missHitLocked(key))
            return trace;
    }
    auto produced =
        std::make_shared<const MissTrace>(record());

    MutexLock lock(mutex_);
    if (auto winner = missHitLocked(key))
        return winner;
    purgeExpiredLocked();
    missTraces_[key] = produced;
    ++counters_.missTracesRecorded;
    return produced;
}

std::shared_ptr<const SamplingPlan>
TraceCache::getOrBuildPlan(const std::string &key,
                           const std::function<SamplingPlan()> &build)
{
    {
        MutexLock lock(mutex_);
        if (auto plan = planHitLocked(key))
            return plan;
    }
    auto produced = std::make_shared<const SamplingPlan>(build());

    MutexLock lock(mutex_);
    if (auto winner = planHitLocked(key))
        return winner;
    purgeExpiredLocked();
    plans_[key] = produced;
    ++counters_.phasePlansBuilt;
    return produced;
}

void
TraceCache::noteReplay()
{
    MutexLock lock(mutex_);
    ++counters_.replays;
}

TraceCacheStats
TraceCache::stats()
{
    MutexLock lock(mutex_);
    purgeExpiredLocked();
    TraceCacheStats s = counters_;
    s.residentBytes = 0;
    for (const auto &entry : refTraces_) {
        if (auto trace = entry.second.lock())
            s.residentBytes += trace->bytes();
    }
    for (const auto &entry : missTraces_) {
        if (auto trace = entry.second.lock())
            s.residentBytes += trace->bytes();
    }
    for (const auto &entry : plans_) {
        if (auto plan = entry.second.lock())
            s.residentBytes += plan->bytes();
    }
    s.refTraceEntries = refTraces_.size();
    s.missTraceEntries = missTraces_.size();
    s.phasePlanEntries = plans_.size();
    return s;
}

void
TraceCache::clear()
{
    MutexLock lock(mutex_);
    refTraces_.clear();
    missTraces_.clear();
    plans_.clear();
    counters_ = TraceCacheStats{};
}

void
printTraceCacheReport(const TraceCacheStats &stats, std::FILE *out)
{
    std::fprintf(
        out,
        "sweep: trace cache: ref %llu hit / %llu built, miss "
        "%llu hit / %llu recorded, plan %llu hit / %llu built, "
        "%llu replays, %llu bytes resident, %llu expired purged "
        "(%llu+%llu+%llu keys live)\n",
        static_cast<unsigned long long>(stats.refTraceHits),
        static_cast<unsigned long long>(stats.refTracesMaterialized),
        static_cast<unsigned long long>(stats.missTraceHits),
        static_cast<unsigned long long>(stats.missTracesRecorded),
        static_cast<unsigned long long>(stats.phasePlanHits),
        static_cast<unsigned long long>(stats.phasePlansBuilt),
        static_cast<unsigned long long>(stats.replays),
        static_cast<unsigned long long>(stats.residentBytes),
        static_cast<unsigned long long>(stats.expiredPurged),
        static_cast<unsigned long long>(stats.refTraceEntries),
        static_cast<unsigned long long>(stats.missTraceEntries),
        static_cast<unsigned long long>(stats.phasePlanEntries));
}

} // namespace sbsim
