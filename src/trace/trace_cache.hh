/**
 * @file
 * Process-wide registry of shareable traces, keyed by caller-supplied
 * strings. Two kinds of entry:
 *
 *  - reference traces (MaterializedTrace): the raw MemAccess stream of
 *    one source key, shared by SharedTraceView consumers;
 *  - miss traces (MissTrace): the post-L1 event stream of one
 *    (source key, L1 front-end) pair, replayed by
 *    MemorySystem::replayMissTrace;
 *  - sampling plans (SamplingPlan): the phase profile + selected
 *    representative intervals of one (source key, phase config) pair,
 *    executed by runSampled for --fidelity=sampled jobs.
 *
 * Entries are held as weak_ptr: the cache never pins memory on its
 * own — a trace stays resident exactly as long as some consumer holds
 * a strong reference, and a sweep's working set is released when its
 * jobs finish. Population is thread-safe first-writer-wins: when two
 * workers race to produce the same key, both produce, the first
 * insert wins, and the loser adopts the winner's copy (results are
 * identical either way because production is deterministic per key).
 *
 * Expired entries are *erased*, not just left dead: every insert and
 * every stats() snapshot sweeps both key maps and drops entries whose
 * weak_ptr no longer locks (counted in TraceCacheStats::expiredPurged).
 * Without that sweep the key maps of a long-running process — the
 * sweep service holds one instance across every request it ever
 * serves — grow without bound, one dead string key per retired
 * working set. The checked build audits the invariant that a sweep
 * leaves no expired entry behind.
 *
 * The cache only ever affects *how fast* results are produced, never
 * what they are — the differential tests in tests/test_sweep_runner.cc
 * and tests/test_miss_trace.cc pin cached == naive bit-identically.
 *
 * Toggle: SBSIM_TRACE_CACHE (boolean, default on) or the CLI's
 * --trace-cache flag; SweepRunner::setTraceCacheEnabled overrides per
 * runner.
 */

#ifndef STREAMSIM_TRACE_TRACE_CACHE_HH
#define STREAMSIM_TRACE_TRACE_CACHE_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "trace/materialized_trace.hh"
#include "trace/miss_trace.hh"
#include "trace/phase_profile.hh"
#include "util/mutex.hh"
#include "util/thread_annotations.hh"

namespace sbsim {

/** Counters for the cache-effectiveness report (stderr / sweep JSON
 *  aggregate). Snapshot via TraceCache::stats(). */
struct TraceCacheStats
{
    std::uint64_t refTraceHits = 0;
    std::uint64_t refTracesMaterialized = 0;
    std::uint64_t missTraceHits = 0;
    std::uint64_t missTracesRecorded = 0;
    /** Jobs served by miss-stream replay instead of a full run. */
    std::uint64_t replays = 0;
    /** Bytes of live (strongly referenced) cached traces right now. */
    std::uint64_t residentBytes = 0;
    /** Expired weak entries erased from the key maps (lifetime). */
    std::uint64_t expiredPurged = 0;
    /** Keys currently in the reference-trace map (all live: this
     *  snapshot is taken right after a purge sweep). */
    std::uint64_t refTraceEntries = 0;
    /** Keys currently in the miss-trace map (all live; see above). */
    std::uint64_t missTraceEntries = 0;
    /** Sampling-plan sharing (see getOrBuildPlan). */
    std::uint64_t phasePlanHits = 0;
    std::uint64_t phasePlansBuilt = 0;
    /** Keys currently in the sampling-plan map (all live). */
    std::uint64_t phasePlanEntries = 0;
};

/**
 * Write the one-line cache-effectiveness report to @p out (the sweep
 * runner prints it after a cache-enabled sweep; the service daemon
 * flushes it on drain). stderr-style plain text, never JSON.
 */
void printTraceCacheReport(const TraceCacheStats &stats,
                           std::FILE *out);

/**
 * The process-wide trace registry (see file comment).
 *
 * Lock contract (compiler-checked under STREAMSIM_THREAD_SAFETY):
 * every public method is a self-contained critical section and must
 * be called *without* mutex_ held — none of them may be invoked from
 * a callback running under another TraceCache method, or the process
 * deadlocks. In particular the producer callbacks passed to
 * getOrMaterializeTrace/getOrRecord/getOrBuildPlan always run outside
 * the lock (that is what makes first-writer-wins racing safe), so they
 * may themselves consult the cache.
 */
class TraceCache
{
  public:
    static TraceCache &instance();

    /** SBSIM_TRACE_CACHE (strict boolean; default true when unset or
     *  malformed — malformed values warn via envBool). */
    static bool enabledByEnv();

    /**
     * Return the trace cached under @p key, or produce it via
     * @p produce (typically MaterializedTrace::fromSource over the
     * key's source chain, which also captures TimeSampler counts at
     * drain time). First-writer-wins on races. @p produce must be
     * deterministic for the key.
     */
    std::shared_ptr<const MaterializedTrace> getOrMaterializeTrace(
        const std::string &key,
        const std::function<std::shared_ptr<const MaterializedTrace>()>
            &produce) SBSIM_EXCLUDES(mutex_);

    /** Peek: the cached trace for @p key if still alive, else null.
     *  Does not count as a hit. */
    std::shared_ptr<const MaterializedTrace>
    lookupRefTrace(const std::string &key) const SBSIM_EXCLUDES(mutex_);

    /** Peek at a cached miss trace; does not count as a hit. */
    std::shared_ptr<const MissTrace>
    lookupMissTrace(const std::string &key) const SBSIM_EXCLUDES(mutex_);

    /**
     * Return the miss trace cached under @p key, or produce it via
     * @p record (which must return a finalized MissTrace and be
     * deterministic for the key). First-writer-wins on races.
     */
    std::shared_ptr<const MissTrace> getOrRecord(
        const std::string &key,
        const std::function<MissTrace()> &record)
        SBSIM_EXCLUDES(mutex_);

    /**
     * Return the sampling plan cached under @p key (conventionally
     * source key + '\x1f' + PhaseProfileConfig::key()), or produce it
     * via @p build (deterministic for the key; typically
     * buildSamplingPlan over the key's materialized trace).
     * First-writer-wins on races.
     */
    std::shared_ptr<const SamplingPlan> getOrBuildPlan(
        const std::string &key,
        const std::function<SamplingPlan()> &build)
        SBSIM_EXCLUDES(mutex_);

    /** Count one job served by miss-stream replay. */
    void noteReplay() SBSIM_EXCLUDES(mutex_);

    /**
     * Erase every expired entry from both key maps. Runs
     * opportunistically on every insert and stats() call, so callers
     * never need to invoke it for correctness; it is public for tests
     * and for long-running hosts that want a deterministic sweep
     * point. @return entries erased by this call.
     */
    std::size_t purgeExpired() SBSIM_EXCLUDES(mutex_);

    /**
     * Snapshot the counters plus current resident bytes and map
     * sizes. Sweeps expired entries first, so the reported entry
     * counts cover live traces only — which is what makes the counts
     * a bound on the maps' memory, not just their census.
     */
    TraceCacheStats stats() SBSIM_EXCLUDES(mutex_);

    /** Drop all entries and zero the counters (tests). */
    void clear() SBSIM_EXCLUDES(mutex_);

  private:
    TraceCache() = default;

    /** Live entry for @p key, counting a hit; caller holds the lock.
     *  Pure lookup: never inserts a slot for an absent key (the old
     *  operator[] probe left one empty weak_ptr per miss behind). */
    std::shared_ptr<const MaterializedTrace>
    refHitLocked(const std::string &key) SBSIM_REQUIRES(mutex_);
    std::shared_ptr<const MissTrace>
    missHitLocked(const std::string &key) SBSIM_REQUIRES(mutex_);
    std::shared_ptr<const SamplingPlan>
    planHitLocked(const std::string &key) SBSIM_REQUIRES(mutex_);

    /** The sweep behind purgeExpired(); caller holds the lock. Under
     *  STREAMSIM_CHECKED, audits that no expired entry survives. */
    std::size_t purgeExpiredLocked() SBSIM_REQUIRES(mutex_);

    mutable Mutex mutex_;
    std::map<std::string, std::weak_ptr<const MaterializedTrace>>
        refTraces_ SBSIM_GUARDED_BY(mutex_);
    std::map<std::string, std::weak_ptr<const MissTrace>>
        missTraces_ SBSIM_GUARDED_BY(mutex_);
    std::map<std::string, std::weak_ptr<const SamplingPlan>>
        plans_ SBSIM_GUARDED_BY(mutex_);
    TraceCacheStats counters_ SBSIM_GUARDED_BY(mutex_);
};

} // namespace sbsim

#endif // STREAMSIM_TRACE_TRACE_CACHE_HH
