/**
 * @file
 * The trace store: one process-wide registry of the artifacts sweeps
 * share, keyed by (kind, caller-supplied string). Three kinds of
 * artifact are stored:
 *
 *  - reference traces (MaterializedTrace): the raw MemAccess stream of
 *    one source key, read through SharedTraceView;
 *  - miss traces (MissTrace): the post-L1 event stream of one
 *    (source key, L1 front end) pair (missTraceKey), replayed by
 *    MemorySystem::replayMissTrace;
 *  - sampling plans (SamplingPlan): the phase profile + selected
 *    representative intervals of one (source key, phase config) pair
 *    (samplingPlanKey), executed by runSampled for --fidelity=sampled
 *    jobs.
 *
 * Entries are held as weak_ptr: the store never pins memory on its
 * own — an artifact stays resident exactly as long as some consumer
 * holds a strong reference, and a sweep's working set is released
 * when its jobs finish. Population is thread-safe first-writer-wins:
 * when two workers race to produce the same key, both produce, the
 * first insert wins, and the loser adopts the winner's copy (results
 * are identical either way because production is deterministic per
 * key).
 *
 * Expired entries are *erased*, not just left dead: every insert and
 * every stats() snapshot sweeps the map and drops entries whose
 * weak_ptr no longer locks (counted in TraceCacheStats::expiredPurged).
 * Without that sweep the map of a long-running process — the sweep
 * service holds one instance across every request it ever serves —
 * grows without bound, one dead string key per retired working set.
 * The checked build audits the invariant that a sweep leaves no
 * expired entry behind.
 *
 * The store only ever affects *how fast* results are produced, never
 * what they are — the differential tests in tests/test_sweep_runner.cc,
 * tests/test_sweep_planner.cc and tests/test_miss_trace.cc pin
 * cached == naive bit-identically.
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
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>

#include "trace/materialized_trace.hh"
#include "trace/miss_trace.hh"
#include "trace/phase_profile.hh"
#include "util/mutex.hh"
#include "util/thread_annotations.hh"

namespace sbsim {

/** Counters for the cache-effectiveness report (stderr / sweep JSON
 *  aggregate / service stats). Snapshot via TraceCache::stats(). */
struct TraceCacheStats
{
    std::uint64_t refTraceHits = 0;
    std::uint64_t refTracesMaterialized = 0;
    std::uint64_t missTraceHits = 0;
    std::uint64_t missTracesRecorded = 0;
    /** Jobs served by miss-stream replay instead of a full run,
     *  stack-family jobs whose stream count diverged included. */
    std::uint64_t replays = 0;
    /** Jobs a stream-stack pass answered (sim/stream_stack.hh). */
    std::uint64_t stackJobs = 0;
    /** Stream-stack family jobs replayed because their stream count
     *  diverged; counted in replays too. */
    std::uint64_t stackDiverged = 0;
    /** Bytes of live (strongly referenced) stored artifacts now. */
    std::uint64_t residentBytes = 0;
    /** Expired weak entries erased from the map (lifetime). */
    std::uint64_t expiredPurged = 0;
    /** Reference traces in the map (all live: this snapshot is taken
     *  right after a purge sweep). */
    std::uint64_t refTraceEntries = 0;
    /** Miss traces in the map (all live; see above). */
    std::uint64_t missTraceEntries = 0;
    /** Sampling-plan sharing. */
    std::uint64_t phasePlanHits = 0;
    std::uint64_t phasePlansBuilt = 0;
    /** Sampling plans in the map (all live). */
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
 * Write @p stats as the "trace_cache" JSON object of the metrics
 * schema: the sweep document's aggregate and the service's stats
 * response both carry it, byte for byte.
 */
void writeTraceCacheJson(const TraceCacheStats &stats, std::ostream &os);

/** The kinds of artifact the store holds. */
enum class ArtifactKind : std::uint8_t
{
    REF_TRACE,
    MISS_TRACE,
    SAMPLING_PLAN,
};

/** The store kind of each artifact type: MaterializedTrace,
 *  MissTrace or SamplingPlan. */
template <typename T>
inline constexpr ArtifactKind kArtifactKind =
    std::is_same_v<T, MaterializedTrace> ? ArtifactKind::REF_TRACE
    : std::is_same_v<T, MissTrace>       ? ArtifactKind::MISS_TRACE
                                          : ArtifactKind::SAMPLING_PLAN;

/**
 * The process-wide artifact store (see file comment).
 *
 * Lock contract (compiler-checked under STREAMSIM_THREAD_SAFETY):
 * every public method is a self-contained critical section and must
 * be called *without* mutex_ held — none of them may be invoked from
 * a callback running under another TraceCache method, or the process
 * deadlocks. In particular the build callbacks passed to getOrBuild
 * always run outside the lock (that is what makes first-writer-wins
 * racing safe), so they may themselves consult the store.
 */
class TraceCache
{
  public:
    static TraceCache &instance();

    /**
     * Return the artifact stored under (T's kind, @p key), or build it
     * with @p build and store it. First-writer-wins on races. @p build
     * must be deterministic for the key and return a non-null
     * artifact.
     */
    template <typename T>
    std::shared_ptr<const T>
    getOrBuild(const std::string &key,
               const std::function<std::shared_ptr<const T>()> &build)
        SBSIM_EXCLUDES(mutex_)
    {
        return std::static_pointer_cast<const T>(getOrBuildEntry(
            kArtifactKind<T>, key, build, [](const void *artifact) {
                return static_cast<const T *>(artifact)->bytes();
            }));
    }

    /** Peek: the artifact stored under (T's kind, @p key) if still
     *  alive, else null. Does not count as a hit. */
    template <typename T>
    std::shared_ptr<const T>
    peek(const std::string &key) const SBSIM_EXCLUDES(mutex_)
    {
        return std::static_pointer_cast<const T>(
            peekEntry(kArtifactKind<T>, key));
    }

    /** getOrBuild for a reference trace. */
    std::shared_ptr<const MaterializedTrace> getOrMaterializeTrace(
        const std::string &key,
        const std::function<std::shared_ptr<const MaterializedTrace>()>
            &produce) SBSIM_EXCLUDES(mutex_)
    {
        return getOrBuild<MaterializedTrace>(key, produce);
    }

    /** getOrBuild for a miss trace @p record returns by value. */
    std::shared_ptr<const MissTrace>
    getOrRecord(const std::string &key,
                const std::function<MissTrace()> &record)
        SBSIM_EXCLUDES(mutex_)
    {
        return getOrBuild<MissTrace>(key, [&record] {
            return std::make_shared<const MissTrace>(record());
        });
    }

    /** Count one job served by miss-stream replay; @p diverged: a
     *  stream-stack family job whose stream count diverged. */
    void noteReplay(bool diverged = false) SBSIM_EXCLUDES(mutex_);

    /** Count one job a stream-stack pass answered. */
    void noteStackJob() SBSIM_EXCLUDES(mutex_);

    /**
     * Snapshot the counters plus current resident bytes and entry
     * counts. Sweeps expired entries first, so the reported entry
     * counts cover live artifacts only — which is what makes the
     * counts a bound on the map's memory, not just its census.
     */
    TraceCacheStats stats() SBSIM_EXCLUDES(mutex_);

    /** Drop all entries and zero the counters (tests). */
    void clear() SBSIM_EXCLUDES(mutex_);

  private:
    /** Resident bytes of a stored artifact of one type. */
    using SizeFn = std::size_t (*)(const void *artifact);

    /** One stored artifact, held weakly, and how to size it. */
    struct Entry
    {
        std::weak_ptr<const void> artifact;
        SizeFn bytes;
    };

    TraceCache() = default;

    /** The one get-or-build path behind getOrBuild. */
    std::shared_ptr<const void>
    getOrBuildEntry(ArtifactKind kind, const std::string &key,
                    const std::function<std::shared_ptr<const void>()> &build,
                    SizeFn bytes) SBSIM_EXCLUDES(mutex_);

    std::shared_ptr<const void>
    peekEntry(ArtifactKind kind, const std::string &key) const
        SBSIM_EXCLUDES(mutex_);

    /** Live entry for (@p kind, @p key), counting a hit; caller holds
     *  the lock. Pure lookup: never inserts a slot for an absent key. */
    std::shared_ptr<const void> hitLocked(ArtifactKind kind,
                                          const std::string &key)
        SBSIM_REQUIRES(mutex_);

    /** Erase every expired entry; caller holds the lock. Under
     *  STREAMSIM_CHECKED, audits that no expired entry survives. */
    void purgeExpiredLocked() SBSIM_REQUIRES(mutex_);

    mutable Mutex mutex_;
    std::map<std::pair<ArtifactKind, std::string>, Entry>
        entries_ SBSIM_GUARDED_BY(mutex_);
    /** The counters; stats() adds the snapshot fields. */
    TraceCacheStats counters_ SBSIM_GUARDED_BY(mutex_);
};

} // namespace sbsim

#endif // STREAMSIM_TRACE_TRACE_CACHE_HH
