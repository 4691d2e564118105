/**
 * @file
 * Every stream count of a Fig. 3 family from one pass over a recorded
 * miss stream: Mattson's stack algorithm applied to LRU stream
 * buffers.
 *
 * Under ALWAYS allocation with unit stride a stream is known by its
 * head block. A hit at head h of a depth-d stream leaves it holding
 * h+B ... h+dB, and a fresh allocation at h holds exactly the same
 * blocks. So the streams of every stream count are the top entries of
 * one LRU stack of heads: a lookup whose valid head sits at stack
 * depth p hits in every set of more than p streams, and every smaller
 * set, of K streams, misses and reallocates its entry at depth K-1
 * (or a still inactive stream). What differs between counts is the
 * per-stream state the blocks come with: the issue tick and valid bit
 * of each FIFO slot, the hit run and the stream's physical index. The
 * pass keeps those per (stack entry, count), and per count a clock,
 * one RunCounts and the Table 3 length distribution.
 *
 * Two engine behaviours fall outside the stack model. A count that
 * meets one diverges, and its result is left to a replay:
 *  - duplicate heads: the engine hits the lowest-index matching
 *    stream, the stack the most recent one. A lookup diverges each
 *    count whose top K hold a duplicate of the match and whose
 *    lowest-index match is not the most recent;
 *  - a hit that makes an invalidated slot a stream's new head for
 *    count K (the stream is then dead there, but fresh in the counts
 *    that reallocated it).
 *
 * docs/INTERNALS.md ("Trace reuse & miss-stream replay") has the
 * argument and the measurements.
 */

#ifndef STREAMSIM_SIM_STREAM_STACK_HH
#define STREAMSIM_SIM_STREAM_STACK_HH

#include <cstdint>
#include <map>
#include <span>

#include "sim/experiment.hh"
#include "trace/miss_trace.hh"

namespace sbsim {

/**
 * True when a stream-stack pass answers @p config's secondary level:
 * streams on, ALWAYS allocation, LRU replacement, head-only lookup,
 * one bank, no L2 and an unlimited bus.
 */
bool streamStackDomain(const MemorySystemConfig &config);

/**
 * Run @p config's secondary level at each stream count of @p counts
 * over @p trace in one pass. @p config must be in streamStackDomain
 * and share the trace's front end (frontEndKey); its own stream count
 * is ignored. @return the output of every count that did not diverge,
 * bit-identical to replayOnce at that count; diverged counts are
 * absent. The walk stops once every count has diverged.
 */
std::map<std::uint32_t, RunOutput>
runStreamStack(const MissTrace &trace, const MemorySystemConfig &config,
               std::span<const std::uint32_t> counts);

} // namespace sbsim

#endif // STREAMSIM_SIM_STREAM_STACK_HH
