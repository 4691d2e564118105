/**
 * @file
 * Wire protocol of the sweep service: newline-delimited JSON over a
 * local stream socket. One request per line in, one response per line
 * out; responses carry the request's "id" verbatim so clients may
 * pipeline requests and match completions out of order.
 *
 * Request shape:
 *
 *     {"id": <string|integer>, "op": "ping"|"run"|"sweep"|"stats"
 *                                   |"shutdown",
 *      "spec": { ...RunSpec fields... },       // run and sweep
 *      "values": [1, 2, 4]}                    // sweep grid, optional
 *
 * The spec's keys are those of service::specFields(), the one table
 * the CLI reads its flags through too: a switch is a JSON boolean, a
 * number a non-negative integer, a word a string. Parsing is strict
 * end to end (see service/json.hh): wrong types, out-of-range
 * numbers, unknown keys, and RunSpec cross-field violations all yield
 * a structured error response — never a crash, never a request with
 * silently dropped fields.
 *
 * Response shape (always one line, "id" echoed):
 *
 *     {"id": ..., "ok": true, "kind": "run", "references": N,
 *      "result": "<the CLI's --json-out document, verbatim>"}
 *     {"id": ..., "ok": false, "error": "...", "offset": N}
 *
 * "result" embeds the exact byte sequence the CLI writes with
 * --json-out as one JSON string (escaped), so a client that unescapes
 * it recovers a bit-identical document — the property the daemon
 * differential smoke test pins.
 */

#ifndef STREAMSIM_SERVICE_PROTOCOL_HH
#define STREAMSIM_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "service/run_spec.hh"
#include "trace/trace_cache.hh"

namespace sbsim {
namespace service {

/** What a request asks the service to do. */
enum class RequestOp : std::uint8_t
{
    PING,     ///< Liveness probe; answered inline.
    RUN,      ///< Execute one RunSpec.
    SWEEP,    ///< Sweep the stream count over a RunSpec.
    STATS,    ///< Snapshot the process-wide TraceCacheStats.
    SHUTDOWN, ///< Begin graceful drain (same path as SIGTERM).
};

/** One parsed request. */
struct Request
{
    RequestOp op = RequestOp::PING;
    /** The request's "id" re-serialised as a JSON token ("null" when
     *  absent), echoed verbatim into the response. */
    std::string idJson = "null";
    RunSpec spec;                      ///< RUN and SWEEP.
    std::vector<std::uint32_t> values; ///< SWEEP grid.
};

/** Parse outcome: a request, or an error with the byte offset. */
struct RequestParse
{
    Request request;
    std::string error; ///< Empty on success.
    /** Set with errorOffset when the failure was at the JSON layer
     *  (offset is meaningful); semantic errors leave it false. */
    bool syntaxError = false;
    std::size_t errorOffset = 0;

    bool ok() const { return error.empty(); }
};

/**
 * Parse one request line. Strict: every failure (malformed JSON,
 * wrong type, unknown key, invalid spec) returns an error; the
 * request is only populated on success. @p line excludes the newline.
 */
RequestParse parseRequest(std::string_view line);

/** Error response line (offset emitted only when provided). */
std::string errorResponse(const std::string &id_json,
                          const std::string &error,
                          std::optional<std::size_t> offset =
                              std::nullopt);

/** Bare acknowledgement line: {"id":..,"ok":true,"kind":<kind>}. */
std::string simpleResponse(const std::string &id_json,
                           const std::string &kind);

/**
 * Completed run/sweep response line; @p document is the verbatim
 * metrics JSON (embedded escaped, see file comment).
 */
std::string resultResponse(const std::string &id_json,
                           const std::string &kind,
                           std::uint64_t references,
                           const std::string &document);

/** TraceCacheStats snapshot response line; the "trace_cache" object
 *  uses the same field names as the sweep JSON aggregate. */
std::string statsResponse(const std::string &id_json,
                          const TraceCacheStats &stats);

} // namespace service
} // namespace sbsim

#endif // STREAMSIM_SERVICE_PROTOCOL_HH
