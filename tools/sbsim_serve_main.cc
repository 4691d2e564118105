/**
 * @file
 * sbsim-serve: the sweep-as-a-service daemon. Binds a local Unix
 * stream socket, serves newline-delimited JSON run/sweep requests
 * (see src/service/protocol.hh), and drains gracefully on
 * SIGTERM/SIGINT or a "shutdown" request.
 */

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "service/server.hh"
#include "trace/trace_cache.hh"
#include "util/env.hh"

namespace {

void
onSignal(int)
{
    sbsim::service::SweepService::notifySignal();
}

int
usage(std::FILE *out)
{
    std::fprintf(out, R"(sbsim-serve - streamsim sweep service daemon

usage: sbsim-serve --socket PATH [options]

options:
  --socket PATH        Unix socket to listen on (required; a stale
                       file from a previous run is replaced)
  --executors N        concurrent request executors (default 2)
  --sweep-jobs N       worker threads per sweep request (default 0 =
                       auto from SBSIM_JOBS / hardware concurrency)
  --max-queue N        pending-request bound; requests beyond it are
                       rejected with a structured error (default 16)
  --trace-cache on|off cross-request trace reuse (default on)
  --help               show this text

Protocol: one JSON request per line in, one JSON response per line
out; see docs/INTERNALS.md ("Sweep service") and tools/sbsim_client.py.
Drain: SIGTERM/SIGINT or an {"op":"shutdown"} request finishes the
admitted work, refuses the rest, and flushes the trace-cache report.
)");
    return out == stdout ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    sbsim::service::ServiceConfig config;
    const std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "sbsim-serve: %s needs a value\n",
                             flag);
                return nullptr;
            }
            return args[++i].c_str();
        };
        std::optional<std::uint64_t> n;
        if (a == "--help" || a == "-h") {
            return usage(stdout);
        } else if (a == "--socket") {
            const char *v = value("--socket");
            if (!v)
                return 2;
            config.socketPath = v;
        } else if (a == "--executors") {
            const char *v = value("--executors");
            n = sbsim::parseUnsignedStrict(v ? v : "");
            if (!n || *n == 0 || *n > 256) {
                std::fprintf(stderr,
                             "sbsim-serve: bad --executors value\n");
                return 2;
            }
            config.executors = static_cast<unsigned>(*n);
        } else if (a == "--sweep-jobs") {
            const char *v = value("--sweep-jobs");
            n = sbsim::parseUnsignedStrict(v ? v : "");
            if (!n || *n > 1024) {
                std::fprintf(stderr,
                             "sbsim-serve: bad --sweep-jobs value\n");
                return 2;
            }
            config.sweepJobs = static_cast<unsigned>(*n);
        } else if (a == "--max-queue") {
            const char *v = value("--max-queue");
            n = sbsim::parseUnsignedStrict(v ? v : "");
            if (!n || *n == 0) {
                std::fprintf(stderr,
                             "sbsim-serve: bad --max-queue value\n");
                return 2;
            }
            config.maxQueue = *n;
        } else if (a == "--trace-cache") {
            const char *v = value("--trace-cache");
            std::optional<bool> on = sbsim::parseBoolStrict(v ? v : "");
            if (!on) {
                std::fprintf(
                    stderr,
                    "sbsim-serve: bad --trace-cache value (on|off)\n");
                return 2;
            }
            config.traceCache = *on;
        } else {
            std::fprintf(stderr, "sbsim-serve: unknown option: %s\n",
                         a.c_str());
            return usage(stderr);
        }
    }
    if (config.socketPath.empty()) {
        std::fprintf(stderr, "sbsim-serve: --socket PATH required\n");
        return usage(stderr);
    }

    sbsim::service::SweepService service(config);
    std::string error;
    if (!service.start(error)) {
        std::fprintf(stderr, "sbsim-serve: %s\n", error.c_str());
        return 1;
    }
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    std::fprintf(stderr, "sbsim-serve: listening on %s\n",
                 config.socketPath.c_str());
    service.waitUntilStopped();
    std::fprintf(stderr, "sbsim-serve: drained, exiting\n");
    return 0;
}
