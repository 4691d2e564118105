/**
 * @file
 * perfbench-harness: the in-process half of the repo benchmark (see
 * perfbench/README.md). Reads its inputs on stdin, prints "ready" and
 * the steady-clock time in nanoseconds on stdout when the first timed
 * operation can start, and ends with one JSON line of raw measurements.
 *
 *   perfbench-harness paper_sweeps|distinct_runs|serve_ref
 *       [--seconds S] [--workers N] [--trace] [--spans-out FILE]
 *       [--setup-only]
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "inputs.hh"
#include "spans.hh"
#include "workloads.hh"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench-harness paper_sweeps|distinct_runs|"
                 "serve_ref [--seconds S] [--workers N] [--trace]\n"
                 "       [--spans-out FILE] [--setup-only] < inputs\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string workload = argv[1];
    perfbench::Options opt;
    bool setup_only = false;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (a == "--seconds") {
            const char *v = value();
            if (!v || (opt.seconds = std::atof(v)) <= 0)
                return usage();
        } else if (a == "--workers") {
            const char *v = value();
            if (!v || (opt.workers = std::atoi(v)) == 0)
                return usage();
        } else if (a == "--trace") {
            opt.trace = true;
        } else if (a == "--spans-out") {
            const char *v = value();
            if (!v)
                return usage();
            opt.spansOut = v;
        } else if (a == "--setup-only") {
            setup_only = true;
        } else {
            return usage();
        }
    }

    try {
        // The ready line carries this moment on the steady clock
        // (CLOCK_MONOTONIC), so the launcher can time the set-up
        // without its own wake-up in it.
        auto ready = [setup_only] {
            std::cout << "ready " << perfbench::nowNs() << std::endl;
            if (setup_only)
                std::exit(0);
        };
        perfbench::Report rep;
        if (workload == "paper_sweeps") {
            rep = perfbench::runPaperSweeps(
                perfbench::readPaperJobs(std::cin), opt, ready);
        } else if (workload == "distinct_runs") {
            rep = perfbench::runDistinctRuns(
                perfbench::readRequests(std::cin), opt, ready);
        } else if (workload == "serve_ref") {
            rep = perfbench::runServeReference(
                perfbench::readRequests(std::cin), opt, std::cout);
        } else {
            return usage();
        }
        rep.writeJson(std::cout);
        std::cout.flush();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench-harness: %s\n", e.what());
        return 1;
    }
    return 0;
}
