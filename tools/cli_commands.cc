#include "cli_commands.hh"

#include <fstream>
#include <memory>
#include <sstream>

#include "service/run_spec.hh"
#include "sim/analytic_l2.hh"
#include "sim/memory_system.hh"
#include "sim/sweep_runner.hh"
#include "trace/file_trace.hh"
#include "trace/trace_stats.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace sbsim {
namespace cli {

namespace {

/** Print @p table as text or CSV per the options. */
void
printTable(const TablePrinter &table, const Options &o,
           std::ostream &out)
{
    if (o.csv)
        table.printCsv(out);
    else
        table.print(out);
}

/** Open an export target, or die: a silently missing metrics file is
 *  worse than no run at all. */
std::ofstream
openExport(const std::string &path)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        SBSIM_FATAL("cannot open output file for writing: ", path);
    return out;
}

/** One-row CSV of a single run's flattened metrics. */
void
writeRunCsv(const MetricsRegistry &reg, std::ostream &os)
{
    bool first = true;
    for (const std::string &n : reg.flatFieldNames()) {
        os << (first ? "" : ",") << csvQuote(n);
        first = false;
    }
    os << '\n';
    first = true;
    for (const std::string &v : reg.flatFieldValues()) {
        os << (first ? "" : ",") << csvQuote(v);
        first = false;
    }
    os << '\n';
}

int
listCommand(std::ostream &out)
{
    TablePrinter table(
        {"name", "suite", "description", "input", "dataset"});
    for (const Benchmark &b : allBenchmarks()) {
        table.addRow({b.name, b.suite, b.description,
                      b.inputDescription(ScaleLevel::DEFAULT),
                      fmtBytes(b.dataSetBytes(ScaleLevel::DEFAULT))});
    }
    table.print(out);
    return 0;
}

int
runCommandImpl(const Options &o, std::ostream &out)
{
    const service::RunSpec &spec = o.spec;
    const L2ModelKind l2_model = service::effectiveL2Model(spec);
    EventTrace events;

    // --stats wants the live component statistics, which only exist
    // while the MemorySystem does; the inspect hook prints them
    // before the core tears the system down.
    std::ostringstream full_stats;
    auto inspect = [&](MemorySystem &system) {
        if (!o.fullStats)
            return;
        system.l1().icache().stats().print(full_stats);
        system.l1().dcache().stats().print(full_stats);
        if (const PrefetchEngine *engine = system.engine()) {
            engine->stats().print(full_stats);
            const BucketedDistribution &dist =
                engine->lengthDistribution();
            for (std::size_t i = 0; i < dist.size(); ++i) {
                full_stats << "streams.length_" << dist.bucketLabel(i)
                           << "  " << fmt(dist.sharePercent(i), 1)
                           << " %\n";
            }
        }
        system.memory().stats().print(full_stats);
    };

    service::RunExecution exec = service::executeRun(
        spec, o.eventsOut.empty() ? nullptr : &events,
        /*use_trace_cache=*/false, inspect);
    const RunOutput &run_output = exec.output;
    const SystemResults &r = run_output.results;
    const std::uint64_t refs = exec.references;

    TablePrinter table({"metric", "value"});
    table.addRow({"references", fmt(refs)});
    table.addRow({"l1_miss_rate_%", fmt(r.l1MissRatePercent, 3)});
    table.addRow({"l1_misses", fmt(r.l1Misses)});
    if (!spec.noStreams) {
        table.addRow(
            {"stream_hit_rate_%", fmt(r.streamHitRatePercent, 1)});
        table.addRow(
            {"extra_bandwidth_%", fmt(r.extraBandwidthPercent, 1)});
        table.addRow({"stream_hits_pending", fmt(r.streamHitsPending)});
    }
    if (spec.victimEntries > 0)
        table.addRow({"victim_hits", fmt(r.victimHits)});
    if (spec.l2KiloBytes > 0)
        table.addRow(
            {"l2_local_hit_%", fmt(r.l2LocalHitRatePercent, 1)});
    if (l2_model != L2ModelKind::SIMULATED) {
        const L2AnalyticReport &rep = run_output.l2Analytic;
        table.addRow(
            {"l2_pred_miss_%", fmt(rep.predictedMissRatioPct, 2)});
        if (l2_model == L2ModelKind::BOTH)
            table.addRow(
                {"l2_model_err_%", fmt(rep.absErrorPct, 2)});
    }
    table.addRow({"writebacks", fmt(r.writebacks)});
    table.addRow({"avg_access_cycles", fmt(r.avgAccessCycles, 2)});
    printTable(table, o, out);

    if (o.fullStats)
        out << '\n' << full_stats.str();

    if (!o.jsonOut.empty()) {
        std::ofstream js = openExport(o.jsonOut);
        runMetrics(run_output).writeJson(js);
    }
    if (!o.csvOut.empty()) {
        std::ofstream cs = openExport(o.csvOut);
        writeRunCsv(runMetrics(run_output), cs);
    }
    if (!o.eventsOut.empty()) {
        std::ofstream es = openExport(o.eventsOut);
        events.writeJsonl(es);
    }
    return 0;
}

int
captureCommand(const Options &o, std::ostream &out)
{
    std::unique_ptr<TraceSource> input = service::makeSpecInput(o.spec);
    TraceWriter writer(o.outFile);
    std::uint64_t n = writer.appendAll(*input);
    writer.close();
    out << "wrote " << n << " references to " << o.outFile << "\n";
    return 0;
}

int
sweepCommand(const Options &o, std::ostream &out)
{
    // Sized up front so the per-job pointers stay stable.
    std::vector<EventTrace> event_traces(
        o.eventsOut.empty() ? 0 : o.sweepValues.size());

    // The grid comes from the shared execution core: every sweep
    // point reads the same input stream (only the stream count
    // varies), so one source key covers the whole grid and the
    // runner materialises/records it once.
    std::vector<SweepJob> jobs = service::buildSweepJobs(
        o.spec, o.sweepValues,
        event_traces.empty() ? nullptr : &event_traces);

    SweepRunner runner(o.jobs);
    if (o.progress)
        runner.setHeartbeat(true);
    if (o.traceCache)
        runner.setTraceCacheEnabled(*o.traceCache);
    double wall = 0;
    std::vector<SweepResult> results;
    {
        ScopedTimer timer(wall);
        results = runner.run(jobs);
    }

    TablePrinter table({"streams", "hit_rate_%", "EB_%"});
    std::uint64_t total_refs = 0;
    for (const SweepResult &r : results) {
        total_refs += r.references;
        table.addRow({r.label,
                      fmt(r.output.results.streamHitRatePercent, 1),
                      fmt(r.output.results.extraBandwidthPercent, 1)});
    }
    printTable(table, o, out);
    if (o.fullStats) {
        out << "\nsweep: " << results.size() << " runs, "
            << fmt(total_refs) << " refs in " << fmt(wall, 2) << " s ("
            << fmt(wall > 0 ? total_refs / wall : 0.0, 0)
            << " refs/s aggregate, " << runner.jobs() << " workers)\n";
    }

    if (!o.jsonOut.empty()) {
        std::ofstream js = openExport(o.jsonOut);
        writeSweepJson(results, js, runner);
    }
    if (!o.csvOut.empty()) {
        std::ofstream cs = openExport(o.csvOut);
        writeSweepCsv(results, cs);
    }
    if (!o.eventsOut.empty()) {
        // Jobs in submission order, so the file is identical for any
        // worker count.
        std::ofstream es = openExport(o.eventsOut);
        for (const EventTrace &t : event_traces)
            t.writeJsonl(es);
    }
    return 0;
}

int
analyzeCommand(const Options &o, std::ostream &out)
{
    std::unique_ptr<TraceSource> input = service::makeSpecInput(o.spec);
    TraceStats stats(*input, 32, /*track_footprint=*/true);
    MemAccess a;
    while (stats.next(a)) {
    }
    TablePrinter table({"metric", "value"});
    table.addRow({"references", fmt(stats.total())});
    table.addRow({"ifetches", fmt(stats.ifetches())});
    table.addRow({"loads", fmt(stats.loads())});
    table.addRow({"stores", fmt(stats.stores())});
    table.addRow({"sw_prefetches", fmt(stats.prefetches())});
    table.addRow({"data_refs", fmt(stats.dataReferences())});
    table.addRow({"unique_data_blocks", fmt(stats.uniqueDataBlocks())});
    table.addRow({"data_footprint", fmtBytes(stats.footprintBytes())});
    printTable(table, o, out);
    return 0;
}

} // namespace

int
runCommand(const Options &options, std::ostream &out)
{
    switch (options.command) {
      case Command::LIST:
        return listCommand(out);
      case Command::RUN:
        return runCommandImpl(options, out);
      case Command::CAPTURE:
        return captureCommand(options, out);
      case Command::SWEEP:
        return sweepCommand(options, out);
      case Command::ANALYZE:
        return analyzeCommand(options, out);
      case Command::HELP:
        out << usage();
        return 0;
    }
    return 1;
}

} // namespace cli
} // namespace sbsim
