#!/usr/bin/env python3
"""The repo benchmark: one command, three workloads, every metric.

    python3 perfbench/run.py --workload paper_sweeps|distinct_runs|serve_mixed
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the root of a checkout. It builds the simulator, the
sbsim-serve daemon and the harness from source (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
generates the workload's inputs from --seed, measures for --seconds,
checks the outputs, prints every metric by name with its unit, and ends
with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 is the separate
traced run and reports the per-layer metrics. --smoke runs the workload
once at a tiny size. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
# Leave no bytecode caches in the source tree.
sys.dont_write_bytecode = True

import inputs  # noqa: E402
import serve_load  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ["paper_sweeps", "distinct_runs", "serve_mixed"]

# name -> (unit, better)
END_TO_END = {
    "refs_per_s": ("refs/s", "higher"),
    "cpu_ns_per_ref": ("ns/ref", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "requests_per_s": ("req/s", "higher"),
}

PER_LAYER = {
    "workloads.gen_ns_per_ref": ("ns/ref", "lower"),
    "mem.translate_ns_per_ref": ("ns/ref", "lower"),
    "trace.deliver_ns_per_ref": ("ns/ref", "lower"),
    "trace.materialize_ns_per_ref": ("ns/ref", "lower"),
    "trace.phase_profile_ns_per_ref": ("ns/ref", "lower"),
    "trace.cache_ref_hit_ratio": ("ratio", "higher"),
    "trace.cache_miss_hit_ratio": ("ratio", "higher"),
    "trace.cache_plan_hit_ratio": ("ratio", "higher"),
    "trace.replays_per_recording": ("ratio", "higher"),
    "trace.artifacts_built": ("count/op", "lower"),
    "cache.l1_ns_per_ref": ("ns/ref", "lower"),
    "cache.l1_misses": ("count", "lower"),
    "cache.victim_ns_per_miss": ("ns/miss", "lower"),
    "cache.l2_ns_per_access": ("ns/access", "lower"),
    "stream.engine_ns_per_miss.always": ("ns/miss", "lower"),
    "stream.engine_ns_per_miss.unit_filter": ("ns/miss", "lower"),
    "stream.engine_ns_per_miss.czone": ("ns/miss", "lower"),
    "stream.lookups": ("count", "lower"),
    "sim.record_ns_per_ref": ("ns/ref", "lower"),
    "sim.replay_ns_per_miss": ("ns/miss", "lower"),
    "sim.ladder.deliver_ns_per_ref": ("ns/ref", "lower"),
    "sim.ladder.l1_ns_per_ref": ("ns/ref", "lower"),
    "sim.ladder.victim_ns_per_ref": ("ns/ref", "lower"),
    "sim.ladder.streams_ns_per_ref": ("ns/ref", "lower"),
    "sim.ladder.unit_filter_ns_per_ref": ("ns/ref", "lower"),
    "sim.ladder.czone_ns_per_ref": ("ns/ref", "lower"),
    "sim.ladder.l2_bus_ns_per_ref": ("ns/ref", "lower"),
    "sim.analytic_ns_per_miss": ("ns/miss", "lower"),
    "sim.sampled_ms_per_job": ("ms", "lower"),
    "sim.sampled_warmup_share": ("share", "lower"),
    "sim.sweep_prepare_share": ("share", "lower"),
    "sim.pool_busy_share": ("share", "higher"),
    "service.parse_us": ("us", "lower"),
    "service.serialize_us": ("us", "lower"),
    "service.execute_ms_p50": ("ms", "lower"),
    "service.overhead_ms_p50": ("ms", "lower"),
    "service.overhead_ms_p90": ("ms", "lower"),
    "service.rejected": ("count", "lower"),
    "stream.paper_err_pts": ("pts", "lower"),
    "sim.analytic_err_pts": ("pts", "lower"),
    "sim.sampled_err_pts": ("pts", "lower"),
    "bench.span_coverage_share": ("share", "higher"),
    "bench.tracing_overhead_share": ("share", "lower"),
}

# Accuracy metrics, deterministic per seed. Each describes the answers
# of one workload (paper_sweeps, distinct_runs, serve_mixed in turn);
# every run prints them, and the traced run reports them under their
# layer's name.
ACCURACY = {
    "paper_err_pts": "stream.paper_err_pts",
    "analytic_err_pts": "sim.analytic_err_pts",
    "sampled_err_pts": "sim.sampled_err_pts",
}

# Set-up launches per run besides the measured one, half before the
# timed window and half after it, SETUP_GAP_S apart so that they sample
# the host over seconds rather than one burst.
SETUP_PROBES = 30
SETUP_GAP_S = 0.1
SERVE_CLIENTS = 3
SERVE_SCHEDULE_LEN = 5000
# The harness may take this long beyond --seconds: the warm-up, the
# output checks and, in a traced run, the decomposition.
HARNESS_MARGIN = 150
SOCKET_TIMEOUT = 120.0


class BenchError(RuntimeError):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build(build_dir):
    """Configure once, then build the harness and the daemon (a no-op
    when nothing changed). Output goes to build.log."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join("perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench_harness", "sbsim_serve"])
    with open(log_path, "ab") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=out) != 0:
                with open(log_path, "rb") as f:
                    sys.stderr.write(f.read()[-4000:].decode(errors="replace"))
                raise BenchError("build failed: " + " ".join(cmd))
    return (os.path.join(build_dir, "perfbench-harness"),
            os.path.join(build_dir, "sbsim-serve"))


def host_facts(build_dir):
    facts = {"nproc": os.cpu_count(), "build_type": None, "compiler": None,
             "commit": "unknown"}
    cache = os.path.join(build_dir, "CMakeCache.txt")
    compiler = None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                facts["build_type"] = line.split("=", 1)[1].strip()
            elif line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1].strip()
    if compiler:
        try:
            out = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout
            facts["compiler"] = out.splitlines()[0] if out else compiler
        except OSError:
            facts["compiler"] = compiler
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            facts["commit"] = out.stdout.strip()
    except OSError:
        pass
    # A checkout without git history is identified by its sources.
    digest = hashlib.sha256()
    for top in ("src", "tools", "bench"):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    facts["source_sha256"] = digest.hexdigest()
    return facts


# ---------------------------------------------------------------- harness

def spawn_harness(binary, args, stdin_text):
    proc = subprocess.Popen([binary] + args, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    proc.stdin.write(stdin_text)
    proc.stdin.close()
    proc.stdin = None  # communicate() must not touch it again
    return proc


def finish_harness(proc, deadline):
    """Wait for the harness until time.monotonic() reaches `deadline`;
    @return its stdout lines."""
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("harness timed out")
    if proc.returncode != 0:
        raise BenchError("harness exited with %d" % proc.returncode)
    return out.splitlines()


def launch_harness(binary, args, stdin_text):
    """Start the harness and wait for its ready line. @return the
    process and the seconds from launch until the harness was ready,
    by the harness's own steady clock (CLOCK_MONOTONIC, the clock of
    time.monotonic_ns), so this process's wake-up is not part of it."""
    launched = time.monotonic_ns()
    proc = spawn_harness(binary, args, stdin_text)
    word, _, ready_ns = proc.stdout.readline().partition(" ")
    if word != "ready" or not ready_ns.strip().isdigit():
        proc.kill()
        proc.communicate()
        raise BenchError("harness did not start")
    return proc, (int(ready_ns) - launched) * 1e-9


def time_setup(binary, workload, stdin_text):
    """One set-up probe: launch until the first timed operation could
    start, then exit."""
    proc, elapsed = launch_harness(binary, [workload, "--setup-only"],
                                   stdin_text)
    proc.stdout.read()
    if proc.wait() != 0:
        raise BenchError("harness set-up probe failed")
    return elapsed


def harness_workload(ctx, workload, lines):
    text = inputs.to_lines(lines)

    def probes(n):
        out = []
        for _ in range(n):
            time.sleep(SETUP_GAP_S)
            out.append(time_setup(ctx.harness, workload, text))
        return out

    setups = probes(SETUP_PROBES // 2)
    args = [workload, "--seconds", repr(ctx.seconds), "--workers",
            str(ctx.workers)]
    if ctx.trace:
        args += ["--trace", "--spans-out", ctx.spans_path]
    deadline = time.monotonic() + ctx.seconds + HARNESS_MARGIN
    proc, setup = launch_harness(ctx.harness, args, text)
    setups.append(setup)
    report = json.loads(finish_harness(proc, deadline)[-1])
    setups += probes(SETUP_PROBES - SETUP_PROBES // 2)
    result = Result()
    result.attempted = report["attempted"]
    result.failed = report["failed"]
    result.errors = report["errors"]
    result.accuracy = report["accuracy"]
    result.layers = report["layers"]
    result.digest = report["digest"]
    reps = [r for r in report["reps"] if r["refs"] > 0]
    result.e2e = e2e_metrics(
        [(r["refs"], r["ops"], r["wall_s"]) for r in reps],
        [r["cpu_s"] * 1e9 / r["refs"] for r in reps],
        [r["rss_kb"] for r in reps], setups, report["latencies_ms"], result)
    return result


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.accuracy = {}
        self.layers = {}
        self.digest = ""
        self.e2e = {}
        self.notes = []

    def fail(self, n, what):
        self.failed += n
        if len(self.errors) < 20:
            self.errors.append(what)


def e2e_metrics(samples, cpu_ns_per_ref, rss_kb, setups, latencies,
                result):
    """`samples` are (refs, requests, wall seconds) of the window's
    repetitions; throughput and CPU are medians over them, so a
    transient stall of the host moves one sample, not the result."""
    samples = [s for s in samples if s[0] > 0 and s[2] > 0]
    if not samples:
        raise BenchError("the timed window did no work")
    tail, pct, n = stats.tail_percentile(latencies)
    result.notes.append("latency_p90_ms is the p%.1f of %d samples "
                        "(highest percentile with >= 10 samples beyond); "
                        "throughput is the median of %d repetitions"
                        % (pct, n, len(samples)))
    return {
        "refs_per_s": stats.median([r / w for r, _, w in samples]),
        "cpu_ns_per_ref": stats.median(cpu_ns_per_ref),
        "peak_rss_mb": stats.median(rss_kb) / 1024.0,
        "setup_s": stats.median(setups),
        "latency_p50_ms": stats.median(latencies),
        "latency_p90_ms": tail,
        "requests_per_s": stats.median([q / w for _, q, w in samples]),
    }


# ------------------------------------------------------------ serve_mixed

_SWEEP_TIMING = re.compile(r'"(wall_seconds|refs_per_second)":[^,}]+')
_SWEEP_CACHE = re.compile(r',"trace_cache":\{[^}]*\}')


def normalize_document(doc):
    """A sweep document's timing fields and cache counters depend on
    the run; everything else must be byte-identical."""
    return _SWEEP_CACHE.sub("", _SWEEP_TIMING.sub(r'"\1":0', doc))


def serve_mixed(ctx):
    result = Result()
    pool = inputs.serve_pool(ctx.seed, ctx.refs)
    flat = inputs.pool_requests(pool)
    args = ["serve_ref", "--workers", str(ctx.workers)]
    if ctx.trace:
        args += ["--trace", "--spans-out", ctx.spans_path + ".harness"]
    deadline = time.monotonic() + HARNESS_MARGIN
    lines = finish_harness(spawn_harness(ctx.harness, args,
                                         inputs.to_lines(flat)), deadline)
    report = json.loads(lines[-1])
    refs = {}
    for line in lines[:-1]:
        obj = json.loads(line)
        refs[obj["id"]] = obj
    if sorted(refs) != list(range(len(flat))):
        raise BenchError("reference pass lost requests")
    expected = [normalize_document(refs[i]["document"])
                for i in range(len(flat))]
    result.attempted += report["attempted"]
    result.failed += report["failed"]
    result.errors += report["errors"]
    result.accuracy = report["accuracy"]
    result.layers = report["layers"]
    result.digest = hashlib.sha256(
        "".join(inputs.to_lines([r]) + d + "\n"
                for r, d in zip(flat, expected)).encode()).hexdigest()[:16]

    executors = max(1, ctx.workers // 2)
    sweep_jobs = max(1, ctx.workers // executors)

    def new_daemon():
        return serve_load.Daemon(ctx.serve, ctx.run_dir, executors,
                                 sweep_jobs, SOCKET_TIMEOUT)

    def probes(n):
        out = []
        for _ in range(n):
            time.sleep(SETUP_GAP_S)
            d = new_daemon()
            try:
                out.append(d.wait_ready())
            finally:
                result.attempted += 1
                if not d.shutdown():
                    result.fail(1, "set-up probe daemon did not drain "
                                "cleanly")
        return out

    setups = probes(SETUP_PROBES // 2)

    block = len(inputs.SERVE_BLOCK)
    encoded = [serve_load.encode_template(r) for r in flat]
    schedules = inputs.serve_schedules(ctx.seed, SERVE_CLIENTS,
                                       SERVE_SCHEDULE_LEN)

    def check(outcomes):
        """Count the failures among `outcomes`, and summarize them."""
        win = types.SimpleNamespace(outcomes=outcomes, refs=0, oks=[],
                                    latencies=[], samples=[])
        blocks = {}
        for o in outcomes:
            result.attempted += 1
            error = o.error
            if not error:
                resp = json.loads(o.line)
                if not resp.get("ok"):
                    error = resp.get("error")
                elif (normalize_document(resp["result"]) !=
                      expected[o.pool_index] or
                      resp["references"] != refs[o.pool_index]["references"]):
                    error = "response differs from the in-process document"
            if error:
                result.fail(1, "request %d: %s" % (o.pool_index, error))
                win.latencies.append(None)
                continue
            o.refs = resp["references"]
            latency = (o.end_ns - o.start_ns) * 1e-6
            win.refs += o.refs
            win.latencies.append(latency)
            win.oks.append((o, latency))
            blocks.setdefault((o.client, o.sequence // block), []).append(o)
        # Each client's schedule is made of blocks with one fixed mix of
        # request kinds; a complete block gives one sample of that
        # client's closed-loop throughput.
        for members in blocks.values():
            if len(members) == block:
                wall = (members[-1].end_ns - members[0].start_ns) * 1e-9
                win.samples.append((SERVE_CLIENTS * sum(o.refs for o in members),
                                    SERVE_CLIENTS * block, wall))
        if not win.samples and win.oks:
            # A window too short for one complete block.
            wall = (max(o.end_ns for o, _ in win.oks) -
                    min(o.start_ns for o, _ in win.oks)) * 1e-9
            win.samples.append((win.refs, len(win.oks), wall))
        return win

    daemon = new_daemon()
    try:
        setups.append(daemon.wait_ready())
        # Untimed warm-up: one request of each kind.
        conn = serve_load.Connection(daemon.sock_path, SOCKET_TIMEOUT)
        warm = []
        try:
            for k in range(len(inputs.SERVE_KINDS)):
                index = k * len(inputs.BENCHMARKS)
                out = serve_load.Outcome(0, k, index, time.monotonic_ns())
                prefix, suffix = encoded[index]
                conn.send_line(prefix + ("warm-%d" % k).encode() + suffix)
                out.line = conn.read_line()
                out.end_ns = time.monotonic_ns()
                warm.append(out)
        finally:
            conn.close()
        check(warm)

        stats0 = daemon.stats()
        cpu0 = daemon.cpu_seconds()
        outcomes, wall = serve_load.run_clients(
            daemon.sock_path, encoded, schedules, ctx.seconds,
            SOCKET_TIMEOUT)
        win = check(outcomes)
        win.wall = wall
        win.stats0, win.stats1 = stats0, daemon.stats()
    finally:
        result.attempted += 1
        if not daemon.shutdown():
            result.fail(1, "daemon did not drain and exit 0 (status %s)"
                        % daemon.status)
        daemon.kill()
    setups += probes(SETUP_PROBES - SETUP_PROBES // 2)

    ru = daemon.rusage
    cpu_window = ru.ru_utime + ru.ru_stime - cpu0
    # A failed request misses any latency limit: it stands in at the
    # whole window's length.
    lat = [x if x is not None else win.wall * 1e3 for x in win.latencies]
    result.e2e = e2e_metrics(win.samples, [cpu_window * 1e9 / win.refs],
                             [ru.ru_maxrss], setups, lat, result)
    if ctx.trace:
        serve_layers(ctx, result, refs, win)
    return result


def serve_layers(ctx, result, refs, win):
    """The daemon-side per-layer metrics of the window, and its client
    spans merged with the harness's."""
    def delta(key):
        return win.stats1[key] - win.stats0[key]

    def share(hit, built):
        total = delta(hit) + delta(built)
        return delta(hit) / total if total else 0.0

    L = result.layers
    L["trace.cache_ref_hit_ratio"] = share("ref_trace_hits",
                                           "ref_traces_materialized")
    L["trace.cache_miss_hit_ratio"] = share("miss_trace_hits",
                                            "miss_traces_recorded")
    L["trace.cache_plan_hit_ratio"] = share("phase_plan_hits",
                                            "phase_plans_built")
    recorded = delta("miss_traces_recorded")
    L["trace.replays_per_recording"] = (delta("replays") / recorded
                                        if recorded else 0.0)
    L["trace.artifacts_built"] = (
        delta("ref_traces_materialized") + recorded +
        delta("phase_plans_built")) / max(1, len(win.outcomes))
    overhead = [latency - refs[o.pool_index]["execute_ms"]
                for o, latency in win.oks]
    L["service.overhead_ms_p50"] = stats.median(overhead)
    L["service.overhead_ms_p90"] = stats.tail_percentile(overhead)[0]
    L["service.rejected"] = float(win.latencies.count(None))
    served_ms = sum(refs[o.pool_index]["execute_ms"] for o, _ in win.oks)
    client_ms = sum(latency for _, latency in win.oks)
    L["bench.span_coverage_share"] = (served_ms / client_ms
                                      if client_ms else 0.0)

    harness_spans = ctx.spans_path + ".harness"
    with open(ctx.spans_path, "w") as out:
        next_id = 1
        for o in win.outcomes:
            out.write(json.dumps({
                "name": "client.request", "id": next_id, "parent": 0,
                "group": o.pool_index, "start_ns": o.start_ns,
                "end_ns": o.end_ns, "items": o.refs}) + "\n")
            next_id += 1
        with open(harness_spans) as f:
            for line in f:
                s = json.loads(line)
                s["id"] += next_id
                if s["parent"]:
                    s["parent"] += next_id
                out.write(json.dumps(s) + "\n")
    os.unlink(harness_spans)


# ------------------------------------------------------------------- main

class Context:
    pass


def check_digest(ctx, result):
    """Seed 0's exact documents are pinned in perfbench/digests.json."""
    if ctx.seed != inputs.DEFAULT_SEED:
        return
    key = "%s:%s" % (ctx.workload, "smoke" if ctx.smoke else "full")
    with open(os.path.join(HERE, "digests.json")) as f:
        pinned = json.load(f).get(key)
    result.attempted += 1
    if pinned is None:
        result.fail(1, "no digest pinned for %s (measured %s)"
                    % (key, result.digest))
    elif pinned != result.digest:
        result.fail(1, "digest %s != pinned %s for %s"
                    % (result.digest, pinned, key))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one repetition at a tiny size")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    for path in ("src/CMakeLists.txt", "tools/sbsim_serve_main.cc",
                 "bench/bench_common.cc"):
        if not os.path.isfile(path):
            log("no simulator sources here (%s missing); run from the "
                "root of a checkout" % path)
            return 2

    ctx = Context()
    ctx.workload = args.workload
    ctx.seed = args.seed
    ctx.trace = bool(args.trace)
    ctx.smoke = args.smoke
    ctx.seconds = min(args.seconds, 0.2) if args.smoke else args.seconds
    ctx.refs = inputs.SMOKE_REFS if args.smoke else inputs.FULL_REFS
    ctx.workers = max(1, min(4, os.cpu_count() or 1))
    # Absolute, because the daemon runs in a directory of its own.
    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    # Compiler and child temporaries stay inside the build tree too.
    tmp_dir = os.path.abspath(os.path.join(build_dir, "tmp"))
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    try:
        ctx.harness, ctx.serve = build(build_dir)
    except BenchError as e:
        log(str(e))
        return 1
    results_dir = os.path.join(build_dir, "results")
    ctx.run_dir = os.path.join(build_dir, "run")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(ctx.run_dir, exist_ok=True)
    stem = os.path.join(results_dir, "%s-seed%d-trace%d%s" % (
        ctx.workload, ctx.seed, int(ctx.trace), "-smoke" if ctx.smoke else ""))
    ctx.spans_path = stem + "-spans.jsonl"

    try:
        if ctx.workload == "paper_sweeps":
            result = harness_workload(
                ctx, "paper_sweeps", inputs.paper_jobs(ctx.seed, ctx.refs))
        elif ctx.workload == "distinct_runs":
            result = harness_workload(
                ctx, "distinct_runs", inputs.distinct_runs(ctx.seed, ctx.refs))
        else:
            result = serve_mixed(ctx)
        check_digest(ctx, result)
    except (BenchError, serve_load.DaemonError, OSError, ValueError,
            KeyError) as e:
        log("failed: %s" % e)
        return 1

    error_rate = result.failed / result.attempted if result.attempted else 1
    if ctx.trace:
        layers = dict(result.layers)
        for name, layer_name in ACCURACY.items():
            layers[layer_name] = result.accuracy.get(name, 0.0)
        # A layer the workload never calls reports 0.
        metrics = {k: {"value": layers.get(k, 0.0), "unit": PER_LAYER[k][0]}
                   for k in PER_LAYER}
    else:
        metrics = {k: {"value": result.e2e[k], "unit": END_TO_END[k][0]}
                   for k in END_TO_END}

    facts = host_facts(build_dir)
    print("perfbench %s seed=%d seconds=%g trace=%d  nproc=%s %s %s "
          "commit=%s" % (ctx.workload, ctx.seed, ctx.seconds, int(ctx.trace),
                         facts["nproc"], facts["compiler"],
                         facts["build_type"], facts["commit"]))
    for name, m in metrics.items():
        print("  %-40s %16.6g %s" % (name, m["value"], m["unit"]))
    for name, value in sorted(result.accuracy.items()):
        print("  %-40s %16.6g pts" % (name, value))
    print("  %-40s %16.6g fraction (%d failed of %d attempted)"
          % ("error_rate", error_rate, result.failed, result.attempted))
    for note in result.notes:
        print("  note: " + note)
    for err in result.errors:
        print("  error: " + err)

    correct = result.failed == 0 and result.attempted > 0
    final = {"correct": correct, "attempted": result.attempted,
             "failed": result.failed, "metrics": metrics}
    with open(stem + ".json", "w") as f:
        json.dump({"result": final, "host": facts,
                   "accuracy": result.accuracy, "error_rate": error_rate,
                   "digest": result.digest, "errors": result.errors,
                   "notes": result.notes}, f, indent=1, sort_keys=True)
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
