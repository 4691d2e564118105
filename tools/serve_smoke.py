#!/usr/bin/env python3
"""End-to-end smoke test of the sbsim-serve daemon.

Starts a real server on a temporary Unix socket and proves the
service contract end to end:

  1. liveness (ping) and strict request parsing (malformed JSON,
     unknown ops/fields, invalid specs all yield structured errors;
     the CLI rejects each invalid spec as well, and the daemon's own
     flags parse strictly);
  2. a daemon run is byte-identical to the CLI's --json-out document
     for the same spec;
  3. a daemon sweep matches the CLI's sweep document after
     normalising the timing fields (wall_seconds, refs_per_second)
     and the cross-request trace-cache aggregate, and every point of
     a time-sampled sweep (exact and sampled fidelity) exports the
     sections of a daemon run of that point;
  4. N concurrent clients issuing the same sweep all receive
     identical documents, and the shared TraceCache accounts for
     every sweep exactly once, however the sweeps interleave;
  5. SIGTERM drains cleanly: exit code 0, the cache-effectiveness
     report on stderr, and the socket file removed.

Usage: serve_smoke.py --serve <sbsim-serve> --cli <streamsim>
"""

import argparse
import copy
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from sbsim_client import ServiceClient  # noqa: E402

SPEC = {"benchmark": "embar", "refs": 100000, "streams": 4}
VALUES = [1, 2, 4]

# The concurrency phase wants each sweep to run long enough (tens of
# ms) that the clients usually overlap inside the daemon: at 100k
# refs a sweep finishes faster than client threads can start.
CONC_SPEC = {"benchmark": "embar", "refs": 1500000, "streams": 4}


def fail(msg):
    print("serve_smoke: FAIL:", msg, file=sys.stderr)
    sys.exit(1)


def wait_for_socket(path, proc, deadline=30.0):
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        if proc.poll() is not None:
            fail("server exited early with rc=%d" % proc.returncode)
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(path)
            s.close()
            return
        except OSError:
            s.close()
            time.sleep(0.05)
    fail("server socket %s never came up" % path)


def cli_json(cli, args, out_path):
    subprocess.run([cli] + args + ["--json-out", out_path],
                   check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    with open(out_path, "r", encoding="utf-8") as f:
        return f.read()


def normalize_sweep(doc_text):
    """Zero the timing fields and drop the trace-cache aggregate —
    everything else must match exactly."""
    doc = json.loads(doc_text)
    doc = copy.deepcopy(doc)
    for job in doc.get("jobs", []):
        job["wall_seconds"] = 0
        job["refs_per_second"] = 0
    agg = doc.get("aggregate", {})
    agg["wall_seconds"] = 0
    agg["refs_per_second"] = 0
    agg.pop("trace_cache", None)
    return doc


def check_negative(sock_path, cli):
    """Malformed requests must produce structured errors, never
    connection death. A rejected spec carries the streamsim run flags
    that spell it, and the CLI must reject those too: both front ends
    read a spec through one grammar."""
    cases = [
        (b"this is not json\n", None),
        (b"{\"op\": \"run\"}\n", None),  # spec required
        (b"{\"op\": \"warp\"}\n", None),  # unknown op
        (b"{\"op\": \"run\", \"spec\": {\"benchmark\": \"nope\"}}\n",
         ["-b", "nope"]),
        (b"{\"op\": \"run\", \"spec\": {\"benchmark\": \"embar\","
         b" \"refs\": 0}}\n", ["-b", "embar", "--refs", "0"]),
        (b"{\"op\": \"run\", \"spec\": {\"benchmark\": \"embar\","
         b" \"bogus\": 1}}\n", ["-b", "embar", "--bogus", "1"]),
        (b"{\"op\": \"ping\", \"values\": [1]}\n",  # field/op mismatch
         None),
        (b"{\"op\": \"run\", \"spec\": {\"benchmark\": \"embar\","
         b" \"refs\": -5}}\n", ["-b", "embar", "--refs", "-5"]),
        (b"{\"op\": \"run\", \"spec\": {\"benchmark\": \"embar\","
         b" \"fidelity\": \"turbo\"}}\n",  # must be exact|sampled
         ["-b", "embar", "--fidelity", "turbo"]),
    ]
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(30.0)
    s.connect(sock_path)
    buf = b""
    for case, _ in cases:
        s.sendall(case)
        while b"\n" not in buf:
            chunk = s.recv(65536)
            if not chunk:
                fail("connection died on malformed request %r" % case)
            buf += chunk
        line, buf = buf.split(b"\n", 1)
        response = json.loads(line)
        if response.get("ok") is not False or not response.get("error"):
            fail("expected structured error for %r, got %r"
                 % (case, response))
    # The connection must still work after every rejection.
    s.sendall(b"{\"op\": \"ping\", \"id\": \"alive\"}\n")
    while b"\n" not in buf:
        buf += s.recv(65536)
    line, buf = buf.split(b"\n", 1)
    if json.loads(line).get("kind") != "pong":
        fail("connection unusable after rejected requests")
    s.close()
    print("serve_smoke: negative parsing OK "
          "(%d structured rejections)" % len(cases))

    flags = [args for _, args in cases if args]
    for args in flags:
        rc = subprocess.run([cli, "run"] + args,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL,
                            timeout=120).returncode
        if rc == 0:
            fail("the daemon rejects the spec of streamsim run %s, "
                 "but the CLI ran it" % " ".join(args))
    print("serve_smoke: the CLI rejects the same %d specs" % len(flags))


def check_strict_flags(serve, tmp):
    """sbsim-serve's own numbers parse strictly: a negative queue bound
    is a usage error (exit 2) before anything binds, not a wrapped
    huge bound."""
    sock_path = os.path.join(tmp, "strict.sock")
    try:
        rc = subprocess.run([serve, "--socket", sock_path,
                             "--max-queue", "-1"],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL,
                            timeout=30).returncode
    except subprocess.TimeoutExpired:
        fail("sbsim-serve --max-queue -1 started serving")
    if rc != 2:
        fail("sbsim-serve --max-queue -1 exited %d, not 2" % rc)
    if os.path.exists(sock_path):
        fail("sbsim-serve --max-queue -1 bound its socket")
    print("serve_smoke: strict daemon flags OK")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--serve", required=True)
    parser.add_argument("--cli", required=True)
    parser.add_argument("--clients", type=int, default=4)
    args = parser.parse_args()

    # AF_UNIX paths are capped at ~107 bytes; build trees can exceed
    # that, so the socket lives in its own /tmp directory.
    tmp = tempfile.mkdtemp(prefix="sbsim-smoke-", dir="/tmp")
    sock_path = os.path.join(tmp, "serve.sock")

    server = subprocess.Popen(
        [args.serve, "--socket", sock_path, "--executors", "4"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        wait_for_socket(sock_path, server)

        with ServiceClient(sock_path) as client:
            if client.request({"op": "ping"})["kind"] != "pong":
                fail("ping did not pong")
        print("serve_smoke: ping OK")

        check_negative(sock_path, args.cli)
        check_strict_flags(args.serve, tmp)

        # Differential: daemon run == CLI run, byte for byte.
        cli_run = cli_json(
            args.cli,
            ["run", "-b", SPEC["benchmark"],
             "--refs", str(SPEC["refs"]),
             "--streams", str(SPEC["streams"])],
            os.path.join(tmp, "cli_run.json"))
        with ServiceClient(sock_path) as client:
            served = client.request({"op": "run", "spec": SPEC})
        if served["result"] != cli_run:
            fail("daemon run document differs from CLI --json-out")
        print("serve_smoke: run differential OK (%d bytes identical)"
              % len(cli_run))

        # Differential: a sampled-fidelity daemon run equals the CLI's
        # --fidelity sampled document byte for byte (same phase plan,
        # same weighted reconstruction, cached or not).
        sampled_spec = dict(SPEC, fidelity="sampled")
        cli_sampled = cli_json(
            args.cli,
            ["run", "-b", SPEC["benchmark"],
             "--refs", str(SPEC["refs"]),
             "--streams", str(SPEC["streams"]),
             "--fidelity", "sampled"],
            os.path.join(tmp, "cli_sampled.json"))
        with ServiceClient(sock_path) as client:
            served = client.request({"op": "run", "spec": sampled_spec})
        if served["result"] != cli_sampled:
            fail("daemon sampled run differs from CLI --fidelity "
                 "sampled --json-out")
        if json.loads(cli_sampled)["sections"]["sampling"]["mode"] != \
                "sampled":
            fail("sampled run did not report sampling mode 'sampled'")
        print("serve_smoke: sampled-fidelity differential OK "
              "(%d bytes identical)" % len(cli_sampled))

        # Differential: daemon sweep == CLI sweep modulo timing.
        cli_sweep = cli_json(
            args.cli,
            ["sweep", "-b", SPEC["benchmark"],
             "--refs", str(SPEC["refs"]),
             "--values", ",".join(str(v) for v in VALUES)],
            os.path.join(tmp, "cli_sweep.json"))
        with ServiceClient(sock_path) as client:
            served = client.request(
                {"op": "sweep", "spec": SPEC, "values": VALUES})
        if normalize_sweep(served["result"]) != \
                normalize_sweep(cli_sweep):
            fail("daemon sweep document differs from CLI beyond "
                 "timing fields")
        print("serve_smoke: sweep differential OK")

        # Sweep point == run: every point of a time-sampled sweep, at
        # exact and sampled fidelity, exports the sections of a daemon
        # run of that point, TimeSampler counts included.
        for fidelity in ("exact", "sampled"):
            spec = dict(SPEC, sample=True, fidelity=fidelity)
            with ServiceClient(sock_path) as client:
                swept = json.loads(client.request(
                    {"op": "sweep", "spec": spec,
                     "values": VALUES})["result"])
                for job in swept["jobs"]:
                    point = dict(spec, streams=int(job["label"]))
                    ran = json.loads(client.request(
                        {"op": "run", "spec": point})["result"])
                    if job["sections"] != ran["sections"]:
                        fail("%s time-sampled sweep point %s differs "
                             "from its run" % (fidelity, job["label"]))
                    sampling = job["sections"]["sampling"]
                    if sampling["time_sampler_skipped"] <= 0:
                        fail("time-sampled sweep point %s reports no "
                             "skipped references" % job["label"])
        print("serve_smoke: time-sampled sweep points equal runs "
              "(exact and sampled fidelity)")

        # Concurrency: N clients, same (heavier) sweep, identical
        # documents. The barrier releases every client's request at
        # once so the sweeps usually overlap inside the daemon, but a
        # loaded host may still run them one after another, so the
        # check asserts accounting that holds either way. Coalescing
        # itself is pinned deterministically by
        # ServiceServer.ManyClientsCoalesceOnTheSharedTraceCache.
        with ServiceClient(sock_path) as client:
            before = client.request({"op": "stats"})["trace_cache"]
        documents = [None] * args.clients
        errors = []
        barrier = threading.Barrier(args.clients)

        def one_client(i):
            try:
                with ServiceClient(sock_path) as c:
                    barrier.wait(timeout=30)
                    r = c.request({"op": "sweep", "spec": CONC_SPEC,
                                   "values": VALUES})
                    documents[i] = r["result"]
            except Exception as e:  # noqa: BLE001
                errors.append("client %d: %s" % (i, e))

        threads = [threading.Thread(target=one_client, args=(i,))
                   for i in range(args.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            fail("; ".join(errors))
        for i, doc in enumerate(documents):
            if normalize_sweep(doc) != normalize_sweep(documents[0]):
                fail("concurrent client %d got a divergent document"
                     % i)

        # Each sweep is one replay family: it either records the
        # family's miss trace or finds it shared by a concurrent or
        # earlier sweep, and serves each value from it once, by a
        # stream-stack pass or by a replay.
        with ServiceClient(sock_path) as client:
            stats = client.request({"op": "stats"})["trace_cache"]

        def grew(*fields):
            return sum(stats[f] - before[f] for f in fields)

        families = grew("miss_traces_recorded", "miss_trace_hits")
        if families != args.clients:
            fail("%d concurrent sweeps recorded or shared %d miss "
                 "traces, not one each: %r -> %r"
                 % (args.clients, families, before, stats))
        replays = grew("replays")
        stack_jobs = grew("stack_jobs")
        if replays + stack_jobs != args.clients * len(VALUES):
            fail("%d concurrent sweeps of %d values served %d jobs from "
                 "their recordings: %r -> %r"
                 % (args.clients, len(VALUES), replays + stack_jobs,
                    before, stats))
        if stack_jobs <= 0:
            fail("no concurrent sweep job was answered by a stream-stack "
                 "pass: %r -> %r" % (before, stats))
        if stats["expired_purged"] <= 0:
            fail("retired working sets were never purged: %r" % stats)
        print("serve_smoke: %d concurrent clients OK "
              "(miss traces recorded=%d, shared=%d, replays=%d, "
              "stack_jobs=%d, expired_purged=%d)"
              % (args.clients, grew("miss_traces_recorded"),
                 grew("miss_trace_hits"), replays, stack_jobs,
                 stats["expired_purged"]))

        # Graceful drain on SIGTERM.
        server.send_signal(signal.SIGTERM)
        try:
            _, stderr = server.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            fail("server did not drain within 60 s of SIGTERM")
        if server.returncode != 0:
            fail("drain exited rc=%d" % server.returncode)
        text = stderr.decode("utf-8", "replace")
        if "trace cache:" not in text:
            fail("drain did not flush the cache report; stderr:\n"
                 + text)
        if os.path.exists(sock_path):
            fail("socket file survived the drain")
        print("serve_smoke: SIGTERM drain OK")
        print("serve_smoke: PASS")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
