"""Closed-loop load client for sbsim-serve.

One process, one thread and one connection per client. Each client
sends its next request only after the previous response line has fully
arrived; latency runs from the send until that line's newline. The
daemon is spawned, probed with `ping`, warmed up, loaded, stopped with a
graceful `shutdown`, and reaped with os.wait4 for its rusage.
"""

import json
import os
import socket
import subprocess
import threading
import time


class DaemonError(RuntimeError):
    pass


def _read_line(sock, buf):
    while b"\n" not in buf:
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        buf += chunk
    line, _, rest = buf.partition(b"\n")
    return line, rest


class Connection:
    def __init__(self, path, timeout):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.buf = b""

    def send_line(self, data):
        self.sock.sendall(data)

    def read_line(self):
        line, self.buf = _read_line(self.sock, self.buf)
        return line

    def request(self, obj):
        self.send_line(json.dumps(obj).encode() + b"\n")
        return json.loads(self.read_line())

    def close(self):
        self.sock.close()


class Daemon:
    """One sbsim-serve process, started in `run_dir` so its socket path
    stays short and inside the checkout."""

    def __init__(self, binary, run_dir, executors, sweep_jobs, timeout):
        self.run_dir = run_dir
        self.timeout = timeout
        name = "d%d-%d.sock" % (os.getpid(), time.monotonic_ns() % 10**9)
        self.sock_path = os.path.join(run_dir, name)
        self.log = open(os.path.join(run_dir, "sbsim-serve.log"), "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, "--socket", name, "--executors", str(executors),
             "--sweep-jobs", str(sweep_jobs), "--trace-cache", "on"],
            cwd=run_dir, stdin=subprocess.DEVNULL,
            stdout=self.log, stderr=self.log)
        self.rusage = None
        self.status = None

    def wait_ready(self, limit=30.0):
        """Retry connect + ping; @return seconds since spawn. The first
        second retries without sleeping, so the time is not rounded up
        to a polling step."""
        deadline = self.started + limit
        spin_until = self.started + 1.0
        while True:
            if self.proc.poll() is not None:
                raise DaemonError("sbsim-serve exited during start-up")
            try:
                conn = Connection(self.sock_path, self.timeout)
                try:
                    reply = conn.request({"id": "ping", "op": "ping"})
                finally:
                    conn.close()
                if reply.get("ok"):
                    return time.perf_counter() - self.started
            except (FileNotFoundError, ConnectionRefusedError):
                pass
            now = time.perf_counter()
            if now > deadline:
                raise DaemonError("sbsim-serve never answered ping")
            if now > spin_until:
                time.sleep(0.001)

    def cpu_seconds(self):
        """User + system CPU so far, from /proc (clock ticks)."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def stats(self):
        conn = Connection(self.sock_path, self.timeout)
        try:
            reply = conn.request({"id": "stats", "op": "stats"})
        finally:
            conn.close()
        if not reply.get("ok"):
            raise DaemonError("stats failed: %s" % reply)
        return reply["trace_cache"]

    def shutdown(self):
        """Graceful drain; reap with wait4. @return True when the
        daemon acknowledged and exited 0."""
        acked = False
        try:
            conn = Connection(self.sock_path, self.timeout)
            try:
                acked = bool(conn.request({"id": "bye",
                                           "op": "shutdown"}).get("ok"))
            finally:
                conn.close()
        except OSError:
            pass
        deadline = time.monotonic() + 30
        while True:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, rusage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.status = self.proc.returncode
        self.rusage = rusage
        self.log.close()
        try:
            os.unlink(self.sock_path)
        except FileNotFoundError:
            pass
        return acked and self.status == 0

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if not self.log.closed:
            self.log.close()


class Outcome:
    """One request as the client saw it."""

    __slots__ = ("client", "sequence", "pool_index", "start_ns", "end_ns",
                 "line", "error", "refs")

    def __init__(self, client, sequence, pool_index, start_ns):
        self.client = client
        self.sequence = sequence
        self.pool_index = pool_index
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.line = None
        self.error = None
        self.refs = 0


def run_clients(sock_path, encoded, schedules, seconds, timeout):
    """Closed loop: each client walks its schedule until `seconds` have
    passed, one request in flight at a time. `encoded[i]` is the
    encode_template() pair of pool index i. Returns the outcomes
    and the window's wall seconds (start to last completion)."""
    outcomes = [[] for _ in schedules]
    start = time.monotonic_ns()
    deadline = start + int(seconds * 1e9)

    def client(c):
        conn = None
        seq = schedules[c]
        k = 0
        while time.monotonic_ns() < deadline:
            index = seq[k % len(seq)]
            prefix, suffix = encoded[index]
            line = prefix + ("%d-%d" % (c, k)).encode() + suffix
            t0 = time.monotonic_ns()
            out = Outcome(c, k, index, t0)
            k += 1
            try:
                if conn is None:
                    conn = Connection(sock_path, timeout)
                conn.send_line(line)
                out.line = conn.read_line()
            except OSError as e:
                out.error = "%s: %s" % (type(e).__name__, e)
                if conn is not None:
                    conn.close()
                conn = None
            out.end_ns = time.monotonic_ns()
            outcomes[c].append(out)
        if conn is not None:
            conn.close()

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(len(schedules))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    flat = [o for per in outcomes for o in per]
    end = max([o.end_ns for o in flat] + [start])
    return flat, (end - start) * 1e-9


def encode_template(request):
    """The request line split around its id, so the client loop only
    concatenates: (prefix, suffix) with line = prefix + id + suffix."""
    body = json.dumps({k: v for k, v in request.items() if k != "id"},
                      sort_keys=True, separators=(",", ":"))
    return b'{"id":"', ('",' + body[1:] + "\n").encode()
