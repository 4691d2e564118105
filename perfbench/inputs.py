"""Seeded inputs of the three benchmark workloads.

Everything the simulator receives is generated here from the workload
seed, with a self-contained SplitMix64 generator so the same seed gives
the same inputs on any Python version. Seed 0 is the default seed: it
keeps the registry's own workload seeds for paper_sweeps (the inputs the
models were calibrated on); any other seed draws fresh WorkloadSpec
seeds, i.e. inputs held back from calibration.
"""

import json

MASK64 = (1 << 64) - 1

# Registry order (src/workloads/benchmark.cc, the paper's Table 1).
BENCHMARKS = ["embar", "mgrid", "cgm", "fftpde", "is", "appsp", "appbt",
              "applu", "spec77", "adm", "bdna", "dyfesm", "mdg", "qcd",
              "trfd"]
# Figure 9's programs and czone sizes.
FIG9_BENCHMARKS = ["appsp", "fftpde", "trfd"]
FIG9_CZONE_BITS = list(range(10, 27, 2))
# Table 4's scaling pairs (ScaleLevel SMALL and LARGE).
TABLE4_BENCHMARKS = ["appsp", "appbt", "applu", "cgm", "mgrid"]

DEFAULT_SEED = 0
FULL_REFS = 1_500_000
SMOKE_REFS = 20_000

# serve_mixed: request kinds per block of ten requests. Most are
# sampled; exact sweeps and full-system runs are the minority.
SERVE_BLOCK = (["sampled_sweep"] * 4 + ["sampled_run"] * 4 +
               ["exact_sweep", "full_run"])
SERVE_KINDS = ["sampled_sweep", "sampled_run", "exact_sweep", "full_run"]
# Programs per block: its ten requests go to three programs, four,
# three and three each, so concurrent clients often share an input.
SERVE_BLOCK_PROGRAMS = 3


class SplitMix64:
    """Deterministic 64-bit generator (Steele, Lea and Flood)."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_sorted(self, population, k):
        pool = list(population)
        self.shuffle(pool)
        return sorted(pool[:k])


def _stream(seed, domain):
    """An independent generator per workload, so adding draws to one
    workload never changes another's inputs."""
    return SplitMix64((seed * 0x2545F4914F6CDD1D + domain) & MASK64)


def paper_jobs(seed, refs=FULL_REFS):
    """Fig. 3 (15 programs x 1-10 streams) and Fig. 9 (appsp, fftpde,
    trfd x czone bits 10-26) in a seeded order."""
    rng = _stream(seed, 1)
    jobs = []
    for name in BENCHMARKS:
        base = {"benchmark": name, "refs": refs}
        if seed != DEFAULT_SEED:
            base["seed"] = rng.next() >> 1
        for streams in range(1, 11):
            jobs.append(dict(base, label="%s:s%d" % (name, streams),
                             streams=streams))
        if name in FIG9_BENCHMARKS:
            for bits in FIG9_CZONE_BITS:
                jobs.append(dict(base, label="%s:cz%d" % (name, bits),
                                 streams=10, czone=bits))
    rng.shuffle(jobs)
    return jobs


def stratified(rng, values, n):
    """n draws that use every value equally often (up to one), in seeded
    order: every seed gets the same multiset, so the cost mix of a
    workload does not change with the seed, only its pairing with the
    programs."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def full_system_specs(rng, inputs_, refs):
    """10 streams, unit filter + czone, victim buffer, hybrid L2 with
    the analytic model beside it, a bus model and shuffled pages, for
    each (program, scale) of inputs_; the seed draws the czone bits,
    victim entries, L2 size and bus cycles."""
    n = len(inputs_)
    czone = stratified(rng, [12, 14, 16, 18, 20, 22, 24], n)
    victim = stratified(rng, [2, 4, 8, 16], n)
    l2 = stratified(rng, [64, 128, 256, 512, 1024], n)
    bus = stratified(rng, [2, 4, 8, 16], n)
    return [{"benchmark": name, "scale": scale, "refs": refs,
             "streams": 10, "filter": True, "czone": czone[i],
             "victim": victim[i], "l2": l2[i], "l2_model": "both",
             "bus": bus[i], "shuffled_pages": True}
            for i, (name, scale) in enumerate(inputs_)]


def distinct_runs(seed, refs=FULL_REFS):
    """One run request per distinct input: the 15 programs at default
    scale plus the Table 4 programs at small and large scale."""
    rng = _stream(seed, 2)
    inputs_ = [(name, "default") for name in BENCHMARKS]
    inputs_ += [(name, scale) for name in TABLE4_BENCHMARKS
                for scale in ("small", "large")]
    runs = [{"op": "run", "spec": spec}
            for spec in full_system_specs(rng, inputs_, refs)]
    rng.shuffle(runs)
    for i, run in enumerate(runs):
        run["id"] = i
    return runs


def serve_pool(seed, refs=FULL_REFS):
    """The distinct requests of serve_mixed: one of each kind per
    program. Returns {kind: [request per program in registry order]}."""
    rng = _stream(seed, 3)
    pool = {kind: [] for kind in SERVE_KINDS}
    full = full_system_specs(rng, [(name, "default") for name in BENCHMARKS],
                             refs)
    for name, full_spec in zip(BENCHMARKS, full):
        values = rng.sample_sorted(range(1, 11), 3)
        pool["sampled_sweep"].append(
            {"op": "sweep", "values": values,
             "spec": {"benchmark": name, "refs": refs,
                      "fidelity": "sampled"}})
        pool["sampled_run"].append(
            {"op": "run",
             "spec": {"benchmark": name, "refs": refs,
                      "streams": 2 + rng.below(9),
                      "filter": rng.below(2) == 1,
                      "fidelity": "sampled"}})
        values = rng.sample_sorted(range(1, 11), 3)
        pool["exact_sweep"].append(
            {"op": "sweep", "values": values,
             "spec": {"benchmark": name, "refs": refs}})
        pool["full_run"].append({"op": "run", "spec": full_spec})
    return pool


def pool_requests(pool):
    """The pool flattened in a fixed order, each with its pool index as
    the request id."""
    flat = []
    for kind in SERVE_KINDS:
        for req in pool[kind]:
            flat.append(dict(req, id=len(flat)))
    return flat


def serve_blocks(seed, count):
    """The blocks every serve_mixed client works through, as lists of
    pool indices. A block has the SERVE_BLOCK kind mix on
    SERVE_BLOCK_PROGRAMS programs, taken in turn from a seeded
    permutation of all 15, so every five blocks cover every program."""
    rng = _stream(seed, 4)
    per_kind = len(BENCHMARKS)
    programs = []
    blocks = []
    for _ in range(count):
        if not programs:
            programs = list(range(per_kind))
            rng.shuffle(programs)
        chosen = [programs.pop() for _ in range(SERVE_BLOCK_PROGRAMS)]
        slots = [chosen[i % len(chosen)] for i in range(len(SERVE_BLOCK))]
        rng.shuffle(slots)
        blocks.append([SERVE_KINDS.index(kind) * per_kind + program
                       for kind, program in zip(SERVE_BLOCK, slots)])
    return blocks


def serve_schedules(seed, clients, length):
    """Per client, a closed-loop sequence of pool indices. Every client
    sends the same blocks in the same order, each block's ten requests
    in its own seeded order. The clients keep about the same pace, so
    two requests in flight at once are often on the same program, and
    the second finds that input's trace in the daemon's shared cache."""
    blocks = serve_blocks(seed, -(-length // len(SERVE_BLOCK)))
    rng = _stream(seed, 5)
    schedules = []
    for _ in range(clients):
        seq = []
        for block in blocks:
            block = list(block)
            rng.shuffle(block)
            seq += block
        schedules.append(seq[:length])
    return schedules


def to_lines(objects):
    """Canonical JSON lines, the bytes the simulator is given."""
    return "".join(json.dumps(o, sort_keys=True, separators=(",", ":")) +
                   "\n" for o in objects)
