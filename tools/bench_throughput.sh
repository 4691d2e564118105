#!/usr/bin/env bash
# Run the end-to-end throughput benchmarks and refresh the "current"
# section of BENCH_throughput.json, preserving the pinned "baseline"
# section and appending the previous "current" to a "history" list
# (tagged with its commit) so the file records the perf trajectory
# across PRs.
#
# Usage:
#   tools/bench_throughput.sh [build-dir] [output.json]
#
# Environment:
#   SMOKE=1   Quick CI mode: a very short soak and the result is
#             written to a throwaway path by default. The numbers are
#             not meaningful; the run only proves the harness works.
#   CHECK=1   Regression gate: instead of rewriting the output file,
#             compare the fresh numbers against its committed
#             "current" section and fail if any benchmark lost more
#             than 25% items/s. Combine with SMOKE=1 for the CI
#             perf-smoke job (best-of-3 to tame timer noise).
set -euo pipefail

build_dir="${1:-build}"
if [ ! -d "$build_dir" ]; then
    echo "error: build dir '$build_dir' does not exist (cmake -B $build_dir -S .)" >&2
    exit 1
fi
if [ "${SMOKE:-0}" = "1" ]; then
    out_json="${2:-bench_smoke.json}"
    min_time=0.01
    repetitions=3
else
    out_json="${2:-BENCH_throughput.json}"
    min_time=1
    repetitions=1
fi
ref_json="${2:-BENCH_throughput.json}"
bench_bin="$build_dir/bench/micro_throughput"

if [ ! -x "$bench_bin" ]; then
    echo "error: $bench_bin not built (cmake --build $build_dir)" >&2
    exit 1
fi

raw_json="$(mktemp)"
trap 'rm -f "$raw_json"' EXIT

# The warm-up window matters most under SMOKE: single-iteration
# repetitions would otherwise measure the first, cold pass of each
# benchmark (page faults + allocator growth on multi-MB traces) and
# the fidelity gate would compare cold sampled runs against warm
# exact ones.
"$bench_bin" \
    --benchmark_filter='BM_MemorySystem|BM_RunBenchmark|BM_FullSystemRun|BM_SweepFamily|BM_SweepFidelity|BM_MaterializeTrace|BM_BuildSamplingPlan|BM_ReplayMissTrace|BM_StreamEngineReplay|BM_StreamStackFamily' \
    --benchmark_min_time="$min_time" \
    --benchmark_min_warmup_time=0.5 \
    --benchmark_repetitions="$repetitions" \
    --benchmark_out="$raw_json" \
    --benchmark_out_format=json

commit="$(git -C "$(dirname "$0")/.." rev-parse --short HEAD 2>/dev/null || echo unknown)"

if [ "${CHECK:-0}" = "1" ]; then
    python3 - "$raw_json" "$ref_json" <<'EOF'
import json
import sys

raw_path, ref_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    raw = json.load(f)
with open(ref_path) as f:
    ref = json.load(f).get("current", {})

# Best-of-repetitions items/s per benchmark: on a noisy CI box the max
# is the least-interference estimate of the machine's actual rate. A
# benchmark is keyed by its run name, which keeps its arguments
# (BM_StreamEngineReplay/10/1) and drops the repetition suffix.
fresh = {}
for b in raw.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    name = b.get("run_name", b["name"])
    ips = b.get("items_per_second")
    if ips is not None:
        fresh[name] = max(fresh.get(name, 0.0), ips)

status = 0

# Sampled fidelity must keep earning its keep: the fig3 sweep pair
# has to show at least a 5x wall-clock advantage for --fidelity=
# sampled over exact, on this machine, right now.
def best_time(name):
    times = [b["real_time"]
             for b in raw.get("benchmarks", [])
             if b.get("run_type") != "aggregate"
             and b.get("run_name", b["name"]) == name]
    return min(times) if times else None

exact_t = best_time("BM_SweepFidelityExact")
sampled_t = best_time("BM_SweepFidelitySampled")
if exact_t is not None and sampled_t is not None and sampled_t > 0:
    speedup = exact_t / sampled_t
    verdict = "ok"
    if speedup < 5.0:
        verdict = "TOO SLOW (need >= 5x)"
        status = 1
    print("check: fidelity_sampled_speedup %26.2fx %s"
          % (speedup, verdict))

for name, pinned in sorted(ref.items()):
    if not isinstance(pinned, dict):  # commit tag, derived ratios
        continue
    want = pinned.get("items_per_second")
    got = fresh.get(name)
    if want is None or got is None:
        print("check: %-24s skipped (not measured here)" % name)
        continue
    ratio = got / want
    verdict = "ok"
    if ratio < 0.75:
        verdict = "REGRESSION (>25%)"
        status = 1
    print("check: %-24s %12.0f vs pinned %12.0f items/s (%.2fx) %s"
          % (name, got, want, ratio, verdict))
if status:
    print("check: throughput regressed; investigate before merging "
          "(or re-pin BENCH_throughput.json with the justification "
          "in the PR).")
sys.exit(status)
EOF
    exit $?
fi

python3 - "$raw_json" "$out_json" "$commit" <<'EOF'
import json
import sys

raw_path, out_path, commit = sys.argv[1], sys.argv[2], sys.argv[3]
with open(raw_path) as f:
    raw = json.load(f)

current = {"commit": commit}
for b in raw.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    name = b.get("run_name", b["name"])
    entry = {
        "items_per_second": b.get("items_per_second"),
        "real_time_ns": b.get("real_time")
        * {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}[b.get("time_unit", "ns")],
    }
    # With repetitions, keep the best (least-interference) run.
    old = current.get(name)
    if old is None or (entry["items_per_second"] or 0) > (
            old["items_per_second"] or 0):
        current[name] = entry

# The sweep-family pair measures the trace-reuse layer end to end:
# naive runs six stream-count points through the full front end,
# cached records the post-L1 stream once (from a cold cache), answers
# two points from one stream-stack pass and replays the four that
# diverge.
naive = current.get("BM_SweepFamilyNaive")
cached = current.get("BM_SweepFamilyCached")
if naive and cached and cached["real_time_ns"]:
    current["sweep_family_speedup"] = (
        naive["real_time_ns"] / cached["real_time_ns"])

# The fidelity pair measures what --fidelity=sampled buys on the
# fig3 sweep: exact simulates every reference of all six points,
# sampled profiles once and replays representative intervals.
exact = current.get("BM_SweepFidelityExact")
sampled = current.get("BM_SweepFidelitySampled")
if exact and sampled and sampled["real_time_ns"]:
    current["fidelity_sampled_speedup"] = (
        exact["real_time_ns"] / sampled["real_time_ns"])

# Keep the pinned baseline; roll the previous current into history.
doc = {"generated_by": "tools/bench_throughput.sh"}
try:
    with open(out_path) as f:
        old = json.load(f)
except (OSError, ValueError):
    old = {}
if "baseline" in old:
    doc["baseline"] = old["baseline"]
history = list(old.get("history", []))
if "current" in old:
    history.append(old["current"])
if history:
    doc["history"] = history
doc["current"] = current

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
EOF

echo "wrote $out_json"
