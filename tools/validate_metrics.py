#!/usr/bin/env python3
"""Validate streamsim --json-out files against tools/metrics.schema.json.

Stdlib-only miniature JSON-Schema validator covering exactly the
keyword subset the checked-in schema uses: $ref (into #/definitions),
type, enum, const, properties, required, additionalProperties, items,
minimum and oneOf.  CI runs this against a real sweep's output so a
field rename/removal that forgets to update the schema (or bump
schema_version) fails the build.

A document that matches the schema must also agree with itself: in
every run's sections, each rate must be the ratio of the counts it is
reported beside, the cycle components must sum to the total, and the
analytic L2 report must agree with the counts its profiler saw.

Usage:
    validate_metrics.py [--schema FILE] output.json [more.json ...]
    validate_metrics.py --self-test
"""

import argparse
import json
import os
import sys

TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def resolve_ref(ref, root):
    if not ref.startswith("#/"):
        raise ValueError("unsupported $ref: %s" % ref)
    node = root
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def validate(value, schema, root, path, errors):
    """Append "path: problem" strings to *errors*; no exceptions."""
    if "$ref" in schema:
        validate(value, resolve_ref(schema["$ref"], root), root, path,
                 errors)
        return

    types = schema.get("type")
    if types is not None:
        if isinstance(types, str):
            types = [types]
        if not any(TYPE_CHECKS[t](value) for t in types):
            errors.append("%s: expected %s, got %s"
                          % (path, "/".join(types),
                             type(value).__name__))
            return

    if "const" in schema and value != schema["const"]:
        errors.append("%s: expected %r, got %r"
                      % (path, schema["const"], value))
    if "enum" in schema and value not in schema["enum"]:
        errors.append("%s: %r not one of %r"
                      % (path, value, schema["enum"]))
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) \
            and value < schema["minimum"]:
        errors.append("%s: %r below minimum %r"
                      % (path, value, schema["minimum"]))

    if isinstance(value, dict):
        props = schema.get("properties", {})
        for name in schema.get("required", []):
            if name not in value:
                errors.append("%s: missing required field %r"
                              % (path, name))
        for name, sub in value.items():
            if name in props:
                validate(sub, props[name], root,
                         "%s.%s" % (path, name), errors)
            elif schema.get("additionalProperties") is False:
                errors.append("%s: unexpected field %r (schema update "
                              "needed?)" % (path, name))

    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], root,
                     "%s[%d]" % (path, i), errors)

    for i, branch in enumerate(schema.get("oneOf", [])):
        branch_errors = []
        validate(value, branch, root, path, branch_errors)
        if not branch_errors:
            break
    else:
        if schema.get("oneOf"):
            errors.append("%s: matches no oneOf branch" % path)


# Each rate with the counts it is a ratio of: (rate, numerator counts,
# denominator counts), as "section.field" names; the rate is
# 100 * sum(numerators) / sum(denominators).
RATE_RULES = [
    ("l1.miss_rate_pct", ["l1.misses"],
     ["run.instruction_refs", "run.data_refs"]),
    ("l1.data_miss_rate_pct", ["l1.data_misses"], ["run.data_refs"]),
    ("l1.misses_per_instruction_pct", ["l1.data_misses"],
     ["run.instruction_refs"]),
    ("streams.hit_rate_pct", ["streams.hits"], ["streams.lookups"]),
    ("streams.extra_bandwidth_pct",
     ["streams.useless_flushed", "streams.useless_invalidated"],
     ["streams.lookups"]),
    ("victim.hit_rate_pct", ["victim.hits"], ["l1.data_misses"]),
    ("l2.local_hit_rate_pct", ["l2.hits"], ["l2.hits", "l2.misses"]),
]

# A sampled run reports each count as a rounded weighted sum and each
# rate as a ratio of the unrounded sums, so a rate may miss its
# counts by this many.
RATE_SLACK_COUNTS = 2

CYCLE_COMPONENTS = ["l1_hit", "victim_hit", "stream_hit",
                    "stream_stall", "demand_fetch", "bus_queue",
                    "sw_prefetch_issue"]


def check_counts(sections, path, errors):
    """Append an error for each rate of one run's *sections* that
    disagrees with its counts, and for a cycle breakdown that does not
    sum to its total."""
    def value(name):
        section, field = name.split(".")
        return sections[section][field]

    for rate, numerators, denominators in RATE_RULES:
        counted = sum(value(n) for n in numerators)
        denominator = sum(value(d) for d in denominators)
        implied = value(rate) * denominator / 100.0
        if abs(implied - counted) > RATE_SLACK_COUNTS:
            errors.append("%s.%s: %r%% of %d is %.2f, but %d counted"
                          % (path, rate, value(rate), denominator,
                             implied, counted))
    cycles = sections["cycles"]
    parts = sum(cycles[c] for c in CYCLE_COMPONENTS)
    if parts != cycles["total"]:
        errors.append("%s.cycles: components sum to %d, total is %d"
                      % (path, parts, cycles["total"]))


# Each derived analytic number is one double operation on numbers the
# document prints in round-trip form, so recomputing it here gives the
# same double; the slack only keeps a last-bit difference from failing
# a check meant for real disagreements.
ANALYTIC_SLACK = 1e-9


def check_analytic(sections, path, errors):
    """Append an error for each number of one run's l2_analytic
    section that disagrees with its model or with the counts beside
    it. The profiler is tapped at the L2 port, so it sees exactly the
    misses that get past the L1 and the victim buffer."""
    report = sections["l2_analytic"]
    where = path + ".l2_analytic"
    if report["model"] == "simulated":
        for field, v in report.items():
            if field != "model" and v != 0:
                errors.append("%s.%s: %r under the simulated model"
                              % (where, field, v))
        return
    escaped = sections["l1"]["misses"] - sections["victim"]["hits"]
    if report["profiled_misses"] != escaped:
        errors.append("%s.profiled_misses: %d, but %d misses got past "
                      "the L1 and the victim buffer"
                      % (where, report["profiled_misses"], escaped))
    if report["profiled_misses"] == 0:
        return

    def expect(field, want):
        if abs(report[field] - want) > ANALYTIC_SLACK:
            errors.append("%s.%s: %r, expected %r"
                          % (where, field, report[field], want))

    expect("predicted_hit_rate_pct",
           100 - report["predicted_miss_ratio_pct"])
    if report["model"] == "both":
        expect("simulated_miss_ratio_pct",
               100 - sections["l2"]["local_hit_rate_pct"])
        expect("abs_error_pct",
               abs(report["predicted_miss_ratio_pct"]
                   - report["simulated_miss_ratio_pct"]))


def document_errors(doc, schema):
    """Schema problems of *doc*, or, when it has none, the numbers
    that disagree with their counts."""
    errors = []
    validate(doc, schema, schema, "$", errors)
    if errors:
        return errors
    if doc["kind"] == "run":
        runs = [("$.sections", doc["sections"])]
    else:
        runs = [("$.jobs[%d].sections" % i, job["sections"])
                for i, job in enumerate(doc["jobs"])]
    for path, sections in runs:
        check_counts(sections, path, errors)
        check_analytic(sections, path, errors)
    return errors


def validate_file(json_path, schema):
    with open(json_path) as f:
        return document_errors(json.load(f), schema)


def self_test(schema):
    """Prove the validator still rejects each class of drift."""
    good_run = {
        "schema": "streamsim-metrics", "schema_version": 1,
        "kind": "run", "sections": zero_sections(),
    }
    good_sweep = {
        "schema": "streamsim-metrics", "schema_version": 1,
        "kind": "sweep",
        "jobs": [{"label": "1", "references": 0, "wall_seconds": 0,
                  "refs_per_second": None,
                  "sections": zero_sections()}],
        "aggregate": {"jobs": 1, "references": 0, "wall_seconds": 0,
                      "refs_per_second": None},
    }
    sweep_with_cache = {
        **good_sweep,
        "aggregate": {**good_sweep["aggregate"],
                      "trace_cache": zero_trace_cache()},
    }
    cases = [
        ("valid run accepted", good_run, True),
        ("valid sweep accepted", good_sweep, True),
        ("sweep with trace_cache accepted", sweep_with_cache, True),
        ("truncated trace_cache rejected",
         {**good_sweep,
          "aggregate": {**good_sweep["aggregate"],
                        "trace_cache": {
                            k: v for k, v in zero_trace_cache().items()
                            if k != "replays"
                        }}}, False),
        ("unknown trace_cache field rejected",
         {**good_sweep,
          "aggregate": {**good_sweep["aggregate"],
                        "trace_cache": {**zero_trace_cache(),
                                        "evictions": 0}}}, False),
        ("version bump rejected",
         {**good_run, "schema_version": 2}, False),
        ("missing section rejected",
         {**good_run, "sections": {
             k: v for k, v in zero_sections().items() if k != "cycles"
         }}, False),
        ("renamed field rejected",
         {**good_run, "sections": {
             **zero_sections(),
             "run": {"refs": 0, "instruction_refs": 0, "data_refs": 0},
         }}, False),
        ("negative counter rejected",
         {**good_run, "sections": {
             **zero_sections(),
             "victim": {"hits": -1, "hit_rate_pct": 0},
         }}, False),
        ("string-typed counter rejected",
         {**good_run, "sections": {
             **zero_sections(),
             "victim": {"hits": "3", "hit_rate_pct": 0},
         }}, False),
        ("unknown l2 model string rejected",
         {**good_run, "sections": {
             **zero_sections(),
             "l2_analytic": {**zero_sections()["l2_analytic"],
                             "model": "oracle"},
         }}, False),
        ("unknown fidelity mode rejected",
         {**good_run, "sections": {
             **zero_sections(),
             "sampling": {**zero_sections()["sampling"],
                          "mode": "turbo"},
         }}, False),
        ("run without sections rejected",
         {"schema": "streamsim-metrics", "schema_version": 1,
          "kind": "run"}, False),
        ("sweep without aggregate rejected",
         {k: v for k, v in good_sweep.items() if k != "aggregate"},
         False),
        ("rates that agree with their counts accepted",
         with_sections(good_run, consistent_sections()), True),
        ("rate within the rounding slack accepted",
         with_sections(good_run, consistent_sections(
             "l1.miss_rate_pct", 10.2)), True),
        # One case per rule: a rate 3 or more counts off its counts.
        ("l1 miss rate off its counts rejected",
         with_sections(good_run, consistent_sections(
             "l1.miss_rate_pct", 10.3)), False),
        ("l1 data miss rate off its counts rejected",
         with_sections(good_run, consistent_sections(
             "l1.data_miss_rate_pct", 10.5)), False),
        ("misses per instruction off its counts rejected",
         with_sections(good_run, consistent_sections(
             "l1.misses_per_instruction_pct", 42.0)), False),
        ("stream hit rate off its counts rejected",
         with_sections(good_run, consistent_sections(
             "streams.hit_rate_pct", 60.0)), False),
        ("EB over flushed blocks alone rejected",
         with_sections(good_run, consistent_sections(
             "streams.extra_bandwidth_pct", 20.0)), False),
        ("victim hit rate over all L1 misses rejected",
         with_sections(good_run, consistent_sections(
             "victim.hit_rate_pct", 20.0)), False),
        ("L2 hits over misses rejected",
         with_sections(good_run, consistent_sections(
             "l2.local_hit_rate_pct", 100.0 / 3)), False),
        ("cycle components short of the total rejected",
         with_sections(good_run, consistent_sections(
             "cycles.total", 1501)), False),
        ("sweep job rate off its counts rejected",
         {**good_sweep, "jobs": [{**good_sweep["jobs"][0],
                                  "sections": consistent_sections(
                                      "victim.hit_rate_pct", 20.0)}]},
         False),
        ("analytic report that agrees with its counts accepted",
         with_sections(good_run, analytic_sections("analytic")), True),
        ("both report that agrees with its counts accepted",
         with_sections(good_run, analytic_sections("both")), True),
        # One case per analytic rule.
        ("analytic numbers under the simulated model rejected",
         with_sections(good_run, analytic_sections("simulated")), False),
        ("profiled misses counting victim hits rejected",
         with_sections(good_run, analytic_sections(
             "analytic", "profiled_misses", 100)), False),
        ("predicted hit rate off the miss ratio rejected",
         with_sections(good_run, analytic_sections(
             "analytic", "predicted_hit_rate_pct", 25.0)), False),
        ("simulated miss ratio off the L2's rejected",
         with_sections(good_run, analytic_sections(
             "both", "simulated_miss_ratio_pct", 70.0,
             "abs_error_pct", 0)), False),
        ("abs error off the two ratios rejected",
         with_sections(good_run, analytic_sections(
             "both", "abs_error_pct", 4.0)), False),
        ("sweep job analytic report off its counts rejected",
         {**good_sweep, "jobs": [{**good_sweep["jobs"][0],
                                  "sections": analytic_sections(
                                      "both", "profiled_misses", 100)}]},
         False),
    ]
    failed = 0
    for name, doc, want_ok in cases:
        errors = document_errors(doc, schema)
        ok = not errors
        if ok != want_ok:
            failed += 1
            print("self-test FAILED: %s (errors: %s)" % (name, errors))
    if failed:
        return 1
    print("self-test: %d cases passed" % len(cases))
    return 0


def with_sections(doc, sections):
    return {**doc, "sections": sections}


def consistent_sections(field=None, value=None):
    """Nonzero sections whose rates agree exactly with their counts,
    with "section.field" *field* then set to *value*."""
    s = zero_sections()
    s["run"].update(references=1000, instruction_refs=200,
                    data_refs=800)
    s["l1"].update(misses=100, data_misses=80, miss_rate_pct=10.0,
                   data_miss_rate_pct=10.0,
                   misses_per_instruction_pct=40.0)
    s["streams"].update(lookups=60, hits=30, useless_flushed=12,
                        useless_invalidated=3, hit_rate_pct=50.0,
                        extra_bandwidth_pct=25.0)
    s["victim"].update(hits=20, hit_rate_pct=25.0)
    s["l2"].update(hits=10, misses=30, local_hit_rate_pct=25.0)
    s["cycles"].update(total=1500, l1_hit=900, victim_hit=40,
                       stream_hit=60, stream_stall=100,
                       demand_fetch=400)
    if field is not None:
        section, name = field.split(".")
        s[section][name] = value
    return s


def analytic_sections(model, *overrides):
    """consistent_sections() with an l2_analytic report of *model*
    that agrees with them, then each (field, value) pair of
    *overrides* set in it."""
    s = consistent_sections()
    report = s["l2_analytic"]
    # 80 of the 100 L1 misses got past the 20 victim hits; the L2
    # missed 75% of what it saw.
    report.update(model=model, predicted_miss_ratio_pct=70.0,
                  predicted_hit_rate_pct=30.0, profiled_misses=80,
                  unique_blocks=40)
    if model == "both":
        report.update(simulated_miss_ratio_pct=75.0, abs_error_pct=5.0)
    for field, value in zip(overrides[::2], overrides[1::2]):
        report[field] = value
    return s


def zero_trace_cache():
    return {"ref_trace_hits": 0, "ref_traces_materialized": 0,
            "miss_trace_hits": 0, "miss_traces_recorded": 0,
            "phase_plan_hits": 0, "phase_plans_built": 0,
            "replays": 0, "stack_jobs": 0, "stack_diverged": 0,
            "resident_bytes": 0, "expired_purged": 0,
            "ref_trace_entries": 0, "miss_trace_entries": 0,
            "phase_plan_entries": 0}


def zero_sections():
    return {
        "run": {"references": 0, "instruction_refs": 0, "data_refs": 0},
        "l1": {"misses": 0, "data_misses": 0, "writebacks": 0,
               "miss_rate_pct": 0, "data_miss_rate_pct": 0,
               "misses_per_instruction_pct": 0},
        "streams": {"lookups": 0, "hits": 0, "stream_misses": 0,
                    "allocations": 0, "prefetches_issued": 0,
                    "useless_flushed": 0, "useless_invalidated": 0,
                    "hit_rate_pct": 0, "extra_bandwidth_pct": 0,
                    "hits_ready": 0, "hits_pending": 0},
        "stream_lengths": {"share_pct_1_5": 0, "share_pct_6_10": 0,
                           "share_pct_11_15": 0, "share_pct_16_20": 0,
                           "share_pct_gt_20": 0},
        "victim": {"hits": 0, "hit_rate_pct": 0},
        "l2": {"hits": 0, "misses": 0, "local_hit_rate_pct": 0},
        "l2_analytic": {"model": "simulated",
                        "predicted_miss_ratio_pct": 0,
                        "predicted_hit_rate_pct": 0,
                        "simulated_miss_ratio_pct": 0,
                        "abs_error_pct": 0, "profiled_misses": 0,
                        "unique_blocks": 0},
        "sw_prefetch": {"total": 0, "issued": 0, "redundant": 0},
        "cycles": {"total": 0, "avg_access_cycles": 0, "l1_hit": 0,
                   "victim_hit": 0, "stream_hit": 0, "stream_stall": 0,
                   "demand_fetch": 0, "bus_queue": 0,
                   "sw_prefetch_issue": 0},
        "sampling": {"mode": "exact", "intervals_total": 0,
                     "intervals_selected": 0, "interval_refs": 0,
                     "warmup_refs": 0, "simulated_refs": 0,
                     "estimated_refs": 0, "miss_rate_stderr_pct": 0,
                     "time_sampler_sampled": 0,
                     "time_sampler_skipped": 0},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*", help="JSON files to check")
    parser.add_argument("--schema",
                        default=os.path.join(
                            os.path.dirname(os.path.abspath(__file__)),
                            "metrics.schema.json"))
    parser.add_argument("--self-test", action="store_true",
                        help="run the validator's own test cases first")
    args = parser.parse_args()

    with open(args.schema) as f:
        schema = json.load(f)

    status = 0
    if args.self_test:
        status = self_test(schema)
        if status:
            return status
    if not args.files and not args.self_test:
        parser.error("no input files (or --self-test) given")

    for json_path in args.files:
        errors = validate_file(json_path, schema)
        if errors:
            status = 1
            print("%s: INVALID" % json_path)
            for e in errors:
                print("  " + e)
        else:
            print("%s: ok" % json_path)
    return status


if __name__ == "__main__":
    sys.exit(main())
