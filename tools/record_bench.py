#!/usr/bin/env python3
"""Records the bench trajectory baselines (BENCH_protocol.json,
BENCH_readpath.json, BENCH_scale.json).

Runs the benches of each baseline profile from a build directory with
--json, validates each output against the besync.run_results.v1 schema,
and writes the combined, schema-stamped baseline at the repo root. The
bench JSON deliberately excludes timings (exp/runner.h; bench_scale's
"perf" member is strictly opt-in and never recorded), so each baseline
is a deterministic function of the bench configs — reruns on an unchanged
tree produce identical bytes, and any diff in a PR is a real behavioral
change in the recorded grids.

Usage:
  tools/record_bench.py [--build-dir build]          # record all baselines
  tools/record_bench.py --out BENCH_scale.json       # record one baseline
  tools/record_bench.py --check   # validate the committed baselines only
  tools/record_bench.py --verify [--build-dir build]  # re-run, compare bytes
  tools/record_bench.py --scaling-check scale.json   # validate a --perf run

--check additionally enforces the bench_scale determinism layout: every
point name appears at least twice (once per recorded run_threads value)
and all rows of one name are exactly identical — the committed baseline IS
the thread-invariance proof.

--verify records every baseline in memory from the build directory and
compares its bytes with the committed file without writing anything. It
prints the first differing bench and row and exits nonzero on any
difference: the committed baselines are the engine's reference output for
the invalidation, relay, read and fault configs, so a behavior change
anywhere in the engine shows up here. For each differing baseline it also
prints how many float fields changed and their largest relative
difference, and whether any integer, string or structural field changed —
so a numerics-only change (float bits moved, no behavior changed) can be
told apart from a behavior change. This is a report, not a tolerance:
any byte difference still fails.

--scaling-check validates an (uncommitted) `bench_scale --perf` output:
the perf member must carry a phase_breakdown and per-(point, run_threads)
scaling rows whose phase sums stay within their wall time, and the widest
point must show either a real parallel speedup (>= --min-speedup when the
host has >= 4 CPUs) or near-zero parallel overhead (< --max-overhead on
smaller hosts, e.g. a 1-core CI container).
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_RESULTS_SCHEMA = "besync.run_results.v1"
BASELINE_SCHEMA = "besync.bench_baseline.v1"

# One entry per committed baseline file: {bench binary: extra args}.
# Default scales keep each recording under a minute on one core —
# BENCH_scale.json records the bench_scale default (small) grid, not the
# --full 1M-object trajectory.
PROFILES = {
    "BENCH_protocol.json": {
        "bench_protocol": [],
    },
    "BENCH_readpath.json": {
        "bench_readpath": [],
        "bench_multicache": [],
    },
    "BENCH_scale.json": {
        "bench_scale": [],
    },
    "BENCH_fault.json": {
        "bench_fault": [],
    },
}

# Fields every run_results row must carry (exp/runner.h).
REQUIRED_RESULT_KEYS = {
    "name", "scheduler", "policy", "metric", "num_caches",
    "cache_bandwidth_avg", "source_bandwidth_avg", "loss_rate",
    "workload_seed", "ok", "error", "total_weighted_divergence",
    "per_cache_weighted", "per_object_weighted", "per_object_unweighted",
    "total_replicas", "refreshes_sent", "refreshes_delivered",
    "feedback_sent", "polls_sent", "cache_utilization",
}
# Fields read-enabled rows additionally carry.
READ_RESULT_KEYS = {
    "read_rate", "capacity", "eviction", "reads_total", "read_hits",
    "read_misses", "hit_rate", "pull_requests_sent", "pulls_delivered",
    "cache_evictions", "read_staleness_mean", "read_staleness_p50",
    "read_staleness_p95", "read_staleness_p99", "read_miss_latency_mean",
    "pull_bandwidth_share",
}
# Fields non-push-refresh consistency-protocol rows additionally carry.
PROTOCOL_RESULT_KEYS = {
    "protocol", "ttl", "invalidate_batch", "invalidations_sent",
    "invalidations_received",
}
# Fields fault-injected rows additionally carry.
FAULT_RESULT_KEYS = {
    "recovery_policy", "relay_store_policy", "cache_crashes",
    "cache_restarts", "relay_failures", "link_down_events",
    "slowdown_events", "crash_dropped_pulls", "resync_deliveries",
    "resync_pending", "time_to_resync_mean", "time_to_resync_p95",
}


def fail(message):
    print(f"record_bench: {message}", file=sys.stderr)
    sys.exit(1)


def validate_run_results(doc, context):
    if doc.get("schema") != RUN_RESULTS_SCHEMA:
        fail(f"{context}: schema is {doc.get('schema')!r}, "
             f"expected {RUN_RESULTS_SCHEMA!r}")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        fail(f"{context}: empty or missing results array")
    for i, row in enumerate(results):
        missing = REQUIRED_RESULT_KEYS - row.keys()
        if missing:
            fail(f"{context}: result {i} missing keys {sorted(missing)}")
        if not row["ok"]:
            fail(f"{context}: result {i} ({row['name']!r}) failed: "
                 f"{row['error']!r}")
        extra_read = row.keys() & READ_RESULT_KEYS
        if extra_read and extra_read != READ_RESULT_KEYS:
            fail(f"{context}: result {i} carries a partial read-field set "
                 f"{sorted(extra_read)}")
        extra_protocol = row.keys() & PROTOCOL_RESULT_KEYS
        if extra_protocol and extra_protocol != PROTOCOL_RESULT_KEYS:
            fail(f"{context}: result {i} carries a partial protocol-field "
                 f"set {sorted(extra_protocol)}")
        extra_fault = row.keys() & FAULT_RESULT_KEYS
        if extra_fault and extra_fault != FAULT_RESULT_KEYS:
            fail(f"{context}: result {i} carries a partial fault-field set "
                 f"{sorted(extra_fault)}")


def parse_point_name(name):
    """'proto=invalidation,rate=4,bw=12,tiers=0' -> dict of the axes."""
    point = {}
    for part in name.split(","):
        key, _, value = part.partition("=")
        point[key] = value
    return point


def check_protocol_crossover(results, context):
    """The acceptance bar for BENCH_protocol.json: on at least one recorded
    metric (total divergence or read-staleness p95) invalidation must beat
    push refresh in some regime AND lose to it in some other regime — a real
    crossover, not uniform dominance."""
    regimes = {}
    for row in results:
        point = parse_point_name(row["name"])
        regime = (point.get("rate"), point.get("bw"), point.get("tiers"))
        regimes.setdefault(regime, {})[
            point.get("proto", "push-refresh")] = row
    for metric in ("total_weighted_divergence", "read_staleness_p95"):
        inval_wins = push_wins = False
        for competitors in regimes.values():
            push = competitors.get("push-refresh")
            inval = competitors.get("invalidation")
            if push is None or inval is None:
                continue
            if inval[metric] < push[metric]:
                inval_wins = True
            if push[metric] < inval[metric]:
                push_wins = True
        if inval_wins and push_wins:
            return
    fail(f"{context}: no protocol crossover — neither total divergence nor "
         f"read-staleness p95 has regimes won by both push refresh and "
         f"invalidation")


def check_fault_recovery(results, context):
    """The acceptance bar for BENCH_fault.json: in at least one crashed
    regime the recovery-priority policy must finish resyncing faster than
    naive re-enqueueing (an unfinished resync counts as infinitely slow)
    WITHOUT giving up warm-cache freshness — the summed divergence of the
    never-crashed caches stays within a hair of naive's."""

    def warm_divergence(row):
        return sum(row["per_cache_weighted"][1:])

    def resync_key(row):
        if row["resync_pending"] > 0:
            return float("inf")
        return row["time_to_resync_p95"]

    regimes = {}
    for row in results:
        point = parse_point_name(row["name"])
        if int(point.get("crashes", "0")) == 0:
            continue
        regime = (point["crashes"], point.get("proto"), point.get("tiers"))
        regimes.setdefault(regime, {})[point.get("policy")] = row
    for competitors in regimes.values():
        naive = competitors.get("naive")
        priority = competitors.get("priority")
        if naive is None or priority is None:
            continue
        if (resync_key(priority) < resync_key(naive)
                and warm_divergence(priority)
                <= warm_divergence(naive) * 1.001):
            return
    fail(f"{context}: no regime where recovery-priority beats naive on "
         f"time-to-resync p95 while holding warm-cache divergence")


def check_scale_determinism(results, context):
    """BENCH_scale.json rows keep thread-count-free names, one row per
    recorded run_threads value: each name must appear at least twice and
    every row of one name must be exactly identical — the recorded
    parallel-vs-serial byte equality is the determinism proof."""
    groups = {}
    for row in results:
        groups.setdefault(row["name"], []).append(row)
    if len(groups) < 2:
        fail(f"{context}: bench_scale recorded fewer than 2 distinct points")
    for name, rows in groups.items():
        if len(rows) < 2:
            fail(f"{context}: scale point {name!r} recorded only once — the "
                 f"baseline must keep a run_threads pair per point "
                 f"(bench_scale's default run_threads_list is 1,2)")
        for i, row in enumerate(rows[1:], 1):
            if row != rows[0]:
                diff = sorted(k for k in rows[0]
                              if rows[0][k] != row.get(k))
                fail(f"{context}: scale point {name!r} row {i} differs from "
                     f"row 0 in {diff} — run_threads leaked into results")


PHASE_NAMES = ("begin_tick", "send", "relay", "deliver_apply", "read_path",
               "feedback")


def check_scaling(path, min_speedup, max_overhead):
    """Validates a `bench_scale --perf --json=FILE` capture: phase
    accounting must be consistent (phase sums never exceed wall time) and
    the widest recorded point must demonstrate parallel scaling — a real
    speedup on >= 4-CPU hosts, or bounded overhead on narrower ones."""
    context = os.path.basename(path)
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"{context}: cannot load: {error}")
    validate_run_results(doc, context)
    perf = doc.get("perf")
    if not isinstance(perf, dict):
        fail(f"{context}: no perf member — run bench_scale with --perf")
    breakdown = perf.get("phase_breakdown")
    if not isinstance(breakdown, dict):
        fail(f"{context}: perf carries no phase_breakdown")
    missing = set(PHASE_NAMES) - breakdown.keys()
    if missing:
        fail(f"{context}: phase_breakdown missing phases {sorted(missing)}")
    epsilon = 1e-6
    run_seconds = perf.get("run_seconds", 0.0)
    total_phase = sum(breakdown[p] for p in PHASE_NAMES)
    if any(breakdown[p] < 0.0 for p in PHASE_NAMES):
        fail(f"{context}: negative phase time in {breakdown}")
    if total_phase > run_seconds + epsilon:
        fail(f"{context}: phase_breakdown sums to {total_phase:.6f}s, more "
             f"than the perf run_seconds {run_seconds:.6f}s — phases must "
             f"nest inside the measured wall time")
    scaling = perf.get("scaling")
    if not isinstance(scaling, list) or not scaling:
        fail(f"{context}: perf carries no scaling rows")
    by_point = {}
    for row in scaling:
        for key in ("point", "run_threads", "wall_seconds", "us_per_refresh",
                    "phase_breakdown"):
            if key not in row:
                fail(f"{context}: scaling row missing {key!r}: {row}")
        row_phase = sum(row["phase_breakdown"].get(p, 0.0)
                        for p in PHASE_NAMES)
        if row_phase > row["wall_seconds"] + epsilon:
            fail(f"{context}: scaling row {row['point']!r} rt="
                 f"{row['run_threads']} phase sum {row_phase:.6f}s exceeds "
                 f"its wall_seconds {row['wall_seconds']:.6f}s")
        by_point.setdefault(row["point"], {})[row["run_threads"]] = row
    candidates = {point: rows for point, rows in by_point.items()
                  if 1 in rows and any(rt > 1 for rt in rows)}
    if not candidates:
        fail(f"{context}: scaling rows never pair run_threads=1 with a "
             f"run_threads>1 run — use --run_threads_list=1,N")

    def point_caches(point):
        for part in point.split(","):
            if part.endswith("caches"):
                return int(part[:-len("caches")])
        return 0

    widest = max(candidates, key=point_caches)
    rows = candidates[widest]
    base_us = rows[1]["us_per_refresh"]
    best_rt = max(rt for rt in rows if rt > 1)
    par_us = rows[best_rt]["us_per_refresh"]
    if base_us <= 0.0 or par_us <= 0.0:
        fail(f"{context}: zero us_per_refresh on point {widest!r}")
    speedup = base_us / par_us
    cpus = os.cpu_count() or 1
    if cpus >= 4:
        if speedup < min_speedup:
            fail(f"{context}: point {widest!r} run_threads={best_rt} speedup "
                 f"{speedup:.3f}x < required {min_speedup:.3f}x on a "
                 f"{cpus}-CPU host")
        verdict = f"speedup {speedup:.3f}x (>= {min_speedup:.3f}x)"
    else:
        overhead = par_us / base_us - 1.0
        if overhead > max_overhead:
            fail(f"{context}: point {widest!r} run_threads={best_rt} adds "
                 f"{overhead:.1%} overhead on a {cpus}-CPU host (limit "
                 f"{max_overhead:.1%}) — the parallel engine must stay "
                 f"near-free when cores are scarce")
        verdict = f"overhead {max(overhead, 0.0):.1%} (< {max_overhead:.1%})"
    print(f"record_bench: {context} scaling OK — point {widest!r} "
          f"run_threads={best_rt} vs 1: {verdict}; phase sum "
          f"{total_phase:.3f}s <= run {run_seconds:.3f}s")


def validate_baseline(doc, context, profile):
    if doc.get("schema") != BASELINE_SCHEMA:
        fail(f"{context}: schema is {doc.get('schema')!r}, "
             f"expected {BASELINE_SCHEMA!r}")
    benches = doc.get("benches")
    if not isinstance(benches, dict) or not benches:
        fail(f"{context}: empty or missing benches object")
    missing = PROFILES[profile].keys() - benches.keys()
    if missing:
        fail(f"{context}: missing bench entries {sorted(missing)}")
    for name, results_doc in benches.items():
        validate_run_results(results_doc, f"{context}: bench {name!r}")
    if profile == "BENCH_readpath.json":
        # bench_readpath is the point of this baseline: require read rows.
        readpath = benches["bench_readpath"]
        if not any("hit_rate" in row for row in readpath["results"]):
            fail(f"{context}: bench_readpath recorded no read-enabled rows")
    if profile == "BENCH_protocol.json":
        # The point of this baseline is the crossover: every protocol row is
        # read-enabled, and the push-vs-invalidation comparison must flip
        # somewhere in the recorded grid.
        protocol = benches["bench_protocol"]
        if not any("protocol" in row for row in protocol["results"]):
            fail(f"{context}: bench_protocol recorded no protocol rows")
        check_protocol_crossover(protocol["results"], context)
    if profile == "BENCH_scale.json":
        # The recorded grid must stay a trajectory, not a single point, and
        # must never carry the nondeterministic perf member.
        scale = benches["bench_scale"]
        if len(scale["results"]) < 2:
            fail(f"{context}: bench_scale recorded fewer than 2 points")
        if "perf" in scale:
            fail(f"{context}: bench_scale recorded a perf member — "
                 f"baselines must be timing-free (drop --perf)")
        check_scale_determinism(scale["results"], context)
    if profile == "BENCH_fault.json":
        # The point of this baseline is the recovery crossover: every row
        # is fault-injected, and the dedicated recovery channel must earn
        # its keep somewhere in the recorded grid.
        fault = benches["bench_fault"]
        if not any("recovery_policy" in row for row in fault["results"]):
            fail(f"{context}: bench_fault recorded no fault rows")
        check_fault_recovery(fault["results"], context)


def run_bench(build_dir, name, extra_args):
    binary = os.path.join(build_dir, name)
    if not os.path.exists(binary):
        fail(f"{binary} not found — build the tree first "
             f"(cmake -B {build_dir} -S . && cmake --build {build_dir} -j)")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        json_path = handle.name
    try:
        command = [binary, f"--json={json_path}"] + extra_args
        result = subprocess.run(command, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        if result.returncode != 0:
            fail(f"{name} exited {result.returncode}:\n{result.stderr}")
        with open(json_path) as f:
            doc = json.load(f)
    finally:
        os.unlink(json_path)
    validate_run_results(doc, name)
    return doc


def record_profile(build_dir, profile):
    """Runs one profile's benches and returns the baseline file's bytes."""
    baseline = {
        "schema": BASELINE_SCHEMA,
        "benches": {name: run_bench(build_dir, name, extra)
                    for name, extra in sorted(PROFILES[profile].items())},
    }
    validate_baseline(baseline, "recorded baseline", profile)
    # Sorted keys + fixed separators: the bytes depend only on results.
    return json.dumps(baseline, indent=1, sort_keys=True) + "\n"


def first_difference(committed, recorded):
    """Names the first bench/row where two baseline texts differ."""
    try:
        old = json.loads(committed)
    except json.JSONDecodeError as error:
        return f"committed file is not valid JSON: {error}"
    new = json.loads(recorded)
    old_benches = old.get("benches", {})
    new_benches = new.get("benches", {})
    for name in sorted(old_benches.keys() | new_benches.keys()):
        if name not in old_benches or name not in new_benches:
            side = "committed" if name not in old_benches else "recorded"
            return f"bench {name!r} missing from the {side} baseline"
        old_rows = old_benches[name].get("results", [])
        new_rows = new_benches[name].get("results", [])
        for i, (old_row, new_row) in enumerate(zip(old_rows, new_rows)):
            if old_row != new_row:
                keys = sorted(k for k in old_row.keys() | new_row.keys()
                              if old_row.get(k) != new_row.get(k))
                return (f"bench {name!r} row {i} ({old_row.get('name')!r}) "
                        f"differs in {keys}")
        if len(old_rows) != len(new_rows):
            return (f"bench {name!r} has {len(old_rows)} committed rows, "
                    f"{len(new_rows)} recorded")
        if old_benches[name] != new_benches[name]:
            return f"bench {name!r} differs outside its results rows"
    if old != new:
        return "top-level members differ"
    return "same JSON content, different bytes (formatting)"


def compare_values(old, new, path, drift):
    """Walks two JSON values in step. Float leaves that differ are counted
    in drift["floats"] with their largest relative difference in
    drift["max_relative"]; any other change (integer, string, bool, type,
    missing key, list length) is appended to drift["other"] by path."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            if key not in old or key not in new:
                drift["other"].append(f"{path}.{key}")
            else:
                compare_values(old[key], new[key], f"{path}.{key}", drift)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            drift["other"].append(f"{path} (length)")
        for i, (a, b) in enumerate(zip(old, new)):
            compare_values(a, b, f"{path}[{i}]", drift)
    elif type(old) is float and type(new) is float:
        if old == new or (math.isnan(old) and math.isnan(new)):
            return
        drift["floats"] += 1
        scale = max(abs(old), abs(new))
        relative = abs(old - new) / scale if math.isfinite(scale) else math.inf
        drift["max_relative"] = max(drift["max_relative"], relative)
    elif type(old) is not type(new) or old != new:
        drift["other"].append(path)


def drift_summary(committed, recorded):
    """One line classifying how two baseline texts differ: float drift
    (count, largest relative difference) versus integer/string/structural
    changes. Reporting only — it never makes a difference acceptable."""
    try:
        old = json.loads(committed)
    except json.JSONDecodeError:
        return "committed file is not valid JSON"
    drift = {"floats": 0, "max_relative": 0.0, "other": []}
    compare_values(old, json.loads(recorded), "", drift)
    other = drift["other"]
    return (f"{drift['floats']} float field(s) changed (largest relative "
            f"difference {drift['max_relative']:.3g}); "
            + (f"{len(other)} integer/string/structural field(s) changed "
               f"(first: {other[0]})" if other else
               "no integer, string or structural field changed"))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="build directory holding the bench binaries")
    parser.add_argument("--out", default=None, choices=sorted(PROFILES),
                        help="record only this baseline (default: all)")
    parser.add_argument("--check", action="store_true",
                        help="validate the committed baselines and exit "
                             "(no benches are run)")
    parser.add_argument("--verify", action="store_true",
                        help="re-run the benches and compare the bytes with "
                             "the committed baselines (nothing is written)")
    parser.add_argument("--scaling-check", metavar="FILE", default=None,
                        help="validate a `bench_scale --perf` JSON capture "
                             "(phase accounting + parallel speedup) and exit")
    parser.add_argument("--min-speedup", type=float, default=1.2,
                        help="minimum run_threads>1 speedup required by "
                             "--scaling-check on hosts with >= 4 CPUs")
    parser.add_argument("--max-overhead", type=float, default=0.15,
                        help="maximum parallel overhead tolerated by "
                             "--scaling-check on hosts with < 4 CPUs")
    args = parser.parse_args()

    if args.scaling_check:
        check_scaling(args.scaling_check, args.min_speedup, args.max_overhead)
        return

    profiles = [args.out] if args.out else sorted(PROFILES)
    if args.check:
        for profile in profiles:
            out_path = os.path.join(REPO_ROOT, profile)
            if not os.path.exists(out_path):
                fail(f"{out_path} does not exist; run tools/record_bench.py "
                     f"to record it")
            with open(out_path) as f:
                try:
                    doc = json.load(f)
                except json.JSONDecodeError as error:
                    fail(f"{out_path} is not valid JSON: {error}")
            validate_baseline(doc, profile, profile)
            print(f"record_bench: {profile} OK "
                  f"({sum(len(b['results']) for b in doc['benches'].values())} "
                  f"recorded rows)")
        return

    build_dir = args.build_dir if os.path.isabs(args.build_dir) \
        else os.path.join(REPO_ROOT, args.build_dir)
    mismatched = []
    for profile in profiles:
        recorded = record_profile(build_dir, profile)
        out_path = os.path.join(REPO_ROOT, profile)
        if not args.verify:
            with open(out_path, "w") as f:
                f.write(recorded)
            print(f"record_bench: wrote {profile}")
            continue
        try:
            with open(out_path) as f:
                committed = f.read()
        except OSError as error:
            fail(f"cannot read {out_path}: {error}")
        if committed == recorded:
            print(f"record_bench: {profile} byte-identical")
            continue
        print(f"record_bench: {profile} DIFFERS: "
              f"{first_difference(committed, recorded)}", file=sys.stderr)
        print(f"record_bench: {profile} drift: "
              f"{drift_summary(committed, recorded)}", file=sys.stderr)
        mismatched.append(profile)
    if mismatched:
        fail(f"{len(mismatched)} baseline(s) differ from a fresh recording: "
             f"{', '.join(mismatched)}")


if __name__ == "__main__":
    main()
