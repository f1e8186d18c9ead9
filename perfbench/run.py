#!/usr/bin/env python3
"""Engine benchmark for the besync simulator.

One invocation measures one workload for --seconds seconds and prints, as
its last stdout line, one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

  --trace 0  end-to-end metrics (host time of untraced runs, medians)
  --trace 1  per-layer metrics (traced runs, medians) and trace_overhead

Every simulated run is its own perfbench_engine process (one closed batch
job, no arrival schedule). Every run is gated: its RunResult must be
bitwise identical to the library's own RunExperiment on the same config
(run once per invocation), and must match the digest recorded in
expected.json for that workload and seed when one is recorded (integer
counters exactly, floating-point fields within REL_TOL). A failed run
counts in `failed` and its times are discarded.

  python3 perfbench/run.py --workload wide_push --seed 1 --seconds 35 --trace 0
  python3 perfbench/run.py --workload million --seed 1 --seconds 5 --size smoke
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --record --seeds 0-16   # rewrite expected.json

See README.md for the workloads, the metric map and the recorded tables.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
ENGINE = BUILD / "perfbench_engine"
OUT = ROOT / ".bench_build" / "perfbench-out"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("wide_push", "million", "tree_reads_faults")
# Objective and other floating-point stats may drift by this much relative
# to the recorded digest (a float re-association); integer counters, which
# record every scheduling decision, may not drift at all.
REL_TOL = 1e-9
MIN_RUNS = 3           # untraced runs per invocation, at least
MIN_PAIRS = 2          # untraced+traced pairs per traced invocation, at least
HARD_STOP_S = 100.0    # start no new run after this much wall time
ENGINE_TIMEOUT_S = 60  # one run takes seconds; a hung one must not pass 180 s

END_TO_END = [
    ("setup_s", "s"),
    ("steady_s", "s"),
    ("wall_s", "s"),
    ("us_per_update", "us"),
    ("us_per_refresh", "us"),
    ("peak_rss_mb", "MiB"),
]

PHASES = ("begin_tick", "send", "relay", "deliver_apply", "read_path", "feedback")

# Per-layer metrics in the result JSON: each is measured (non-zero work) on
# every workload.
PER_LAYER = [
    ("core.steady_s", "s"),
    ("data.make_workload_s", "s"),
    ("core.harness_init_s", "s"),
    ("core.scheduler_init_s", "s"),
    ("core.update_path_s", "s"),
    ("core.update_path_ns", "ns"),
    ("core.source_update_s", "s"),
    ("core.source_update_ns", "ns"),
    ("core.tick_s", "s"),
    ("core.tick_ns", "ns"),
    ("core.measurement_start_s", "s"),
    ("core.finalize_s", "s"),
    ("core.finish_s", "s"),
    ("tick.begin_tick_s", "s"),
    ("tick.send_s", "s"),
    ("tick.relay_s", "s"),
    ("tick.deliver_apply_s", "s"),
    ("tick.feedback_s", "s"),
    ("tick.unattributed_s", "s"),
    ("tick.send_ns_per_msg", "ns"),
    ("tick.deliver_apply_ns_per_delivery", "ns"),
    ("divergence.on_source_update_ns", "ns"),
    ("sim.event_ns", "ns"),
    ("obs.export_s", "s"),
    ("obs.bytes", "bytes"),
    ("core.update_events", "count"),
    ("core.ticks", "count"),
    ("net.refreshes_sent", "count"),
    ("net.refreshes_delivered", "count"),
    ("net.delivery_ratio", "1"),
    ("relay.forwarded", "count"),
    ("read.reads", "count"),
    ("read.hit_rate", "1"),
    ("read.pulls_delivered", "count"),
    ("protocol.invalidations_sent", "count"),
    ("fault.resync_deliveries", "count"),
    ("trace_overhead", "1"),
]
# Printed in the human-readable table only: they are structurally zero on
# the flat, read-free workloads (no read phase runs, nothing is forwarded).
PER_LAYER_PRINT_ONLY = [
    ("tick.read_path_s", "s"),
    ("tick.read_path_ns_per_read", "ns"),
    ("tick.relay_ns_per_forward", "ns"),
]


def log(line=""):
    print(f"# {line}", flush=True)


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(code)


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# ------------------------------------------------------ derived metrics

def steady_ns(raw):
    return raw["finalize_return_ns"] - raw["initialize_return_ns"]


def end_to_end_metrics(raw):
    """End-to-end metrics of one untraced run."""
    steady = steady_ns(raw)
    delivered = raw["digest"]["ints"]["refreshes_delivered"]
    return {
        "setup_s": raw["initialize_return_ns"] * 1e-9,
        "steady_s": steady * 1e-9,
        "wall_s": raw["export_return_ns"] * 1e-9,
        "us_per_update": ratio(steady * 1e-3, raw["update_events"]),
        "us_per_refresh": ratio(steady * 1e-3, delivered),
        "peak_rss_mb": raw["peak_rss_kib"] / 1024.0,
    }


def per_layer_metrics(raw):
    """Per-layer metrics of one traced run. The update path is the residual
    of steady state outside every scheduler callback, so the four spans
    update_path + source_update + tick + (measurement_start + finalize)
    account for all of steady_s by construction."""
    ints = raw["digest"]["ints"]
    steady = steady_ns(raw)
    callbacks = (raw["on_object_update_ns"] + raw["tick_ns"] +
                 raw["measurement_start_ns"] + raw["finalize_ns"])
    update_path = steady - callbacks
    phase = raw["phase_ns"]
    window = raw["phase_window_ns"]
    m = {
        "core.steady_s": steady * 1e-9,
        "data.make_workload_s": raw["make_workload_return_ns"] * 1e-9,
        "core.harness_init_s":
            (raw["initialize_entry_ns"] - raw["run_scheduler_entry_ns"]) * 1e-9,
        "core.scheduler_init_s":
            (raw["initialize_return_ns"] - raw["initialize_entry_ns"]) * 1e-9,
        "core.update_path_s": update_path * 1e-9,
        "core.update_path_ns": ratio(update_path, raw["update_events"]),
        "core.source_update_s": raw["on_object_update_ns"] * 1e-9,
        "core.source_update_ns": ratio(raw["on_object_update_ns"],
                                       raw["update_events"]),
        "core.tick_s": raw["tick_ns"] * 1e-9,
        "core.tick_ns": ratio(raw["tick_ns"], raw["ticks"]),
        "core.measurement_start_s": raw["measurement_start_ns"] * 1e-9,
        "core.finalize_s": raw["finalize_ns"] * 1e-9,
        "core.finish_s":
            (raw["run_scheduler_return_ns"] - raw["finalize_return_ns"]) * 1e-9,
    }
    for name in PHASES:
        m[f"tick.{name}_s"] = phase[name] * 1e-9
    m["tick.unattributed_s"] = (raw["tick_ns"] - sum(phase.values())) * 1e-9
    # Per-unit phase costs use the measurement window on both sides: the
    # SchedulerStats counters are reset when warm-up ends.
    m["tick.send_ns_per_msg"] = ratio(
        window["send"], ints["refreshes_sent"] + ints["invalidations_sent"])
    m["tick.deliver_apply_ns_per_delivery"] = ratio(
        window["deliver_apply"],
        ints["refreshes_delivered"] + ints["invalidations_received"])
    m["tick.read_path_ns_per_read"] = ratio(window["read_path"], ints["reads_total"])
    m["tick.relay_ns_per_forward"] = ratio(window["relay"], ints["relays_forwarded"])
    m["divergence.on_source_update_ns"] = ratio(raw["gt_replay_ns"],
                                                raw["gt_replay_calls"])
    m["sim.event_ns"] = ratio(raw["sim_replay_ns"], raw["sim_replay_events"])
    m["obs.export_s"] = (raw["export_return_ns"] - raw["run_scheduler_return_ns"]) * 1e-9
    m["obs.bytes"] = raw["obs_bytes"]
    m["core.update_events"] = raw["update_events"]
    m["core.ticks"] = raw["ticks"]
    m["net.refreshes_sent"] = ints["refreshes_sent"]
    m["net.refreshes_delivered"] = ints["refreshes_delivered"]
    # Pushed refreshes applied per pushed refresh sent (pull responses are
    # counted on the delivered side only, so they are taken out).
    m["net.delivery_ratio"] = ratio(
        ints["refreshes_delivered"] - ints["pulls_delivered"], ints["refreshes_sent"])
    m["relay.forwarded"] = ints["relays_forwarded"]
    m["read.reads"] = ints["reads_total"]
    m["read.hit_rate"] = ratio(ints["read_hits"], ints["reads_total"])
    m["read.pulls_delivered"] = ints["pulls_delivered"]
    m["protocol.invalidations_sent"] = ints["invalidations_sent"]
    m["fault.resync_deliveries"] = ints["resync_deliveries"]
    return m


def medians(rows):
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def trace_overhead(traced_steady, untraced_steady):
    return statistics.median(traced_steady) / statistics.median(untraced_steady) - 1.0


# ------------------------------------------------------ correctness gate

def compare_digest(digest, expected):
    """Differences between a run digest and a recorded one."""
    problems = []
    for key, want in expected["ints"].items():
        got = digest["ints"].get(key)
        if got != want:
            problems.append(f"{key}={got} (expected {want})")
    for key, want in expected["floats"].items():
        got = digest["floats"].get(key)
        if got is None or abs(got - want) > REL_TOL * max(abs(got), abs(want)):
            problems.append(f"{key}={got!r} (expected {want!r}, rel tol {REL_TOL})")
    return problems


def invariant_problems(digest):
    """Checks that hold for every seed, recorded or not."""
    ints, floats = digest["ints"], digest["floats"]
    problems = [f"{k}={v} < 0" for k, v in ints.items() if v < 0]
    objective = floats["total_weighted_divergence"]
    if not objective >= 0.0 or objective == float("inf"):
        problems.append(f"objective {objective!r} not finite and >= 0")
    if ints["read_hits"] + ints["read_misses"] != ints["reads_total"]:
        problems.append("read_hits + read_misses != reads_total")
    if ints["refreshes_delivered"] <= 0:
        problems.append("no refresh delivered")
    return problems


def load_expected(size, workload, seed):
    if not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text()).get(digest_key(size, workload, seed))


# ------------------------------------------------------ build and stamp

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no besync sources at {ROOT} (need CMakeLists.txt and src/)")
    BUILD.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench_engine"])
    with open(BUILD / "build.log", "w") as build_log:
        ok = all(subprocess.run(step, stdout=build_log, stderr=subprocess.STDOUT)
                 .returncode == 0 for step in steps)
    if not ok:
        tail = (BUILD / "build.log").read_text().splitlines()[-30:]
        fail("build failed:\n" + "\n".join(tail), code=1)


def engine(*args):
    """Runs perfbench_engine once; returns its JSON line, or None on error."""
    try:
        proc = subprocess.run([str(ENGINE), *args], capture_output=True, text=True,
                              timeout=ENGINE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"engine {' '.join(args)}: timed out")
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        log(f"engine {' '.join(args)}: exit {proc.returncode}: {proc.stderr.strip()}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest():
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:12]


def commit():
    if not (ROOT / ".git").exists():
        return "n/a"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "n/a"


def calibration(label):
    cal = engine("--mode", "calibrate")
    if cal is None:
        fail("calibration loop failed", code=1)
    log(f"calibration_{label}_s={cal['calibration_ns'] * 1e-9:.4f}")
    return cal


# ------------------------------------------------------ runs

def run_once(mode, args, reference_bits, expected):
    raw = engine("--workload", args.workload, "--seed", str(args.seed),
                 "--size", args.size, "--mode", mode, "--out", str(OUT))
    if raw is None:
        return None, ["engine failed"]
    problems = []
    if raw["digest"]["bits"] != reference_bits:
        problems.append("RunResult not bitwise identical to RunExperiment's")
    if expected is not None:
        problems += compare_digest(raw["digest"], expected)
    return raw, problems


def measure(args):
    build()
    log(f"perfbench workload={args.workload} seed={args.seed} size={args.size} "
        f"trace={args.trace} seconds={args.seconds}")
    cal = calibration("before")
    log(f"host nproc={os.cpu_count()} compiler={cal['compiler']} "
        f"build_type={cal['build_type']} commit={commit()} src_sha256={source_digest()}")

    started = time.monotonic()
    reference = engine("--workload", args.workload, "--seed", str(args.seed),
                       "--size", args.size, "--mode", "reference")
    if reference is None:
        fail("reference RunExperiment run failed", code=1)
    expected = load_expected(args.size, args.workload, args.seed)
    reference_problems = invariant_problems(reference["digest"])
    if expected is None:
        log(f"expected digest: none recorded for seed {args.seed}; gate = "
            "RunExperiment bitwise + invariants")
    else:
        reference_problems += compare_digest(reference["digest"], expected)
        log(f"expected digest: recorded for seed {args.seed}; "
            f"RunExperiment {'matches' if not reference_problems else 'DIFFERS'}")
    for problem in reference_problems:
        log(f"  reference: {problem}")
    reference_bits = reference["digest"]["bits"]
    log(f"reference bits={reference_bits} objective="
        f"{reference['digest']['floats']['total_weighted_divergence']!r}")

    modes = ["untraced", "traced"] if args.trace else ["untraced"]
    minimum = MIN_PAIRS if args.trace else MIN_RUNS
    deadline = time.monotonic() + args.seconds
    good = {mode: [] for mode in modes}
    attempted = failed = rounds = 0
    while True:
        round_start = time.monotonic()
        for mode in modes:
            raw, problems = run_once(mode, args, reference_bits, expected)
            attempted += 1
            if problems:
                failed += 1
                log(f"run {attempted} {mode}: FAILED: {'; '.join(problems[:5])}")
                continue
            good[mode].append(raw)
            log(f"run {attempted} {mode}: ok steady_s={steady_ns(raw) * 1e-9:.4f}")
        rounds += 1
        now = time.monotonic()
        if now - started > HARD_STOP_S:
            break
        # Stop when another round would overrun the budget, so an
        # invocation lasts about --seconds whatever the run length.
        if now + (now - round_start) > deadline and rounds >= minimum:
            break
    calibration("after")

    if any(not runs for runs in good.values()):
        fail("no run passed the correctness gate", code=1)
    e2e = medians([end_to_end_metrics(raw) for raw in good["untraced"]])
    print_table(f"end-to-end, median of {len(good['untraced'])} untraced runs",
                END_TO_END, e2e)
    log(f"  fail_ratio {ratio(failed, attempted):.4f} 1 ({failed}/{attempted})")
    if args.trace:
        layers = medians([per_layer_metrics(raw) for raw in good["traced"]])
        layers["trace_overhead"] = trace_overhead(
            [steady_ns(raw) for raw in good["traced"]],
            [steady_ns(raw) for raw in good["untraced"]])
        print_table(f"per-layer, median of {len(good['traced'])} traced runs",
                    PER_LAYER + PER_LAYER_PRINT_ONLY, layers)
        reported, values = PER_LAYER, layers
    else:
        reported, values = END_TO_END, e2e
    result = {
        "correct": failed == 0 and not reference_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in reported},
    }
    print(json.dumps(result), flush=True)


def print_table(title, spec, values):
    log(title)
    for name, unit in spec:
        log(f"  {name} {values[name]:.6g} {unit}")


# ------------------------------------------------------ record / selftest

def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def digest_key(size, workload, seed):
    return f"{size}/{workload}/{seed}"


def record(args):
    """Rewrites expected.json's digests for --size and --seeds (all
    workloads), from the library's own RunExperiment."""
    build()
    digests = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    for workload in WORKLOADS:
        for seed in parse_seeds(args.seeds):
            ref = engine("--workload", workload, "--seed", str(seed), "--size",
                         args.size, "--mode", "reference")
            if ref is None:
                fail(f"reference run failed: {workload} seed {seed}", code=1)
            digests[digest_key(args.size, workload, seed)] = {
                k: ref["digest"][k] for k in ("ints", "floats")}
            log(f"recorded {args.size} {workload} seed {seed}")

    def order(key):
        size, workload, seed = key.split("/")
        return size, workload, int(seed)
    lines = [f"  {json.dumps(k)}: {json.dumps(digests[k])}"
             for k in sorted(digests, key=order)]
    EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def selftest():
    """Checks the derived-metric arithmetic on a fixed synthetic span set."""
    ints = {"refreshes_sent": 400, "refreshes_delivered": 500, "pulls_delivered": 100,
            "invalidations_sent": 100, "invalidations_received": 300,
            "reads_total": 1000, "read_hits": 250, "read_misses": 750,
            "relays_forwarded": 50, "resync_deliveries": 7}
    raw = {
        "make_workload_return_ns": 100_000_000,
        "run_scheduler_entry_ns": 110_000_000,
        "initialize_entry_ns": 400_000_000,
        "initialize_return_ns": 500_000_000,
        "finalize_return_ns": 2_500_000_000,
        "run_scheduler_return_ns": 2_600_000_000,
        "export_return_ns": 2_700_000_000,
        "update_events": 1_000_000, "ticks": 100, "peak_rss_kib": 2048,
        "obs_bytes": 4096,
        "on_object_update_ns": 300_000_000, "tick_ns": 900_000_000,
        "measurement_start_ns": 40_000_000, "finalize_ns": 60_000_000,
        "phase_ns": {"begin_tick": 100_000_000, "send": 200_000_000,
                     "relay": 50_000_000, "deliver_apply": 250_000_000,
                     "read_path": 200_000_000, "feedback": 50_000_000},
        "phase_window_ns": {"begin_tick": 90_000_000, "send": 100_000_000,
                            "relay": 10_000_000, "deliver_apply": 160_000_000,
                            "read_path": 150_000_000, "feedback": 40_000_000},
        "gt_replay_ns": 50_000_000, "gt_replay_calls": 1_000_000,
        "sim_replay_ns": 30_000_000, "sim_replay_events": 600_000,
        "digest": {"ints": ints, "floats": {}},
    }
    e2e = end_to_end_metrics(raw)
    layers = per_layer_metrics(raw)
    want = {
        "setup_s": 0.5, "steady_s": 2.0, "wall_s": 2.7,
        "us_per_update": 2.0, "us_per_refresh": 4000.0, "peak_rss_mb": 2.0,
        # 2.0 s steady - (0.3 + 0.9 + 0.04 + 0.06) s in callbacks
        "core.update_path_s": 0.7, "core.update_path_ns": 700.0,
        "core.source_update_ns": 300.0, "core.tick_ns": 9_000_000.0,
        "core.harness_init_s": 0.29, "core.scheduler_init_s": 0.1,
        "core.finish_s": 0.1, "obs.export_s": 0.1,
        "tick.unattributed_s": 0.05,   # 0.9 - 0.85 in phases
        "tick.send_ns_per_msg": 200_000.0,                  # 100 ms / 500
        "tick.deliver_apply_ns_per_delivery": 200_000.0,    # 160 ms / 800
        "tick.read_path_ns_per_read": 150_000.0,
        "tick.relay_ns_per_forward": 200_000.0,
        "divergence.on_source_update_ns": 50.0, "sim.event_ns": 50.0,
        "net.delivery_ratio": 1.0, "read.hit_rate": 0.25,
    }
    got = {**e2e, **layers}
    bad = [f"{k}: got {got[k]!r}, want {v!r}" for k, v in want.items()
           if abs(got[k] - v) > 1e-9 * max(1.0, abs(v))]
    covered = (layers["core.update_path_s"] + layers["core.source_update_s"] +
               layers["core.tick_s"] + layers["core.measurement_start_s"] +
               layers["core.finalize_s"])
    if abs(covered - layers["core.steady_s"]) > 1e-12:
        bad.append(f"spans cover {covered} of steady {layers['core.steady_s']}")
    if abs(trace_overhead([1.1e9, 1.2e9, 1.3e9], [1.0e9, 1.0e9]) - 0.2) > 1e-12:
        bad.append("trace_overhead")
    if medians([{"a": 1.0}, {"a": 3.0}, {"a": 2.0}]) != {"a": 2.0}:
        bad.append("medians")
    expected = {"ints": {"reads_total": 1000}, "floats": {"x": 1.0}}
    if compare_digest({"ints": {"reads_total": 1000}, "floats": {"x": 1.0 + 5e-10}},
                      expected):
        bad.append("compare_digest rejects a drift inside REL_TOL")
    if not compare_digest({"ints": {"reads_total": 1000}, "floats": {"x": 1.0 + 2e-9}},
                          expected):
        bad.append("compare_digest accepts a drift beyond REL_TOL")
    if not compare_digest({"ints": {"reads_total": 1001}, "floats": {"x": 1.0}},
                          expected):
        bad.append("compare_digest accepts a changed counter")
    if invariant_problems({"ints": ints, "floats": {"total_weighted_divergence": 1.0}}):
        bad.append("invariants reject the synthetic digest")
    for line in bad:
        print(f"selftest FAILED: {line}", file=sys.stderr)
    print("selftest " + ("FAILED" if bad else f"ok ({len(want)} metrics checked)"))
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--seeds", default="1-2")
    args = parser.parse_args()
    if args.selftest:
        sys.exit(selftest())
    if args.record:
        record(args)
        return
    if args.workload is None:
        parser.error("--workload is required")
    measure(args)


if __name__ == "__main__":
    main()
