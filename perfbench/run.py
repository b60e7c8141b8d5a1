"""sma-neck benchmark: runs one workload (or all four) through the CLI and
prints its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each repetition is a fresh child process (``perfbench/child.py``), started
one at a time from this process, so a run never uses more than one core for
the program.  Repetitions continue until ``--seconds`` have passed, with at
least three untraced ones (``--trace 0``) or one untraced and two traced
ones (``--trace 1``, alternating).  End-to-end metrics are medians over the
untraced repetitions, with their timings at nominal host speed (see
``hostspeed.py``; the raw timings are printed and recorded too); per-layer
metrics are medians over the traced ones.
Every repetition's outputs are checked; a failed check counts as a failed
operation and makes ``correct`` false.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).  A
run record with the machine, versions and every repetition is written to
``.perfbench/records/``.  Exits 2 without a result when the package source
is not present, and 1 when a repetition could not be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from spans import BRANCH_ENUM, HOOKS, ROOT_SPAN

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
PACKAGE = Path("src") / "sma_neck"
STATE = Path(".perfbench")

RUN_LIMIT_S = 170.0  # a run must end well within 180 s

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "realtime_factor": "s/s",
    "peak_rss_mb": "MiB",
}

# Printed in the table and kept in the record, but not end-to-end metrics:
# the raw timings vary with the host's speed, which the end-to-end timings
# are normalized for (see hostspeed.py).
EXTRA_UNITS = {"raw_wall_s": "s", "raw_setup_s": "s", "host_speed": "1"}

REP_FIELDS = (
    "rc", "setup_s", "wall_s", "raw_setup_s", "raw_wall_s", "host_speed",
    "speed_samples", "sampler_s", "peak_rss_mb",
)

# Per-layer metric -> (unit, span names whose hooks it needs).
PER_LAYER = {
    "engine.steps": ("count", ("engine.simulate",)),
    "sma.step_spring.calls_per_step": ("count", ("sma.step_spring", "engine.simulate")),
    "sma.step_spring.us_per_call": ("us", ("sma.step_spring",)),
    "sma.step_spring.share": ("fraction", ("sma.step_spring",)),
    "sma.active_frac": ("fraction", ("sma.step_spring", "sma.Branch")),
    "engine.residual.evals_per_step": ("count", ("engine.residual", "engine.simulate")),
    "engine.residual.us_per_eval": ("us", ("engine.residual",)),
    "engine.solve.us_per_step": ("us", ("engine.solve", "engine.simulate")),
    "engine.solve.share": ("fraction", ("engine.solve",)),
    "engine.loop.us_per_step": (
        "us", ("engine.simulate", "sma.step_spring", "engine.solve"),
    ),
    "traceio.write_ms": ("ms", ("traceio.write",)),
    "traceio.bytes": ("bytes", ("traceio.write",)),
    "plots.emit_ms": ("ms", ("plots.emit",)),
    "calibrate.evaluations": ("count", ("calibrate.evaluate",)),
    "calibrate.sweeps": ("count", ("calibrate.evaluate",)),
    "calibrate.useful_frac": ("fraction", ("calibrate.evaluate",)),
    "calibrate.ms_per_sweep": ("ms", ("calibrate.evaluate",)),
    "calibrate.loss": ("1", ()),
    "scenario.load_ms": ("ms", ("scenario.load",)),
    "scenario.build_ms": ("ms", ("scenario.build",)),
    "cli.self_ms": ("ms", ("*",)),
    "trace.overhead_frac": ("fraction", ()),
}

# Counts that must repeat exactly between traced repetitions.
EXACT_COUNTS = (
    "sma.step_spring.calls_per_step",
    "engine.residual.evals_per_step",
    "calibrate.evaluations",
    "calibrate.sweeps",
)

# ROADMAP's baseline table (2-core sandbox, Python 3.11, best of 3), keyed by
# (workload it was measured on, or None for any, metric): the run record sets
# this machine's figure for the same quantity next to it.
ROADMAP_BASELINE = {
    ("simulate_default", "engine.simulate_s"): 2.2,
    (None, "sma.step_spring.us_per_call"): 20.0,
    (None, "engine.residual.us_per_eval"): 11.6,
    ("simulate_default", "engine.residual.evals_per_step"): 8.0,
    ("simulate_default", "traceio.write_ms"): 97.0,
    (None, "scenario.load_ms"): 9.0,
    ("sweep_table", "raw_wall_s"): 5.8,
}


class BenchError(RuntimeError):
    """A repetition could not be run at all; no result is printed."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(spec: dict, rep_dir: Path, deadline: float) -> dict:
    """Run one child process to completion and return its result."""
    if rep_dir.exists():
        shutil.rmtree(rep_dir)
    (rep_dir / "out").mkdir(parents=True)
    result_path = rep_dir / "result.json"
    spec = {**spec, "out": str(rep_dir / "out"), "result": str(result_path)}
    env = {
        **os.environ,
        "PYTHONPATH": str(PACKAGE.parent.resolve()),
        "PYTHONHASHSEED": "0",
    }
    timeout = deadline - _now()
    if timeout <= 0:
        raise BenchError("no time left for another repetition")
    with open(rep_dir / "stdout.txt", "wb") as out, open(rep_dir / "stderr.txt", "wb") as err:
        spec["t_spawn"] = _now()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), json.dumps(spec)],
                stdout=out, stderr=err, env=env, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"repetition exceeded {timeout:.0f} s and was stopped") from None
    if proc.returncode != 0 or not result_path.exists():
        tail = (rep_dir / "stderr.txt").read_text(errors="replace")[-2000:]
        raise BenchError(f"child exited with {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text())


def layer_values(rep: dict) -> dict:
    """Per-layer values of one traced repetition (before the missing filter)."""
    spans = rep["spans"]
    counters = rep["counters"]

    def get(name, key):
        return spans.get(name, {}).get(key, 0.0)

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    steps = counters.get("steps", 0)
    spring_calls = get("sma.step_spring", "calls")
    residual_calls = get("engine.residual", "calls")
    sweeps = get("calibrate.evaluate", "calls")
    evaluations = counters.get("evaluations", 0)
    root = get(ROOT_SPAN, "total_s")
    summary = wl.calibration_summary(rep["stdout"])
    return {
        "engine.steps": steps,
        "sma.step_spring.calls_per_step": per(spring_calls, steps),
        "sma.step_spring.us_per_call": per(get("sma.step_spring", "total_s") * 1e6, spring_calls),
        "sma.step_spring.share": per(get("sma.step_spring", "total_s"), root),
        "sma.active_frac": per(counters.get("active", 0), spring_calls),
        "engine.residual.evals_per_step": per(residual_calls, steps),
        "engine.residual.us_per_eval": per(get("engine.residual", "total_s") * 1e6, residual_calls),
        "engine.solve.us_per_step": per(get("engine.solve", "total_s") * 1e6, steps),
        "engine.solve.share": per(get("engine.solve", "total_s"), root),
        "engine.loop.us_per_step": per(get("engine.simulate", "self_s") * 1e6, steps),
        "traceio.write_ms": get("traceio.write", "total_s") * 1e3,
        "traceio.bytes": counters.get("trace_bytes", 0),
        "plots.emit_ms": get("plots.emit", "total_s") * 1e3,
        "calibrate.evaluations": evaluations,
        "calibrate.sweeps": sweeps,
        "calibrate.useful_frac": per(evaluations, sweeps),
        "calibrate.ms_per_sweep": per(get("calibrate.evaluate", "total_s") * 1e3, sweeps),
        "calibrate.loss": summary["loss"] if summary else 0.0,
        "scenario.load_ms": per(get("scenario.load", "total_s") * 1e3, get("scenario.load", "calls")),
        "scenario.build_ms": per(get("scenario.build", "total_s") * 1e3, get("scenario.build", "calls")),
        "cli.self_ms": get(ROOT_SPAN, "self_s") * 1e3,
    }


def missing_metrics(missing_hooks: list[str]) -> dict[str, list[str]]:
    """Per-layer metric -> the missing hook targets it depends on."""
    targets: dict[str, list[str]] = {}
    for span, owner, attribute in HOOKS:
        targets.setdefault(span, []).append(f"{owner.replace(':', '.')}.{attribute}")
    targets["sma.Branch"] = [".".join(BRANCH_ENUM).replace(":", ".")]
    gone = set(missing_hooks)
    dead_spans = {span for span, names in targets.items() if all(n in gone for n in names)}
    out = {}
    for metric, (_, needs) in PER_LAYER.items():
        if "*" in needs and gone:
            out[metric] = sorted(gone)
        elif any(span in dead_spans for span in needs):
            out[metric] = sorted(n for span in needs if span in dead_spans for n in targets[span])
    return out


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".yaml"):
            digest.update(str(path.relative_to(PACKAGE)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not Path(".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool, versions: dict) -> dict:
    """Run every repetition of one workload and return its result and record."""
    inputs = wl.make_inputs(name, seed)
    started = _now()
    deadline = started + RUN_LIMIT_S
    work = STATE / "work" / name
    untraced, traced, durations = [], [], []
    while True:
        want_trace = trace and len(traced) < len(untraced)
        done_min = len(untraced) >= (1 if trace else 3) and (not trace or len(traced) >= 2)
        if done_min and _now() - started + statistics.fmean(durations) > seconds:
            break
        rep_started = _now()
        rep_dir = work / f"rep{len(untraced) + len(traced)}"
        rep = run_child({"argv": inputs.argv, "trace": want_trace}, rep_dir, deadline)
        durations.append(_now() - rep_started)
        rep["traced"] = want_trace
        rep["dir"] = rep_dir
        (traced if want_trace else untraced).append(rep)

    reps = untraced + traced
    attempted = failed = 0
    failures = []
    for rep in reps:
        ops, bad = wl.operations(inputs, rep)
        checks = wl.check_rep(inputs, rep)
        attempted += ops + len(checks)
        failed += bad
        for check, ok, detail in checks:
            if not ok:
                failed += 1
                failures.append(f"{check}: {detail}")
    for check, ok, detail in wl.check_repeats(reps):
        attempted += 1
        if not ok:
            failed += 1
            failures.append(f"{check}: {detail}")

    end_to_end = {
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
        "realtime_factor": statistics.median(
            wl.sim_seconds(inputs, r) / r["wall_s"] for r in untraced
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    per_layer, missing = {}, {}
    if traced:
        missing = missing_metrics(traced[0]["missing_hooks"])
        values = [layer_values(rep) for rep in traced]
        for metric in PER_LAYER:
            if metric in missing or metric == "trace.overhead_frac":
                continue
            per_layer[metric] = statistics.median(v[metric] for v in values)
        for metric in EXACT_COUNTS:
            if metric in missing:
                continue
            seen = {v[metric] for v in values}
            attempted += 1
            if len(seen) != 1:
                failed += 1
                failures.append(f"count_drift:{metric}: {sorted(seen)}")
        per_layer["trace.overhead_frac"] = (
            statistics.median(r["raw_wall_s"] for r in traced)
            / statistics.median(r["raw_wall_s"] for r in untraced)
            - 1.0
        )

    extra = {
        "raw_wall_s": statistics.median(r["raw_wall_s"] for r in untraced),
        "raw_setup_s": statistics.median(r["raw_setup_s"] for r in untraced),
        "host_speed": statistics.median(r["host_speed"] for r in untraced),
        "error_rate": failed / attempted,
    }
    summary = wl.calibration_summary(untraced[0]["stdout"])
    if summary:
        extra["calib_loss"] = summary["loss"]

    record = {
        "workload": name,
        "seed": seed,
        "inputs": {"argv": inputs.argv, **inputs.params},
        "canonical": inputs.canonical,
        "seconds": seconds,
        "trace": trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "versions": versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "runs": {"untraced": len(untraced), "traced": len(traced)},
        "end_to_end": end_to_end,
        "extra": extra,
        "per_layer": per_layer,
        "missing_per_layer": missing,
        "tracing_overhead_frac": per_layer.get("trace.overhead_frac"),
        "failures": failures,
        "repetitions": [
            {k: rep.get(k) for k in REP_FIELDS} | {"traced": rep["traced"]}
            for rep in reps
        ],
    }
    here = {**per_layer, "raw_wall_s": extra["raw_wall_s"]}
    if traced and "engine.simulate" in traced[0]["spans"]:
        here["engine.simulate_s"] = statistics.median(
            r["spans"]["engine.simulate"]["total_s"] for r in traced
        )
    record["vs_roadmap_baseline"] = {
        metric: {"roadmap": baseline, "here": here[metric], "ratio": here[metric] / baseline}
        for (workload, metric), baseline in ROADMAP_BASELINE.items()
        if workload in (None, name) and metric in here
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "record": record,
        "spans_csv": traced[-1]["dir"] / "spans.csv" if traced else None,
    }


def print_table(name: str, result: dict) -> None:
    record = result["record"]
    print(f"== {name} (seed {record['seed']}; {record['runs']['untraced']} untraced, "
          f"{record['runs']['traced']} traced repetitions)")
    for metric, value in result["end_to_end"].items():
        print(f"  {metric:<34} {value:>14.6g} {END_TO_END_UNITS[metric]}")
    for metric, value in record["extra"].items():
        print(f"  {metric:<34} {value:>14.6g} {EXTRA_UNITS.get(metric, '1')}")
    for metric, value in result["per_layer"].items():
        print(f"  {metric:<34} {value:>14.6g} {PER_LAYER[metric][0]}")
    for metric, hooks in record["missing_per_layer"].items():
        print(f"  {metric:<34} {'missing':>14} (hook not found: {', '.join(hooks)})")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=wl.CANONICAL_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "cli.py").is_file():
        print(f"error: {PACKAGE}/cli.py not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    records = STATE / "records"
    records.mkdir(parents=True, exist_ok=True)
    try:
        warm = run_child({"warmup": True}, STATE / "work" / "warmup", _now() + 60.0)
        results = []
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), warm)
            stem = f"{name}_seed{args.seed}_trace{args.trace}"
            (records / f"{stem}.json").write_text(json.dumps(result["record"], indent=1))
            if result["spans_csv"] is not None:
                # one spans file per workload, so that records stay small
                shutil.copyfile(result["spans_csv"], records / f"{name}_spans.csv")
            print_table(name, result)
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(STATE / "work", ignore_errors=True)

    metrics = {}
    for result in results:
        chosen = result["per_layer"] if args.trace else result["end_to_end"]
        for metric, value in chosen.items():
            key = metric if len(results) == 1 else f"{result['record']['workload']}/{metric}"
            unit = PER_LAYER[metric][0] if args.trace else END_TO_END_UNITS[metric]
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
