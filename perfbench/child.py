"""One repetition of a workload, in a fresh process.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON names the CLI arguments, the output directory, the result file,
whether to trace, and the parent's monotonic clock reading taken just before
this process was started.  Set-up runs from that reading through the import
of ``sma_neck.cli``, one scenario load with validation, and the system and
config build; the timed run is one call of ``sma_neck.cli.main``.  Outputs
are read back after the timer stops and written, with the timings, to the
result file.  With ``warmup`` set, the process only imports the package (so
byte-code caches are filled before timing) and reports library versions.

Untraced repetitions sample the host's speed from the start of ``main`` to
the end of the run (``hostspeed.Sampler``) and report set-up and run time
both as measured and at nominal host speed.  Traced repetitions do not
sample, so that no reference work lands in the spans.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so it compares with the parent's reading.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _overrides(argv):
    return [argv[i + 1] for i, arg in enumerate(argv) if arg == "--set"]


def _warmup() -> dict:
    import numpy
    import yaml

    import sma_neck.cli  # noqa: F401  (fills the byte-code cache)

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
    }


def _trace_outputs(path: Path) -> dict:
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    xi_names = [name for name in rows[0] if name.startswith("xi")]
    xis = [float(row[name]) for row in rows for name in xi_names]
    return {
        "rows": len(rows),
        "sim_seconds": float(rows[-1]["t_s"]),
        "peak_theta_deg": max(float(row["theta_deg"]) for row in rows),
        "final_phi_rad": float(rows[-1]["phi_rad"]),
        "final_xi": [float(rows[-1][name]) for name in xi_names],
        "xi_min": min(xis),
        "xi_max": max(xis),
        "all_finite": all(
            math.isfinite(float(value)) for row in rows for value in row.values()
        ),
    }


def _table(path: Path) -> list[list[float]]:
    with open(path, newline="") as handle:
        return [[float(v) for v in row] for row in list(csv.reader(handle))[1:]]


def _outputs(out: Path) -> dict:
    files, result = {}, {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        files[path.name] = {
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        }
        if path.name.endswith("_trace.csv"):
            result["trace"] = _trace_outputs(path)
        elif path.name.endswith("_sweep.csv") or path.name.endswith("_calibration.csv"):
            result["table"] = _table(path)
    result["files"] = files
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec.get("warmup"):
        Path(spec["result"]).write_text(json.dumps(_warmup()))
        return 0

    sampler = None
    if not spec["trace"]:
        from hostspeed import Sampler

        sampler = Sampler()
        sampler.start()
        sampling_from = _now()

    import sma_neck.cli as cli
    from sma_neck.scenario import default_scenario_text, load_with_overrides

    argv = list(spec["argv"])
    scenario = load_with_overrides(default_scenario_text(), _overrides(argv))
    scenario.build_system()
    scenario.build_config()
    setup_done = _now()

    out = Path(spec["out"])
    run = cli.main
    recorder = None
    if spec["trace"]:
        from spans import ROOT_SPAN, Recorder

        recorder = Recorder()
        recorder.install()
        run = recorder.wrap(ROOT_SPAN, cli.main)
    stdout = io.StringIO()
    error = None
    started = _now()
    try:
        with contextlib.redirect_stdout(stdout):
            code = run([*argv, "--out", str(out)])
    except Exception:  # a traceback escaping the CLI is a failed run
        code, error = "exception", traceback.format_exc()
    ended = _now()

    timings = {"raw_setup_s": setup_done - spec["t_spawn"], "raw_wall_s": ended - started}
    if sampler is not None:
        sampler.stop()
        setup = sampler.normalize(spec["t_spawn"], setup_done, (sampling_from, setup_done))
        timed = sampler.normalize(started, ended)
        timings = {
            "raw_setup_s": setup["program_s"],
            "raw_wall_s": timed["program_s"],
            "setup_s": setup["nominal_s"],
            "wall_s": timed["nominal_s"],
            "host_speed": timed["host_speed"],
            "speed_samples": timed["samples"],
            "sampler_s": timed["raw_s"] - timed["program_s"],
        }
    result = {
        "rc": code,
        "error": error,
        **timings,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stdout": stdout.getvalue(),
        **_outputs(out),
    }
    if recorder is not None:
        recorder.write(Path(spec["result"]).with_name("spans.csv"))
        result["spans"] = recorder.summary()
        result["counters"] = dict(recorder.counters)
        result["missing_hooks"] = recorder.missing
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
