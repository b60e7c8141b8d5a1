"""The four workloads: CLI arguments made from the seed, and the checks their
outputs must pass.

Every workload runs through ``sma_neck.cli.main`` exactly as a user would
type it.  The seed varies the inputs the program's work depends on (the
sweep currents; the unit order and pulse lengths of the heating cycle) while
keeping the amount of work close to constant, so that timings stay
comparable across seeds.  ``simulate_default`` and ``calibrate_short`` take
no input from the seed, so their outputs are compared with the reference
values stored here at every seed.  At ``CANONICAL_SEED`` the other two get
the inputs listed in their docstrings and are compared with references too;
at other seeds their outputs are checked against invariants only.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field

CANONICAL_SEED = 0

# Outputs carry 9 significant digits (CSV) or 6 (printed calibration
# results); the same code must reproduce the references to within these.
REL_TOL = 1e-6
PRINT_REL_TOL = 1e-5

# Outputs of the seed program at CANONICAL_SEED.
REFERENCE = {
    "simulate_default": {"peak_theta_deg": 6.93628959, "final_phi_rad": 1.04719755},
    "sweep_table": {
        "rows": [
            [4.0, 3.93497012],
            [5.0, 6.93572048],
            [6.0, 12.9626865],
            [7.0, 21.4417794],
            [8.0, 31.9578481],
        ],
    },
    "calibrate_short": {"loss": 0.921566},
    "cycle_units": {
        "final_xi": [
            0.937234643, 0.937234643, 0.910975283, 0.910975283, 0.883305754, 0.883305754,
        ],
    },
}

CALIBRATION_BOUNDS = {
    "convection_coefficient": (85.0, 98.0),
    "phase_transform_tensor": (-3e9, -0.55e9),
}
CALIBRATION_TARGETS = ((5.0, 5.89), (8.0, 32.41))
CALIBRATION_HOLD_S = 1.5


@dataclass
class Inputs:
    workload: str
    seed: int
    argv: list[str]
    params: dict = field(default_factory=dict)

    @property
    def canonical(self) -> bool:
        return self.seed == CANONICAL_SEED


def simulate_default(rng: random.Random) -> tuple[list[str], dict]:
    """The README's first command on the bundled scenario: 6000 steps at
    dt 1 ms, 5 A on unit 1 for 5 s, then 1 s of cooling; trace CSV and five
    SVG panels."""
    return ["simulate", "--plots"], {}


def sweep_table(rng: random.Random) -> tuple[list[str], dict]:
    """A 5 s hold per current at the calibration step size (dt 2 ms).

    Canonical currents 4,5,6,7,8 A; other seeds move each by up to 0.3 A
    (kept within 4-8 A) and shuffle the order."""
    currents = [4.0, 5.0, 6.0, 7.0, 8.0]
    if rng is not None:
        currents = [min(8.0, max(4.0, round(a + rng.uniform(-0.3, 0.3), 2))) for a in currents]
        rng.shuffle(currents)
    argv = [
        "sweep", "--currents", ",".join(f"{a:g}" for a in currents),
        "--hold", "5", "--set", "simulation.dt=2 ms",
    ]
    return argv, {"currents": currents, "hold_s": 5.0}


def calibrate_short(rng: random.Random) -> tuple[list[str], dict]:
    """The bundled calibration, shortened: 1 pass of 3 golden-section
    iterations per free parameter, two target rows (5 A and 8 A) held 1.5 s
    at dt 2 ms.  Both free parameters are still fitted."""
    targets = ", ".join(
        f"{{current: {amps:g} A, max_bending: {deg:g} deg}}"
        for amps, deg in CALIBRATION_TARGETS
    )
    argv = [
        "calibrate",
        "--set", "calibration.passes=1",
        "--set", "calibration.golden_iterations=3",
        "--set", f"calibration.hold={CALIBRATION_HOLD_S:g} s",
        "--set", f"calibration.targets=[{targets}]",
    ]
    return argv, {}


def cycle_units(rng: random.Random) -> tuple[list[str], dict]:
    """Each unit in turn heated at 8 A, then all three cool: 13 s at dt 2 ms.

    Canonical order 1,2,3 with 2 s pulses; other seeds shuffle the order and
    move the first two pulse lengths by up to 0.25 s, with the third taking
    up the difference so that 6 s of heating stay 6 s."""
    order, pulses = [1, 2, 3], [2.0, 2.0, 2.0]
    if rng is not None:
        rng.shuffle(order)
        first = round(2.0 + rng.uniform(-0.25, 0.25), 2)
        second = round(2.0 + rng.uniform(-0.25, 0.25), 2)
        pulses = [first, second, round(6.0 - first - second, 2)]
    segments, start = [], 0.0
    for unit, length in zip(order, pulses):
        end = round(start + length, 2)
        segments.append(f"{{unit: {unit}, start: {start:g} s, end: {end:g} s, current: 8 A}}")
        start = end
    argv = [
        "simulate",
        "--set", "simulation.dt=2 ms",
        "--set", "simulation.duration=13 s",
        "--set", f"profile=[{', '.join(segments)}]",
    ]
    return argv, {"order": order, "pulses_s": pulses}


WORKLOADS = {
    fn.__name__: fn for fn in (simulate_default, sweep_table, calibrate_short, cycle_units)
}


def make_inputs(workload: str, seed: int) -> Inputs:
    rng = None if seed == CANONICAL_SEED else random.Random(f"{workload}:{seed}")
    argv, params = WORKLOADS[workload](rng)
    return Inputs(workload, seed, argv, params)


# --- what one repetition did ------------------------------------------------

_LOSS = re.compile(r"^loss: (\S+) \(started at \S+, (\d+) sweep evaluations\)", re.M)
_PARAM = re.compile(r"^  (\w+) = (\S+)$", re.M)


def calibration_summary(stdout: str) -> dict | None:
    """Fitted parameters, loss and distinct evaluations as ``calibrate`` prints them."""
    match = _LOSS.search(stdout)
    if match is None:
        return None
    return {
        "loss": float(match.group(1)),
        "evaluations": int(match.group(2)),
        "parameters": {name: float(value) for name, value in _PARAM.findall(stdout)},
    }


def operations(inputs: Inputs, rep: dict) -> tuple[int, int]:
    """(attempted, failed) program operations of one repetition: simulate
    runs, sweep rows, or calibration sweeps (distinct evaluations plus the
    final re-evaluation)."""
    failed_run = rep["rc"] != 0
    if inputs.workload == "sweep_table":
        rows = len(rep.get("table", []))
        expected = len(inputs.params["currents"])
        return expected, expected - rows
    if inputs.workload == "calibrate_short":
        summary = calibration_summary(rep["stdout"])
        if summary is None:
            return 1, 1
        bad = sum(1 for row in rep.get("table", []) if not math.isfinite(row[2]))
        return summary["evaluations"] + 1, bad + int(failed_run)
    return 1, int(failed_run)


def sim_seconds(inputs: Inputs, rep: dict) -> float:
    """Simulated seconds the repetition advanced, over every run it made.

    For calibration this counts the distinct evaluations the CLI reports
    (each a sweep over the target rows); the final re-evaluation of the best
    candidate is overhead, not new simulated time."""
    if inputs.workload == "sweep_table":
        return inputs.params["hold_s"] * len(rep.get("table", []))
    if inputs.workload == "calibrate_short":
        summary = calibration_summary(rep["stdout"]) or {"evaluations": 0}
        return summary["evaluations"] * len(CALIBRATION_TARGETS) * CALIBRATION_HOLD_S
    return rep["trace"]["sim_seconds"] if "trace" in rep else 0.0


# --- output checks ------------------------------------------------------------


def _close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return math.isclose(got, want, rel_tol=rel, abs_tol=rel)


def check_rep(inputs: Inputs, rep: dict) -> list[tuple[str, bool, str]]:
    """(check, passed, detail) for the outputs of one repetition."""
    last_error_line = (rep["error"] or "").strip().rpartition("\n")[2]
    checks = [("exit_code", rep["rc"] == 0, f"rc={rep['rc']} {last_error_line}".strip())]
    if rep["rc"] != 0:
        return checks
    ref = REFERENCE[inputs.workload]
    trace = rep.get("trace")
    if inputs.workload in ("simulate_default", "cycle_units"):
        checks.append(("trace_finite", bool(trace and trace["all_finite"]), ""))
        if trace is None:
            return checks
        checks.append((
            "xi_in_unit_interval",
            0.0 <= trace["xi_min"] and trace["xi_max"] <= 1.0,
            f"xi in [{trace['xi_min']}, {trace['xi_max']}]",
        ))
    if inputs.workload == "simulate_default":
        for key in ("peak_theta_deg", "final_phi_rad"):
            checks.append((key, _close(trace[key], ref[key]), f"{trace[key]!r} vs {ref[key]!r}"))
        svgs = [f for f, meta in rep["files"].items() if f.endswith(".svg") and meta["bytes"] > 0]
        checks.append(("svg_panels", len(svgs) == 5, f"{len(svgs)} non-empty SVGs"))
    elif inputs.workload == "cycle_units" and inputs.canonical:
        ok = len(trace["final_xi"]) == len(ref["final_xi"]) and all(
            _close(g, w) for g, w in zip(trace["final_xi"], ref["final_xi"])
        )
        checks.append(("final_xi", ok, f"{trace['final_xi']} vs {ref['final_xi']}"))
    elif inputs.workload == "sweep_table":
        table = rep.get("table", [])
        currents = [row[0] for row in table]
        checks.append((
            "sweep_currents",
            currents == inputs.params["currents"],
            f"{currents} vs {inputs.params['currents']}",
        ))
        checks.append((
            "sweep_angles_positive",
            all(math.isfinite(row[1]) and row[1] > 0.0 for row in table),
            "",
        ))
        if inputs.canonical:
            ok = len(table) == len(ref["rows"]) and all(
                _close(g[0], w[0]) and _close(g[1], w[1]) for g, w in zip(table, ref["rows"])
            )
            checks.append(("sweep_rows", ok, f"{table} vs {ref['rows']}"))
    elif inputs.workload == "calibrate_short":
        checks.extend(_calibration_checks(rep, ref))
    return checks


def _calibration_checks(rep: dict, ref: dict) -> list[tuple[str, bool, str]]:
    summary = calibration_summary(rep["stdout"])
    if summary is None:
        return [("calibration_summary", False, "no loss line in the output")]
    params = summary["parameters"]
    inside = set(params) == set(CALIBRATION_BOUNDS) and all(
        lo <= params[name] <= hi for name, (lo, hi) in CALIBRATION_BOUNDS.items()
    )
    # A better search may reach a lower loss; it must not reach a worse one.
    not_worse = summary["loss"] <= ref["loss"] * (1.0 + PRINT_REL_TOL)
    table = rep.get("table", [])
    recomputed = sum(((got - want) / want) ** 2 for _, want, got in table)
    return [
        ("parameters_inside_bounds", inside, f"{params}"),
        ("loss_not_worse_than_reference", not_worse, f"{summary['loss']!r} vs {ref['loss']!r}"),
        (
            "loss_matches_table",
            len(table) == len(CALIBRATION_TARGETS)
            and _close(recomputed, summary["loss"], PRINT_REL_TOL),
            f"table gives {recomputed!r}",
        ),
    ]


def check_repeats(reps: list[dict]) -> list[tuple[str, bool, str]]:
    """Every repetition of the same inputs writes byte-identical data files."""
    if len(reps) < 2:
        return [("repeat_byte_identical", False, "fewer than two repetitions")]
    checks = []
    for name in sorted(reps[0]["files"]):
        if not name.endswith(".csv"):
            continue
        digests = {rep["files"].get(name, {}).get("sha256") for rep in reps}
        checks.append((f"repeat_byte_identical:{name}", len(digests) == 1, f"{len(digests)} distinct"))
    return checks
