"""Command-line entry point: simulate, sweep, calibrate, validate-config.

Exit codes: 0 success; 1 for parse, units and validation failures; 2 for
solver, calibration and io failures.
Every failure prints one machine-parseable line (``error: <kind>: <detail>``)
followed by a human explanation; stack traces never reach the user.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from .calibrate import NonImprovement, calibrate
from .engine import SOLVER_FAILURES, simulate, sweep
from .plots import emit_plots
from .scenario import (
    ParseError,
    Scenario,
    ValidationError,
    _read_scenario,
    default_scenario_text,
    load_with_overrides,
)
from .sma import StepTooLarge
from .traceio import write_trace
from .units import UnitsError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sma-neck",
        description=(
            "Simulator for an SMA-spring actuated continuum neck with three "
            "pennate muscle units."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--scenario",
            type=Path,
            default=None,
            help="scenario YAML (defaults to the bundled scenario)",
        )
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted-key override applied before validation (repeatable)",
        )
        p.add_argument(
            "--quiet",
            action="store_true",
            help=(
                "drop simulate's summary, validate-config's ok line and every "
                "'wrote <path>' line; sweep and calibrate still print their tables"
            ),
        )

    p_sim = sub.add_parser("simulate", help="run the scenario and write the trace")
    common(p_sim)
    p_sim.add_argument("--plots", action="store_true", help="also write SVG panels")

    p_sweep = sub.add_parser("sweep", help="peak bending angle per input current")
    common(p_sweep)
    p_sweep.add_argument(
        "--currents",
        required=True,
        help="comma-separated list of currents in amps, e.g. 4,5,6,7,8",
    )
    p_sweep.add_argument(
        "--hold", type=float, required=True, help="seconds of current per run"
    )
    p_sweep.add_argument(
        "--unit", type=int, default=1, help="actuated unit index (1..3)"
    )

    p_cal = sub.add_parser(
        "calibrate", help="fit free parameters against the scenario's target table"
    )
    common(p_cal)

    p_val = sub.add_parser("validate-config", help="schema-check a scenario file")
    common(p_val)
    return parser


def _fail(kind: str, detail: str, explanation: str, code: int) -> int:
    print(f"error: {kind}: {detail}", file=sys.stderr)
    print(explanation, file=sys.stderr)
    return code


def _load(args) -> Scenario:
    if args.scenario is None:
        text = default_scenario_text()
    else:
        text = _read_scenario(args.scenario)
    return load_with_overrides(text, args.overrides)


def _cmd_simulate(args) -> int:
    scenario = _load(args)
    system = scenario.build_system()
    config = scenario.build_config()
    started = time.perf_counter()
    trace = simulate(system, config)
    wall = time.perf_counter() - started
    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = write_trace(trace, args.out / f"{scenario.run_id}_trace.csv")
    written = [csv_path]
    if args.plots:
        written.extend(emit_plots(trace, args.out, scenario.run_id))
    if not args.quiet:
        print(
            f"max_theta_deg={math.degrees(trace.max_bending_angle()):.4f} "
            f"final_phi_deg={math.degrees(trace.final_phi()):.4f} "
            f"wall_s={wall:.2f}"
        )
        for path in written:
            print(f"wrote {path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    scenario = _load(args)
    try:
        currents = [float(tok) for tok in args.currents.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"--currents: cannot parse {args.currents!r}") from None
    if not currents:
        raise ValidationError("--currents: need at least one value")
    if not all(math.isfinite(a) and a >= 0.0 for a in currents):
        raise ValidationError(
            f"--currents: values must be finite and non-negative, got {args.currents!r}"
        )
    try:
        config = scenario.build_config(duration=args.hold)
    except ValueError as exc:
        raise ValidationError(f"--hold: {exc}") from None
    if not 1 <= args.unit <= 3:
        raise ValidationError("--unit: must be 1, 2 or 3")
    system = scenario.build_system()
    rows = sweep(system, currents, config, unit_index=args.unit)
    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = args.out / f"{scenario.run_id}_sweep.csv"
    lines = ["I_A,max_theta_deg"]
    print("I_A    max_theta_deg")
    failed = [row for row in rows if row.error is not None]
    for row in rows:
        if row.error is not None:
            print(f"{row.current:<6.4g} failed: {row.error}")
            continue
        deg = math.degrees(row.max_bending_angle)
        print(f"{row.current:<6.4g} {deg:.4f}")
        lines.append(f"{row.current:.9g},{deg:.9g}")
    csv_path.write_text("\n".join(lines) + "\n", newline="\n")
    if not args.quiet:
        print(f"wrote {csv_path}")
    if failed:
        return _fail(
            "solver",
            f"{len(failed)} of {len(rows)} rows failed: {failed[0].error}",
            "The listed currents could not be simulated; try a smaller dt or "
            "weaker currents.",
            EXIT_SOLVER,
        )
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    scenario = _load(args)
    if scenario.calibration is None:
        raise ValidationError(
            "calibration: scenario has no calibration section; add one or use --set"
        )
    result = calibrate(scenario, scenario.calibration)
    print("fitted parameters:")
    for name, value in result.parameters.items():
        print(f"  {name} = {value:.6g}")
    print(f"loss: {result.loss:.6g} (started at {result.start_loss:.6g}, "
          f"{result.evaluations} sweep evaluations)")
    print("I_A    target_deg achieved_deg")
    lines = ["I_A,target_theta_deg,achieved_theta_deg"]
    for (amps, achieved_deg), (_, target_deg) in zip(
        result.achieved, scenario.calibration.targets
    ):
        print(f"{amps:<6.4g} {target_deg:<10.4f} {achieved_deg:.4f}")
        lines.append(f"{amps:.9g},{target_deg:.9g},{achieved_deg:.9g}")
    args.out.mkdir(parents=True, exist_ok=True)
    report = args.out / f"{scenario.run_id}_calibration.csv"
    report.write_text("\n".join(lines) + "\n", newline="\n")
    if not args.quiet:
        print(f"wrote {report}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    scenario = _load(args)
    if not args.quiet:
        print(f"ok: scenario valid (schema_version={scenario.schema_version})")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "calibrate": _cmd_calibrate,
        "validate-config": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ParseError as exc:
        return _fail(
            "parse", str(exc), "The scenario document could not be read.", EXIT_VALIDATION
        )
    except UnitsError as exc:
        return _fail(
            "units",
            str(exc),
            "Every physical quantity needs an explicit, known unit.",
            EXIT_VALIDATION,
        )
    except ValidationError as exc:
        return _fail(
            "validation",
            str(exc),
            "The scenario failed validation; fix the named field and re-run.",
            EXIT_VALIDATION,
        )
    except SOLVER_FAILURES as exc:
        if isinstance(exc, StepTooLarge) and exc.overflowed:
            explanation = (
                "No step size helps; bring the current and the spring's thermal "
                "constants into range."
            )
        else:
            explanation = "The simulation could not proceed; try a smaller dt or weaker loads."
        return _fail("solver", str(exc), explanation, EXIT_SOLVER)
    except NonImprovement as exc:
        return _fail(
            "calibration",
            str(exc),
            "The search could not improve on the starting parameters; widen the "
            "bounds or adjust the fixed defaults.",
            EXIT_SOLVER,
        )
    except OSError as exc:
        return _fail("io", str(exc), "A file could not be read or written.", EXIT_SOLVER)


if __name__ == "__main__":
    sys.exit(main())
