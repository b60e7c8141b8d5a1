"""Derivative-free calibration of scenario parameters against a current ->
peak-bending-angle target table.

The loss (sum of squared relative angle errors over the table) has kinks
where a current first reaches the transformation band, so the search is
coordinate descent with a golden-section line search per parameter instead of
anything gradient-based.  Every evaluation is a full sweep; the routine is
deterministic for a given scenario and spec.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from .engine import sweep
from .scenario import CalibrationSpec, Scenario, apply_parameters, current_parameters

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_FAILED_RUN_LOSS = 1e12


class NonImprovement(RuntimeError):
    """The search could not reduce a non-trivial starting loss."""

    def __init__(self, start_loss: float, best_loss: float, evaluations: int):
        super().__init__(
            f"calibration did not improve: start loss {start_loss:.6g}, "
            f"best loss {best_loss:.6g} after {evaluations} sweep evaluations"
        )
        self.start_loss = start_loss
        self.best_loss = best_loss
        self.evaluations = evaluations


@dataclass(frozen=True)
class CalibrationResult:
    parameters: dict[str, float]
    loss: float
    start_loss: float
    achieved: tuple[tuple[float, float], ...]  # (current A, max bending deg)
    evaluations: int


def evaluate_targets(
    scenario: Scenario,
    spec: CalibrationSpec,
    parameters: dict[str, float],
    *,
    prefixes: dict | None = None,
) -> tuple[float, tuple[tuple[float, float], ...]]:
    """(loss, achieved table) of one parameter candidate; ``prefixes`` goes
    to ``sweep``."""
    candidate = apply_parameters(scenario, parameters)
    rows = sweep(
        candidate.build_system(),
        [amps for amps, _ in spec.targets],
        candidate.calibration_config(spec),
        unit_index=spec.unit_index,
        prefixes=prefixes,
    )
    loss = 0.0
    achieved = []
    for row, (_, target_deg) in zip(rows, spec.targets):
        if row.max_bending_angle is None:
            achieved.append((row.current, math.nan))
            loss += _FAILED_RUN_LOSS
            continue
        got_deg = math.degrees(row.max_bending_angle)
        achieved.append((row.current, got_deg))
        loss += ((got_deg - target_deg) / target_deg) ** 2
    return loss, tuple(achieved)


def _golden(loss, lo: float, hi: float, iterations: int):
    """The two interior candidates ``((x1, f1), (x2, f2))`` after
    ``iterations`` golden-section steps on [lo, hi].

    Once the bracket stops shrinking in floating point, the state
    ``(a, b, x1, x2)`` repeats, mostly as a two-state cycle.  The loop then
    ends and returns the state the remaining steps would end in, which the
    loop has already visited, so ``loss`` sees no candidate the full loop
    would not.
    """
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = loss(x1)
    f2 = loss(x2)
    seen: dict[bytes, int] = {}
    visited = []
    for step in range(iterations):
        # the bits, so that -0.0 and 0.0 are different states
        state = struct.pack("4d", a, b, x1, x2)
        if state in seen:
            first = seen[state]
            x1, f1, x2, f2 = visited[first + (iterations - first) % (step - first)]
            break
        seen[state] = step
        visited.append((x1, f1, x2, f2))
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = loss(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = loss(x2)
    return (x1, f1), (x2, f2)


def calibrate(scenario: Scenario, spec: CalibrationSpec) -> CalibrationResult:
    """Fit the free parameters to the target table.

    Coordinate descent: each pass runs a golden-section search per free
    parameter inside its bounds (the search interval shrinks around the
    incumbent on later passes).  Returns the best parameters seen; raises
    NonImprovement when a non-trivial starting loss could not be reduced.
    """
    cache: dict[tuple[float, ...], tuple[float, tuple[tuple[float, float], ...]]] = {}
    # candidates that differ only in the size of phase_transform_tensor
    # share each target row's idle prefix (see engine.simulate)
    prefixes: dict = {}
    names = list(spec.free)

    def loss_of(params: dict[str, float]) -> float:
        key = tuple(params[n] for n in names)
        if key not in cache:
            cache[key] = evaluate_targets(scenario, spec, params, prefixes=prefixes)
        return cache[key][0]

    best = current_parameters(scenario, names)
    for name in names:
        lo, hi = spec.bounds[name]
        best[name] = min(max(best[name], lo), hi)
    start_loss = loss_of(best)
    best_loss = start_loss

    for pass_index in range(spec.passes):
        points = True
        for name in names:
            lo_full, hi_full = spec.bounds[name]
            if pass_index == 0:
                lo, hi = lo_full, hi_full
            else:
                # narrow around the incumbent on later passes
                width = (hi_full - lo_full) * 0.3 ** pass_index
                lo = max(lo_full, best[name] - 0.5 * width)
                hi = min(hi_full, best[name] + 0.5 * width)
            points = points and lo == hi

            def line_loss(value: float) -> float:
                return loss_of({**best, name: value})

            for candidate_value, candidate_loss in _golden(
                line_loss, lo, hi, spec.golden_iterations
            ):
                if candidate_loss < best_loss:
                    best_loss = candidate_loss
                    best = {**best, name: candidate_value}
        if points:
            # lo == hi == best[name] for every name, so every later pass
            # only re-reads the cache and changes nothing
            break

    trivial = start_loss <= 1e-9
    if best_loss >= start_loss and not trivial:
        raise NonImprovement(start_loss, best_loss, len(cache))

    # every value ``best`` takes was first evaluated through loss_of
    final_loss, achieved = cache[tuple(best[n] for n in names)]
    return CalibrationResult(
        parameters=best,
        loss=final_loss,
        start_loss=start_loss,
        achieved=achieved,
        evaluations=len(cache),
    )
