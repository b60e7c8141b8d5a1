"""Oracles for the pose solve's inner kernel.

The engine evaluates the moment balance and the 3x3 Newton step with
hand-fused code.  These tests pin that code bit for bit to the plain
compositions it replaces: the residual to the scalar laws of
``tests/reference_model.py`` and ``backbone._frame_t``, and the elimination
to the generic partial-pivot loop kept below, for every right-hand side one
factorisation serves.  The solve's one loop of chord and Newton steps is
pinned to the two-loop solve it replaced, also kept below; that solve takes
its steps with the generic loop and hands on the Jacobian itself, where the
engine hands on its ``_factor3`` factorisation.  Equal bits here keep the
trace CSV byte-identical.
"""

import math
import random
import struct
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from sma_neck.backbone import STRAIGHT_THRESHOLD, ArcPose, _frame_t, _wrap_angle
from sma_neck.engine import (
    _CHORD_STEPS,
    NoConvergence,
    PoseOutOfRange,
    SimConfig,
    _capped,
    _factor3,
    _polar,
    _solve_pose_statics,
    _Statics,
    _substitute3,
)
from sma_neck.scenario import load_default_scenario
from reference_model import _elastic_moment_t, _line_of_action_t, _tendon_moment_t

_ORACLE = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_FORCES = st.tuples(*[st.just(0.0) | st.floats(0.01, 50.0)] * 3)


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


@pytest.fixture(params=["fixture", "bundled"])
def base_system(request, system):
    if request.param == "fixture":
        return system
    return load_default_scenario().build_system()


def _composed_residual(statics, kappa, phi, eps, forces):
    """The moment balance as the composition of the scalar helpers that the
    public ``arc_frame``, ``unit_line_of_action``, ``unit_moment`` and
    ``elastic_moment`` are built from."""
    tip, rot = _frame_t(kappa, phi, eps, statics.length)
    lines = [
        _line_of_action_t((hx, hy, hz), (bx, by, bz), rest, tip, rot)
        for hx, hy, hz, bx, by, bz, rest in statics.attachments
    ]
    mx, my, mz = _tendon_moment_t(tip, lines, forces)
    if statics.gravity_on:
        mx += -statics.head_weight * tip[1]
        my += statics.head_weight * tip[0]
    ex, ey, ez = _elastic_moment_t(
        kappa, phi, eps, statics.ei_y, statics.gj_over_l, statics.length
    )
    return (mx - ex, my - ey, mz - ez), tuple(line[2] for line in lines)


class TestResidualOracle:
    @pytest.mark.parametrize("gravity", [False, True], ids=["no_gravity", "gravity"])
    @_ORACLE
    @given(
        theta=st.just(0.0)
        | st.floats(0.0, STRAIGHT_THRESHOLD, exclude_max=True)
        | st.floats(STRAIGHT_THRESHOLD, 3.0),
        phi=st.floats(-20.0, 20.0),
        twist=st.floats(-0.5, 0.5),
        forces=_FORCES,
    )
    @example(theta=0.0, phi=0.0, twist=0.0, forces=(0.0, 0.0, 0.0))
    @example(theta=STRAIGHT_THRESHOLD, phi=-1.0, twist=0.1, forces=(3.0, 0.0, 7.0))
    @example(theta=1e-9, phi=2 * math.pi, twist=-0.2, forces=(1.0, 2.0, 3.0))
    def test_equals_composition(self, base_system, gravity, theta, phi, twist, forces):
        statics = _Statics(replace(base_system, gravity_enabled=gravity))
        kappa = theta / statics.length
        moment, contractions = statics.residual(kappa, phi, twist, forces)
        want_moment, want_contractions = _composed_residual(
            statics, kappa, phi, twist, forces
        )
        assert moment == want_moment
        assert contractions == want_contractions


_COORD = st.just(0.0) | st.floats(-0.1, 0.1)


class TestRestPose:
    """``simulate`` starts from zero chord contractions instead of reading
    them from the residual at the straight pose: ``rest_chord_length``
    measures that same pose, so each contraction there is exactly +0.0."""

    @_ORACLE
    @given(
        bases=st.tuples(*[st.tuples(_COORD, _COORD, _COORD)] * 3),
        heads=st.tuples(*[st.tuples(_COORD, _COORD, _COORD)] * 3),
        length=st.floats(0.01, 0.5),
    )
    def test_straight_pose_contractions_are_positive_zero(
        self, system, bases, heads, length
    ):
        backbone = replace(system.backbone, length=length)
        units = tuple(
            replace(unit, base_attachment=base, head_attachment_local=head)
            for unit, base, head in zip(system.units, bases, heads)
        )
        for base, head in zip(bases, heads):
            chord = math.dist(base, (head[0], head[1], head[2] + length))
            assume(chord > 1e-6)
        statics = _Statics(replace(system, backbone=backbone, units=units))
        _, contractions = statics.residual(0.0, 0.0, 0.0, (0.0, 0.0, 0.0))
        assert _bits(contractions) == _bits([0.0, 0.0, 0.0])


def _generic_solve3(j, r):
    """Gaussian elimination with partial pivoting on row lists."""
    a = [
        [j[0][0], j[0][1], j[0][2], -r[0]],
        [j[1][0], j[1][1], j[1][2], -r[1]],
        [j[2][0], j[2][1], j[2][2], -r[2]],
    ]
    for col in range(3):
        pivot = max(range(col, 3), key=lambda i: abs(a[i][col]))
        if abs(a[pivot][col]) < 1e-300:
            return None
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
        inv = 1.0 / a[col][col]
        for row in range(col + 1, 3):
            factor = a[row][col] * inv
            if factor != 0.0:
                for k in range(col, 4):
                    a[row][k] -= factor * a[col][k]
    x = [0.0, 0.0, 0.0]
    for row in (2, 1, 0):
        acc = a[row][3]
        for k in range(row + 1, 3):
            acc -= a[row][k] * x[k]
        x[row] = acc / a[row][row]
    return x


def _assert_same_solution(j, r):
    lu, want = _factor3(j), _generic_solve3(j, r)
    if want is None:
        assert lu is None
    else:
        assert lu is not None and _bits(_substitute3(lu, r)) == _bits(want)


_ENTRY = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0])


class TestSolve3Oracle:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(j=st.tuples(*[st.tuples(_ENTRY, _ENTRY, _ENTRY)] * 3),
           r=st.tuples(_ENTRY, _ENTRY, _ENTRY))
    def test_matches_generic_elimination(self, j, r):
        _assert_same_solution(j, r)

    def test_random_matrices_across_scales(self):
        rng = random.Random(7)
        for _ in range(5000):
            scale = 10.0 ** rng.uniform(-12, 12)
            j = [[rng.gauss(0.0, scale) for _ in range(3)] for _ in range(3)]
            r = [rng.gauss(0.0, 1.0) for _ in range(3)]
            _assert_same_solution(j, r)

    @pytest.mark.parametrize(
        "j",
        [
            # pivot ties: the first of equal magnitudes wins
            [[1.0, 2.0, 3.0], [-1.0, 5.0, 1.0], [1.0, -4.0, 2.0]],
            [[2.0, 1.0, 1.0], [2.0, 3.0, 1.0], [-2.0, 1.0, 4.0]],
            [[1.0, 1.0, 2.0], [3.0, 1.0, 5.0], [-3.0, -1.0, 7.0]],
            [[0.5, 4.0, 1.0], [1.0, 2.0, 3.0], [1.0, -2.0, 1.0]],
            # zero sub-pivots: the factor != 0 skip, with both zero signs
            [[3.0, 1.0, 2.0], [0.0, 2.0, 1.0], [-0.0, 1.0, 4.0]],
            [[3.0, 1.0, 2.0], [1.0, 2.0, 1.0], [0.0, 0.0, 4.0]],
            [[-0.0, 1.0, 2.0], [2.0, -0.0, 1.0], [0.0, 3.0, -0.0]],
            [[1e-320, 1.0, 0.0], [1.0, 1e-320, 0.0], [0.0, 0.0, 1.0]],
        ],
    )
    # a zero residual pins the skip of every zero factor: subtracting
    # 0 * -0.0 would flip a zero's sign into the solution
    @pytest.mark.parametrize(
        "r", [(1.0, -2.0, 3.0), (0.0, -0.0, 0.0), (0.0, 0.0, 0.0)]
    )
    def test_ties_and_zero_sub_pivots(self, j, r):
        assert _factor3(j) is not None
        _assert_same_solution(j, r)

    @pytest.mark.parametrize(
        "j",
        [
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            [[0.0, 1.0, 2.0], [0.0, 3.0, 4.0], [0.0, 5.0, 6.0]],
            [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]],
            [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [0.0, 1.0, 1.0]],
            [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]],
            [[1e-301, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        ],
    )
    def test_singular_returns_none(self, j):
        assert _generic_solve3(j, (1.0, 2.0, 3.0)) is None
        assert _factor3(j) is None

    def test_one_factorisation_serves_many_right_hand_sides(self):
        # as in a solve: chord steps and the correction reuse one
        # factorisation, each with its own residual
        rng = random.Random(11)
        for _ in range(1000):
            scale = 10.0 ** rng.uniform(-12, 12)
            j = [[rng.gauss(0.0, scale) for _ in range(3)] for _ in range(3)]
            lu = _factor3(j)
            for r in (
                [rng.gauss(0.0, 1.0) for _ in range(3)],
                (0.0, -0.0, 0.0),
                [rng.gauss(0.0, 1e-12) for _ in range(3)],
                [rng.gauss(0.0, 1.0) for _ in range(3)],
            ):
                assert _bits(_substitute3(lu, r)) == _bits(_generic_solve3(j, r))


# --- the pose solve's step loop -------------------------------------------


def _two_loop_solve_pose_statics(
    statics: _Statics,
    forces,
    x0: float,
    x1: float,
    x2: float,
    config: SimConfig,
    jacobian=None,
):
    """Equilibrium pose (kappa, phi in [0, 2 pi), twist), its residual norm,
    the unit chord contractions at that pose, the last Jacobian used and the
    corrected pose, by damped Newton on (u_x, u_y, twist) started at
    (``x0``, ``x1``, ``x2``).

    The corrected pose is the accepted one in (u_x, u_y, twist) plus the
    chord step its residual and the returned Jacobian give, capped like the
    others; it is the accepted pose itself without a Jacobian or with a
    singular one.  It costs no residual evaluation, and it lies closer to
    the exact root than the accepted pose, whose error is anywhere below the
    tolerance; ``simulate`` extrapolates the next start from these.

    ``jacobian`` is one kept from an earlier solve (what this function
    returned last), or None.  With one, the solve first takes up to two chord
    (simplified-Newton) steps with it, each capped like a Newton step and
    kept only while the residual falls; it returns as soon as the residual
    meets the tolerance, handing the same Jacobian back.  Otherwise, and
    always without one, it runs damped Newton with a fresh Jacobian per step
    and returns the last of them.  Chord and Newton steps together number at
    most ``config.max_newton_iterations``.  Every pose returned
    has passed the range check; a solve that stalls raises NoConvergence.
    """
    length = statics.length
    (kappa, phi), eps = _polar(x0, x1), x2

    tol = config.solver_tolerance
    res, contractions = statics.residual(kappa, phi, eps, forces)
    norm = math.sqrt(res[0] * res[0] + res[1] * res[1] + res[2] * res[2])
    # cap on per-iteration curvature-variable moves (keeps theta steps <= ~29 deg)
    max_move = 0.5 / length
    iterations = config.max_newton_iterations

    if jacobian is not None and not norm < tol:
        # chord steps: a step that does not lower the residual is dropped,
        # and a second one from the same point would repeat it
        for _ in range(min(_CHORD_STEPS, iterations)):
            step = _generic_solve3(jacobian, res)
            if step is None:
                break
            iterations -= 1
            s0, s1, s2 = _capped(*step, max_move)
            c0, c1, c2 = x0 + s0, x1 + s1, x2 + s2
            c_kappa, c_phi = _polar(c0, c1)
            cand_res, cand_contractions = statics.residual(c_kappa, c_phi, c2, forces)
            r0, r1, r2 = cand_res
            cand_norm = math.sqrt(r0 * r0 + r1 * r1 + r2 * r2)
            if not cand_norm < norm:
                break
            x0, x1, x2, kappa, phi, eps = c0, c1, c2, c_kappa, c_phi, c2
            res, contractions, norm = cand_res, cand_contractions, cand_norm
            if norm < tol:
                break

    best = (kappa, phi, eps)
    best_norm = norm

    for _ in range(iterations):
        if norm < tol:
            break
        jacobian = statics.jacobian((x0, x1, x2), forces)
        step = _generic_solve3(jacobian, res)
        if step is None:
            # singular Jacobian: nudge along the residual direction
            scale = max_move / max(norm, 1e-300)
            s0, s1, s2 = -res[0] * scale, -res[1] * scale, -res[2] * scale
        else:
            s0, s1, s2 = step
        s0, s1, s2 = _capped(s0, s1, s2, max_move)
        # damped update: halve the step until the residual falls; after nine
        # tries the tenth, smallest candidate is taken anyway to escape flat
        # spots
        for halving in range(10):
            c0, c1, eps = x0 + s0, x1 + s1, x2 + s2
            kappa, phi = _polar(c0, c1)
            cand_res, cand_contractions = statics.residual(kappa, phi, eps, forces)
            r0, r1, r2 = cand_res
            cand_norm = math.sqrt(r0 * r0 + r1 * r1 + r2 * r2)
            if cand_norm < norm or cand_norm == 0.0 or halving == 9:
                break
            s0, s1, s2 = 0.5 * s0, 0.5 * s1, 0.5 * s2
        x0, x1, x2 = c0, c1, eps
        res, contractions, norm = cand_res, cand_contractions, cand_norm
        if norm < best_norm:
            best, best_norm = (kappa, phi, eps), norm

    if not norm < tol:
        raise NoConvergence(ArcPose(*best), best_norm, tol)
    # the last pose is the best: had an earlier one met the tolerance, the
    # loop would have stopped there
    theta = kappa * length
    if theta > math.pi:
        raise PoseOutOfRange(
            f"bending angle {math.degrees(theta):.1f} deg exceeds 180 deg"
        )
    corrected = (x0, x1, x2)
    if jacobian is not None:
        step = _generic_solve3(jacobian, res)
        if step is not None:
            s0, s1, s2 = _capped(*step, max_move)
            corrected = (x0 + s0, x1 + s1, x2 + s2)
    return kappa, _wrap_angle(phi), x2, norm, contractions, jacobian, corrected


_BUNDLED_STATICS = _Statics(load_default_scenario().build_system())
# the second row is twice the first, so the elimination meets an exact zero
# pivot and _factor3 returns None
_SINGULAR = ((1.0, 2.0, 3.0), (2.0, 4.0, 6.0), (1.0, 1.0, 1.0))
_KEPT = ("none", "converged", "scaled_column", "singular")


def _kept_jacobian(kind, jacobian_forces, column, scale):
    """The Jacobian a solve starts with, and the pose it was formed near:
    none (and the straight pose), the one a converged solve from a bent pose
    returned with the corrected pose it returned, that Jacobian with
    ``column`` scaled by ``scale`` (so that chord steps overshoot and get
    dropped), or a singular one (and the straight pose).  The solve is the
    two-loop one, which hands on the Jacobian itself."""
    if kind == "none":
        return None, (0.0, 0.0, 0.0)
    if kind == "singular":
        return _SINGULAR, (0.0, 0.0, 0.0)
    *_, jacobian, corrected = _two_loop_solve_pose_statics(
        _BUNDLED_STATICS, jacobian_forces, 2.0, -1.0, 0.05,
        SimConfig(dt=1e-3, duration=1e-3),
    )
    if kind == "scaled_column":
        jacobian = tuple(
            tuple(v * scale if i == column else v for i, v in enumerate(row))
            for row in jacobian
        )
    return jacobian, corrected


def _start(near, forces, jacobian_forces, x, pose, offset):
    """The forces and start of one solve: as drawn, or, like a step of
    ``simulate``, near the forces and the pose the kept Jacobian came from."""
    if not near:
        return forces, x
    return (
        tuple(f * (1.0 + offset) for f in jacobian_forces),
        tuple(p + offset * v for p, v in zip(pose, (1.0, -1.0, 0.01))),
    )


def _first_chord_dropped(statics, forces, x, config, jacobian):
    """Whether the solve's first chord step, if it takes one, is dropped."""
    res, _ = statics.residual(*_polar(x[0], x[1]), x[2], forces)
    norm = math.sqrt(res[0] * res[0] + res[1] * res[1] + res[2] * res[2])
    step = None if jacobian is None else _generic_solve3(jacobian, res)
    if step is None or norm < config.solver_tolerance:
        return False
    s0, s1, s2 = _capped(*step, 0.5 / statics.length)
    (r0, r1, r2), _ = statics.residual(
        *_polar(x[0] + s0, x[1] + s1), x[2] + s2, forces
    )
    return not math.sqrt(r0 * r0 + r1 * r1 + r2 * r2) < norm


def _flat_bits(value):
    """The bits of a float or of a (nested) tuple of floats; None and ints
    as they are."""
    if value is None or isinstance(value, int):
        return value
    if isinstance(value, float):
        return _bits((value,))
    return tuple(_flat_bits(v) for v in value)


def _assert_same_solve(forces, x, budget, tolerance, jacobian):
    """Run both solves on one input, the engine's with the factorisation of
    ``jacobian``; require the same seven results to the bit, the returned
    factorisation that of the returned Jacobian and the very one passed in
    where the Jacobian was handed back, or the same exception with the same
    best pose.  Returns the exception type, or the returned Jacobian."""
    config = SimConfig(
        dt=1e-3, duration=1e-3, solver_tolerance=tolerance,
        max_newton_iterations=budget,
    )
    kept = None if jacobian is None else _factor3(jacobian)
    outcomes = []
    for solve, given in (
        (_two_loop_solve_pose_statics, jacobian), (_solve_pose_statics, kept)
    ):
        try:
            outcomes.append(solve(_BUNDLED_STATICS, forces, *x, config, given))
        except (NoConvergence, PoseOutOfRange, ValueError) as exc:
            outcomes.append(exc)
    want, got = outcomes
    if isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
        assert str(got) == str(want)
        if isinstance(want, NoConvergence):
            w, g = want.best_pose, got.best_pose
            assert _flat_bits((g.curvature, g.bending_plane_angle, g.twist)) == (
                _flat_bits((w.curvature, w.bending_plane_angle, w.twist))
            )
            assert _flat_bits(got.best_residual) == _flat_bits(want.best_residual)
        return type(want)
    assert not isinstance(got, Exception), got
    assert len(got) == len(want) == 7
    for i, (a, b) in enumerate(zip(got, want)):
        if i != 5:
            assert _flat_bits(a) == _flat_bits(b), (a, b)
    returned = want[5]
    if returned is jacobian:
        assert got[5] is kept
    else:
        assert _flat_bits(got[5]) == _flat_bits(_factor3(returned))
    return returned


_START = st.just(0.0) | st.floats(-1.0, 1.0) | st.floats(-30.0, 30.0)


class TestOneStepLoop:
    """``_solve_pose_statics`` takes its chord and Newton steps in one loop;
    it must do exactly what the two-loop solve above did, at small budgets
    too, where a kept Jacobian's chord steps use up the budget."""

    @_ORACLE
    @given(
        forces=st.tuples(*[st.just(0.0) | st.floats(0.0, 65.0)] * 3),
        x=st.tuples(_START, _START, st.just(0.0) | st.floats(-0.5, 0.5)),
        budget=st.sampled_from([1, 2, 3, 60]),
        tolerance=st.sampled_from([1e-9, 1e-6]),
        kind=st.sampled_from(_KEPT),
        jacobian_forces=st.tuples(*[st.floats(0.5, 65.0)] * 3),
        column=st.integers(0, 2),
        scale=st.sampled_from([1e-3, 0.05, 20.0]),
        near=st.booleans(),
        offset=st.just(0.0) | st.floats(-0.05, 0.05),
    )
    @example(forces=(60.0, 5.7, 5.7), x=(0.0, 0.0, 0.0), budget=1, tolerance=1e-9,
             kind="converged", jacobian_forces=(60.0, 5.7, 5.7), column=0, scale=1.0,
             near=True, offset=1e-4)
    @example(forces=(30.0, 4.0, 4.0), x=(1.0, 1.0, 0.0), budget=2, tolerance=1e-9,
             kind="scaled_column", jacobian_forces=(30.0, 4.0, 4.0), column=1,
             scale=1e-3, near=True, offset=0.0)
    @example(forces=(8.0, 8.0, 1.0), x=(0.0, 0.0, 0.0), budget=3, tolerance=1e-9,
             kind="singular", jacobian_forces=(1.0, 1.0, 1.0), column=0, scale=1.0,
             near=False, offset=0.0)
    def test_equals_the_two_loop_solve(
        self, forces, x, budget, tolerance, kind, jacobian_forces, column, scale,
        near, offset,
    ):
        jacobian, pose = _kept_jacobian(kind, jacobian_forces, column, scale)
        forces, x = _start(near, forces, jacobian_forces, x, pose, offset)
        _assert_same_solve(forces, x, budget, tolerance, jacobian)

    def test_draws_reach_every_path(self):
        """The same inputs, drawn by a seeded loop, reach every path: a solve
        that ends on chord steps alone, a dropped chord step, a singular kept
        Jacobian, a fresh Newton solve and a stalled one.  No draw in the 8 A
        force range balances past 180 degrees, so ``PoseOutOfRange`` is left to
        the solve tests in ``tests/test_engine.py``."""
        assert _factor3(_SINGULAR) is None
        rng = random.Random(20231020)
        seen = set()

        def start():
            return rng.choice([0.0, rng.uniform(-1.0, 1.0), rng.uniform(-30.0, 30.0)])

        def force():
            return rng.choice([0.0, rng.uniform(0.0, 65.0)])

        for _ in range(600):
            budget = rng.choice([1, 2, 3, 60])
            tolerance = rng.choice([1e-9, 1e-6])
            kind = rng.choice(_KEPT)
            jacobian_forces = tuple(rng.uniform(0.5, 65.0) for _ in range(3))
            jacobian, pose = _kept_jacobian(
                kind, jacobian_forces, rng.randrange(3), rng.choice([1e-3, 0.05, 20.0])
            )
            forces, x = _start(
                rng.random() < 0.5,
                (force(), force(), force()),
                jacobian_forces,
                (start(), start(), rng.choice([0.0, rng.uniform(-0.5, 0.5)])),
                pose,
                rng.choice([0.0, rng.uniform(-0.05, 0.05)]),
            )
            config = SimConfig(dt=1e-3, duration=1e-3, solver_tolerance=tolerance)
            if _first_chord_dropped(_BUNDLED_STATICS, forces, x, config, jacobian):
                seen.add(("dropped", budget))
            outcome = _assert_same_solve(forces, x, budget, tolerance, jacobian)
            if isinstance(outcome, type):
                seen.add((outcome.__name__, kind))
            elif jacobian is not None and outcome is jacobian:
                seen.add(("kept", kind, budget))
            else:
                seen.add(("fresh", kind))
        for path in [
            ("kept", "converged", 1), ("kept", "converged", 60),
            ("dropped", 1), ("dropped", 2), ("dropped", 3), ("dropped", 60),
            ("fresh", "none"), ("fresh", "converged"), ("fresh", "scaled_column"),
            ("fresh", "singular"),
            ("NoConvergence", "converged"), ("NoConvergence", "scaled_column"),
            ("NoConvergence", "singular"), ("NoConvergence", "none"),
        ]:
            assert path in seen, (path, sorted(seen, key=str))
