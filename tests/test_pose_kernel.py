"""Oracles for the pose solve's inner kernel.

The engine evaluates the moment balance and the 3x3 Newton step with
hand-fused code.  These tests pin that code bit for bit to the plain
compositions it replaces: the residual to the scalar laws of
``tests/reference_model.py`` and ``backbone._frame_t``, and the elimination
to the generic partial-pivot loop kept below.  Equal bits here keep the trace CSV byte-identical.
"""

import math
import random
import struct
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from sma_neck.backbone import STRAIGHT_THRESHOLD, _frame_t
from sma_neck.engine import _Statics, _solve3
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
        _line_of_action_t(head, base, rest, tip, rot)
        for head, base, rest in zip(statics.heads, statics.bases, statics.rest_chords)
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
    got, want = _solve3(j, r), _generic_solve3(j, r)
    if want is None:
        assert got is None
    else:
        assert got is not None and _bits(got) == _bits(want)


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
    @pytest.mark.parametrize("r", [(1.0, -2.0, 3.0), (0.0, -0.0, 0.0)])
    def test_ties_and_zero_sub_pivots(self, j, r):
        assert _solve3(j, r) is not None
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
        assert _solve3(j, (1.0, 2.0, 3.0)) is None
