import math
import random

import numpy as np
import pytest

from sma_neck import ArcPose, BackboneGeometry, arc_frame, arc_position
from sma_neck.backbone import STRAIGHT_THRESHOLD
from reference_model import elastic_moment


class TestArcPose:
    def test_negative_curvature_normalizes(self):
        pose = ArcPose(-2.0, 0.3)
        assert pose.curvature == 2.0
        assert pose.bending_plane_angle == pytest.approx(0.3 + math.pi)

    def test_plane_angle_wraps(self):
        pose = ArcPose(1.0, 2 * math.pi + 0.5)
        assert pose.bending_plane_angle == pytest.approx(0.5)

    def test_plane_angle_never_wraps_to_two_pi(self):
        # -1e-20 % 2 pi rounds up to exactly 2 pi, outside [0, 2 pi)
        assert ArcPose(1.0, -1e-20).bending_plane_angle == 0.0
        assert ArcPose(1.0, 2 * math.pi).bending_plane_angle == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ArcPose(float("nan"), 0.0)


class TestArcPosition:
    def test_straight_limit(self, backbone):
        p = arc_position(ArcPose(0.0), backbone, 0.05)
        assert p == pytest.approx([0.0, 0.0, 0.05])

    def test_quarter_circle(self):
        geometry = BackboneGeometry(1.0, 1.0, 1.0)
        kappa = 0.5 * math.pi  # kappa * l = pi/2
        p = arc_position(ArcPose(kappa, 0.0), geometry, 1.0)
        assert p == pytest.approx([1 / kappa, 0.0, 1 / kappa], rel=1e-12)

    def test_circle_membership(self, backbone):
        # every arc point lies on the circle of radius 1/kappa about the
        # center in the bending plane
        rng = random.Random(7)
        for _ in range(200):
            kappa = rng.uniform(0.1, math.pi / backbone.length)
            phi = rng.uniform(0.0, 2 * math.pi)
            s = rng.uniform(0.0, backbone.length)
            p = arc_position(ArcPose(kappa, phi), backbone, s)
            center = np.array([math.cos(phi) / kappa, math.sin(phi) / kappa, 0.0])
            assert np.linalg.norm(p - center) == pytest.approx(1 / kappa, rel=1e-9)

    def test_rejects_out_of_range(self, backbone):
        with pytest.raises(ValueError):
            arc_position(ArcPose(1.0), backbone, backbone.length * 1.01)
        with pytest.raises(ValueError):
            arc_position(ArcPose(1.0), backbone, -1e-6)

    def test_series_continuity_at_threshold(self, backbone):
        # values from the closed form at the threshold and the series just
        # below it agree to much better than 1e-10 * length
        length = backbone.length
        kappa_hi = STRAIGHT_THRESHOLD / length
        kappa_lo = kappa_hi * (1.0 - 1e-6)
        for s in (0.25 * length, 0.7 * length, length):
            hi = np.array(arc_position(ArcPose(kappa_hi, 1.1), backbone, s))
            lo = np.array(arc_position(ArcPose(kappa_lo, 1.1), backbone, s))
            assert np.max(np.abs(hi - lo)) < 1e-10 * length

    def test_arc_length_preserved(self, backbone):
        # polyline length of finely sampled positions equals the arc length
        length = backbone.length
        for theta in (0.3, 1.5, math.pi):
            kappa = theta / length
            pose = ArcPose(kappa, 0.7)
            samples = np.linspace(0.0, length, 10_001)
            points = np.array([arc_position(pose, backbone, s) for s in samples])
            poly = np.sum(np.linalg.norm(np.diff(points, axis=0), axis=1))
            assert poly == pytest.approx(length, rel=1e-6)


class TestArcFrame:
    def test_identity_at_rest(self, backbone):
        frame = np.array(arc_frame(ArcPose(0.0, 0.0, 0.0), backbone, 0.04))
        assert frame[:3, :3] == pytest.approx(np.eye(3), abs=1e-15)
        assert frame[:3, 3] == pytest.approx([0.0, 0.0, 0.04])
        assert frame[3] == pytest.approx([0.0, 0.0, 0.0, 1.0])

    def test_planar_bend_is_pitch_rotation(self, backbone):
        kappa = 2.0
        s = 0.05
        theta = kappa * s
        frame = np.array(arc_frame(ArcPose(kappa, 0.0, 0.0), backbone, s))
        expected = np.array(
            [
                [math.cos(theta), 0.0, math.sin(theta)],
                [0.0, 1.0, 0.0],
                [-math.sin(theta), 0.0, math.cos(theta)],
            ]
        )
        assert frame[:3, :3] == pytest.approx(expected, abs=1e-14)

    def test_orthonormal_rotations(self, backbone):
        rng = random.Random(21)
        for _ in range(300):
            pose = ArcPose(
                rng.uniform(0.0, math.pi / backbone.length),
                rng.uniform(0.0, 2 * math.pi),
                rng.uniform(-0.5, 0.5),
            )
            s = rng.uniform(0.0, backbone.length)
            rot = np.array(arc_frame(pose, backbone, s))[:3, :3]
            assert np.max(np.abs(rot.T @ rot - np.eye(3))) < 1e-12
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)

    def test_translation_matches_arc_position(self, backbone):
        pose = ArcPose(3.0, 1.2, 0.1)
        s = 0.06
        frame = np.array(arc_frame(pose, backbone, s))
        assert np.array_equal(frame[:3, 3], arc_position(pose, backbone, s))

    def test_half_arcs_compose(self, backbone):
        # two identically curved half arcs chain into the full arc
        kappa, phi = 4.0, 0.9
        pose = ArcPose(kappa, phi, 0.0)
        half = backbone.length / 2
        first = np.array(arc_frame(pose, backbone, half))
        # second half expressed in the frame of the first half's end
        second = np.array(arc_frame(ArcPose(kappa, phi, 0.0), backbone, half))
        full = np.array(arc_frame(pose, backbone, backbone.length))
        assert np.max(np.abs(first @ second - full)) < 1e-9


class TestElasticMoment:
    def test_rest_stores_nothing(self, backbone):
        assert elastic_moment(ArcPose(0.0, 0.0, 0.0), backbone) == pytest.approx(
            [0.0, 0.0, 0.0]
        )

    def test_pure_bend_magnitude(self, backbone):
        kappa = 2.5
        m = elastic_moment(ArcPose(kappa, 0.8, 0.0), backbone)
        assert np.linalg.norm(m) == pytest.approx(
            backbone.bending_stiffness_y * kappa, rel=1e-12
        )

    def test_linearity_in_curvature(self, backbone):
        m1 = elastic_moment(ArcPose(1.0, 0.3, 0.0), backbone)
        m2 = elastic_moment(ArcPose(2.0, 0.3, 0.0), backbone)
        assert np.linalg.norm(m2) == pytest.approx(2 * np.linalg.norm(m1), rel=1e-12)

    def test_gradient_of_elastic_energy(self, backbone):
        # the local moment components are the gradient of the quadratic
        # energy 0.5*(EIy*kappa^2*l + GJ*eps^2/l) in (kappa*l, eps)
        length = backbone.length

        def energy(theta, eps):
            kappa = theta / length
            return 0.5 * (
                backbone.bending_stiffness_y * kappa * kappa * length
                + backbone.torsional_stiffness * eps * eps / length
            )

        theta, eps = 0.8, 0.25
        h = 1e-6
        d_theta = (energy(theta + h, eps) - energy(theta - h, eps)) / (2 * h)
        d_eps = (energy(theta, eps + h) - energy(theta, eps - h)) / (2 * h)
        pose = ArcPose(theta / length, 0.0, eps)
        m = elastic_moment(pose, backbone)
        local = np.array(
            [
                backbone.bending_stiffness_y * pose.curvature,
                backbone.torsional_stiffness * eps / length,
            ]
        )
        assert np.linalg.norm(m) == pytest.approx(np.linalg.norm(local), rel=1e-12)
        assert local[0] == pytest.approx(d_theta, rel=1e-6)
        assert local[1] == pytest.approx(d_eps, rel=1e-6)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            BackboneGeometry(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            BackboneGeometry(0.1, -1.0, 1.0)

