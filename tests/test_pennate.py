import math
import random
from dataclasses import replace

import numpy as np
import pytest

from sma_neck import ArcPose, arc_frame
from conftest import make_unit
from reference_model import (
    pennate_force,
    tendon_force_from_stretch,
    unit_line_of_action,
    unit_moment,
)


class TestPennateForce:
    def test_aligned_fibers(self):
        unit = make_unit(1, 0.0, alpha=0.0)
        assert pennate_force(unit, 5.0) == pytest.approx(10.0)

    def test_sixty_degrees(self):
        unit = make_unit(1, 0.0, alpha=math.radians(60))
        assert pennate_force(unit, 5.0) == pytest.approx(5.0)

    def test_near_orthogonal_transmits_nothing(self):
        unit = make_unit(1, 0.0, alpha=math.radians(89.9))
        assert pennate_force(unit, 5.0) < 0.02

    def test_zero_iff_zero(self):
        unit = make_unit(1, 0.0)
        assert pennate_force(unit, 0.0) == 0.0
        assert pennate_force(unit, 1e-9) > 0.0


class TestTendonForce:
    def test_rest_length(self):
        assert tendon_force_from_stretch(make_unit(1, 0.0), 0.0) == 0.0

    def test_slack_cannot_push(self):
        assert tendon_force_from_stretch(make_unit(1, 0.0), -0.02) == 0.0

    def test_taut_branch_slope(self):
        unit = make_unit(1, 0.0, tendon_stiffness=1000.0)
        assert tendon_force_from_stretch(unit, 0.01) == pytest.approx(10.0)


class TestLineOfAction:
    def test_rest_configuration_has_no_contraction(self, backbone, straight_pose):
        for k, az in ((1, 60.0), (2, 180.0), (3, 300.0)):
            unit = make_unit(k, math.radians(az))
            _, _, contraction = unit_line_of_action(unit, straight_pose, backbone)
            assert contraction == pytest.approx(0.0, abs=1e-15)

    def test_bending_toward_a_unit_shortens_it(self, backbone):
        units = [make_unit(k, math.radians(az)) for k, az in ((1, 60.0), (2, 180.0), (3, 300.0))]
        pose = ArcPose(2.0, math.radians(60.0), 0.0)
        contractions = [unit_line_of_action(u, pose, backbone)[2] for u in units]
        assert contractions[0] > 0.0
        assert contractions[1] < 0.0
        assert contractions[2] < 0.0

    def test_direction_is_unit_vector_toward_base(self, backbone):
        unit = make_unit(1, math.radians(60.0))
        pose = ArcPose(3.0, 1.0, 0.0)
        point, direction, _ = unit_line_of_action(unit, pose, backbone)
        assert np.linalg.norm(direction) == pytest.approx(1.0, rel=1e-12)
        to_base = np.array(unit.base_attachment) - point
        assert direction == pytest.approx(to_base / np.linalg.norm(to_base))

    def test_small_angle_contraction_oracle(self, backbone):
        # first-order: contraction ~ r * theta * cos(phi - azimuth) for
        # attachments directly above their anchors
        radius = 0.035
        rng = random.Random(5)
        for _ in range(50):
            theta = rng.uniform(0.005, math.radians(5.0))
            phi = rng.uniform(0.0, 2 * math.pi)
            kappa = theta / backbone.length
            pose = ArcPose(kappa, phi, 0.0)
            for k, az in ((1, 60.0), (2, 180.0), (3, 300.0)):
                unit = make_unit(k, math.radians(az), radius=radius)
                _, _, exact = unit_line_of_action(unit, pose, backbone)
                approx = radius * theta * math.cos(phi - math.radians(az))
                assert abs(exact - approx) <= 0.02 * radius * theta


class TestUnitMoment:
    def test_zero_force_zero_moment(self, backbone, straight_pose):
        unit = make_unit(1, 0.0)
        assert unit_moment(unit, straight_pose, backbone, 0.0) == pytest.approx(
            [0.0, 0.0, 0.0]
        )

    def test_moment_orthogonal_to_lever(self, backbone):
        rng = random.Random(11)
        for _ in range(50):
            pose = ArcPose(rng.uniform(0.0, 25.0), rng.uniform(0.0, 2 * math.pi), 0.0)
            unit = make_unit(2, math.radians(180.0))
            m = unit_moment(unit, pose, backbone, 7.0)
            point, direction, _ = unit_line_of_action(unit, pose, backbone)
            tip = np.array(arc_frame(pose, backbone, backbone.length))[:3, 3]
            lever = point - tip
            assert abs(np.dot(m, lever)) < 1e-12 * max(np.linalg.norm(m), 1.0)
            assert abs(np.dot(m, direction)) < 1e-12 * max(np.linalg.norm(m), 1.0)

    def test_straight_pose_hand_oracle(self, backbone, straight_pose):
        # unit at azimuth 180 pulling straight down at radius r:
        # lever = r*(-1, 0, 0), force = F*(0, 0, -1), moment = r*F*(0, 1, 0)...
        # cross((-r,0,0), (0,0,-F)) = (0*(-F)-0*0, 0*0-(-r)(-F), 0) = (0, -rF, 0)
        radius = 0.035
        force = 4.0
        unit = make_unit(2, math.radians(180.0), radius=radius)
        m = unit_moment(unit, straight_pose, backbone, force)
        assert m == pytest.approx([0.0, -radius * force, 0.0], abs=1e-12)
        assert np.linalg.norm(m) == pytest.approx(radius * force, rel=1e-12)

    def test_three_equal_forces_cancel(self, backbone, straight_pose):
        # 120-degree layout: equal pulls on a straight backbone produce no
        # net moment
        radius, force = 0.035, 6.0
        total = np.zeros(3)
        for k, az in ((1, 60.0), (2, 180.0), (3, 300.0)):
            unit = make_unit(k, math.radians(az), radius=radius)
            total += unit_moment(unit, straight_pose, backbone, force)
        assert np.linalg.norm(total) < 1e-9 * radius * force

    def test_frame_change_consistency(self, backbone):
        # computing the moment in the tip frame and rotating back equals the
        # base-frame computation
        rng = random.Random(13)
        for _ in range(30):
            pose = ArcPose(rng.uniform(0.5, 20.0), rng.uniform(0.0, 2 * math.pi), 0.0)
            unit = make_unit(1, math.radians(60.0))
            force = rng.uniform(0.1, 30.0)
            m_base = unit_moment(unit, pose, backbone, force)
            frame = np.array(arc_frame(pose, backbone, backbone.length))
            rot = frame[:3, :3]
            tip = frame[:3, 3]
            point, direction, _ = unit_line_of_action(unit, pose, backbone)
            lever_tip = rot.T @ (np.array(point) - tip)
            force_tip = rot.T @ (force * np.array(direction))
            m_tip = np.cross(lever_tip, force_tip)
            assert np.max(np.abs(rot @ m_tip - m_base)) < 1e-9


class TestValidation:
    def test_pennation_angle_range(self):
        with pytest.raises(ValueError):
            make_unit(1, 0.0, alpha=math.radians(95.0))

    def test_tendon_stiffness_positive(self):
        with pytest.raises(ValueError):
            make_unit(1, 0.0, tendon_stiffness=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("name", ["base_attachment", "head_attachment_local"])
    def test_attachment_coordinates_finite(self, name, axis, value):
        # each constructed, and the run ended in NoConvergence at residual
        # nan at step 0
        point = list(getattr(make_unit(1, 0.0), name))
        point[axis] = value
        with pytest.raises(ValueError, match=f"^{name} coordinates must be finite$"):
            replace(make_unit(1, 0.0), **{name: tuple(point)})
