import csv
import math

import pytest

from sma_neck import (
    ArcPose,
    BackboneGeometry,
    NeckSystem,
    PennateUnit,
    SmaMaterial,
    SpringConstants,
    SpringGeometry,
    SpringState,
    ThermalEnvironment,
)


@pytest.fixture
def material():
    return SmaMaterial(
        young_martensite=28e9,
        young_austenite=75e9,
        poisson=0.33,
        phase_transform_tensor=-0.55e9,
        thermal_expansion_factor=3e6,
        austenite_start=329.15,  # 56 degC
        austenite_finish=359.15,  # 86 degC
        martensite_start=308.15,  # 35 degC
        martensite_finish=298.15,  # 25 degC
        stress_influence_reverse=11e6,
        stress_influence_forward=11e6,
        resistance_martensite=0.6,
        resistance_austenite=0.75,
        specific_heat=460.0,
        latent_heat=21e3,
    )


@pytest.fixture
def geometry():
    return SpringGeometry(
        wire_diameter=1e-3,
        coil_diameter=8e-3,
        active_coils=20,
        spring_mass=2.5e-3,
        surface_area=15.7e-4,
    )


@pytest.fixture
def env():
    return ThermalEnvironment(ambient_temperature=298.15, convection_coefficient=95.0)


@pytest.fixture
def constants(material, geometry, env):
    """The spring constants ``step_spring`` takes for the three fixtures."""
    return SpringConstants(material, geometry, env)


@pytest.fixture
def backbone():
    return BackboneGeometry(
        length=0.09,
        bending_stiffness_y=0.3,
        torsional_stiffness=0.2,
    )


def make_spring(material=None, temperature=298.15, fraction=1.0, force=2.0):
    return SpringState(
        temperature=temperature,
        martensite_fraction=fraction,
        force=force,
    )


def make_unit(index, azimuth, radius=0.035, base_radius=0.035, alpha=math.radians(20),
              tendon_stiffness=1000.0, force=2.0):
    ca, sa = math.cos(azimuth), math.sin(azimuth)
    return PennateUnit(
        index=index,
        base_attachment=(base_radius * ca, base_radius * sa, 0.0),
        head_attachment_local=(radius * ca, radius * sa, 0.0),
        pennation_angle=alpha,
        tendon_stiffness=tendon_stiffness,
        spring=make_spring(force=force),
        fibers=2,
    )


def make_system(material, geometry, env, backbone, radius=0.035, pretension=2.0,
                alpha=math.radians(20), tendon_stiffness=1000.0):
    units = tuple(
        make_unit(k, math.radians(az), radius=radius, base_radius=radius,
                  alpha=alpha, tendon_stiffness=tendon_stiffness, force=pretension)
        for k, az in ((1, 60.0), (2, 180.0), (3, 300.0))
    )
    return NeckSystem(
        material=material,
        spring_geometry=geometry,
        env=env,
        backbone=backbone,
        units=units,
        head_mass=0.25,
        gravity_enabled=False,
    )


def read_csv(path) -> dict[str, list[float]]:
    """A CSV file with a header row as a column name -> values mapping."""
    with open(path, newline="") as handle:
        names, *rows = csv.reader(handle)
    assert all(len(row) == len(names) for row in rows), path
    return {name: [float(row[i]) for row in rows] for i, name in enumerate(names)}


def pose_from_vars(x):
    """(kappa, phi in [0, 2 pi), twist) of the pose solve's variables
    ``x`` = (u_x, u_y, twist); the Newton driver inlines the same conversion."""
    ux, uy, eps = x
    return math.hypot(ux, uy), math.atan2(uy, ux) % (2.0 * math.pi), eps


@pytest.fixture
def system(material, geometry, env, backbone):
    return make_system(material, geometry, env, backbone)


@pytest.fixture
def straight_pose():
    return ArcPose(0.0, 0.0, 0.0)
