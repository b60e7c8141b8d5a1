"""Every public model dataclass refuses NaN, +inf and -inf in each float it
holds, with a ``ValueError`` (a ``ValidationError`` is one).

The walk covers every float field of the bundled instances and every float
inside a tuple or dict field (an attachment coordinate, a calibration bound
or target), set one at a time through ``dataclasses.replace``, which runs
the constructor's checks.  A value a field may take is on ``ALLOWED`` with
its reason, and must be accepted there.  Every public dataclass of the
package is either walked or listed in ``NOT_MODEL`` with its reason, so a
new one cannot be missed.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass, replace

import pytest

import sma_neck
from sma_neck import Segment, load_default_scenario

_SCENARIO = load_default_scenario()
_SYSTEM = _SCENARIO.build_system()

# one bundled instance of each model dataclass
INSTANCES = {
    type(obj): obj
    for obj in (
        _SYSTEM.material,
        _SYSTEM.spring_geometry,
        _SYSTEM.env,
        _SYSTEM.units[0].spring,
        _SYSTEM.backbone,
        _SYSTEM.units[0],
        _SYSTEM,
        _SCENARIO.simulation.current_profile.segments[0],
        _SCENARIO.simulation.current_profile,
        _SCENARIO.simulation,
        _SCENARIO.calibration,
        sma_neck.ArcPose(0.5, 1.0, 0.1),
    )
}

NOT_MODEL = {
    # results a run or a search returns, not inputs to one
    "SweepRow": "a sweep's result row",
    "CalibrationResult": "a calibration's result",
    # the parsed file: the schema checks its fields, and build_system hands
    # each one to a model dataclass walked here
    "Scenario": "the parsed scenario document",
}

# (class, field, value) that a field may take, with the reason
ALLOWED = {
    ("SmaMaterial", "stress_influence_reverse", math.inf):
        "an infinite influence means the band edges do not shift with stress",
    ("SmaMaterial", "stress_influence_forward", math.inf):
        "an infinite influence means the band edges do not shift with stress",
}

_BAD = (math.nan, math.inf, -math.inf)


def _float_leaves(value, path=()):
    """(path, float) for each float in ``value``, looking inside tuples and
    dict values; ``path`` is the sequence of indices and keys to it."""
    if type(value) is float:
        yield path, value
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _float_leaves(item, path + (i,))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _float_leaves(item, path + (key,))


def _with(value, path, new):
    """``value`` with the leaf at ``path`` replaced by ``new``."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, head: _with(value[head], rest, new)}
    items = list(value)
    items[head] = _with(items[head], rest, new)
    return tuple(items)


def _cases():
    for cls, obj in INSTANCES.items():
        for f in fields(obj):
            if not f.init:
                continue
            for path, _ in _float_leaves(getattr(obj, f.name)):
                for bad in _BAD:
                    name = f"{cls.__name__}.{f.name}{''.join(f'[{p!r}]' for p in path)}"
                    yield pytest.param(cls, f.name, path, bad, id=f"{name}={bad}")


def test_every_public_dataclass_is_walked_or_excused():
    public = {
        name for name in sma_neck.__all__ if is_dataclass(getattr(sma_neck, name))
    }
    walked = {cls.__name__ for cls in INSTANCES}
    assert walked.isdisjoint(NOT_MODEL)
    assert public == walked | set(NOT_MODEL)


def test_the_walk_reaches_tuple_and_dict_members():
    ids = {case.id for case in _cases()}
    for expected in (
        "PennateUnit.base_attachment[2]=nan",
        "PennateUnit.head_attachment_local[0]=-inf",
        "CalibrationSpec.targets[1][0]=inf",
        "CalibrationSpec.bounds['phase_transform_tensor'][1]=nan",
        "SimConfig.dt=inf",
        "NeckSystem.head_mass=nan",
    ):
        assert expected in ids, expected


@pytest.mark.parametrize("cls, name, path, bad", _cases())
def test_non_finite_float_is_refused(cls, name, path, bad):
    obj = INSTANCES[cls]
    new = _with(getattr(obj, name), path, bad)
    key = (cls.__name__, name, bad)
    if key in ALLOWED:
        assert not path
        replace(obj, **{name: new})  # accepted
        return
    with pytest.raises(ValueError):
        replace(obj, **{name: new})


def test_allowed_entries_are_taken_by_a_run():
    """With an infinite stress influence the band edges stay put, and a
    short heated run of the bundled scenario ends normally."""
    material = replace(
        _SYSTEM.material,
        stress_influence_reverse=math.inf,
        stress_influence_forward=math.inf,
    )
    system = replace(_SYSTEM, material=material)
    assert sma_neck.sma._reverse_band(material, 5e7) == (
        material.austenite_start, material.austenite_finish
    )
    config = _SCENARIO.build_config(
        dt=2e-3,
        duration=0.5,
        current_profile=sma_neck.CurrentProfile((Segment(1, 0.0, 0.5, 8.0),)),
    )
    trace = sma_neck.simulate(system, config)
    assert len(trace) == 250 and all(map(math.isfinite, trace.theta))
