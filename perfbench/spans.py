"""In-memory span recorder and the hooks that time each layer from outside
the package.

Each hook replaces a layer's entry point as its caller sees it (the name in
the calling module, or the method on its class) with a wrapper that records
one span per call: name, start, end and the enclosing span.  Spans stay in
memory until the run ends.  A hook whose target no longer exists is listed in
``Recorder.missing`` so that the metrics built on it are reported as missing,
never as zero.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict

clock = time.perf_counter

ROOT_SPAN = "cli.main"

# (span name, owner as "module" or "module:Class", attribute)
HOOKS = (
    ("scenario.load", "sma_neck.cli", "load_with_overrides"),
    ("scenario.build", "sma_neck.scenario:Scenario", "build_system"),
    ("scenario.build", "sma_neck.scenario:Scenario", "build_config"),
    ("engine.simulate", "sma_neck.engine", "simulate"),
    ("engine.simulate", "sma_neck.cli", "simulate"),
    ("sma.step_spring", "sma_neck.engine", "step_spring"),
    ("engine.solve", "sma_neck.engine", "_solve_pose_statics"),
    ("engine.residual", "sma_neck.engine:_Statics", "residual"),
    ("traceio.write", "sma_neck.cli", "write_trace"),
    ("plots.emit", "sma_neck.cli", "emit_plots"),
    ("calibrate.evaluate", "sma_neck.calibrate", "evaluate_targets"),
)

# The branch value of an idle spring; sma.active_frac counts the other calls.
BRANCH_ENUM = ("sma_neck.sma:Branch", "IDLE")


class Recorder:
    """Spans of one process, kept as parallel lists, plus integer counters."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack = [-1]

    def wrap(self, name, fn, observe=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every hook target that exists; list the others as missing."""
        observers = self._observers()
        for name, owner_path, attribute in HOOKS:
            owner = _resolve(owner_path)
            target = getattr(owner, attribute, None) if owner is not None else None
            if target is None:
                self.missing.append(f"{owner_path.replace(':', '.')}.{attribute}")
                continue
            setattr(owner, attribute, self.wrap(name, target, observers.get(name)))

    def _observers(self):
        counters = self.counters
        distinct = set()

        def count_steps(args, kwargs, trace):
            counters["steps"] += len(trace)

        def count_bytes(args, kwargs, path):
            counters["trace_bytes"] += os.path.getsize(path)

        def count_candidates(args, kwargs, result):
            parameters = args[2] if len(args) > 2 else kwargs["parameters"]
            distinct.add(tuple(sorted(parameters.items())))
            counters["evaluations"] = len(distinct)

        observers = {
            "engine.simulate": count_steps,
            "traceio.write": count_bytes,
            "calibrate.evaluate": count_candidates,
        }
        enum = _resolve(BRANCH_ENUM[0])
        idle = getattr(enum, BRANCH_ENUM[1], None) if enum is not None else None
        if idle is None:
            self.missing.append(".".join(BRANCH_ENUM).replace(":", "."))
        else:
            def count_active(args, kwargs, state):
                if state.branch is not idle:
                    counters["active"] += 1

            observers["sma.step_spring"] = count_active
        return observers

    def summary(self) -> dict:
        """Calls, inclusive seconds and self seconds per span name.

        Self time is a span's duration minus the time its direct child spans
        cover; children never overlap because the program is single-threaded.
        """
        child_time = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[index] - self.starts[index]
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[index]
        return dict(out)

    def write(self, path) -> None:
        """Write every span as CSV: name, start and end (µs from the first
        span) and the index of the enclosing span (-1 for none)."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", newline="\n") as handle:
            handle.write("index,name,start_us,end_us,parent\n")
            for index, name in enumerate(self.names):
                handle.write(
                    f"{index},{name},{(self.starts[index] - origin) * 1e6:.3f},"
                    f"{(self.ends[index] - origin) * 1e6:.3f},{self.parents[index]}\n"
                )


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, class_name, None) if class_name else owner
