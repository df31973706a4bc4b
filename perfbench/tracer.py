"""Span tracing around the public functions of each layer of ``repro``.

The tracer wraps functions and methods of the program from the outside --
no file under ``src/`` changes -- and records one span per call: name,
start, end, the enclosing span and the spec being executed.  Spans stay in
memory; :meth:`Tracer.write` dumps them when the traced run ends.  A span's
self time is its duration minus the time its child spans cover.

Only the process that installed the tracer records: worker processes forked
from it inherit the wrappers but pass straight through, so a traced pool run
holds the parent-side spans only.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, "module:qualname") of every wrapped function.  A method is
#: wrapped on the class that defines it; a module function is replaced in
#: every loaded ``repro`` module that imported it by name.
SPANS: Tuple[Tuple[str, str], ...] = (
    ("planning.plan", "repro.planning.rrt:RRTPlanner.plan"),
    ("planning.plan", "repro.planning.rrt:RRTStarPlanner.plan"),
    ("planning.plan", "repro.planning.rrt:RRTConnectPlanner.plan"),
    ("planning.smooth", "repro.planning.smoothing:PathSmoother.shortcut"),
    ("planning.smooth", "repro.planning.smoothing:PathSmoother.to_trajectory"),
    ("sim.ray_cast", "repro.sim.world:World.ray_cast"),
    ("sim.camera", "repro.sim.sensors:DepthCamera.capture"),
    ("sim.physics", "repro.sim.vehicle:QuadrotorDynamics.step"),
    ("perception.point_cloud", "repro.perception.point_cloud:PointCloudGenerator.compute"),
    ("perception.occupancy", "repro.perception.occupancy:OccupancyMap.insert_point_cloud"),
    ("perception.occupancy", "repro.perception.occupancy:ScalarOccupancyMap.insert_point_cloud"),
    ("perception.collision", "repro.perception.collision_check:CollisionChecker.compute"),
    ("perception.collision", "repro.perception.collision_check:CollisionChecker.update_map"),
    ("control.track", "repro.control.path_tracking:PathTracker.compute"),
    ("rosmw.spin", "repro.rosmw.graph:NodeGraph.spin_until"),
    ("rosmw.publish", "repro.rosmw.topic:TopicBus.publish"),
    ("core.checkpoint.fork", "repro.core.checkpoint:GoldenPrefixCursor.fork"),
    ("core.checkpoint.prefix", "repro.core.checkpoint:GoldenPrefixCursor.advance_before"),
    ("core.run_specs", "repro.core.campaign:Campaign.run_specs"),
    ("core.execute_spec", "repro.core.executor:execute_spec"),
    ("core.injector.inject", "repro.core.injector:FaultInjectorNode.inject"),
    ("core.results.append", "repro.core.results:JsonlResultStore.append"),
    ("pipeline.build", "repro.pipeline.builder:build_pipeline"),
    ("pipeline.run", "repro.pipeline.runner:MissionRunner.run"),
    ("detection.gad", "repro.detection.gaussian:GaussianDetector.check_sample"),
    ("detection.aad", "repro.detection.autoencoder:AadDetector.check_sample"),
    ("detection.recover", "repro.detection.recovery:RecoveryCoordinatorNode.recompute_stage"),
    ("analysis.report", "repro.analysis.report:build_report"),
)

#: Every span name, in report order.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _ in SPANS))

#: Call counters without a span (too hot to time one by one).
COUNTED: Tuple[Tuple[str, str], ...] = (
    ("planning.state_checks", "repro.planning.rrt:PlanningProblem.state_valid"),
    ("planning.edge_checks", "repro.planning.rrt:PlanningProblem.edge_valid"),
)


def _resolve(target: str) -> Tuple[object, str, Callable]:
    """``"module:Class.attr"`` -> (owner object, attribute name, original)."""
    module_name, path = target.split(":")
    __import__(module_name)
    owner: object = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


def rebind(original: Callable, wrapper: Callable) -> Callable[[], None]:
    """Replace a module function wherever a ``repro`` module holds it by name.

    Returns a callable that puts the original back.
    """
    attr = original.__name__
    owners = [
        module
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "repro" and module is not None
        and module.__dict__.get(attr) is original
    ]
    for module in owners:
        setattr(module, attr, wrapper)

    def restore() -> None:
        for module in owners:
            setattr(module, attr, original)

    return restore


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: (name, start_s, end_s, parent index or -1, spec key) per span.
        self.spans: List[Tuple[str, float, float, int, str]] = []
        self.calls: Dict[str, int] = {name: 0 for name in SPAN_NAMES}
        self.self_s: Dict[str, float] = {name: 0.0 for name in SPAN_NAMES}
        self.total_s: Dict[str, float] = {name: 0.0 for name in SPAN_NAMES}
        self.counts: Dict[str, int] = {name: 0 for name, _ in COUNTED}
        self.plans_solved = 0
        self.spin_sim_s = 0.0
        #: Open spans: [span index, seconds covered by finished children].
        self._stack: List[List] = []
        self._spec_key = ""
        self._restores: List[Callable[[], None]] = []

    # ---------------------------------------------------------------- install
    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        for name, target in SPANS:
            owner, attr, original = _resolve(target)
            self._replace(owner, attr, original, self._span_wrapper(name, original))
        for name, target in COUNTED:
            owner, attr, original = _resolve(target)
            self._replace(owner, attr, original, self._count_wrapper(name, original))

    def _replace(self, owner: object, attr: str, original: Callable, wrapper: Callable) -> None:
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._restores.append(lambda: setattr(owner, attr, original))
        else:
            self._restores.append(rebind(original, wrapper))

    def uninstall(self) -> None:
        while self._restores:
            self._restores.pop()()

    # --------------------------------------------------------------- wrappers
    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            parent = stack[-1][0] if stack else -1
            previous_key = tracer._spec_key
            if name == "core.execute_spec":
                tracer._spec_key = args[0].key()
            elif name == "rosmw.spin":
                sim_before = args[0].clock.now
            tracer.spans.append((name, 0.0, 0.0, parent, tracer._spec_key))
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.spans[index] = (name, start, end, parent, tracer._spec_key)
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                tracer.total_s[name] += duration
                if stack:
                    stack[-1][1] += duration
                tracer._spec_key = previous_key
            if name == "planning.plan" and getattr(result, "success", False):
                tracer.plans_solved += 1
            elif name == "rosmw.spin":
                tracer.spin_sim_s += args[0].clock.now - sim_before
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == tracer.pid:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ----------------------------------------------------------------- output
    def attributed_s(self) -> float:
        """Seconds covered by top-level spans."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path: Path, meta: Optional[Dict] = None) -> None:
        """Dump every span as one JSON line (after a ``meta`` header line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"meta": meta or {}}, sort_keys=True) + "\n")
            for name, start, end, parent, key in self.spans:
                handle.write(
                    json.dumps([name, round(start, 7), round(end, 7), parent, key]) + "\n"
                )
