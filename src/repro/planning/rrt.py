"""Sampling-based motion planners: RRT, RRT-Connect and RRT*.

The motion planner kernel of MAVBench uses OMPL's sampling-based planners;
the paper evaluates RRT, RRTConnect and RRT* (Fig. 3).  These planners operate
on the occupancy map snapshot: a state is valid when it keeps a clearance
distance from every occupied voxel centre, and an edge is valid when all its
samples are valid.  The implementations are deterministic given the seed.

Two things keep planning cheap without changing a single decision (the
numpy-per-call originals live on as references in
``repro.bench.scalar_ref``):

* the validity checks run on Python floats, with the same IEEE operations
  the numpy broadcast performed; a norm that only feeds a threshold test is
  summed in Python and re-computed with ``np.linalg.norm`` when it lands
  within a relative 1e-9 of the threshold, because BLAS ``ddot`` may sum in
  a different order;
* results are memoised per process (:func:`reset_plan_memo`): a masked fault
  re-flies its golden run and re-plans exactly the problems it already
  solved.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

#: Relative distance from a threshold inside which a norm summed in Python
#: is not trusted to fall on the same side as ``np.linalg.norm``.
_NORM_BAND = 1e-9

Point = Tuple[float, float, float]


def _norm_below(p: Point, q: Point, threshold: float, inclusive: bool = False) -> bool:
    """``np.linalg.norm(p - q) < threshold`` (``<=`` when ``inclusive``)."""
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    dz = p[2] - q[2]
    norm = math.sqrt(dx * dx + dy * dy + dz * dz)
    if not (
        threshold > 0.0
        and math.isfinite(norm)
        and abs(norm - threshold) > _NORM_BAND * threshold
    ):
        norm = float(np.linalg.norm(np.array(p) - np.array(q)))
    return norm <= threshold if inclusive else norm < threshold


def _edge_sample_count(a: Point, b: Point, step: float) -> int:
    """``max(2, ceil(np.linalg.norm(b - a) / step) + 1)``."""
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    dz = b[2] - a[2]
    ratio = math.sqrt(dx * dx + dy * dy + dz * dz) / step
    if step > 0.0 and 0.0 <= ratio < 1e15:
        upper = ratio * (1.0 + _NORM_BAND)
        if upper <= 1.0:
            return 2
        count = math.ceil(upper)
        if math.ceil(ratio * (1.0 - _NORM_BAND)) == count:
            return count + 1
    # Too close to call, or not finite: the numpy expression, which raises on
    # a NaN or infinite length just as the reference does.
    length = float(np.linalg.norm(np.array(b) - np.array(a)))
    return max(2, int(np.ceil(length / step)) + 1)


@functools.lru_cache(maxsize=256)
def _unit_steps(n_samples: int) -> Tuple[float, ...]:
    """``np.linspace(0, 1, n_samples)`` as Python floats."""
    return tuple(np.linspace(0.0, 1.0, n_samples).tolist())


@dataclass
class PlanningProblem:
    """One motion-planning query against an occupancy snapshot.

    ``start_escape_radius`` relaxes the clearance constraint in a small ball
    around the start: the vehicle may legitimately be closer to an obstacle
    than the planning clearance (e.g. after braking in front of it), and the
    planner must still be able to back out of that pocket.
    """

    start: np.ndarray
    goal: np.ndarray
    occupied_centers: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    map_resolution: float = 1.0
    bounds_lo: Sequence[float] = (-5.0, -30.0, 0.5)
    bounds_hi: Sequence[float] = (65.0, 30.0, 10.0)
    clearance: float = 1.1
    start_escape_radius: float = 2.5

    def __post_init__(self) -> None:
        self.start = np.asarray(self.start, dtype=float)
        self.goal = np.asarray(self.goal, dtype=float)
        self.occupied_centers = np.asarray(self.occupied_centers, dtype=float)
        if self.occupied_centers.size:
            self._tree: Optional[cKDTree] = cKDTree(self.occupied_centers)
        else:
            self._tree = None
        self._lo = tuple(np.asarray(self.bounds_lo, dtype=float).tolist())
        self._hi = tuple(np.asarray(self.bounds_hi, dtype=float).tolist())
        self._start = tuple(self.start.tolist())

    def _outside(self, x: float, y: float, z: float) -> bool:
        # "Any coordinate below lo or above hi": a NaN coordinate must count
        # as inside, as in the reference ``np.any(p < lo) or np.any(p > hi)``.
        lo, hi = self._lo, self._hi
        return x < lo[0] or y < lo[1] or z < lo[2] or x > hi[0] or y > hi[1] or z > hi[2]

    # ---------------------------------------------------------------- queries
    def state_valid(self, point: np.ndarray) -> bool:
        """Whether ``point`` is inside bounds and clear of occupied voxels."""
        p = np.asarray(point, dtype=float)
        xyz = tuple(p.tolist())
        if self._outside(*xyz):
            return False
        if self._tree is None:
            return True
        if _norm_below(xyz, self._start, self.start_escape_radius):
            return True
        dist, _ = self._tree.query(p)
        return bool(dist > self.clearance)

    def edge_valid(self, a: np.ndarray, b: np.ndarray, step: float = 0.5) -> bool:
        """Whether the straight segment between ``a`` and ``b`` is collision-free."""
        ax, ay, az = np.asarray(a, dtype=float).tolist()
        bx, by, bz = np.asarray(b, dtype=float).tolist()
        n_samples = _edge_sample_count((ax, ay, az), (bx, by, bz), step)
        # Sample i is a + t_i * (b - a), the broadcast's exact operations.
        dx, dy, dz = bx - ax, by - ay, bz - az
        samples = []
        for t in _unit_steps(n_samples):
            x, y, z = ax + t * dx, ay + t * dy, az + t * dz
            if self._outside(x, y, z):
                return False
            samples.append((x, y, z))
        if self._tree is None:
            return True
        points = np.array(samples)
        dists, _ = self._tree.query(points)
        clearance = self.clearance
        if all(dist > clearance for dist in dists.tolist()):
            return True
        near_start = (
            np.linalg.norm(points - self.start[None, :], axis=1) < self.start_escape_radius
        )
        return bool(np.all((dists > clearance) | near_start))


@dataclass
class PlannerResult:
    """Outcome of one planning query."""

    success: bool
    path: List[np.ndarray] = field(default_factory=list)
    iterations: int = 0
    tree_size: int = 0
    planner_name: str = "rrt"

    @property
    def length(self) -> float:
        """Total Euclidean length of the returned path."""
        if len(self.path) < 2:
            return 0.0
        pts = np.asarray(self.path)
        return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())


#: Per-process memo of planner results, keyed by :func:`_plan_key`.  Cleared
#: with the golden-prefix caches it serves (``reset_checkpoint_caches``).
_PLAN_MEMO: "OrderedDict[str, PlannerResult]" = OrderedDict()
_PLAN_MEMO_MAX = 64


def reset_plan_memo() -> None:
    """Forget every memoised planner result."""
    _PLAN_MEMO.clear()


def _plan_key(planner: "_TreePlannerBase", problem: PlanningProblem) -> str:
    """SHA-1 over the planner class, its attributes and every problem field.

    Values are hashed as dtype, shape and raw bytes, so NaN payloads and
    ``-0.0`` stay distinct and a future attribute or field is keyed too.
    """
    digest = hashlib.sha1(
        f"{type(planner).__module__}.{type(planner).__qualname__}".encode()
    )
    named = sorted(vars(planner).items()) + [
        (f.name, getattr(problem, f.name)) for f in fields(problem)
    ]
    for name, value in named:
        array = np.ascontiguousarray(value)
        digest.update(f"|{name}|{array.dtype.str}|{array.shape}|".encode())
        # An object array's bytes are pointers; hash its repr instead.
        digest.update(repr(value).encode() if array.dtype.hasobject else array.tobytes())
    return digest.hexdigest()


def _memoised(
    plan: Callable[["_TreePlannerBase", PlanningProblem], PlannerResult]
) -> Callable[["_TreePlannerBase", PlanningProblem], PlannerResult]:
    """Serve repeated ``plan`` calls from :data:`_PLAN_MEMO`.

    The memo holds its own deep copy and every hit returns a fresh one, so
    no caller can alias (and later mutate) a memoised path.
    """

    @functools.wraps(plan)
    def memoised_plan(self: "_TreePlannerBase", problem: PlanningProblem) -> PlannerResult:
        key = _plan_key(self, problem)
        cached = _PLAN_MEMO.get(key)
        if cached is not None:
            _PLAN_MEMO.move_to_end(key)
            return copy.deepcopy(cached)
        result = plan(self, problem)
        _PLAN_MEMO[key] = copy.deepcopy(result)
        while len(_PLAN_MEMO) > _PLAN_MEMO_MAX:
            _PLAN_MEMO.popitem(last=False)
        return result

    return memoised_plan


def _uniforms(rng: np.random.Generator) -> Iterator[float]:
    """``rng.uniform()`` draws, fetched 256 at a time (the same PCG64 stream)."""
    while True:
        yield from rng.random(256).tolist()


class _NodeArray:
    """Tree vertices in a preallocated ``(capacity, 3)`` array."""

    def __init__(self, first: np.ndarray, capacity: int) -> None:
        self._buf = np.empty((capacity, 3))
        self._buf[0] = first
        self.size = 1

    def append(self, point: np.ndarray) -> None:
        self._buf[self.size] = point
        self.size += 1

    def distances(self, point: np.ndarray) -> np.ndarray:
        """``np.linalg.norm(nodes - point, axis=1)``, spelt out."""
        diff = self._buf[: self.size] - point[None, :]
        return np.sqrt(np.add.reduce(diff * diff, axis=1))

    def nearest(self, point: np.ndarray) -> int:
        return int(np.argmin(self.distances(point)))


class _TreePlannerBase:
    """Common machinery for the single- and dual-tree planners."""

    name = "rrt"

    def __init__(
        self,
        max_iterations: int = 600,
        step_size: float = 3.0,
        goal_bias: float = 0.15,
        goal_tolerance: float = 2.0,
        seed: int = 0,
    ) -> None:
        self.max_iterations = int(max_iterations)
        self.step_size = float(step_size)
        self.goal_bias = float(goal_bias)
        self.goal_tolerance = float(goal_tolerance)
        self.seed = int(seed)

    # ------------------------------------------------------------ primitives
    def _targets(self, problem: PlanningProblem) -> Iterator[np.ndarray]:
        """Sampling targets: the goal with probability ``goal_bias``, else a
        uniform point in bounds -- ``rng.uniform() < goal_bias`` then
        ``rng.uniform(lo, hi)`` per target, bit for bit."""
        draws = _uniforms(np.random.default_rng(self.seed))
        lo = problem._lo
        span = tuple(h - l for l, h in zip(lo, problem._hi))
        while True:
            if next(draws) < self.goal_bias:
                yield problem.goal.copy()
            else:
                yield np.array([
                    lo[0] + span[0] * next(draws),
                    lo[1] + span[1] * next(draws),
                    lo[2] + span[2] * next(draws),
                ])

    def _steer(self, from_point: np.ndarray, to_point: np.ndarray) -> np.ndarray:
        delta = to_point - from_point
        # np.linalg.norm of a 1-D array, minus its argument handling.
        dist = math.sqrt(delta.dot(delta))
        if dist <= self.step_size:
            return to_point.copy()
        return from_point + delta * (self.step_size / dist)

    @staticmethod
    def _extract_path(nodes: List[np.ndarray], parents: List[int], leaf: int) -> List[np.ndarray]:
        path = []
        idx = leaf
        while idx != -1:
            path.append(nodes[idx].copy())
            idx = parents[idx]
        path.reverse()
        return path

    def plan(self, problem: PlanningProblem) -> PlannerResult:  # pragma: no cover - abstract
        raise NotImplementedError


class RRTPlanner(_TreePlannerBase):
    """Classic single-tree RRT."""

    name = "rrt"

    @_memoised
    def plan(self, problem: PlanningProblem) -> PlannerResult:
        """Grow a tree from the start until the goal region is reached.

        The start itself may violate the clearance (the vehicle can be closer
        to an obstacle than the planner clearance); only the rest of the path
        has to be clear.
        """
        targets = self._targets(problem)
        goal = tuple(problem.goal.tolist())
        nodes: List[np.ndarray] = [problem.start.copy()]
        parents: List[int] = [-1]
        node_array = _NodeArray(problem.start, self.max_iterations + 1)
        for iteration in range(1, self.max_iterations + 1):
            target = next(targets)
            nearest_idx = node_array.nearest(target)
            new_point = self._steer(nodes[nearest_idx], target)
            if not problem.state_valid(new_point):
                continue
            if not problem.edge_valid(nodes[nearest_idx], new_point):
                continue
            nodes.append(new_point)
            parents.append(nearest_idx)
            node_array.append(new_point)
            if _norm_below(tuple(new_point.tolist()), goal, self.goal_tolerance, inclusive=True):
                if problem.edge_valid(new_point, problem.goal):
                    nodes.append(problem.goal.copy())
                    parents.append(len(nodes) - 2)
                    path = self._extract_path(nodes, parents, len(nodes) - 1)
                    return PlannerResult(
                        success=True,
                        path=path,
                        iterations=iteration,
                        tree_size=len(nodes),
                        planner_name=self.name,
                    )
        return PlannerResult(
            success=False,
            iterations=self.max_iterations,
            tree_size=len(nodes),
            planner_name=self.name,
        )


class RRTStarPlanner(_TreePlannerBase):
    """RRT* with local rewiring for asymptotically optimal paths."""

    name = "rrt_star"

    def __init__(
        self,
        max_iterations: int = 600,
        step_size: float = 3.0,
        goal_bias: float = 0.15,
        goal_tolerance: float = 2.0,
        rewire_radius: float = 5.0,
        goal_extra_iterations: int = 150,
        seed: int = 0,
    ) -> None:
        super().__init__(max_iterations, step_size, goal_bias, goal_tolerance, seed)
        self.rewire_radius = float(rewire_radius)
        self.goal_extra_iterations = int(goal_extra_iterations)

    @_memoised
    def plan(self, problem: PlanningProblem) -> PlannerResult:
        """Grow and rewire a tree; return the best goal-reaching path found.

        Once the goal region has been reached, the planner keeps refining for
        ``goal_extra_iterations`` more samples (closing in on the shortest
        path) and then stops, rather than always exhausting the full budget;
        ``iterations`` reports the passes actually made.
        """
        targets = self._targets(problem)
        goal = tuple(problem.goal.tolist())
        nodes: List[np.ndarray] = [problem.start.copy()]
        parents: List[int] = [-1]
        costs: List[float] = [0.0]
        node_array = _NodeArray(problem.start, self.max_iterations + 1)
        goal_nodes: List[int] = []
        first_goal_iteration: Optional[int] = None
        iterations = self.max_iterations

        for iteration in range(1, self.max_iterations + 1):
            if (
                first_goal_iteration is not None
                and iteration - first_goal_iteration > self.goal_extra_iterations
            ):
                iterations = iteration - 1
                break
            target = next(targets)
            nearest_idx = node_array.nearest(target)
            new_point = self._steer(nodes[nearest_idx], target)
            if not problem.state_valid(new_point):
                continue
            if not problem.edge_valid(nodes[nearest_idx], new_point):
                continue

            # Choose the lowest-cost parent within the rewire radius.
            dist_array = node_array.distances(new_point)
            neighbors = np.flatnonzero(dist_array <= self.rewire_radius).tolist()
            dists = dist_array.tolist()
            best_parent = nearest_idx
            best_cost = costs[nearest_idx] + dists[nearest_idx]
            for idx in neighbors:
                candidate_cost = costs[idx] + dists[idx]
                if candidate_cost < best_cost and problem.edge_valid(nodes[idx], new_point):
                    best_parent = idx
                    best_cost = candidate_cost

            nodes.append(new_point)
            parents.append(best_parent)
            costs.append(best_cost)
            new_idx = len(nodes) - 1
            node_array.append(new_point)

            # Rewire neighbours through the new node when that is cheaper.
            for idx in neighbors:
                rewired_cost = best_cost + dists[idx]
                if rewired_cost < costs[idx] and problem.edge_valid(new_point, nodes[idx]):
                    parents[idx] = new_idx
                    costs[idx] = rewired_cost

            if _norm_below(tuple(new_point.tolist()), goal, self.goal_tolerance, inclusive=True):
                goal_nodes.append(new_idx)
                if first_goal_iteration is None:
                    first_goal_iteration = iteration

        if goal_nodes:
            best_goal = min(goal_nodes, key=lambda idx: costs[idx])
            path = self._extract_path(nodes, parents, best_goal)
            path.append(problem.goal.copy())
            return PlannerResult(
                success=True,
                path=path,
                iterations=iterations,
                tree_size=len(nodes),
                planner_name=self.name,
            )
        return PlannerResult(
            success=False,
            iterations=iterations,
            tree_size=len(nodes),
            planner_name=self.name,
        )


class RRTConnectPlanner(_TreePlannerBase):
    """Bidirectional RRT-Connect: two trees grown towards each other."""

    name = "rrt_connect"

    @_memoised
    def plan(self, problem: PlanningProblem) -> PlannerResult:
        """Alternate extending a start tree and a goal tree until they connect."""
        targets = self._targets(problem)
        connect_radius = self.step_size * 1.5
        capacity = self.max_iterations + 1
        trees = [
            {
                "nodes": [problem.start.copy()],
                "parents": [-1],
                "array": _NodeArray(problem.start, capacity),
            },
            {
                "nodes": [problem.goal.copy()],
                "parents": [-1],
                "array": _NodeArray(problem.goal, capacity),
            },
        ]
        for iteration in range(1, self.max_iterations + 1):
            active, other = trees[iteration % 2], trees[(iteration + 1) % 2]
            target = next(targets)
            nearest_idx = active["array"].nearest(target)
            new_point = self._steer(active["nodes"][nearest_idx], target)
            if not problem.state_valid(new_point):
                continue
            if not problem.edge_valid(active["nodes"][nearest_idx], new_point):
                continue
            active["nodes"].append(new_point)
            active["parents"].append(nearest_idx)
            active["array"].append(new_point)

            # Try to connect the other tree directly to the new point.
            other_nearest = other["array"].nearest(new_point)
            if _norm_below(
                tuple(other["nodes"][other_nearest].tolist()),
                tuple(new_point.tolist()),
                connect_radius,
                inclusive=True,
            ) and problem.edge_valid(other["nodes"][other_nearest], new_point):
                path_active = self._extract_path(
                    active["nodes"], active["parents"], len(active["nodes"]) - 1
                )
                path_other = self._extract_path(
                    other["nodes"], other["parents"], other_nearest
                )
                if iteration % 2 == 0:
                    # ``active`` is the start tree; ``other`` is the goal tree.
                    path = path_active + list(reversed(path_other))
                else:
                    # ``active`` is the goal tree: its path runs goal->connect.
                    path = path_other + list(reversed(path_active))
                return PlannerResult(
                    success=True,
                    path=path,
                    iterations=iteration,
                    tree_size=len(trees[0]["nodes"]) + len(trees[1]["nodes"]),
                    planner_name=self.name,
                )
        return PlannerResult(
            success=False,
            iterations=self.max_iterations,
            tree_size=len(trees[0]["nodes"]) + len(trees[1]["nodes"]),
            planner_name=self.name,
        )


PLANNER_CLASSES = {
    "rrt": RRTPlanner,
    "rrt_connect": RRTConnectPlanner,
    "rrt_star": RRTStarPlanner,
}


def make_planner(name: str, seed: int = 0, **kwargs) -> _TreePlannerBase:
    """Instantiate a planner by name (``rrt``, ``rrt_connect`` or ``rrt_star``)."""
    key = name.lower()
    if key not in PLANNER_CLASSES:
        raise KeyError(f"unknown planner '{name}'; expected one of {sorted(PLANNER_CLASSES)}")
    return PLANNER_CLASSES[key](seed=seed, **kwargs)
