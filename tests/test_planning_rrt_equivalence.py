"""The planners' scalar hot path and plan memo change no decision.

``repro.bench.scalar_ref`` keeps the numpy-per-call validity checks and plan
loops the planners had before; every test here requires byte-equal paths
and identical verdicts against it, on seeded problems, on generated ones and
on the cases where a Python-summed norm sits exactly on a threshold.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.scalar_ref import (
    reference_edge_valid,
    reference_plan,
    reference_state_valid,
)
from repro.core.checkpoint import reset_checkpoint_caches
from repro.planning import rrt
from repro.planning.rrt import (
    PlanningProblem,
    RRTConnectPlanner,
    RRTPlanner,
    RRTStarPlanner,
    make_planner,
    reset_plan_memo,
)

PLANNERS = ["rrt", "rrt_connect", "rrt_star"]


def _same_result(a, b):
    assert a.success == b.success
    assert a.iterations == b.iterations
    assert a.tree_size == b.tree_size
    assert a.planner_name == b.planner_name
    assert len(a.path) == len(b.path)
    for p, q in zip(a.path, b.path):
        assert p.dtype == q.dtype and p.tobytes() == q.tobytes()


def _fresh(planner, problem):
    """Plan without the memo."""
    return type(planner).plan.__wrapped__(planner, problem)


def _wall_problem(gap_y=8.0, clearance=1.2):
    centers = [
        [25.0, y, z]
        for y in np.arange(-28.0, 28.0, 1.0)
        if abs(y - gap_y) >= 4.0
        for z in np.arange(0.5, 9.5, 1.0)
    ]
    return PlanningProblem(
        start=np.array([0.0, 0.0, 2.0]),
        goal=np.array([50.0, 0.0, 2.0]),
        occupied_centers=np.array(centers),
        clearance=clearance,
    )


def _cloud_problem(seed, n_obstacles=300):
    """Voxel centres on the 1 m grid scattered between start and goal."""
    rng = np.random.default_rng(seed)
    centers = np.floor(rng.uniform([5, -20, 0], [55, 20, 9], size=(n_obstacles, 3))) + 0.5
    return PlanningProblem(
        start=np.array([0.0, 0.0, 2.0]),
        goal=np.array([60.0, float(rng.uniform(-10, 10)), 3.0]),
        occupied_centers=centers,
        clearance=1.5,
    )


@pytest.fixture(autouse=True)
def _empty_memo():
    reset_plan_memo()
    yield
    reset_plan_memo()


# --------------------------------------------------------------- whole plans
@pytest.mark.parametrize("planner_name", PLANNERS)
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_plan_matches_reference_on_seeded_problems(planner_name, seed):
    for problem in (_wall_problem(gap_y=seed - 4.0), _cloud_problem(seed)):
        planner = make_planner(planner_name, seed=seed, max_iterations=400)
        expected = reference_plan(planner, problem)
        _same_result(_fresh(planner, problem), expected)
        _same_result(planner.plan(problem), expected)  # memo miss
        _same_result(planner.plan(problem), expected)  # memo hit


@pytest.mark.parametrize("planner_name", PLANNERS)
def test_failing_plan_matches_reference(planner_name):
    # The goal sits inside a solid block: no planner can reach it.
    block = np.array(
        [[40.0 + dx, dy, 3.0 + dz] for dx in range(-2, 3) for dy in range(-2, 3)
         for dz in range(-2, 3)],
        dtype=float,
    )
    problem = PlanningProblem(
        start=np.array([0.0, 0.0, 2.0]),
        goal=np.array([40.0, 0.0, 3.0]),
        occupied_centers=block,
        clearance=1.0,
    )
    planner = make_planner(planner_name, seed=5, max_iterations=120)
    expected = reference_plan(planner, problem)
    assert not expected.success
    _same_result(planner.plan(problem), expected)


@pytest.mark.parametrize("planner_name", PLANNERS)
def test_empty_map_matches_reference(planner_name):
    problem = PlanningProblem(start=np.array([0.0, 0.0, 2.0]), goal=np.array([40.0, 5.0, 4.0]))
    planner = make_planner(planner_name, seed=2, max_iterations=300)
    _same_result(planner.plan(problem), reference_plan(planner, problem))


def test_rrt_star_reports_loop_count_like_reference():
    planner = RRTStarPlanner(max_iterations=2000, goal_extra_iterations=50, seed=1)
    problem = PlanningProblem(start=np.array([0.0, 0.0, 2.0]), goal=np.array([40.0, 0.0, 2.0]))
    result = planner.plan(problem)
    assert result.success and result.iterations < planner.max_iterations
    _same_result(result, reference_plan(planner, problem))


@settings(max_examples=20, deadline=None)
@given(
    planner_name=st.sampled_from(PLANNERS),
    seed=st.integers(0, 2**31 - 1),
    n_obstacles=st.integers(0, 200),
    clearance=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    step_size=st.sampled_from([1.0, 2.5, 3.0]),
)
def test_plan_matches_reference_on_generated_problems(
    planner_name, seed, n_obstacles, clearance, step_size
):
    rng = np.random.default_rng(seed)
    centers = np.floor(rng.uniform([-5, -30, 0], [65, 30, 10], size=(n_obstacles, 3))) + 0.5
    problem = PlanningProblem(
        start=np.floor(rng.uniform([-4, -20, 1], [10, 20, 9])),
        goal=np.floor(rng.uniform([40, -20, 1], [64, 20, 9])),
        occupied_centers=centers.reshape(-1, 3),
        clearance=clearance,
    )
    planner = make_planner(planner_name, seed=seed, max_iterations=150, step_size=step_size)
    _same_result(planner.plan(problem), reference_plan(planner, problem))


# ---------------------------------------------------------- validity verdicts
def _outcome(check, *args):
    """The verdict, or the type of the exception the check raised."""
    try:
        return check(*args)
    except (ValueError, OverflowError) as error:
        return type(error)


def _assert_state_verdict(problem, point):
    assert _outcome(problem.state_valid, point) == _outcome(
        reference_state_valid, problem, point
    )


def _assert_edge_verdict(problem, a, b, step=0.5):
    assert _outcome(problem.edge_valid, a, b, step) == _outcome(
        reference_edge_valid, problem, a, b, step
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    a=st.tuples(*[st.floats(-40, 80, allow_nan=False)] * 3),
    b=st.tuples(*[st.floats(-40, 80, allow_nan=False)] * 3),
    step=st.sampled_from([0.25, 0.5, 1.0, 0.3]),
)
def test_verdicts_match_reference_on_generated_points(seed, a, b, step):
    problem = _cloud_problem(seed % 50, n_obstacles=150)
    a, b = np.array(a), np.array(b)
    _assert_state_verdict(problem, a)
    _assert_state_verdict(problem, b)
    _assert_edge_verdict(problem, a, b, step)


def test_occupied_centre_exactly_at_clearance():
    problem = PlanningProblem(
        start=np.array([0.0, 0.0, 2.0]),
        goal=np.array([40.0, 0.0, 2.0]),
        occupied_centers=np.array([[10.5, 0.5, 2.5], [20.5, 3.5, 4.5]]),
        clearance=1.0,
    )
    # Samples at distance exactly 1.0, just inside and just outside.
    for offset in (1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)):
        for centre in problem.occupied_centers:
            for axis in range(3):
                for sign in (1.0, -1.0):
                    point = centre.copy()
                    point[axis] += sign * offset
                    _assert_state_verdict(problem, point)
                    _assert_edge_verdict(problem, point - [0.0, 0.0, 3.0], point)
    # An edge whose samples land exactly one clearance from the centre.
    _assert_edge_verdict(problem, np.array([8.5, 1.5, 2.5]), np.array([12.5, 1.5, 2.5]))
    assert not problem.edge_valid(np.array([9.5, 1.5, 2.5]), np.array([11.5, 1.5, 2.5]))


def test_edge_length_exact_multiple_of_step():
    problem = _cloud_problem(1)
    for length in (0.5, 1.0, 3.0, 4.5, 7.0):
        for step in (0.5, 0.25, 1.5):
            a = np.array([1.0, 2.0, 3.0])
            for direction in ([1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.6, 0.8, 0.0]):
                b = a + length * np.array(direction)
                _assert_edge_verdict(problem, a, b, step)
                assert rrt._edge_sample_count(
                    tuple(a.tolist()), tuple(b.tolist()), step
                ) == max(2, int(np.ceil(np.linalg.norm(b - a) / step)) + 1)


def test_points_exactly_at_start_escape_radius():
    problem = PlanningProblem(
        start=np.array([10.0, 0.0, 2.0]),
        goal=np.array([40.0, 0.0, 2.0]),
        occupied_centers=np.array([[11.5, 0.5, 2.5], [8.5, -0.5, 1.5]]),
        clearance=1.5,
        start_escape_radius=2.5,
    )
    for point in (
        [12.5, 0.0, 2.0], [7.5, 0.0, 2.0], [10.0, 2.5, 2.0], [11.5, 2.0, 2.0],
        [np.nextafter(12.5, 0.0), 0.0, 2.0], [np.nextafter(12.5, 20.0), 0.0, 2.0],
    ):
        point = np.array(point)
        _assert_state_verdict(problem, point)
        _assert_edge_verdict(problem, problem.start, point)
        _assert_edge_verdict(problem, point, point + [1.0, 1.0, 0.0])


def test_thresholds_equal_to_the_numpy_norm():
    """Where a Python-summed norm and ``np.linalg.norm`` differ in the last
    bit (about one 3-vector in ten with OpenBLAS), a threshold placed exactly
    on either still decides like numpy."""
    rng = np.random.default_rng(0)
    start = np.array([10.0, 0.0, 2.0])
    for _ in range(2000):
        point = start + rng.uniform(-3.0, 3.0, 3)
        d = point - start
        exact = float(np.linalg.norm(d))
        summed = math.sqrt(float(d[0]) * d[0] + float(d[1]) * d[1] + float(d[2]) * d[2])
        thresholds = {exact, summed, np.nextafter(exact, 0.0), np.nextafter(exact, 9.0)}
        for threshold in thresholds:
            for inclusive in (False, True):
                expected = exact <= threshold if inclusive else exact < threshold
                got = rrt._norm_below(tuple(point), tuple(start), threshold, inclusive)
                assert got == expected
        for k in (1, 2, 7):
            for step in (exact / k, summed / k):
                expected = max(2, int(np.ceil(exact / step)) + 1)
                assert rrt._edge_sample_count(tuple(start), tuple(point), step) == expected
        # The start-escape ball decides a state next to an obstacle.
        problem = PlanningProblem(
            start=start, goal=np.array([40.0, 0.0, 2.0]),
            occupied_centers=point[None, :] + [0.25, 0.0, 0.0],
            start_escape_radius=summed,
        )
        _assert_state_verdict(problem, point)


def test_points_exactly_on_bounds():
    problem = _cloud_problem(2)
    lo, hi = np.array(problem.bounds_lo), np.array(problem.bounds_hi)
    for corner in (lo, hi, np.array([lo[0], hi[1], lo[2]])):
        for nudge in (0.0, 1e-12, -1e-12):
            point = corner + nudge
            _assert_state_verdict(problem, point)
            _assert_edge_verdict(problem, point, (lo + hi) / 2)
            _assert_edge_verdict(problem, (lo + hi) / 2, point)
    # Edges lying along a bound face.
    _assert_edge_verdict(problem, lo, np.array([hi[0], lo[1], lo[2]]))
    _assert_edge_verdict(problem, hi, np.array([hi[0], hi[1], lo[2]]))


def test_empty_map_verdicts():
    problem = PlanningProblem(start=np.array([0.0, 0.0, 2.0]), goal=np.array([40.0, 0.0, 2.0]))
    for a, b in (([0.0, 0.0, 2.0], [40.0, 0.0, 2.0]), ([0.0, 0.0, 2.0], [70.0, 0.0, 2.0])):
        a, b = np.array(a), np.array(b)
        _assert_state_verdict(problem, b)
        _assert_edge_verdict(problem, a, b)


def test_non_finite_inputs_behave_like_reference():
    # A non-finite occupied centre is refused when the KD-tree is built.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            PlanningProblem(
                start=np.zeros(3), goal=np.ones(3),
                occupied_centers=np.array([[10.0, 0.0, 2.0], [bad, 0.0, 2.0]]),
            )
    # Non-finite points: the same verdict or the same exception.
    inside = np.array([1.0, 0.0, 2.0])
    for problem in (_cloud_problem(3), _free_space_problem(), PlanningProblem(
        start=np.zeros(3), goal=np.ones(3)
    )):
        for bad in (np.nan, np.inf, -np.inf):
            for axis in range(3):
                point = inside.copy()
                point[axis] = bad
                _assert_state_verdict(problem, point)
                _assert_edge_verdict(problem, point, inside)
                _assert_edge_verdict(problem, inside, point)
    # NaN and infinite lengths raise as before.
    with pytest.raises(ValueError):
        _free_space_problem().edge_valid(np.array([np.nan, 0.0, 2.0]), inside)
    with pytest.raises(OverflowError):
        _free_space_problem().edge_valid(inside, np.array([np.inf, 0.0, 2.0]))


# ----------------------------------------------------------------- plan memo
def test_memo_hit_equals_fresh_compute():
    problem = _wall_problem()
    planner = RRTStarPlanner(seed=4, max_iterations=400)
    first = planner.plan(problem)
    assert len(rrt._PLAN_MEMO) == 1
    hit = RRTStarPlanner(seed=4, max_iterations=400).plan(_wall_problem())
    assert len(rrt._PLAN_MEMO) == 1
    _same_result(hit, first)
    _same_result(hit, _fresh(planner, problem))


def test_mutating_a_returned_path_does_not_reach_the_memo():
    problem = _wall_problem()
    planner = RRTPlanner(seed=6, max_iterations=600)
    expected = _fresh(planner, problem)
    for _ in range(2):  # the miss, then a hit
        result = planner.plan(problem)
        _same_result(result, expected)
        result.path[0][:] = 1e9
        result.path.append(np.zeros(3))
        result.success = not result.success
    _same_result(planner.plan(problem), expected)


@pytest.mark.parametrize("planner_cls", [RRTPlanner, RRTConnectPlanner, RRTStarPlanner])
def test_any_changed_planner_attribute_misses(planner_cls):
    problem = _free_space_problem()
    base = planner_cls(seed=1, max_iterations=50)
    base_key = rrt._plan_key(base, problem)
    for name, value in vars(base).items():
        changed = planner_cls(seed=1, max_iterations=50)
        setattr(changed, name, value + 1)
        assert rrt._plan_key(changed, problem) != base_key, name
    # Seeds past int64 are keyed by value, not by object address.
    big = [planner_cls(seed=2**70 + k, max_iterations=50) for k in range(2)]
    assert rrt._plan_key(big[0], problem) != rrt._plan_key(big[1], problem)
    assert rrt._plan_key(big[0], problem) == rrt._plan_key(
        planner_cls(seed=2**70, max_iterations=50), problem
    )
    # The class is part of the key even with identical attributes.
    others = [cls for cls in (RRTPlanner, RRTConnectPlanner) if cls is not planner_cls]
    for cls in others:
        assert rrt._plan_key(cls(seed=1, max_iterations=50), problem) != base_key


def _free_space_problem(**overrides):
    fields = dict(
        start=np.array([0.0, 0.0, 2.0]),
        goal=np.array([40.0, 0.0, 2.0]),
        occupied_centers=np.array([[20.5, 0.5, 2.5]]),
    )
    fields.update(overrides)
    return PlanningProblem(**fields)


def test_any_changed_problem_field_misses():
    planner = RRTPlanner(seed=1, max_iterations=50)
    base = _free_space_problem()
    base_key = rrt._plan_key(planner, base)
    changes = {
        "start": np.array([0.0, 0.0, 2.5]),
        "goal": np.array([40.0, 0.0, 2.5]),
        "occupied_centers": np.array([[20.5, 0.5, 3.5]]),
        "map_resolution": 0.5,
        "bounds_lo": (-5.0, -30.0, 0.0),
        "bounds_hi": (65.0, 30.0, 11.0),
        "clearance": 1.2,
        "start_escape_radius": 2.0,
    }
    assert set(changes) == {f.name for f in dataclasses.fields(PlanningProblem)}
    for name, value in changes.items():
        assert rrt._plan_key(planner, dataclasses.replace(base, **{name: value})) != base_key
    # Signed zeros and NaN payloads are different bytes, hence different keys.
    zero = _free_space_problem(start=np.array([0.0, 0.0, 2.0]))
    negative_zero = _free_space_problem(start=np.array([-0.0, 0.0, 2.0]))
    assert rrt._plan_key(planner, zero) != rrt._plan_key(planner, negative_zero)
    quiet = np.array([np.nan, 0.0, 2.0])
    payload = quiet.copy()
    payload.view(np.uint64)[0] |= 1
    assert rrt._plan_key(planner, _free_space_problem(goal=quiet)) != rrt._plan_key(
        planner, _free_space_problem(goal=payload)
    )
    # An equal problem hits.
    assert rrt._plan_key(planner, _free_space_problem()) == base_key


def test_checkpoint_reset_empties_the_memo():
    RRTConnectPlanner(seed=0, max_iterations=100).plan(_free_space_problem())
    assert rrt._PLAN_MEMO
    reset_checkpoint_caches()
    assert not rrt._PLAN_MEMO


def test_memo_capacity_stays_bounded():
    problem = _free_space_problem()
    planners = [
        RRTConnectPlanner(seed=seed, max_iterations=60) for seed in range(rrt._PLAN_MEMO_MAX + 6)
    ]
    for planner in planners:
        planner.plan(problem)
        assert len(rrt._PLAN_MEMO) <= rrt._PLAN_MEMO_MAX
    assert len(rrt._PLAN_MEMO) == rrt._PLAN_MEMO_MAX
    # Least recently used entries went first.
    assert rrt._plan_key(planners[0], problem) not in rrt._PLAN_MEMO
    assert rrt._plan_key(planners[-1], problem) in rrt._PLAN_MEMO
