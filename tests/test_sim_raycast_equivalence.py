"""The per-axis slab pass in ``World.ray_cast`` changes no depth bit.

``repro.bench.scalar_ref.reference_ray_cast`` keeps the ``(n_rays, n_boxes,
3)`` broadcast slab test the depth camera cast before; every test here
requires ``tobytes()``-equal hit distances against it: on real camera frames
in every shipped environment, on origins snapped onto box face planes (where
the slab products are ``0 * inf = nan``), on signed-zero, NaN and infinite
direction components, and on degenerate shapes and ranges.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.scalar_ref import reference_ray_cast
from repro.sim.environments import (
    EXTENDED_ENVIRONMENT_NAMES,
    make_environment,
    make_training_environment,
)
from repro.sim.sensors import CameraConfig, DepthCamera
from repro.sim.vehicle import QuadrotorState
from repro.sim.world import Cuboid, World

# Subnormal direction components overflow the ground-plane division to inf;
# both implementations share that arithmetic, and the result is still compared.
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")

WORLDS = {name: make_environment(name, seed=0) for name in EXTENDED_ENVIRONMENT_NAMES}
WORLDS.update({f"training_{i}": make_training_environment(i) for i in range(4)})


def _same_hits(world, origin, directions, max_range=25.0):
    hits = world.ray_cast(origin, directions, max_range=max_range)
    expected = reference_ray_cast(world, origin, directions, max_range=max_range)
    assert hits.dtype == expected.dtype and hits.shape == expected.shape
    assert hits.tobytes() == expected.tobytes(), (origin, directions, hits, expected)
    return hits


@pytest.mark.parametrize("name", sorted(WORLDS))
@pytest.mark.parametrize("width,height,n_poses", [(24, 18, 12), (96, 72, 2)])
def test_camera_frames_byte_equal(name, width, height, n_poses):
    world = WORLDS[name]
    camera = DepthCamera(world, CameraConfig(width=width, height=height))
    rng = np.random.default_rng(sum(map(ord, name)) + width)
    lo = np.asarray(world.bounds_lo, dtype=float)
    hi = np.asarray(world.bounds_hi, dtype=float)
    for _ in range(n_poses):
        position = rng.uniform(lo, hi)
        position[2] = rng.uniform(0.5, 5.0)
        yaw = float(rng.uniform(-math.pi, math.pi))
        frame = camera.capture(QuadrotorState(position=position, yaw=yaw))
        hits = _same_hits(world, position, camera.world_directions(yaw))
        assert frame.depth.reshape(-1).tobytes() == hits.tobytes()


# -------------------------------------------------------------- generated cases
SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf]
component = st.one_of(st.sampled_from(SPECIAL), st.floats(-1.0, 1.0, allow_nan=False))
directions_st = st.lists(st.tuples(component, component, component), min_size=1, max_size=12)
ranges = st.sampled_from([25.0, 3.0, 1e-9, 0.0])


@st.composite
def small_worlds(draw):
    """One to five boxes on an integer grid, so faces line up across boxes."""
    world = World(name="generated")
    for _ in range(draw(st.integers(1, 5))):
        lo = [draw(st.integers(-6, 6)) for _ in range(3)]
        lo[2] = abs(lo[2])
        size = [draw(st.integers(0, 4)) for _ in range(3)]
        world.add_obstacle(
            Cuboid(lo=tuple(map(float, lo)), hi=tuple(float(a + s) for a, s in zip(lo, size)))
        )
    return world


@settings(max_examples=300, deadline=None)
@given(
    world=small_worlds(),
    data=st.data(),
    directions=directions_st,
    max_range=ranges,
)
def test_origin_on_a_face_plane(world, data, directions, max_range):
    box = data.draw(st.integers(0, world.num_obstacles - 1))
    axis = data.draw(st.integers(0, 2))
    corner = data.draw(st.sampled_from([world._lo, world._hi]))
    origin = [data.draw(st.floats(-8.0, 8.0)) for _ in range(3)]
    origin[axis] = corner[box, axis]
    _same_hits(world, origin, np.array(directions, dtype=float), max_range)


@settings(max_examples=150, deadline=None)
@given(world=small_worlds(), data=st.data(), directions=directions_st, max_range=ranges)
def test_origin_inside_a_box(world, data, directions, max_range):
    box = data.draw(st.integers(0, world.num_obstacles - 1))
    lo, hi = world._lo[box], world._hi[box]
    origin = [data.draw(st.floats(float(a), float(b))) for a, b in zip(lo, hi)]
    _same_hits(world, origin, np.array(directions, dtype=float), max_range)


@settings(max_examples=150, deadline=None)
@given(
    world=small_worlds(),
    x=st.floats(-8.0, 8.0),
    y=st.floats(-8.0, 8.0),
    directions=directions_st,
    max_range=ranges,
)
def test_origin_on_the_ground_plane(world, x, y, directions, max_range):
    origin = (x, y, world.bounds_lo[2])
    _same_hits(world, origin, np.array(directions, dtype=float), max_range)


# -------------------------------------------------------- shapes and ranges
@pytest.mark.parametrize("max_range", [0.0, 1e-9, 25.0])
@pytest.mark.parametrize("name", ["factory", "empty"])
def test_edge_shapes_and_ranges(name, max_range):
    world = WORLDS["factory"] if name == "factory" else World()
    origin = (0.0, 0.0, 1.5)
    empty = _same_hits(world, origin, np.zeros((0, 3)), max_range)
    assert empty.shape == (0,)
    for direction in ([1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.6, -0.0, -0.8]):
        single = _same_hits(world, origin, np.array([direction]), max_range)
        assert single.shape == (1,)
    rays = np.random.default_rng(0).normal(size=(64, 3))
    _same_hits(world, origin, rays, max_range)
