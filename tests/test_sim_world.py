"""Tests for the cuboid world: collision queries and ray casting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.world import Cuboid, World


class TestCuboid:
    def test_from_center(self):
        box = Cuboid.from_center((10, 0, 3), (4, 2, 6))
        assert box.lo == (8.0, -1.0, 0.0)
        assert box.hi == (12.0, 1.0, 6.0)

    def test_center_and_size(self):
        box = Cuboid(lo=(0, 0, 0), hi=(2, 4, 6))
        assert np.allclose(box.center, [1, 2, 3])
        assert np.allclose(box.size, [2, 4, 6])

    def test_contains(self):
        box = Cuboid(lo=(0, 0, 0), hi=(1, 1, 1))
        assert box.contains((0.5, 0.5, 0.5))
        assert box.contains((0.0, 0.0, 0.0))
        assert not box.contains((1.5, 0.5, 0.5))

    def test_invalid_extents_rejected(self):
        with pytest.raises(ValueError):
            Cuboid(lo=(1, 0, 0), hi=(0, 1, 1))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("corner", ["lo", "hi"])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_non_finite_corner_rejected(self, bad, corner, axis):
        corners = {"lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]}
        corners[corner][axis] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Cuboid(lo=tuple(corners["lo"]), hi=tuple(corners["hi"]))

    def test_all_nan_corners_rejected(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="non-finite"):
            Cuboid(lo=(nan, nan, nan), hi=(nan, nan, nan))
        with pytest.raises(ValueError, match="non-finite"):
            Cuboid.from_center((nan, 0.0, 0.0), (1.0, 1.0, 1.0))


class TestCollisionQueries:
    def test_point_collides(self, simple_world):
        assert simple_world.point_collides((10, 0, 3))
        assert not simple_world.point_collides((0, 0, 1))

    def test_point_collides_with_inflation(self, simple_world):
        # 0.5 m outside the box face at x = 12.
        assert not simple_world.point_collides((12.5, 0, 3))
        assert simple_world.point_collides((12.5, 0, 3), inflation=1.0)

    def test_distance_to_nearest(self, simple_world):
        # Box spans x in [8, 12]; from x=0 the surface is 8 m away.
        assert simple_world.distance_to_nearest((0, 0, 3)) == pytest.approx(8.0)
        assert simple_world.distance_to_nearest((10, 0, 3)) == 0.0

    def test_distance_in_empty_world(self):
        world = World(name="empty")
        assert world.distance_to_nearest((0, 0, 0)) == float("inf")

    def test_sphere_collides(self, simple_world):
        assert simple_world.sphere_collides((7.5, 0, 3), radius=1.0)
        assert not simple_world.sphere_collides((5.0, 0, 3), radius=1.0)

    def test_segment_collides_through_box(self, simple_world):
        assert simple_world.segment_collides((0, 0, 3), (20, 0, 3))
        assert not simple_world.segment_collides((0, 5, 3), (20, 5, 3))

    def test_segment_collides_empty_world(self):
        assert not World().segment_collides((0, 0, 0), (10, 10, 10))

    def test_in_bounds(self):
        world = World(bounds_lo=(0, 0, 0), bounds_hi=(10, 10, 10))
        assert world.in_bounds((5, 5, 5))
        assert not world.in_bounds((11, 5, 5))
        assert not world.in_bounds((9.8, 5, 5), margin=0.5)

    def test_add_obstacles_refreshes_arrays(self):
        world = World()
        assert world.num_obstacles == 0
        world.add_obstacles([Cuboid.from_center((5, 0, 2), (2, 2, 4))])
        assert world.num_obstacles == 1
        assert world.point_collides((5, 0, 2))


class TestRayCast:
    def test_ray_hits_front_face(self, simple_world):
        depths = simple_world.ray_cast((0, 0, 3), np.array([[1.0, 0.0, 0.0]]))
        assert depths[0] == pytest.approx(8.0)

    def test_ray_misses(self, simple_world):
        depths = simple_world.ray_cast((0, 0, 3), np.array([[0.0, 1.0, 0.0]]))
        assert np.isinf(depths[0])

    def test_ray_beyond_max_range(self, simple_world):
        depths = simple_world.ray_cast((0, 0, 3), np.array([[1.0, 0.0, 0.0]]), max_range=5.0)
        assert np.isinf(depths[0])

    def test_ray_hits_ground(self):
        world = World()
        down = np.array([[0.0, 0.0, -1.0]])
        depths = world.ray_cast((0, 0, 2.0), down)
        assert depths[0] == pytest.approx(2.0)

    def test_ray_from_inside_box(self, simple_world):
        depths = simple_world.ray_cast((10, 0, 3), np.array([[1.0, 0.0, 0.0]]))
        assert depths[0] == pytest.approx(0.0)

    def test_multiple_rays_vectorized(self, simple_world):
        directions = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0]])
        depths = simple_world.ray_cast((0, 0, 3), directions)
        assert depths.shape == (3,)
        assert depths[0] == pytest.approx(8.0)
        assert np.isinf(depths[1])
        assert np.isinf(depths[2])

    @pytest.mark.parametrize("face_y", [2.0, -2.0])
    @pytest.mark.parametrize("direction", [(1.0, 0.0, 0.0), (1.0, -0.0, 0.0)])
    def test_grazing_a_face_plane_hits_the_closed_box(self, simple_world, face_y, direction):
        """The box is closed: a ray running along its y face hits it."""
        depths = simple_world.ray_cast((0.0, face_y, 3.0), np.array([direction]))
        assert depths[0] == 8.0

    @pytest.mark.parametrize("face_y", [2.0, -2.0])
    @pytest.mark.parametrize("direction", [(1.0, 0.0, 0.0), (1.0, -0.0, 0.0)])
    def test_one_ulp_outside_a_face_plane_misses(self, simple_world, face_y, direction):
        outside = np.nextafter(face_y, 3.0 * face_y)
        depths = simple_world.ray_cast((0.0, outside, 3.0), np.array([direction]))
        assert np.isinf(depths[0])

    def test_bad_direction_shape_rejected(self, simple_world):
        with pytest.raises(ValueError):
            simple_world.ray_cast((0, 0, 0), np.array([1.0, 0.0, 0.0]))

    @settings(max_examples=30, deadline=None)
    @given(
        x=st.floats(-4, 64), y=st.floats(-29, 29), z=st.floats(0.2, 11),
    )
    def test_distance_zero_iff_inside_some_obstacle(self, x, y, z):
        """Property: distance 0 exactly when the point is inside an obstacle."""
        world = World()
        world.add_obstacle(Cuboid.from_center((30, 0, 5), (10, 10, 10)))
        point = (x, y, z)
        inside = world.point_collides(point)
        distance = world.distance_to_nearest(point)
        if inside:
            assert distance == 0.0
        else:
            assert distance > 0.0

    @settings(max_examples=30, deadline=None)
    @given(direction=st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)))
    def test_ray_hit_point_lies_on_or_inside_obstacle(self, direction):
        """Property: a finite ray hit lands on an obstacle surface (or ground)."""
        d = np.asarray(direction, dtype=float)
        norm = np.linalg.norm(d)
        if norm < 1e-3:
            return
        d = d / norm
        world = World()
        world.add_obstacle(Cuboid.from_center((15, 0, 4), (6, 6, 8)))
        origin = np.array([0.0, 0.0, 3.0])
        depth = world.ray_cast(origin, d[None, :])[0]
        if np.isfinite(depth):
            hit = origin + depth * d
            on_ground = abs(hit[2] - world.bounds_lo[2]) < 1e-6
            near_obstacle = world.distance_to_nearest(hit) < 1e-6
            assert on_ground or near_obstacle
