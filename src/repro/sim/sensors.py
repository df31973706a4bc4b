"""Simulated sensors: RGB-D depth camera, IMU and odometry.

The paper's UAV carries an RGB-D camera and an IMU (Section V).  The PPC
pipeline consumes the depth channel (to build point clouds and the occupancy
map) and the vehicle odometry (for localization and path tracking).  The
camera here is a geometric ray-cast sensor over the cuboid world; resolution
and field of view are configurable and kept modest so that closed-loop
campaigns run quickly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.rosmw.message import DepthImageMsg, ImuMsg, OdometryMsg
from repro.sim.vehicle import QuadrotorState
from repro.sim.world import World


@dataclass
class CameraConfig:
    """Depth camera intrinsics and mounting."""

    width: int = 32
    height: int = 24
    fov_h_deg: float = 90.0
    fov_v_deg: float = 60.0
    max_range: float = 25.0
    mount_height: float = 0.0


class DepthCamera:
    """A forward-looking ray-cast depth camera.

    Rays are spread over the horizontal/vertical field of view around the
    vehicle's yaw direction (pitch and roll of the camera are ignored, which
    matches the paper's forward-facing RGB-D configuration well enough for
    obstacle geometry).  Each pixel stores the range along its ray in metres.
    """

    def __init__(self, world: World, config: Optional[CameraConfig] = None) -> None:
        self.world = world
        self.config = config if config is not None else CameraConfig()
        self._ray_grid = self._build_ray_grid()
        # Flattened (N, 3) view used by every capture; computed once so the
        # per-frame work is a single rotation matmul plus the ray cast.
        self._body_dirs = np.ascontiguousarray(self._ray_grid.reshape(-1, 3))

    def _build_ray_grid(self) -> np.ndarray:
        """Precompute per-pixel ray directions in the camera (body) frame."""
        cfg = self.config
        az = np.deg2rad(np.linspace(-cfg.fov_h_deg / 2, cfg.fov_h_deg / 2, cfg.width))
        el = np.deg2rad(np.linspace(-cfg.fov_v_deg / 2, cfg.fov_v_deg / 2, cfg.height))
        az_grid, el_grid = np.meshgrid(az, el)
        x = np.cos(el_grid) * np.cos(az_grid)
        y = np.cos(el_grid) * np.sin(az_grid)
        z = np.sin(el_grid)
        directions = np.stack([x, y, z], axis=-1)  # (H, W, 3), body frame
        return directions

    def world_directions(self, yaw: float) -> np.ndarray:
        """The ``(N, 3)`` per-pixel ray directions, rotated to ``yaw``."""
        cos_yaw, sin_yaw = np.cos(yaw), np.sin(yaw)
        rotation = np.array(
            [[cos_yaw, -sin_yaw, 0.0], [sin_yaw, cos_yaw, 0.0], [0.0, 0.0, 1.0]]
        )
        return self._body_dirs @ rotation.T

    def capture(self, state: QuadrotorState) -> DepthImageMsg:
        """Capture a depth image from the vehicle's current pose."""
        cfg = self.config
        world_dirs = self.world_directions(state.yaw)
        origin = state.position + np.array([0.0, 0.0, cfg.mount_height])
        depths = self.world.ray_cast(origin, world_dirs, max_range=cfg.max_range)
        depth_image = depths.reshape(cfg.height, cfg.width)
        return DepthImageMsg(
            depth=depth_image,
            fov_h=cfg.fov_h_deg,
            fov_v=cfg.fov_v_deg,
            max_range=cfg.max_range,
            camera_position=origin.copy(),
            camera_yaw=float(state.yaw),
        )


@dataclass
class ImuConfig:
    """IMU noise configuration."""

    accel_noise_std: float = 0.02
    gyro_noise_std: float = 0.002


class Imu:
    """Inertial measurement unit with additive Gaussian noise."""

    def __init__(self, config: Optional[ImuConfig] = None, seed: int = 0) -> None:
        self.config = config if config is not None else ImuConfig()
        self._rng = np.random.default_rng(seed)
        self._last_velocity: Optional[np.ndarray] = None
        self._last_time: Optional[float] = None

    def reset(self) -> None:
        """Forget the previous sample (between missions)."""
        self._last_velocity = None
        self._last_time = None

    def measure(self, state: QuadrotorState) -> ImuMsg:
        """Produce an IMU sample from the current vehicle state."""
        if self._last_velocity is None or self._last_time is None:
            accel = np.zeros(3)
        else:
            dt = max(state.time - self._last_time, 1e-6)
            accel = (state.velocity - self._last_velocity) / dt
        self._last_velocity = state.velocity.copy()
        self._last_time = state.time
        noisy_accel = accel + self._rng.normal(0.0, self.config.accel_noise_std, 3)
        noisy_gyro = np.array([0.0, 0.0, state.yaw_rate]) + self._rng.normal(
            0.0, self.config.gyro_noise_std, 3
        )
        return ImuMsg(
            linear_acceleration=noisy_accel,
            angular_velocity=noisy_gyro,
            orientation_yaw=float(state.yaw),
        )


@dataclass
class OdometryConfig:
    """Odometry noise configuration (position drift is ignored)."""

    position_noise_std: float = 0.0
    velocity_noise_std: float = 0.0


class OdometrySensor:
    """Odometry source (AirSim exposes near-perfect state to the companion)."""

    def __init__(self, config: Optional[OdometryConfig] = None, seed: int = 0) -> None:
        self.config = config if config is not None else OdometryConfig()
        self._rng = np.random.default_rng(seed)

    def measure(self, state: QuadrotorState) -> OdometryMsg:
        """Produce an odometry sample from the current vehicle state."""
        position = state.position.copy()
        velocity = state.velocity.copy()
        if self.config.position_noise_std > 0:
            position = position + self._rng.normal(0.0, self.config.position_noise_std, 3)
        if self.config.velocity_noise_std > 0:
            velocity = velocity + self._rng.normal(0.0, self.config.velocity_noise_std, 3)
        return OdometryMsg(position=position, velocity=velocity, yaw=float(state.yaw))
