"""Fixed, seeded workloads for the hot-path benchmarks.

The benchmark harness measures kernels on data that looks like what a real
campaign produces: depth frames ray-cast from poses along a sweep through a
procedurally generated Sparse environment, the point clouds reconstructed
from those frames, and detector windows shaped like the monitored-feature
traces.  Everything is seeded, so two bench runs (or the vector and scalar
sides of one run) see byte-identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.detection.autoencoder import AadDetector, AutoencoderConfig
from repro.detection.gaussian import GadConfig, GaussianDetector
from repro.perception.point_cloud import PointCloudGenerator
from repro.pipeline.states import MONITORED_FEATURES
from repro.rosmw.message import DepthImageMsg, Waypoint
from repro.sim.environments import make_environment
from repro.sim.sensors import CameraConfig, DepthCamera
from repro.sim.vehicle import QuadrotorState
from repro.sim.world import World


@dataclass
class HotpathWorkload:
    """The inputs every kernel benchmark consumes."""

    world: World
    depth_frames: List[DepthImageMsg]
    clouds: List[np.ndarray]
    occupied_centers: np.ndarray
    query_poses: List[Dict]
    detector_window: np.ndarray
    gad: GaussianDetector
    aad: AadDetector
    description: Dict = field(default_factory=dict)


def sweep_camera(world: World) -> DepthCamera:
    """The 96x72 depth camera the bench sweep captures its frames with."""
    return DepthCamera(world, CameraConfig(width=96, height=72))


def _camera_sweep(world: World, n_frames: int, seed: int) -> List[DepthImageMsg]:
    """Depth frames captured along a seeded sweep through the world."""
    rng = np.random.default_rng(seed)
    camera = sweep_camera(world)
    frames = []
    for index in range(n_frames):
        position = np.array(
            [
                2.0 + index * (55.0 / max(n_frames - 1, 1)),
                float(rng.uniform(-12.0, 12.0)),
                float(rng.uniform(1.5, 4.0)),
            ]
        )
        yaw = float(rng.uniform(-0.6, 0.6))
        frames.append(camera.capture(QuadrotorState(position=position, yaw=yaw)))
    return frames


def _detector_window(n_samples: int, seed: int) -> np.ndarray:
    """A window of delta vectors shaped like the monitored-feature traces."""
    rng = np.random.default_rng(seed)
    n_features = len(MONITORED_FEATURES)
    window = rng.normal(0.0, 2.0, size=(n_samples, n_features))
    # A few outliers so the anomaly branches are exercised.
    outliers = rng.integers(0, n_samples, size=max(n_samples // 50, 1))
    window[outliers] += rng.choice([-60.0, 60.0], size=(outliers.size, 1))
    return window


def _trained_detectors(seed: int) -> tuple:
    """Small deterministic GAD + AAD fitted on a synthetic error-free window."""
    rng = np.random.default_rng(seed)
    gad = GaussianDetector(GadConfig())
    for index, (_name, detector) in enumerate(gad.detectors.items()):
        detector.model.merge_prior(
            mean=float(rng.normal(0.0, 0.5)),
            std=float(rng.uniform(1.5, 3.0)),
            count=500 + index,
        )
    features = list(MONITORED_FEATURES)
    aad = AadDetector(
        AutoencoderConfig(
            layer_sizes=(len(features), 6, 3, len(features)), epochs=8, seed=seed
        ),
        features=features,
    )
    clean = np.random.default_rng(seed + 1).normal(0.0, 2.0, size=(256, len(features)))
    aad.fit({}, vectors=clean)
    return gad, aad


def build_workload(smoke: bool = False, seed: int = 0) -> HotpathWorkload:
    """Build the fixed bench workload (a smaller one with ``smoke=True``)."""
    n_frames = 6 if smoke else 24
    n_samples = 512 if smoke else 4096
    world = make_environment("sparse", seed=seed)
    frames = _camera_sweep(world, n_frames=n_frames, seed=seed)
    generator = PointCloudGenerator()
    clouds = [np.asarray(generator.compute(frame).points, dtype=float) for frame in frames]

    # The occupied set a mid-mission collision checker would see: integrate
    # the first half of the sweep into a map and take its occupied centres.
    from repro.perception.occupancy import OccupancyMap

    occupancy = OccupancyMap(resolution=1.0)
    for cloud in clouds[: max(len(clouds) // 2, 1)]:
        occupancy.insert_point_cloud(cloud)
    occupied_centers = occupancy.occupied_centers()

    rng = np.random.default_rng(seed + 7)
    query_poses = []
    for _ in range(8 if smoke else 32):
        position = np.array(
            [rng.uniform(0.0, 60.0), rng.uniform(-15.0, 15.0), rng.uniform(1.0, 5.0)]
        )
        velocity = rng.uniform(-3.0, 3.0, size=3)
        waypoints = [
            Waypoint(
                x=float(position[0] + k * rng.uniform(0.5, 2.0)),
                y=float(position[1] + rng.uniform(-1.0, 1.0)),
                z=float(np.clip(position[2] + rng.uniform(-0.5, 0.5), 0.5, 8.0)),
            )
            for k in range(12)
        ]
        query_poses.append(
            {"position": position, "velocity": velocity, "waypoints": waypoints}
        )

    window = _detector_window(n_samples=n_samples, seed=seed + 13)
    gad, aad = _trained_detectors(seed=seed + 17)
    return HotpathWorkload(
        world=world,
        depth_frames=frames,
        clouds=clouds,
        occupied_centers=occupied_centers,
        query_poses=query_poses,
        detector_window=window,
        gad=gad,
        aad=aad,
        description={
            "environment": "sparse",
            "seed": seed,
            "depth_frames": n_frames,
            "camera": "96x72",
            "cloud_points": int(sum(len(c) for c in clouds)),
            "occupied_voxels": int(len(occupied_centers)),
            "collision_poses": len(query_poses),
            "detector_samples": n_samples,
            "smoke": bool(smoke),
        },
    )
