"""The benchmark's four campaign workloads, generated from a seed.

A workload is a stream of *batches*.  Each batch is one complete campaign
(a spec list flown through ``Campaign.run_specs``), and batch ``j`` of seed
``n`` draws its fault plans from ``CampaignConfig.seed = n + BATCH_STRIDE * j``.
The worlds (``env_seed``) and the mission seeds are fixed per workload: the
flight length of a mission seed moves a batch's cost by up to 3x, which would
swamp any change a later commit makes, while fault draws on fixed missions
move it by a few percent.  Batch 0 of seed 0 of ``sweep-late`` at the
reference size (2 mission seeds x 12 per stage) is exactly the repo's
standard injection sweep, whose result digest is pinned in ROADMAP.md.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.campaign import Campaign, CampaignConfig, RunSetting
from repro.core.executor import DETECTOR_AUTOENCODER, DETECTOR_GAUSSIAN, RunSpec

#: Distance between the fault seeds of consecutive batches of one seed.
BATCH_STRIDE = 100_000

#: Every kernel node of the PPC pipeline (Fig. 3's injection targets).
KERNELS = (
    "point_cloud_generation",
    "octomap_generation",
    "collision_check",
    "motion_planner",
    "pid_control",
)

#: Detector-training environments of the committed ``gad_4``/``aad_4`` cache.
TRAINING_ENVIRONMENTS = 4


def fault_seed(seed: int, batch: int) -> int:
    """``CampaignConfig.seed`` of batch ``batch`` of workload seed ``seed``."""
    return int(seed) + BATCH_STRIDE * int(batch)


def _on_missions(specs: Sequence[RunSpec], missions: Sequence[int], per: int) -> List[RunSpec]:
    """Re-seat generated specs onto the workload's fixed mission seeds.

    The generators spread runs over ``seeds[i % len(seeds)]``; this applies
    the same round-robin to ``missions`` instead, so only the fault plans
    follow the batch's seed.
    """
    return [
        dataclasses.replace(spec, seed=missions[(spec.index % per) % len(missions)])
        for spec in specs
    ]


def sweep_late(seed: int, batch: int, mission_seeds: int = 4, per_stage: int = 8) -> List[RunSpec]:
    """The standard injection sweep: Factory, ``rrt_star``, faults at 10-15 s."""
    base = CampaignConfig(
        environment="factory",
        env_seed=0,
        seed=0,
        num_golden=mission_seeds,
        num_injections_per_stage=per_stage,
        injection_window=(10.0, 15.0),
        mission_time_limit=60.0,
    )
    golden = Campaign(base).golden_specs()
    missions = [spec.seed for spec in golden]
    faults = Campaign(dataclasses.replace(base, seed=fault_seed(seed, batch)))
    injections = faults.stage_injection_specs(RunSetting.INJECTION)
    return golden + _on_missions(injections, missions, len(injections))


def open_early(seed: int, batch: int, mission_seeds: int = 8, per_kernel: int = 8) -> List[RunSpec]:
    """Fig. 3-style kernel characterisation: Farm + Sparse, ``rrt_connect``, 0.5-2 s."""
    specs: List[RunSpec] = []
    for environment in ("farm", "sparse"):
        base = CampaignConfig(
            environment=environment,
            env_seed=0,
            seed=0,
            planner_name="rrt_connect",
            num_golden=mission_seeds,
            num_injections_per_stage=per_kernel,
            injection_window=(0.5, 2.0),
            mission_time_limit=60.0,
        )
        missions = Campaign(base)._mission_seed_pool()
        faults = Campaign(dataclasses.replace(base, seed=fault_seed(seed, batch)))
        generated = faults.kernel_injection_specs(
            [(kernel, kernel, "rrt_connect") for kernel in KERNELS]
        )
        specs += _on_missions(generated, missions, per_kernel)
    return specs


def dr_config(cache_dir: Optional[Path], mission_seeds: int = 3, per_stage: int = 2) -> CampaignConfig:
    """The ``dr-report`` campaign configuration (Sparse, default 2-9 s window)."""
    return CampaignConfig(
        environment="sparse",
        env_seed=0,
        seed=0,
        num_golden=mission_seeds,
        num_injections_per_stage=per_stage,
        mission_time_limit=60.0,
        training_environments=TRAINING_ENVIRONMENTS,
        detector_cache_dir=cache_dir,
    )


def dr_report(seed: int, batch: int, base: CampaignConfig) -> List[RunSpec]:
    """The Table I/II path: all six ``RunSetting.EXTENDED`` settings."""
    clean = Campaign(base)
    missions = clean._mission_seed_pool()
    faults = Campaign(dataclasses.replace(base, seed=fault_seed(seed, batch)))

    def injected(setting: str, detector: Optional[str]) -> List[RunSpec]:
        generated = faults.stage_injection_specs(setting, detector=detector)
        return _on_missions(generated, missions, len(generated))

    return (
        clean.golden_specs()
        + injected(RunSetting.INJECTION, None)
        + injected(RunSetting.DR_GAUSSIAN, DETECTOR_GAUSSIAN)
        + injected(RunSetting.DR_AUTOENCODER, DETECTOR_AUTOENCODER)
        + clean.dr_golden_specs(DETECTOR_GAUSSIAN)
        + clean.dr_golden_specs(DETECTOR_AUTOENCODER)
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to generate a batch and how to run it."""

    name: str
    #: ``(seed, batch, smoke) -> specs``; ``dr-report`` also gets its config.
    generate: Callable[..., List[RunSpec]]
    #: Workers of the ``ParallelExecutor`` (1 = ``SerialExecutor``).
    workers: int
    #: Wall seconds of one batch on the reference host (2 CPUs, x86_64);
    #: sets the batch count from ``--seconds`` so the work is deterministic.
    batch_seconds: float
    #: Workload whose digests this one must reproduce (``None``: its own).
    digest_of: Optional[str] = None
    detectors: bool = False
    report: bool = False


def _sweep(seed: int, batch: int, smoke: bool = False) -> List[RunSpec]:
    return sweep_late(seed, batch, per_stage=2 if smoke else 8)


def _open(seed: int, batch: int, smoke: bool = False) -> List[RunSpec]:
    return open_early(seed, batch, mission_seeds=2 if smoke else 8, per_kernel=2 if smoke else 8)


def _dr(seed: int, batch: int, smoke: bool = False, cache_dir: Optional[Path] = None) -> List[RunSpec]:
    base = dr_config(cache_dir, mission_seeds=1 if smoke else 3, per_stage=1 if smoke else 2)
    return dr_report(seed, batch, base)


WORKLOADS: Dict[str, Workload] = {
    "sweep-late": Workload("sweep-late", _sweep, workers=1, batch_seconds=5.0),
    "open-early": Workload("open-early", _open, workers=1, batch_seconds=10.0),
    "dr-report": Workload(
        "dr-report", _dr, workers=1, batch_seconds=5.0, detectors=True, report=True
    ),
    "sweep-late-pool": Workload(
        "sweep-late-pool", _sweep, workers=2, batch_seconds=5.0, digest_of="sweep-late"
    ),
}
