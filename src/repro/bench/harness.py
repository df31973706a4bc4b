"""Timing harness and report schema for the hot-path benchmarks.

Small, dependency-free ``timeit``-style plumbing: :func:`time_callable` runs a
callable repeatedly and keeps best/mean wall time, :func:`kernel_entry` folds a
vectorized-vs-scalar pair of timings into one report entry, and
:func:`validate_report` / :func:`validate_report_file` enforce the
``BENCH_hotpath.json`` schema (the CI bench job fails on malformed output
through them).
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.core import schema

#: Schema identifier written into (and required from) every report.
BENCH_SCHEMA = "repro-bench-v1"

#: Default report file name (repo-root perf-trajectory artifact).
DEFAULT_REPORT_NAME = "BENCH_hotpath.json"


def results_dir(default: Union[str, Path]) -> Path:
    """Directory where benchmark runs persist regenerated figure/table text.

    Resolves the ``REPRO_BENCH_RESULTS_DIR`` knob (registry-parsed, so the
    bench harness and any external caller agree on the default semantics);
    ``default`` is the caller's untracked fallback directory.
    """
    from repro.core import knobs

    return Path(knobs.raw_or("REPRO_BENCH_RESULTS_DIR", str(default)))


@dataclass(frozen=True)
class TimingStats:
    """Wall-clock statistics of one timed section."""

    best_ms: float
    mean_ms: float
    repeats: int
    calls_per_run: int = 1

    @property
    def runs_per_sec(self) -> float:
        """Workload executions per second at the best observed time."""
        if self.best_ms <= 0:
            return float("inf")
        return 1e3 / self.best_ms

    def to_dict(self) -> Dict[str, float]:
        """JSON form of the statistics."""
        return {
            "best_ms": self.best_ms,
            "mean_ms": self.mean_ms,
            "repeats": self.repeats,
            "calls_per_run": self.calls_per_run,
            "runs_per_sec": self.runs_per_sec,
        }


def time_callable(
    fn: Callable[[], object],
    repeats: int = 5,
    warmup: int = 1,
    calls_per_run: int = 1,
) -> TimingStats:
    """Time ``fn()`` over ``repeats`` runs (after ``warmup`` unmeasured runs)."""
    for _ in range(max(warmup, 0)):
        fn()
    samples = []
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return TimingStats(
        best_ms=min(samples),
        mean_ms=sum(samples) / len(samples),
        repeats=len(samples),
        calls_per_run=calls_per_run,
    )


def kernel_entry(vector: TimingStats, scalar: Optional[TimingStats]) -> Dict:
    """One per-kernel report entry: vector timings, scalar timings, speedup."""
    entry: Dict = {"vector": vector.to_dict()}
    if scalar is not None:
        entry["scalar"] = scalar.to_dict()
        entry["speedup"] = (
            scalar.best_ms / vector.best_ms if vector.best_ms > 0 else float("inf")
        )
    return entry


def host_fingerprint() -> Dict[str, str]:
    """Interpreter/platform identification stored with every report."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


_POSITIVE = schema.Number(0.0, exclusive=True)

#: The :func:`host_fingerprint` object every bench report embeds.
HOST_SHAPE = schema.Object(
    dict.fromkeys(("python", "implementation", "numpy", "machine", "system"), schema.Str())
)

_TIMINGS = schema.Object(
    {
        **dict.fromkeys(("best_ms", "mean_ms", "runs_per_sec"), _POSITIVE),
        **dict.fromkeys(("repeats", "calls_per_run"), schema.Int(1)),
    }
)

#: The declared shape of a ``repro-bench-v1`` (``BENCH_hotpath.json``) report.
BENCH_SHAPE = schema.Object(
    {
        "schema": schema.OneOf((BENCH_SCHEMA,)),
        "created_unix": _POSITIVE,
        "host": HOST_SHAPE,
        "env": schema.Object(rest=schema.Str()),
        "workload": schema.Object(
            {
                **dict.fromkeys(("environment", "camera"), schema.Str()),
                "seed": schema.Int(None),
                "depth_frames": schema.Int(1),
                **dict.fromkeys(
                    ("cloud_points", "occupied_voxels", "collision_poses", "detector_samples"),
                    schema.Int(),
                ),
                "smoke": schema.Bool(),
            }
        ),
        "repeats": schema.Int(1),
        "kernels": schema.Object(
            rest=schema.Object(
                {"vector": _TIMINGS, "scalar": _TIMINGS, "speedup": _POSITIVE},
                optional=("scalar", "speedup"),
            )
        ),
        "pipeline": schema.Object(
            {
                "environment": schema.Str(),
                "seed": schema.Int(None),
                "mission_success": schema.Bool(),
                **dict.fromkeys(("mission_flight_time_s", "mission_wall_s"), schema.Number(0.0)),
                "per_kernel": schema.Object(
                    rest=schema.Object(
                        {
                            **dict.fromkeys(("wall_ms", "ms_per_call"), schema.Number(0.0)),
                            "calls": schema.Int(),
                        }
                    )
                ),
            }
        ),
    }
)


def validate_report(report: Dict) -> None:
    """Validate a bench report dict against :data:`BENCH_SHAPE`; raises
    ``ValueError`` when malformed.  Beyond the shape: at least one kernel, and
    a speedup for every kernel timed against a scalar reference."""
    prefix = f"invalid {BENCH_SCHEMA} report: "
    schema.validate(BENCH_SHAPE, report, prefix)
    if not report["kernels"]:
        raise ValueError(f"{prefix}kernels must be a non-empty object")
    for name, entry in report["kernels"].items():
        if "scalar" in entry and "speedup" not in entry:
            raise ValueError(f"{prefix}kernels.{name}.speedup must be present")


def validate_report_file(path: Union[str, Path]) -> Dict:
    """Load and validate a report file; returns the parsed report."""
    report = schema.read_json(path, "bench report")
    validate_report(report)
    return report


def write_report(report: Dict, path: Union[str, Path]) -> Path:
    """Validate and write a report as canonical JSON; returns the path."""
    validate_report(report)
    return schema.write_json(path, report)
