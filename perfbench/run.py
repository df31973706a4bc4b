"""Campaign benchmark for the MAVFI reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-late --seed 3 --seconds 20 --trace 0

Runs one workload of :mod:`workloads` through the shipped engine defaults
(golden-prefix checkpoint forks, the default ``ResiliencePolicy``, a JSONL
result store per batch), checks the result digests, and prints one JSON
object as its last line.  The number of batches follows from ``--seconds``
and the workload's nominal batch time, so a run's work depends only on its
arguments.

``--trace 0`` reports the end-to-end metrics.  Their times are scaled to
the reference host speed: a shared host's speed drifts by tens of percent
over minutes, so every spec is followed by a :func:`probe` of fixed work
that runs no code of the program, and each batch's times are multiplied by
``PROBE_REF_S`` / (median probe time of the batch).  The line before the
result holds the times as measured, the probe times and the digests.

``--trace 1`` runs half as many batches untraced and then traced, checks
that both give the same results, and reports the per-layer metrics of the
traced half (raw times, no probes).  Stores, traces and the detector copy
live under ``perfbench/.runs/``.

Exit codes: 0 after a complete run (``correct`` tells whether every gate
held), 1 when the pool ran with fewer workers than requested or built a
golden-prefix cursor twice (no number is reported), 2 when the program under
test is missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = HERE / ".runs"
PINS_PATH = HERE / "pins.json"
DETECTOR_CACHE = ROOT / "benchmarks" / ".cache"

#: The workloads of ``workloads.WORKLOADS`` (listed here so that argument
#: parsing works before the program under test is importable).
WORKLOAD_NAMES = ("sweep-late", "open-early", "dr-report", "sweep-late-pool")

#: :func:`probe` seconds on the reference host (2 vCPUs, x86_64, CPython
#: 3.11, NumPy 2.4).  End-to-end times are reported at this host speed:
#: measured seconds x ``PROBE_REF_S`` / probe seconds seen during the batch.
PROBE_REF_S = 0.0016

#: Probes on each side of a spec whose median scales that spec's time.
PROBE_WINDOW = 4

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "specs_per_s": "1/s",
    "spec_ms_p50": "ms",
    "spec_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class GateError(RuntimeError):
    """A gate that forbids reporting any number failed."""


@dataclass
class Batch:
    """What one batch (one campaign) of a run produced."""

    index: int
    specs: int
    wall_s: float
    digest: str
    failed: int
    spec_s: List[float]
    straggler_s: float
    checkpoint: Dict[str, float]
    effective_workers: int
    #: The same times at the reference host speed (see :func:`at_reference`).
    wall_ref_s: float
    spec_ref_s: List[float]
    #: Median host-speed probe seconds during the batch (see :func:`probe`).
    probe_s: float
    failures: List = field(default_factory=list)
    store_bytes: int = 0
    fault_specs: int = 0
    activated: int = 0
    samples: int = 0
    alarms: int = 0
    #: Simulated mission seconds of the batch's results.
    sim_s: float = 0.0


def digest_of(results: Sequence) -> str:
    """SHA-1 of the canonical JSON of a result list (ROADMAP's digest)."""
    from repro.core.results import mission_result_to_dict

    payload = [None if r is None else mission_result_to_dict(r) for r in results]
    return hashlib.sha1(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def tree_digest(path: Path) -> Dict[str, str]:
    """SHA-1 of every file under ``path`` (the read-only input check)."""
    return {
        str(p.relative_to(path)): hashlib.sha1(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


def load_pins() -> Dict:
    if not PINS_PATH.exists():
        return {}
    return json.loads(PINS_PATH.read_text())


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def probe() -> float:
    """One host-speed sample: CPU seconds for a fixed mix of Python and NumPy work.

    The mix (a scalar loop, 3-vector NumPy calls, one pass over a 64k array)
    resembles the missions' work but runs no code of the program, so a change
    to the program cannot move it.  It is timed on the thread's CPU clock, so
    time the thread spends preempted does not count.
    """
    import numpy as np

    start = time.thread_time()
    total = 0.0
    for i in range(2000):
        total += (i * 0.5) % 3.0
    vec = np.array([0.3, 0.2, 0.1])
    for _ in range(200):
        vec = np.sqrt(vec.dot(vec)) * vec / (1.0 + vec.sum())
    grid = np.linspace(0.0, 1.0, 1 << 16)
    float(np.sqrt(grid * grid + total).sum())
    return time.thread_time() - start


def at_reference(
    wall_s: float, spec_s: Sequence[float], probes: Sequence[float], serial: bool
) -> Tuple[float, List[float]]:
    """Scale a batch's wall time and per-spec times to the reference host speed.

    ``probes[i]`` was taken right after spec ``i``.  Each spec is scaled by
    the median of the probes around it, which follows the host's speed from
    second to second.  A serial batch's wall time is the sum of its specs
    plus a rest (the report) scaled by the batch's median probe; a pool
    batch's wall time, spent on two CPUs at once, is scaled by that median
    as a whole.  Without probes the times are returned unchanged.
    """
    if not probes:
        return wall_s, list(spec_s)
    spec_ref = [
        s * PROBE_REF_S / statistics.median(probes[max(0, i - PROBE_WINDOW) : i + PROBE_WINDOW + 1])
        for i, s in enumerate(spec_s)
    ]
    batch_scale = PROBE_REF_S / statistics.median(probes)
    if serial:
        return sum(spec_ref) + (wall_s - sum(spec_s)) * batch_scale, spec_ref
    return wall_s * batch_scale, spec_ref


def percentile(values: Sequence[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


class WorkerClock:
    """Per-spec wall time and host-speed probes taken inside pool workers.

    The pool hands results back one prefix group at a time, so the parent
    cannot time single specs.  Forked workers inherit this wrapper of
    ``execute_spec``: it times each call, runs one :func:`probe` on the
    worker's CPU, and writes both into shared memory.
    """

    def __init__(self, capacity: int) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.spec_s = ctx.RawArray("d", capacity)
        self.probe_s = ctx.RawArray("d", capacity)
        self.count = ctx.RawValue("i", 0)
        self.lock = ctx.Lock()
        self.pid = os.getpid()
        self._restore = None

    def install(self) -> None:
        from repro.core import executor
        from tracer import rebind

        original = executor.execute_spec
        clock = self

        def execute_spec(spec, detectors=None):
            if os.getpid() == clock.pid:
                return original(spec, detectors)
            start = time.perf_counter()
            result = original(spec, detectors)
            elapsed = time.perf_counter() - start
            sample = probe()
            with clock.lock:
                index = clock.count.value
                if index < len(clock.spec_s):
                    clock.spec_s[index] = elapsed
                    clock.probe_s[index] = sample
                    clock.count.value += 1
            return result

        self._restore = rebind(original, execute_spec)

    def uninstall(self) -> None:
        if self._restore is not None:
            self._restore()

    def drain(self) -> Tuple[List[float], List[float]]:
        """(spec seconds, probe seconds) recorded since the last drain."""
        with self.lock:
            n = self.count.value
            out = (list(self.spec_s[:n]), list(self.probe_s[:n]))
            self.count.value = 0
        return out


class Runner:
    """Set-up, batches and gates of one benchmark run."""

    def __init__(
        self, workload: str, seed: int, smoke: bool = False, probing: bool = True
    ) -> None:
        from workloads import WORKLOADS

        self.workload = WORKLOADS[workload]
        self.seed = int(seed)
        self.smoke = bool(smoke)
        #: Probe host speed during batches (off in traced runs, where only
        #: raw times and their attribution matter).
        self.probing = bool(probing)
        self.work_dir = RUNS_DIR / f"{workload}-s{seed}-p{os.getpid()}"
        self.setup_ms: Dict[str, List[float]] = {
            "workload": [], "detectors": [], "warmup": []
        }
        self.cache_digest = tree_digest(DETECTOR_CACHE) if DETECTOR_CACHE.is_dir() else {}
        self.specs: List[List] = []
        self.campaign = None
        self.clock: Optional[WorkerClock] = None
        self.host: Dict = {}

    # ----------------------------------------------------------------- set-up
    def batch_specs(self, batch: int, cache_dir: Optional[Path]) -> List:
        if self.workload.detectors:
            return self.workload.generate(self.seed, batch, self.smoke, cache_dir=cache_dir)
        return self.workload.generate(self.seed, batch, self.smoke)

    def setup_once(self, rep: int, batches: int) -> None:
        from repro.core import checkpoint
        from repro.core.campaign import Campaign
        from repro.core.executor import SerialExecutor
        from repro.core.resilience import ResiliencePolicy
        from repro.core.results import JsonlResultStore
        from repro.pipeline import builder

        rep_dir = self.work_dir / f"setup{rep}"
        rep_dir.mkdir(parents=True)
        cache_dir = rep_dir / "detectors" if self.workload.detectors else None
        start = time.perf_counter()
        self.specs = [self.batch_specs(j, cache_dir) for j in range(batches)]
        self.setup_ms["workload"].append((time.perf_counter() - start) * 1e3)

        start = time.perf_counter()
        campaign = Campaign(self.specs[0][0].config)
        if cache_dir is not None:
            shutil.copytree(DETECTOR_CACHE, cache_dir)
            campaign.ensure_detectors()
        self.setup_ms["detectors"].append((time.perf_counter() - start) * 1e3)

        # Warm-up: one campaign of the first and last spec of batch 0, so
        # lazy imports and first-call initialisation happen before timing.
        start = time.perf_counter()
        first = self.specs[0]
        store = JsonlResultStore(rep_dir / "warmup.jsonl")
        campaign.run_specs(
            [first[0], first[-1]], executor=SerialExecutor(), store=store,
            policy=ResiliencePolicy.from_knobs(),
        )
        checkpoint.reset_checkpoint_caches()
        builder.reset_world_cache()
        self.setup_ms["warmup"].append((time.perf_counter() - start) * 1e3)
        self.campaign = campaign

    def setup(self, batches: int, repeats: int = SETUP_REPEATS) -> None:
        for rep in range(repeats):
            self.setup_once(rep, batches)
        if self.workload.workers > 1 and self.probing:
            import multiprocessing

            if multiprocessing.get_start_method() != "fork":
                raise GateError("the pool workload needs fork-started workers")
            capacity = 4 * sum(len(specs) for specs in self.specs)
            self.clock = WorkerClock(capacity)
            self.clock.install()

    # ---------------------------------------------------------------- batches
    def run_batch(self, batch: int, label: str) -> Batch:
        from repro.analysis import report as report_module
        from repro.core import checkpoint
        from repro.core.executor import ParallelExecutor, SerialExecutor
        from repro.core.resilience import ResiliencePolicy
        from repro.core.results import JsonlResultStore
        from repro.pipeline import builder

        specs = self.specs[batch]
        checkpoint.reset_checkpoint_caches()
        builder.reset_world_cache()
        store = JsonlResultStore(self.work_dir / f"{label}-batch{batch}.jsonl")
        workers = self.workload.workers
        executor = SerialExecutor() if workers == 1 else ParallelExecutor(workers=workers)
        arrivals: List[float] = []
        failures: List = []
        probes: List[float] = []
        spec_s: List[float] = []
        # Host speed is probed after every spec: inline for serial batches
        # (the probe's time is excluded), in the workers for pool batches
        # (their probe time is excluded per worker).
        inline = workers == 1 and self.probing
        if self.clock is not None:
            self.clock.drain()
        cursor = start = time.perf_counter()
        probing_s = 0.0

        def on_result(spec, result) -> None:
            nonlocal cursor, probing_s
            now = time.perf_counter()
            arrivals.append(now)
            if workers == 1:
                spec_s.append(now - cursor)
                cursor = now
            if inline:
                probes.append(probe())
                cursor = time.perf_counter()
                probing_s += cursor - now

        results = self.campaign.run_specs(
            specs,
            executor=executor,
            store=store,
            policy=ResiliencePolicy.from_knobs(),
            on_result=on_result,
            on_failure=failures.append,
        )
        report = None
        if self.workload.report:
            report = report_module.build_report([store])
        wall_s = time.perf_counter() - start - probing_s

        if report is not None and report["records"]["unique"] != sum(r is not None for r in results):
            raise GateError("build_report read back a different record count than was stored")
        if workers == 1:
            stats = checkpoint.checkpoint_stats().as_dict()
            effective = 1
        else:
            stats = executor.last_checkpoint_stats.as_dict()
            effective = executor.last_effective_workers
            self.host = {
                "cpu_count": os.cpu_count(),
                "affinity": sorted(os.sched_getaffinity(0)),
                "requested_workers": workers,
                "effective_workers": effective,
            }
            if effective < workers:
                raise GateError(f"pool ran {effective} effective workers, {workers} requested")
            if stats["duplicate_cursor_builds"] != 0:
                raise GateError(
                    f"pool built {stats['duplicate_cursor_builds']} duplicate golden-prefix cursors"
                )
            if self.clock is not None:
                spec_s, probes = self.clock.drain()
                wall_s -= sum(probes) / effective
        wall_ref_s, spec_ref_s = at_reference(wall_s, spec_s, probes, serial=workers == 1)
        fault_results = [
            r for spec, r in zip(specs, results) if spec.fault_plan is not None and r is not None
        ]
        done = [r for r in results if r is not None]
        return Batch(
            index=batch,
            specs=len(specs),
            wall_s=wall_s,
            digest=digest_of(results),
            failed=sum(r is None for r in results),
            spec_s=spec_s,
            wall_ref_s=wall_ref_s,
            spec_ref_s=spec_ref_s,
            probe_s=statistics.median(probes) if probes else PROBE_REF_S,
            straggler_s=(arrivals[-1] - arrivals[0]) if arrivals else 0.0,
            checkpoint=stats,
            effective_workers=effective,
            failures=failures,
            store_bytes=store.path.stat().st_size if store.path.exists() else 0,
            fault_specs=len(fault_results),
            activated=sum(bool(r.fault_description) for r in fault_results),
            samples=sum(r.detection_checked_samples for r in done),
            alarms=sum(r.detection_alarms for r in done),
            sim_s=sum(r.flight_time for r in done),
        )

    # ------------------------------------------------------------------ gates
    def pin_errors(self, batches: Sequence[Batch]) -> List[str]:
        """Digest mismatches against ``pins.json`` (unpinned batches pass)."""
        if self.smoke:
            return []
        family = self.workload.digest_of or self.workload.name
        pinned = load_pins().get(family, {}).get(str(self.seed), [])
        return [
            f"batch {b.index}: digest {b.digest} != pinned {pinned[b.index]}"
            for b in batches
            if b.index < len(pinned) and b.digest != pinned[b.index]
        ]

    def cache_errors(self) -> List[str]:
        if DETECTOR_CACHE.is_dir() and tree_digest(DETECTOR_CACHE) != self.cache_digest:
            return ["benchmarks/.cache changed during the run"]
        return []

    def setup_metrics(self, import_ms: float) -> Dict[str, float]:
        med = {name: statistics.median(values) for name, values in self.setup_ms.items()}
        return {
            "setup.import_ms": import_ms,
            "setup.workload_ms": med["workload"],
            "setup.detectors_ms": med["detectors"],
            "setup.warmup_ms": med["warmup"],
        }

    def close(self) -> None:
        if self.clock is not None:
            self.clock.uninstall()
        shutil.rmtree(self.work_dir, ignore_errors=True)


def batch_count(seconds: float, batch_seconds: float) -> int:
    return max(1, int(round(seconds / batch_seconds)))


def end_to_end(
    runner: Runner, batches: Sequence[Batch], import_ms: float, reference: bool = True
) -> Dict[str, float]:
    """End-to-end metrics; times are at the reference host speed unless
    ``reference`` is false.  Set-up time is scaled by the run's median probe."""

    setup = runner.setup_metrics(import_ms)
    setup_scale = PROBE_REF_S / statistics.median(b.probe_s for b in batches) if reference else 1.0
    spec_ms = [s * 1e3 for b in batches for s in (b.spec_ref_s if reference else b.spec_s)]
    wall_s = sum(b.wall_ref_s if reference else b.wall_s for b in batches)
    done = sum(b.specs - b.failed for b in batches)
    return {
        "specs_per_s": done / wall_s,
        "spec_ms_p50": percentile(spec_ms, 50),
        "spec_ms_p90": percentile(spec_ms, 90),
        "setup_s": sum(setup.values()) / 1e3 * setup_scale,
        "peak_rss_mb": peak_rss_mb(),
    }


def resilience_metrics(batches: Sequence[Batch]) -> Dict[str, float]:
    """Specs without a result, and the failure records behind them."""
    from repro.core.resilience import OUTCOME_RETRIED

    records = [f for b in batches for f in b.failures]
    return {
        "failed_frac": sum(b.failed for b in batches) / sum(b.specs for b in batches),
        "core.resilience.failures": len(records),
        "core.resilience.retries": sum(f.outcome == OUTCOME_RETRIED for f in records),
    }


def per_layer(runner: Runner, plain: Sequence[Batch], traced: Sequence[Batch], tracer, import_ms: float) -> Dict[str, float]:
    from tracer import COUNTED, SPAN_NAMES

    metrics: Dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.self_ms"] = tracer.self_s[name] * 1e3
    for name, _ in COUNTED:
        metrics[name] = tracer.counts[name]
    plans = tracer.calls["planning.plan"]
    metrics["planning.solved_frac"] = tracer.plans_solved / plans if plans else 0.0
    metrics["rosmw.host_ms_per_sim_s"] = (
        tracer.total_s["rosmw.spin"] * 1e3 / tracer.spin_sim_s if tracer.spin_sim_s else 0.0
    )

    def total(key: str) -> float:
        return sum(b.checkpoint.get(key, 0.0) for b in traced)

    metrics["core.checkpoint.forks"] = total("forks")
    metrics["core.checkpoint.cursors_built"] = total("cursors_built")
    metrics["core.checkpoint.cursor_restarts"] = total("cursor_restarts")
    metrics["core.checkpoint.duplicate_cursor_builds"] = total("duplicate_cursor_builds")
    # Share of the simulated mission seconds that forks took from a shared
    # prefix instead of flying them again.
    sim_s = sum(b.sim_s for b in traced)
    metrics["core.checkpoint.prefix_saved_frac"] = (
        total("prefix_sim_seconds_saved") / sim_s if sim_s else 0.0
    )
    metrics["core.results.bytes"] = sum(b.store_bytes for b in traced)
    fault_specs = sum(b.fault_specs for b in traced)
    metrics["core.injector.activated_frac"] = (
        sum(b.activated for b in traced) / fault_specs if fault_specs else 0.0
    )
    metrics.update(resilience_metrics(traced))
    metrics["core.executor.effective_workers"] = min(b.effective_workers for b in traced)
    metrics["core.executor.straggler_ms"] = statistics.mean(b.straggler_s for b in traced) * 1e3
    samples = sum(b.samples for b in traced)
    metrics["detection.samples"] = samples
    detect_s = tracer.self_s["detection.gad"] + tracer.self_s["detection.aad"]
    metrics["detection.us_per_sample"] = detect_s * 1e6 / samples if samples else 0.0
    metrics["detection.alarms"] = sum(b.alarms for b in traced)
    metrics.update(runner.setup_metrics(import_ms))
    traced_s = sum(b.wall_s for b in traced)
    metrics["trace.unattributed_ms"] = (traced_s - tracer.attributed_s()) * 1e3
    metrics["trace.overhead_frac"] = traced_s / sum(b.wall_s for b in plain) - 1.0
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> Dict:
    """One benchmark run; returns the result object (see the module docstring)."""
    start = time.perf_counter()
    import repro.analysis.report  # noqa: F401
    import repro.core.campaign  # noqa: F401
    import repro.core.executor  # noqa: F401
    import tracer as tracer_module

    import_ms = (time.perf_counter() - start) * 1e3
    runner = Runner(workload, seed, smoke=smoke, probing=not trace)
    try:
        if trace:
            n = batch_count(seconds / 2.0, runner.workload.batch_seconds)
        else:
            n = batch_count(seconds, runner.workload.batch_seconds)
        runner.setup(n)
        plain = [runner.run_batch(j, "plain") for j in range(n)]
        errors = runner.pin_errors(plain) + [
            f"batch {b.index}: {b.failed} of {b.specs} specs produced no result"
            for b in plain
            if b.failed
        ]
        raw: Dict[str, float] = {}
        batches = list(plain)
        if trace:
            tracer = tracer_module.Tracer()
            tracer.install()
            try:
                traced = [runner.run_batch(j, "traced") for j in range(n)]
            finally:
                tracer.uninstall()
            errors += [
                f"batch {p.index}: traced digest {t.digest} != untraced {p.digest}"
                for p, t in zip(plain, traced)
                if p.digest != t.digest
            ]
            batches += traced
            tracer.write(
                RUNS_DIR / f"trace-{workload}-s{seed}.jsonl",
                meta={"workload": workload, "seed": seed, "batches": n},
            )
            metrics = per_layer(runner, plain, traced, tracer, import_ms)
            units = layer_units()
        else:
            metrics = end_to_end(runner, plain, import_ms)
            raw = end_to_end(runner, plain, import_ms, reference=False)
            units = END_TO_END_UNITS
        errors += runner.cache_errors()
    finally:
        runner.close()
    return {
        "correct": not errors,
        "attempted": sum(b.specs for b in batches),
        "failed": sum(b.failed for b in batches),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "errors": errors,
        "digests": [b.digest for b in plain],
        "batch_walls": [round(b.wall_s, 3) for b in batches],
        "probe_us": [round(b.probe_s * 1e6, 1) for b in batches],
        "measured": raw,
        "host": runner.host,
    }


def layer_units() -> Dict[str, str]:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in benchmark["per_layer"]}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny batches (self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program under test not found at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), smoke=args.smoke)
    except GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for error in out["errors"]:
        print(f"gate: {error}", file=sys.stderr)
    print(json.dumps(
        {key: out[key] for key in ("host", "digests", "batch_walls", "probe_us", "measured")},
        sort_keys=True,
    ))
    print(json.dumps({key: out[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
