"""Self-test of the campaign benchmark.

Run from the root of a checkout (about two minutes on 2 CPUs)::

    python3 -m pytest perfbench/selftest.py -q

The file is named so that the repository's default test collection skips
it: it flies real campaigns and belongs to the benchmark, not to tier-1.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pin  # noqa: E402
import run as bench  # noqa: E402
from workloads import WORKLOADS, sweep_late  # noqa: E402

#: Per-layer metrics that count work; they must repeat exactly for a seed.
EXACT_COUNTS = (
    "planning.state_checks",
    "planning.edge_checks",
    "core.checkpoint.forks",
    "core.checkpoint.cursors_built",
    "core.checkpoint.cursor_restarts",
    "core.checkpoint.duplicate_cursor_builds",
    "core.results.bytes",
    "detection.samples",
    "detection.alarms",
)


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_names_match():
    assert tuple(WORKLOADS) == bench.WORKLOAD_NAMES


def test_layer_map_covers_every_metric():
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    named = {f"{span}.{part}" for layer in layers for span in layer["spans"] for part in ("calls", "self_ms")}
    named |= {counter for layer in layers for counter in layer["counters"]}
    assert named == set(bench.layer_units())


def test_reference_sweep_digest():
    assert pin.reference_digest() == pin.REFERENCE_DIGEST


def test_seed_draws_faults_on_fixed_missions():
    a, b = sweep_late(1, 0), sweep_late(2, 0)
    assert [s.key() for s in a] == [s.key() for s in sweep_late(1, 0)]
    assert [s.seed for s in a] == [s.seed for s in b]
    assert [s.fault_plan for s in a] != [s.fault_plan for s in b]
    assert len({s.prefix_key() for s in a}) >= 4  # two prefix groups per pool worker


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_counts_repeat_exactly(workload):
    cache = bench.tree_digest(bench.DETECTOR_CACHE)
    args = ("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1", "--smoke")
    first, second = result_of(run_cli(*args)), result_of(run_cli(*args))
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0 and first["metrics"]["failed_frac"]["value"] == 0.0
    names = [n for n in first["metrics"] if n.endswith(".calls")] + list(EXACT_COUNTS)
    for name in names:
        assert first["metrics"][name] == second["metrics"][name], name
    assert bench.tree_digest(bench.DETECTOR_CACHE) == cache
    expected = set(bench.layer_units())
    assert set(first["metrics"]) == expected


def test_end_to_end_metrics_are_reported():
    out = result_of(run_cli("--workload", "dr-report", "--seed", "2", "--seconds", "1", "--smoke"))
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) == set(bench.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_failure_accounting_matches_store():
    from repro.core import knobs
    from repro.core.resilience import OUTCOME_FAILED
    from repro.core.results import JsonlResultStore

    runner = bench.Runner("sweep-late", 3, smoke=True)
    try:
        runner.setup(1, repeats=1)
        with knobs.temporary({"REPRO_CHAOS": "raise=0.5", "REPRO_CHAOS_SEED": "4"}):
            batch = runner.run_batch(0, "chaos")
        stored = JsonlResultStore(runner.work_dir / "chaos-batch0.jsonl").load_failures()
    finally:
        runner.close()
    metrics = bench.resilience_metrics([batch])
    assert stored and metrics["core.resilience.failures"] == len(stored)
    outcomes = [record["failure"]["outcome"] for record in stored]
    assert metrics["core.resilience.retries"] == outcomes.count("retried")
    assert batch.failed == outcomes.count(OUTCOME_FAILED)
    assert metrics["failed_frac"] == batch.failed / batch.specs


def test_pool_refuses_fewer_workers(monkeypatch):
    from repro.core.executor import ParallelExecutor

    monkeypatch.setattr(ParallelExecutor, "_effective_workers", lambda self, specs: 1)
    runner = bench.Runner("sweep-late-pool", 0, smoke=True)
    try:
        runner.setup(1, repeats=1)
        with pytest.raises(bench.GateError, match="effective workers"):
            runner.run_batch(0, "clamped")
    finally:
        runner.close()


def test_exits_nonzero_without_program():
    bare = bench.RUNS_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".runs", "__pycache__"))
        proc = run_cli("--workload", "sweep-late", "--seed", "0", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
