"""Regenerate ``perfbench/pins.json``: the result digest of every batch.

Usage, from the root of a checkout::

    python3 perfbench/pin.py --seeds 0-15 --jobs 2

For each workload family (``sweep-late``, ``open-early``, ``dr-report``; the
pool workload reuses ``sweep-late``'s pins) and each seed, flies every batch
a run of ``run_seconds`` (from ``BENCHMARK.json``) can reach, on the serial
engine, and records its digest.  Before pinning anything it checks that the
``sweep-late`` generator at the reference size reproduces the standard-sweep
digest recorded in ROADMAP.md.  Re-pin only for a change that is meant to
change mission results, and say so in the change log.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path
from typing import List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402

#: Digest of the standard injection sweep (``campaign_workload(smoke=False)``,
#: serial) as recorded in ROADMAP.md.
REFERENCE_DIGEST = "d5ff5101eb3f9962f089e0143c34d4e6463af08b"

FAMILIES = ("sweep-late", "open-early", "dr-report")


def reference_digest() -> str:
    """Digest of ``sweep-late`` batch 0 of seed 0 at 2 mission seeds x 12 per stage."""
    from repro.core.campaign import Campaign
    from repro.core.executor import SerialExecutor

    from workloads import sweep_late

    specs = sweep_late(0, 0, mission_seeds=2, per_stage=12)
    return bench.digest_of(Campaign(specs[0].config).run_specs(specs, executor=SerialExecutor()))


def batches_needed(family: str, run_seconds: float) -> int:
    """Most batches any workload of ``family`` runs in ``run_seconds``."""
    from workloads import WORKLOADS

    return max(
        bench.batch_count(run_seconds, workload.batch_seconds)
        for workload in WORKLOADS.values()
        if (workload.digest_of or workload.name) == family
    )


def pin_one(task: Tuple[str, int, int]) -> Tuple[str, int, List[str]]:
    family, seed, batches = task
    runner = bench.Runner(family, seed, probing=False)
    try:
        runner.setup(batches, repeats=1)
        digests = [runner.run_batch(j, "pin").digest for j in range(batches)]
    finally:
        runner.close()
    return family, seed, digests


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-15", help="e.g. 0-15 or 0,3,7-9")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    found = reference_digest()
    if found != REFERENCE_DIGEST:
        print(f"error: reference sweep digest {found} != {REFERENCE_DIGEST}", file=sys.stderr)
        return 1
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    tasks = [
        (family, seed, batches_needed(family, run_seconds))
        for seed in parse_seeds(args.seeds)
        for family in FAMILIES
    ]
    pins = bench.load_pins()
    with ProcessPoolExecutor(max_workers=args.jobs, mp_context=get_context("fork")) as pool:
        for family, seed, digests in pool.map(pin_one, tasks):
            pins.setdefault(family, {})[str(seed)] = digests
            print(f"{family} seed {seed}: {len(digests)} batches", flush=True)
    pins = {family: dict(sorted(pins[family].items(), key=lambda kv: int(kv[0]))) for family in sorted(pins)}
    bench.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
