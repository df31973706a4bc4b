"""Campaign execution engine: picklable run specs and one dispatch loop.

The paper's evaluation campaigns run hundreds of independent missions per
environment.  Each mission is described here by a :class:`RunSpec` -- a small,
picklable record of *what* to fly (environment, seeds, planner, platform),
*which* fault to inject (an optional :class:`~repro.core.injector.FaultPlan`)
and *which* detection scheme to attach (a detector tag, not a live object, so
that specs can cross process boundaries).

Executors turn spec lists into :class:`~repro.pipeline.runner.MissionResult`
streams through one loop, :func:`dispatch`, which walks tasks (one prefix
group or one spec each) through one of two launchers:

* the **inline launcher** runs each task in the calling process and returns a
  finished future; :class:`SerialExecutor`, the one-worker clamp of
  :class:`ParallelExecutor` and degraded pool runs use it;
* the **pool launcher** is a :class:`~concurrent.futures.ProcessPoolExecutor`
  fed whole prefix groups, costliest first, one per worker at a time.
  Workers reconstruct detectors from the campaign configuration, so nothing
  unpicklable is ever shipped.

Without a resilience policy the loop kills the launcher on the first
exception and re-raises it.  With one, :mod:`repro.core.resilience` captures
and retries failures, the loop quarantines hangs and rebuilds a broken pool,
and once the respawn budget is spent it swaps in the inline launcher.  Every
mission is fully seeded, so every path yields bit-identical results;
:func:`execute_specs` adds JSONL persistence and resume by spec key.
"""

from __future__ import annotations

import copy
import hashlib
import multiprocessing
import os
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core import knobs
from repro.core.injector import FaultInjectorNode, FaultPlan
from repro.core.resilience import (
    OUTCOME_QUARANTINED,
    OUTCOME_RETRIED,
    ChaosSchedule,
    FailureCallback,
    FailureRecord,
    ResiliencePolicy,
    attribute_lost_task,
    guarded_execute,
    hang_failure,
)
from repro.pipeline.builder import (
    PipelineConfig,
    build_pipeline,
    construction_caches_enabled,
)
from repro.pipeline.runner import DEFAULT_ABORT_GRACE, MissionResult, MissionRunner
from repro.scenarios import Scenario, resolve_scenario

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.campaign import CampaignConfig
    from repro.core.checkpoint import CheckpointStats
    from repro.core.results import JsonlResultStore

#: Detector tags a :class:`RunSpec` may carry.  ``gaussian`` and
#: ``autoencoder`` are reconstructible in worker processes from the campaign
#: configuration (training-environment count, cache directory, planner and
#: platform); ``custom`` refers to an in-memory detector object supplied by
#: the caller and therefore only works with the serial executor.
DETECTOR_GAUSSIAN = "gaussian"
DETECTOR_AUTOENCODER = "autoencoder"
DETECTOR_CUSTOM = "custom"
RECONSTRUCTIBLE_DETECTORS = (DETECTOR_GAUSSIAN, DETECTOR_AUTOENCODER)

#: Streaming callback type: invoked once per completed spec (possibly out of
#: submission order under the parallel executor).
ResultCallback = Callable[["RunSpec", MissionResult], None]


@dataclass(frozen=True)
class RunSpec:
    """Picklable description of one campaign mission.

    ``config`` is the owning campaign's :class:`CampaignConfig`; ``seed`` is
    the mission seed, ``index`` the spec's position within its generated batch
    (kept for ordering and reporting; it does not enter the spec key).
    ``planner_name`` and ``platform`` override the campaign defaults for
    per-kernel characterisation runs; ``scenario`` (a registered name or a
    :class:`~repro.scenarios.Scenario`) overrides the campaign's scenario for
    scenario-sweep runs.
    """

    config: "CampaignConfig"
    setting: str
    seed: int
    index: int = 0  # repro-lint: disable=RL008 ordering/reporting metadata; two specs differing only in index are the same mission
    fault_plan: Optional[FaultPlan] = None
    detector: Optional[str] = None
    planner_name: Optional[str] = None
    platform: Optional[str] = None
    scenario: Optional[Union[str, Scenario]] = None

    def effective_scenario(self) -> Optional[Scenario]:
        """The scenario this spec flies under (spec override, else campaign)."""
        scenario = self.scenario
        if scenario is None:
            scenario = getattr(self.config, "scenario", None)
        return resolve_scenario(scenario)

    def key(self) -> str:
        """Deterministic identity of this spec (stable across processes).

        Two specs with the same key describe the same fully-seeded mission
        and therefore the same :class:`MissionResult`; the JSONL resume logic
        relies on this to skip already-completed runs.
        """
        return hashlib.sha1(repr(self._canonical()).encode("utf-8")).hexdigest()[:16]

    def prefix_key(self) -> str:
        """Identity of this spec's fault-free *prefix* (stable across processes).

        Two specs with the same prefix key fly bit-identical missions up to
        their fault-activation times: same pipeline, seed, scenario, detector
        and timing -- only the fault plan (and the setting label) may differ.
        The golden-prefix checkpoint engine keys its cursors on this, and the
        execution engine groups spec batches by it so workers receive whole
        cache-friendly groups.
        """
        return hashlib.sha1(
            repr(self.prefix_canonical()).encode("utf-8")
        ).hexdigest()[:16]

    def prefix_canonical(self) -> Tuple:
        """Canonical tuple of everything that shapes the fault-free prefix."""
        return ("prefix-v1", *self._prefix_fields())

    def _prefix_fields(self) -> Tuple:
        cfg = self.config
        environment = getattr(cfg.environment, "name", cfg.environment)
        platform = getattr(cfg.platform, "name", cfg.platform)
        scenario = self.effective_scenario()
        return (
            scenario.canonical() if scenario is not None else (),
            int(self.seed),
            self.detector or "",
            # A detector-bearing spec's result depends on how the detector is
            # trained; detector-free runs deliberately ignore these so golden
            # results resume across detector-configuration changes.
            int(cfg.training_environments) if self.detector else 0,
            self.planner_name or "",
            self.platform or "",
            str(environment),
            int(cfg.env_seed),
            cfg.planner_name,
            str(platform),
            round(float(cfg.mission_time_limit), 9),
            round(float(cfg.time_step), 9),
            round(float(getattr(cfg, "abort_grace", DEFAULT_ABORT_GRACE)), 9),
        )

    def _canonical(self) -> Tuple:
        plan = self.fault_plan
        plan_fields: Tuple = ()
        if plan is not None:
            plan_fields = (
                plan.target_type,
                plan.target,
                round(float(plan.injection_time), 9),
                plan.bit,
                plan.bit_field.value,
                plan.seed,
            )
        return ("runspec-v3", self.setting, *self._prefix_fields(), plan_fields)


# --------------------------------------------------------------- spec running
#: Per-process cache of reconstructed detectors, keyed by the training
#: parameters that determine them.  Worker processes fill this lazily on the
#: first spec that needs a detector and reuse it for the rest of the campaign.
_PROCESS_DETECTORS: Dict[Tuple, object] = {}


def _reconstruct_detector(spec: RunSpec) -> object:
    """Train (or load cached) the detector named by ``spec.detector``.

    Training is fully seeded, so independently reconstructing a detector in
    every worker yields the same detector the parent process would train; when
    the campaign configuration names a ``detector_cache_dir`` the workers load
    the cached detectors instead of retraining.
    """
    from repro.detection.training import train_detectors

    cfg = spec.config
    base_key = (
        int(cfg.training_environments),
        str(cfg.detector_cache_dir) if cfg.detector_cache_dir else "",
        cfg.planner_name,
        str(getattr(cfg.platform, "name", cfg.platform)),
    )
    cache_key = (spec.detector, *base_key)
    if cache_key not in _PROCESS_DETECTORS:
        training = train_detectors(
            num_environments=cfg.training_environments,
            cache_dir=cfg.detector_cache_dir,
            planner_name=cfg.planner_name,
            platform=cfg.platform,
        )
        # One training session yields both detectors; cache both so a mixed
        # D&R campaign trains at most once per worker process.
        _PROCESS_DETECTORS[(DETECTOR_GAUSSIAN, *base_key)] = training.gad
        _PROCESS_DETECTORS[(DETECTOR_AUTOENCODER, *base_key)] = training.aad
    return _PROCESS_DETECTORS[cache_key]


def _resolve_detector(
    spec: RunSpec, detectors: Optional[Mapping[str, object]]
) -> Optional[object]:
    if spec.detector is None:
        return None
    if detectors is not None and detectors.get(spec.detector) is not None:
        return detectors[spec.detector]
    if spec.detector in RECONSTRUCTIBLE_DETECTORS:
        return _reconstruct_detector(spec)
    raise ValueError(
        f"detector tag {spec.detector!r} cannot be reconstructed in a worker "
        f"process; pass the detector object via the serial executor instead"
    )


def pipeline_config_for(spec: RunSpec) -> PipelineConfig:
    """The :class:`PipelineConfig` a spec's mission is built from.

    Shared by the from-scratch path and the golden-prefix cursor so both
    construct bit-identical pipelines.
    """
    cfg = spec.config
    return PipelineConfig(
        environment=cfg.environment,
        env_seed=cfg.env_seed,
        scenario=spec.effective_scenario(),
        planner_name=spec.planner_name or cfg.planner_name,
        platform=spec.platform or cfg.platform,
        seed=spec.seed,
        mission_time_limit=cfg.mission_time_limit,
    )


def fork_detector(detector: object) -> object:
    """Per-mission detector instance: cheap state fork, or deep copy.

    Detectors exposing ``fork_for_run`` (GAD, AAD) share their frozen trained
    parameters and get fresh per-mission state; anything else falls back to
    the historical per-run ``copy.deepcopy``.  With ``REPRO_NO_CACHE=1`` the
    deep copy is always used (the pre-cache reference behaviour).
    """
    fork = getattr(detector, "fork_for_run", None)
    if fork is not None and construction_caches_enabled():
        return fork()
    return copy.deepcopy(detector)


def _abort_grace(cfg: "CampaignConfig") -> float:
    return float(getattr(cfg, "abort_grace", DEFAULT_ABORT_GRACE))


def _execute_spec_scratch(spec: RunSpec, detector: Optional[object]) -> MissionResult:
    """Fly ``spec`` from scratch (build, launch, step to termination)."""
    from repro.detection.node import attach_detection

    cfg = spec.config
    handles = build_pipeline(pipeline_config_for(spec))
    if detector is not None:
        attach_detection(handles, fork_detector(detector))
    injector = None
    if spec.fault_plan is not None:
        injector = FaultInjectorNode(spec.fault_plan, handles.kernels)
        handles.graph.add_node(injector)
    runner = MissionRunner(
        handles, time_step=cfg.time_step, abort_grace=_abort_grace(cfg)
    )
    result = runner.run(
        setting=spec.setting,
        seed=spec.seed,
        fault_target=spec.fault_plan.target if spec.fault_plan else "",
    )
    if injector is not None:
        result.fault_description = injector.description
    return result


def execute_spec(
    spec: RunSpec, detectors: Optional[Mapping[str, object]] = None
) -> MissionResult:
    """Fly the mission described by ``spec`` and return its result.

    ``detectors`` optionally maps detector tags to live detector objects (the
    serial path); without it, reconstructible tags are trained or loaded in
    this process.  Each run gets its own detector state via
    :func:`fork_detector`, so one run's detector state never leaks into the
    next.

    Specs are served from the golden-prefix checkpoint engine when possible
    (:mod:`repro.core.checkpoint`): fault-free prefixes are flown once per
    (config, seed, scenario, detector) identity and injection runs fork from
    the snapshot.  ``REPRO_NO_CHECKPOINT=1`` forces every spec from scratch;
    ``REPRO_CHECKPOINT_VERIFY=1`` additionally cross-checks every forked
    result against a scratch run and raises on divergence.
    """
    from repro.core import checkpoint

    detector = _resolve_detector(spec, detectors)
    result = None
    if checkpoint.checkpointing_enabled() and checkpoint.supports_spec(spec):
        result = checkpoint.manager().run_spec(spec, detector)
        if result is not None and checkpoint.verification_enabled():
            from repro.core.results import mission_results_equal

            scratch = _execute_spec_scratch(spec, detector)
            if not mission_results_equal(result, scratch):
                raise checkpoint.CheckpointDivergenceError(
                    f"checkpoint fork diverged from scratch execution for "
                    f"spec {spec.key()} ({spec.setting}, seed {spec.seed}, "
                    f"fault {spec.fault_plan})"
                )
    if result is None:
        result = _execute_spec_scratch(spec, detector)
    if spec.fault_plan is not None:
        # Stamp the fault activation time so the time-to-detect analysis can
        # compare it against the result's first_alarm_time without needing
        # the spec (stamped here, after the verify cross-check, so both
        # execution paths produce identical pre-stamp results).
        result.injection_time = float(spec.fault_plan.injection_time)
    return result


#: One unit of work: the (position, spec) pairs of a whole prefix group, or
#: of one spec, plus an optional serialized golden-prefix cursor snapshot
#: (spawn-platform warm-up; forked workers inherit cursors instead).
GroupTask = Tuple[Sequence[Tuple[int, "RunSpec"]], Optional[bytes]]

#: What one task hands back: ``(position, status, result)`` entries (status
#: ``"ok"``/``"failed"``/``"hang"``), the failure records its attempts
#: produced, and the pool worker's checkpoint-statistics delta.
TaskOutcome = Tuple[List[Tuple[int, str, Optional[MissionResult]]], List[FailureRecord], Dict]


def _run_task(
    pairs: Sequence[Tuple[int, RunSpec]],
    blob: Optional[bytes],
    policy: Optional[ResiliencePolicy],
    schedule: Optional[ChaosSchedule],
    bases: Dict[str, int],
    detectors: Optional[Mapping[str, object]],
    in_worker: bool,
) -> TaskOutcome:
    """Run one task's specs: the entry point of both launchers.

    With a ``policy`` every spec goes through
    :func:`~repro.core.resilience.guarded_execute`, continuing from the
    attempts ``bases`` records for requeued keys; without one,
    :func:`execute_spec` runs bare and exceptions propagate.  Failure events
    ride back with the outcome, so the parent stays the only writer.  Only a
    pool worker (``in_worker``) reports a checkpoint-statistics delta -- this
    task's work, without fork-inherited counts; inline work is already in
    the parent's own delta.
    """
    from repro.core import checkpoint

    before = checkpoint.checkpoint_stats().raw_dict() if in_worker else None
    if blob is not None and checkpoint.checkpointing_enabled():
        checkpoint.manager().seed_snapshot(blob)
    entries: List[Tuple[int, str, Optional[MissionResult]]] = []
    events: List[FailureRecord] = []
    for pos, spec in pairs:
        if policy is None:
            entries.append((pos, "ok", execute_spec(spec, detectors)))
            continue
        status, result, _ = guarded_execute(
            spec, detectors, policy, schedule, bases.get(spec.key(), 0),
            events.append, in_worker=in_worker,
        )
        entries.append((pos, status, result))
    delta: Dict = {}
    if before is not None:
        delta = checkpoint.diff_raw(checkpoint.checkpoint_stats().raw_dict(), before)
    return entries, events, delta


class _WatchdogTimeout(Exception):
    """Internal: a pool task overran the resilience policy's wall-clock budget."""


def _init_worker(payload: Optional[Dict]) -> None:
    """Pool initializer: adopt the parent's shipped construction state.

    ``payload`` is ``None`` on fork platforms (children inherit the parent's
    caches copy-on-write, which is both cheaper and more complete); on spawn
    platforms it carries the generated worlds and reconstructed detectors the
    scheduled specs need, so workers skip world generation and detector
    training entirely.
    """
    if payload is None:
        return
    from repro.pipeline import builder

    builder.seed_world_cache(payload.get("worlds", {}))
    if construction_caches_enabled():
        _PROCESS_DETECTORS.update(payload.get("detectors", {}))


def cache_order_key(spec: RunSpec):
    """Sort key grouping specs for construction-cache and checkpoint locality.

    Specs sharing a fault-free prefix (same :meth:`RunSpec.prefix_key`) land
    next to each other; within a group, injection specs come in ascending
    fault-activation order and golden (fault-free) specs come last -- exactly
    the order in which a golden-prefix cursor can serve them all with one
    monotonic pass.  Results are always returned in submission order; only
    the execution order changes.
    """
    plan = spec.fault_plan
    activation = float(plan.injection_time) if plan is not None else float("inf")
    return (spec.prefix_key(), activation)


def cache_friendly_order(specs: Sequence[RunSpec]) -> List[RunSpec]:
    """Stable reordering of ``specs`` by :func:`cache_order_key`."""
    return sorted(specs, key=cache_order_key)


def prefix_groups(
    indexed_specs: Sequence[Tuple[int, RunSpec]]
) -> List[List[Tuple[int, RunSpec]]]:
    """Partition (position, spec) pairs into whole prefix groups.

    Each group holds every spec sharing one :meth:`RunSpec.prefix_key`, in
    cache order (ascending fault-activation time, golden runs last) -- the
    order in which one golden-prefix cursor serves the whole group with a
    single monotonic pass.  Groups are the scheduling atoms of the parallel
    executor: a group is never split across workers, so no two processes ever
    fly the same fault-free prefix.
    """
    ordered = sorted(indexed_specs, key=lambda pair: cache_order_key(pair[1]))
    groups: List[List[Tuple[int, RunSpec]]] = []
    current_key: Optional[str] = None
    for pos, spec in ordered:
        key = spec.prefix_key()
        if key != current_key:
            groups.append([])
            current_key = key
        groups[-1].append((pos, spec))
    return groups


def estimate_group_cost(group: Sequence[Tuple[int, RunSpec]]) -> float:
    """Estimated simulated-seconds cost of one prefix group.

    The cursor flies the shared prefix once (up to the deepest fork point, or
    the whole mission when the group holds a golden run), and every fork then
    flies its own suffix.  The estimate is deliberately simple -- prefix depth
    plus the summed suffixes, with a small per-spec constant for construction
    and fork overhead -- because it only drives the longest-processing-time
    ordering of group submission, not any correctness property.
    """
    if not group:
        return 0.0
    prefix_depth = 0.0
    suffix_total = 0.0
    for _, spec in group:
        limit = float(spec.config.mission_time_limit)
        plan = spec.fault_plan
        if plan is None:
            prefix_depth = max(prefix_depth, limit)
            suffix_total += 0.5
        else:
            activation = min(float(plan.injection_time), limit)
            prefix_depth = max(prefix_depth, activation)
            suffix_total += limit - activation + 0.5
    return prefix_depth + suffix_total


def materialize_scenario(spec: RunSpec) -> RunSpec:
    """Pin the spec's effective scenario as a :class:`Scenario` object.

    Scenario *names* resolve through the process-local registry; a custom
    scenario registered only in the parent would be unknown to spawned
    workers.  Shipping the resolved (picklable) object instead makes the spec
    self-contained.  The spec key is unchanged -- it already hashes the
    resolved scenario's content.
    """
    resolved = spec.effective_scenario()
    if resolved is None or spec.scenario is resolved:
        return spec
    return replace(spec, scenario=resolved)


# ------------------------------------------------------------- worker counts
#: Environment variable allowing more worker processes than CPUs.  By default
#: the parallel executor clamps its effective worker count to ``os.cpu_count()``
#: (process oversubscription makes campaigns *slower* than serial -- the
#: committed ``BENCH_campaign.json`` history shows 0.87x for 2 workers on one
#: CPU); set ``MAVFI_OVERSUBSCRIBE=1`` to lift the clamp, e.g. to exercise the
#: real pool machinery on a single-core box.
OVERSUBSCRIBE_ENV = "MAVFI_OVERSUBSCRIBE"


def oversubscription_allowed() -> bool:
    """Whether ``MAVFI_OVERSUBSCRIBE`` lifts the CPU-count worker clamp."""
    return knobs.flag(OVERSUBSCRIBE_ENV)


def env_worker_count() -> int:
    """Worker count requested via the ``MAVFI_WORKERS`` environment variable.

    Unset or empty means 1 (serial); ``0`` means "one worker per CPU";
    anything non-numeric or negative is rejected explicitly (the validation
    lives with the knob declaration in :mod:`repro.core.knobs`).
    """
    value = knobs.value("MAVFI_WORKERS")
    if value is None:
        return 1
    return resolve_worker_count(int(value))


def resolve_worker_count(workers: Optional[int]) -> int:
    """Normalise a worker count: ``None``/1 -> 1, 0 -> CPU count, <0 -> error."""
    if workers is None:
        return 1
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"worker count must be non-negative, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


# ------------------------------------------------------------- dispatch loop
class _InlineLauncher(Executor):
    """Launcher whose ``submit`` runs the task here and returns it finished."""

    def submit(self, fn, /, *args, **kwargs):  # type: ignore[override]
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # handed to the dispatch loop via the future
            future.set_exception(exc)
        return future


def _kill_launcher(launcher: Executor) -> None:
    """Stop a launcher without waiting on the tasks it is running.

    ``shutdown(cancel_futures=True)`` alone never stops *running* pool
    workers -- a hung task would wedge it forever -- so the worker processes
    are killed and reaped first.  An inline launcher has none.
    """
    processes = list((getattr(launcher, "_processes", None) or {}).values())
    for proc in processes:
        proc.kill()
    for proc in processes:
        proc.join()
    launcher.shutdown(wait=False, cancel_futures=True)


def dispatch(
    specs: Sequence[RunSpec],
    policy: Optional[ResiliencePolicy],
    schedule: Optional[ChaosSchedule] = None,
    detectors: Optional[Mapping[str, object]] = None,
    on_result: Optional[ResultCallback] = None,
    on_failure: Optional[FailureCallback] = None,
    tasks: Optional[Iterable[GroupTask]] = None,
    launch: Callable[[], Executor] = _InlineLauncher,
    workers: int = 1,
    stats: Optional["CheckpointStats"] = None,
) -> List[Optional[MissionResult]]:
    """Run ``tasks`` through a launcher; returns results in ``specs`` order.

    ``tasks`` defaults to one task per spec in the given order, and
    ``launch`` to the inline launcher.  At most ``workers`` tasks are in
    flight (one inline), so the watchdog times running tasks, not queue
    time, and a failing batch stops early.  Outcomes are harvested in
    submission order, a task's failure events before its results.  Only
    inline tasks see ``detectors``; pool workers reconstruct their own.
    Pool workers' checkpoint-statistics deltas are merged into ``stats``.

    Without a ``policy`` the first exception kills the launcher and is
    re-raised.  With one, failures reach ``on_failure`` once per identity
    and failed or quarantined specs yield ``None``:

    * a hang (watchdog overrun or cooperative chaos hang) is a strike, and
      ``quarantine_strikes`` strikes quarantine the spec.  A struck spec is
      requeued alone -- at the front inline, so its strikes stay consecutive;
    * a broken or overrunning pool is killed and rebuilt.  Lost tasks are
      attributed via :func:`~repro.core.resilience.attribute_lost_task` or
      the singleton-suspect rule, and only unfinished specs are requeued,
      one per task, so the next overrun isolates its culprit;
    * after ``max_pool_respawns`` rebuilds the inline launcher takes over.
      Chaos crashes and hangs are simulated cooperatively there, so chaos
      campaigns converge; a *genuine* hang would stall the parent (raise
      ``REPRO_POOL_RESPAWNS`` if that is a live risk).  Deltas of lost tasks
      die with their pool, so statistics are best-effort here.
    """
    import time  # harness watchdog only; sim time stays on the middleware clock

    results: List[Optional[MissionResult]] = [None] * len(specs)
    if tasks is None:
        tasks = [([(pos, spec)], None) for pos, spec in enumerate(specs)]
    pending: Deque[GroupTask] = deque(tasks)
    attempts: Dict[str, int] = {}
    strikes: Dict[str, int] = {}
    quarantined: Set[str] = set()
    emitted: Set[Tuple[str, int, str, str]] = set()
    inline = True

    def emit(record: FailureRecord) -> None:
        # Requeued work can re-derive an event a prior incarnation already
        # produced; the identity dedup keeps the shard single-voiced.
        identity = record.identity()
        if identity in emitted:
            return
        emitted.add(identity)
        if on_failure is not None:
            on_failure(record)

    def hang_strike(spec: RunSpec) -> bool:
        """Record one hang strike; True when the spec is now quarantined."""
        assert policy is not None  # hangs only arise under a policy
        key = spec.key()
        if key in quarantined:
            return True
        strikes[key] = strikes.get(key, 0) + 1
        final = strikes[key] >= policy.quarantine_strikes
        emit(hang_failure(
            spec, strikes[key],
            OUTCOME_QUARANTINED if final else OUTCOME_RETRIED,
        ))
        if final:
            quarantined.add(key)
        return final

    def requeue(pos: int, spec: RunSpec, base: int) -> None:
        attempts[spec.key()] = base
        task: GroupTask = ([(pos, spec)], None)
        if inline:
            pending.appendleft(task)
        else:
            pending.append(task)

    def harvest(outcome: TaskOutcome) -> None:
        entries, events, delta = outcome
        if stats is not None:
            stats.merge(delta)
        for record in events:
            emit(record)
        for pos, status, result in entries:
            spec = specs[pos]
            if status == "ok":
                results[pos] = result
                if on_result is not None and result is not None:
                    on_result(spec, result)
            elif status == "hang" and not hang_strike(spec):
                requeue(pos, spec, attempts.get(spec.key(), 0))
            # "failed": every attempt's record already rode in events.

    respawns = 0
    while pending:
        launcher = launch()
        inline = isinstance(launcher, _InlineLauncher)
        in_flight: Dict[Future, Tuple[Sequence[Tuple[int, RunSpec]], Optional[float]]] = {}
        try:
            while pending or in_flight:
                while pending and len(in_flight) < (1 if inline else workers):
                    pairs, blob = pending.popleft()
                    pairs = [(pos, spec) for pos, spec in pairs if spec.key() not in quarantined]
                    if not pairs:
                        continue
                    bases = {
                        spec.key(): attempts[spec.key()]
                        for _, spec in pairs
                        if spec.key() in attempts
                    }
                    future = launcher.submit(
                        _run_task, pairs, blob, policy, schedule, bases,
                        detectors if inline else None, not inline,
                    )
                    deadline = None
                    if policy is not None and policy.task_timeout is not None:
                        # repro-lint: disable=RL002 harness watchdog deadline, not simulated time
                        deadline = time.monotonic() + policy.task_timeout
                    in_flight[future] = (pairs, deadline)
                if not in_flight:
                    break
                deadlines = [d for _, d in in_flight.values() if d is not None]
                timeout = None
                if deadlines:
                    # repro-lint: disable=RL002 harness watchdog deadline, not simulated time
                    timeout = max(0.0, min(deadlines) - time.monotonic())
                done, _ = wait(in_flight, timeout=timeout, return_when=FIRST_COMPLETED)
                for future in [f for f in in_flight if f in done]:
                    # Harvest before dropping the bookkeeping: .result()
                    # raises BrokenProcessPool when a worker died, and the
                    # task must still be in in_flight for the attribution
                    # pass below to see (and requeue) it.
                    harvest(future.result())
                    del in_flight[future]
                # repro-lint: disable=RL002 harness watchdog deadline, not simulated time
                if not done and deadlines and min(deadlines) <= time.monotonic():
                    raise _WatchdogTimeout()
        except BaseException as failure:
            _kill_launcher(launcher)
            if policy is None or not isinstance(failure, (BrokenProcessPool, _WatchdogTimeout)):
                raise
            respawns += 1
            if respawns > policy.max_pool_respawns:
                launch = _InlineLauncher
            timed_out = isinstance(failure, _WatchdogTimeout)
            # repro-lint: disable=RL002 harness watchdog deadline, not simulated time
            now = time.monotonic()
            for future, (pairs, deadline) in in_flight.items():
                if future.done() and not future.cancelled() and future.exception() is None:
                    # Completed between the failure and the kill; its
                    # results are real -- harvest, don't re-run.
                    harvest(future.result())
                    continue
                dispositions = attribute_lost_task(
                    pairs, policy, schedule, attempts, emit, crashed=not timed_out,
                )
                expired = timed_out and deadline is not None and now >= deadline
                culprit = any(kind != "requeue" for kind, _, _, _ in dispositions)
                for kind, pos, spec, base in dispositions:
                    key = spec.key()
                    if kind == "hang":
                        if not hang_strike(spec):
                            requeue(pos, spec, attempts.get(key, 0))
                    elif kind == "exhausted":
                        attempts[key] = base
                    elif kind == "crash-requeue":
                        requeue(pos, spec, base)
                    else:  # innocent requeue
                        # Singleton suspect: this task alone overran the
                        # watchdog and chaos explains nothing -- treat it as
                        # a genuine hang strike, which may quarantine it.
                        suspect = expired and not culprit and len(dispositions) == 1
                        if not (suspect and hang_strike(spec)):
                            requeue(pos, spec, base)
        else:
            launcher.shutdown()
    return results


# ------------------------------------------------------------------ executors
class SerialExecutor:
    """Runs specs one after another in the calling process (the default)."""

    name = "serial"
    distributed = False

    def map(
        self,
        specs: Iterable[RunSpec],
        on_result: Optional[ResultCallback] = None,
        detectors: Optional[Mapping[str, object]] = None,
        policy: Optional[ResiliencePolicy] = None,
        on_failure: Optional[FailureCallback] = None,
    ) -> List[Optional[MissionResult]]:
        """Execute ``specs`` in order; returns results in the same order.

        Without a ``policy`` the historical contract holds: any mission
        exception propagates and every returned entry is a result.  With one,
        each spec goes through the capture/retry/quarantine ladder
        (:mod:`repro.core.resilience`); failed or quarantined specs yield
        ``None`` entries and their :class:`FailureRecord`\\ s flow through
        ``on_failure``, each spec's before its result.  This executor is the
        determinism reference the parallel path must match record for record.
        """
        schedule = ChaosSchedule.from_knobs() if policy is not None else None
        return dispatch(list(specs), policy, schedule, detectors, on_result, on_failure)


class ParallelExecutor:
    """Fans whole prefix groups out over a process pool.

    ``workers`` follows :func:`resolve_worker_count` semantics (``None`` reads
    ``MAVFI_WORKERS``).  Each pool task carries one whole *prefix group* --
    every spec sharing one :meth:`RunSpec.prefix_key` -- so a golden-prefix
    cursor is built exactly once per group.  Tasks go out costliest first
    (LPT), one per worker at a time, so whichever worker frees up takes the
    next group: work-stealing of whole groups falls out of the queue.

    The effective worker count is clamped to ``os.cpu_count()`` unless
    ``oversubscribe`` (or ``MAVFI_OVERSUBSCRIBE=1``) lifts the clamp; one
    remaining worker means the inline launcher, in cache order -- parallel
    dispatch never loses to serial by oversubscribing cores.

    Workers start warm: on ``fork`` platforms the parent pre-generates worlds,
    reconstructs detectors and pre-builds golden cursors for the costliest
    groups, all inherited copy-on-write; on spawn platforms the same state
    ships explicitly (worlds and detectors via the pool initializer, cursors
    as compact pickled snapshots riding with each group).  In-memory detector
    mappings are deliberately **not** shipped -- each worker reconstructs the
    detectors its specs name from the campaign configuration, so only plain
    data crosses the process boundary.

    After each :meth:`map`, ``last_effective_workers`` holds the worker count
    actually used and ``last_checkpoint_stats`` the fleet-wide aggregated
    :class:`~repro.core.checkpoint.CheckpointStats` (parent + every worker
    task delta) -- the bench reads ``duplicate_cursor_builds`` off it to
    assert the scheduler's zero-duplicates invariant.
    """

    name = "parallel"
    distributed = True

    def __init__(
        self,
        workers: Optional[int] = None,
        oversubscribe: Optional[bool] = None,
        start_method: Optional[str] = None,
    ) -> None:
        self.workers = env_worker_count() if workers is None else resolve_worker_count(workers)
        self.oversubscribe = (
            oversubscription_allowed() if oversubscribe is None else bool(oversubscribe)
        )
        self.start_method = start_method
        #: Workers actually used by the last :meth:`map` (1 = inline).
        self.last_effective_workers = 0
        #: Fleet-wide checkpoint statistics of the last :meth:`map`.
        self.last_checkpoint_stats: Optional["CheckpointStats"] = None

    def _group_tasks(self, specs: Sequence[RunSpec]) -> List[List[List[Tuple[int, RunSpec]]]]:
        """Pool tasks of one whole prefix group each, costliest first (LPT).

        Original positions ride along, so results return in spec order.
        """
        groups = prefix_groups(list(enumerate(specs)))
        groups.sort(key=estimate_group_cost, reverse=True)
        return [[group] for group in groups]

    def _effective_workers(self, specs: Sequence[RunSpec]) -> int:
        workers = min(self.workers, max(1, len(specs)))
        if not self.oversubscribe:
            workers = min(workers, os.cpu_count() or 1)
        return workers

    def _warm_caches(self, specs: Sequence[RunSpec]) -> Dict:
        """Generate every spec's world and reconstruct its detectors here.

        Fork children inherit the warm caches copy-on-write; the returned
        payload ships them to spawn-started workers through the pool
        initializer.  Empty, and a no-op, under ``REPRO_NO_CACHE``.
        """
        from repro.pipeline import builder

        payload: Dict = {"worlds": {}, "detectors": {}}
        if not construction_caches_enabled():
            return payload
        for spec in specs:
            key = builder.world_key_for(pipeline_config_for(spec))
            if key is not None and key not in payload["worlds"]:
                payload["worlds"][key] = builder.world_for(*key)
        for spec in specs:
            if spec.detector in RECONSTRUCTIBLE_DETECTORS:
                _reconstruct_detector(spec)
        payload["detectors"] = dict(_PROCESS_DETECTORS)
        return payload

    def _prebuild_cursors(self, groups: Sequence[Sequence[Tuple[int, RunSpec]]]) -> None:
        """Pre-build golden cursors for fork children to inherit.

        Only the costliest groups (they arrive first) up to the manager's LRU
        capacity are built; ``REPRO_NO_CHECKPOINT`` disables the warm-up.
        """
        from repro.core import checkpoint

        if not checkpoint.checkpointing_enabled():
            return
        for group in groups[: checkpoint.manager().max_cursors]:
            spec = group[0][1]
            if checkpoint.supports_spec(spec):
                checkpoint.manager().prebuild(spec, _resolve_detector(spec, None))

    def _group_snapshot(self, pairs: Sequence[Tuple[int, RunSpec]]) -> Optional[bytes]:
        """Serialized golden-prefix cursor for one group (spawn warm-up).

        Only detector-free groups are snapshotted: the checkpoint manager
        guards detector-bearing cursors by *object identity*, which cannot
        survive a spawn boundary (fork preserves it copy-on-write).  The
        cursor is built directly -- outside the parent's manager -- so the
        parent LRU is not churned and the build is not double-counted against
        the worker that adopts the snapshot.
        """
        from repro.core import checkpoint

        spec = pairs[0][1]
        if not (checkpoint.checkpointing_enabled() and checkpoint.supports_spec(spec)):
            return None
        if spec.detector is not None:
            return None
        cursor = checkpoint.GoldenPrefixCursor(spec, None)
        return cursor.snapshot_blob(spec.prefix_key())

    def map(
        self,
        specs: Iterable[RunSpec],
        on_result: Optional[ResultCallback] = None,
        detectors: Optional[Mapping[str, object]] = None,
        policy: Optional[ResiliencePolicy] = None,
        on_failure: Optional[FailureCallback] = None,
    ) -> List[Optional[MissionResult]]:
        """Execute ``specs`` across the pool; returns results in spec order.

        ``on_result`` fires as results arrive (completion order); the returned
        list is always in submission order, bit-identical to the serial path.
        Without a ``policy`` the first mission exception kills the pool and
        propagates; with one, :func:`dispatch`'s resilience ladder applies
        and failed/quarantined specs yield ``None`` entries.
        """
        from repro.core import checkpoint

        # Reset per-map telemetry up front: a misuse error below must not
        # leave stale stats from the previous map() visible to callers.
        self.last_effective_workers = 0
        self.last_checkpoint_stats = None
        specs = list(specs)
        unshippable = {
            spec.detector
            for spec in specs
            if spec.detector is not None
            and spec.detector not in RECONSTRUCTIBLE_DETECTORS
        }
        if unshippable:
            # Fail before any mission flies: in-memory detector objects are
            # never shipped to workers, so these specs would crash mid-pool.
            raise ValueError(
                f"detector tags {sorted(unshippable)} reference in-memory "
                f"objects that cannot be reconstructed in worker processes; "
                f"use the serial executor for custom detectors"
            )
        parent_before = checkpoint.checkpoint_stats().raw_dict()
        # Scenario names resolve through the parent's registry; workers may
        # not have custom registrations, so ship resolved Scenario objects.
        specs = [materialize_scenario(spec) for spec in specs]
        groups = [group for [group] in self._group_tasks(specs)]
        workers = min(self._effective_workers(specs), len(groups) or 1)
        tasks: List[GroupTask]
        launch: Callable[[], Executor]
        if workers <= 1:
            # One spec per inline task, in cache order: each group's cursor
            # still serves the whole group in one monotonic pass.
            order = sorted(enumerate(specs), key=lambda pair: cache_order_key(pair[1]))
            tasks = [([pair], None) for pair in order]
            launch = _InlineLauncher
        else:
            ctx = multiprocessing.get_context(self.start_method)
            payload: Optional[Dict] = self._warm_caches(specs)
            if ctx.get_start_method() == "fork":
                payload = None  # children inherit the warm caches instead
                self._prebuild_cursors(groups)
                tasks = [(group, None) for group in groups]
            else:
                tasks = [(group, self._group_snapshot(group)) for group in groups]
            launch = partial(
                ProcessPoolExecutor,
                max_workers=workers,
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(payload,),
            )
        stats = checkpoint.CheckpointStats()
        schedule = ChaosSchedule.from_knobs() if policy is not None else None
        results = dispatch(
            specs, policy, schedule, detectors, on_result, on_failure,
            tasks, launch, workers, stats,
        )
        # Fold in what the parent itself did (inline tasks, fork warm-up
        # cursor builds), so duplicate accounting spans the whole fleet.
        stats.merge(
            checkpoint.diff_raw(checkpoint.checkpoint_stats().raw_dict(), parent_before)
        )
        self.last_effective_workers = workers
        self.last_checkpoint_stats = stats
        return results


def get_executor(workers: Optional[int] = None):
    """Executor for ``workers`` (``None`` reads ``MAVFI_WORKERS``; <=1 serial)."""
    count = env_worker_count() if workers is None else resolve_worker_count(workers)
    if count <= 1:
        return SerialExecutor()
    return ParallelExecutor(workers=count)


# ------------------------------------------------------- store-aware dispatch
def execute_specs(
    specs: Iterable[RunSpec],
    executor=None,
    store: Optional["JsonlResultStore"] = None,
    detectors: Optional[Mapping[str, object]] = None,
    resume: bool = True,
    on_result: Optional[ResultCallback] = None,
    known_results: Optional[Dict[str, MissionResult]] = None,
    policy: Optional[ResiliencePolicy] = None,
    on_failure: Optional[FailureCallback] = None,
) -> List[Optional[MissionResult]]:
    """Run ``specs`` through ``executor`` with optional JSONL persistence.

    When ``store`` is given, every completed run is appended to it as soon as
    it arrives, and (with ``resume=True``) specs whose key is already in the
    store are served from disk instead of being re-flown.  The returned list
    is always in ``specs`` order, mixing loaded and freshly-run results.
    ``known_results`` lets a caller that already parsed the store (e.g.
    :meth:`Campaign.run_specs`) pass the key->result map in instead of having
    it re-read from disk.

    With a ``policy`` the run goes through the resilience ladder: failures
    become structured :class:`~repro.core.resilience.FailureRecord` lines in
    the store (and ``on_failure`` callbacks), retries/timeouts/quarantine
    apply, and the returned list holds ``None`` for specs that produced no
    surviving result.  Without a policy behaviour is unchanged: any mission
    exception propagates and the list has no ``None`` entries.
    """
    specs = list(specs)
    if executor is None:
        executor = SerialExecutor()
    known: Dict[str, MissionResult] = {}
    if known_results is not None:
        known = dict(known_results)
    elif store is not None and resume:
        known = store.load_results()
    pending: List[RunSpec] = []
    pending_keys = set()
    for spec in specs:
        spec_key = spec.key()
        if spec_key not in known and spec_key not in pending_keys:
            pending.append(spec)
            pending_keys.add(spec_key)
    # Cache-friendly execution order (construction caches, golden-prefix
    # cursors); the returned list is rebuilt in submission order below, so
    # only completion order -- already unordered under the parallel
    # executor -- is affected.
    pending = cache_friendly_order(pending)

    schedule = ChaosSchedule.from_knobs() if policy is not None else None

    def record(spec: RunSpec, result: MissionResult) -> None:
        if store is not None:
            store.append(
                spec.key(),
                result,
                meta={"setting": spec.setting, "seed": spec.seed, "index": spec.index},
            )
            if schedule is not None:
                # Chaos shard faults: splice junk *after* the real record so
                # the record itself survives; resume/report must tolerate it.
                action = schedule.shard_action(spec.key())
                if action is not None:
                    store.append_junk(action)
        if on_result is not None:
            on_result(spec, result)

    def capture(record_obj: FailureRecord) -> None:
        if store is not None:
            store.append_failure(
                record_obj.spec_key,
                record_obj.to_dict(),
                meta={
                    "setting": record_obj.setting,
                    "seed": record_obj.seed,
                    "index": record_obj.index,
                },
            )
        if on_failure is not None:
            on_failure(record_obj)

    fresh = executor.map(
        pending,
        on_result=record,
        detectors=detectors,
        policy=policy,
        on_failure=capture,
    )
    for spec, result in zip(pending, fresh):
        if result is not None:
            known[spec.key()] = result
    # Duplicate keys (same mission requested twice) are flown once but must
    # yield independent records, so callers mutating one entry don't silently
    # mutate its twin.
    emitted = set()
    ordered: List[Optional[MissionResult]] = []
    for spec in specs:
        spec_key = spec.key()
        result = known.get(spec_key)
        ordered.append(
            copy.deepcopy(result)
            if result is not None and spec_key in emitted
            else result
        )
        emitted.add(spec_key)
    return ordered
