"""Parallel experiment engine: fan suite cells out over processes.

The paper's table sweep is embarrassingly parallel — every
(circuit, method, overhead) cell is an independent flow run — yet
:class:`~repro.harness.experiments.ExperimentSuite` computes cells
lazily, one at a time, as the tables pull on them.  This module adds
the production-scale path: :func:`run_suite_parallel` plans the cells
a table selection needs, fans the *canonical* ones out over a
:class:`concurrent.futures.ProcessPoolExecutor`, and merges the
results back into the suite's memo so the tables render from warm
cache.

Design points:

* **c-independent re-costing is respected** — methods in
  ``ExperimentSuite.C_INDEPENDENT`` run once at the canonical
  overhead ``c = 1.0``; the other overheads are derived in-process by
  re-costing, so derived cells never spawn a worker
  (:func:`plan_cells` emits canonical cells only).
* **bit-identical results** — each worker rebuilds nothing: it
  receives the parent's exact :class:`~repro.netlist.netlist.Netlist`
  copy, clock scheme, and library, and runs the same deterministic
  ``run_flow`` / ``estimate_error_rate`` code the sequential path
  runs.  A parity test pins this down.
* **cells that need error rates simulate in the worker** — Table VIII
  methods carry the simulation along, so a resumed
  :class:`~repro.harness.experiments.FlowRecord` never forces a
  sequential re-run.
* **batched checkpoints** — merging bumps the suite's memo through
  :meth:`ExperimentSuite.record_outcome` (throttled writes) and
  flushes once at the end, instead of a full JSON rewrite per cell.
* **metrics ride along** — every worker collects per-stage wall-clock
  / peak-RSS counters (:mod:`repro.metrics`) and the parent merges
  them into the ambient collector, so ``--bench-out`` sees the whole
  fleet.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import errors as errors_mod
from repro import metrics
from repro.cells.library import Library
from repro.clocks import ClockScheme
from repro.errors import DeadlineError, ReproError, stage_scope
from repro.flows import run_flow
from repro.harness.experiments import (
    ExperimentSuite,
    FailedOutcome,
    FlowRecord,
    LEVELS,
)
from repro.netlist.netlist import Netlist
from repro.sim import estimate_error_rate_batched, resolve_backend
from repro.store import open_store, use_store

#: Methods whose cells the full table set (I-IX + VI-D) reads.
TABLE_METHODS: Tuple[str, ...] = (
    "base",
    "evl",
    "nvl",
    "rvl",
    "rvl-movable",
    "grar",
    "grar-gate",
)

#: Methods Table VIII simulates error rates for.
ERROR_RATE_METHODS = frozenset({"base", "rvl", "grar"})

#: Flow methods each table pulls on (table ids as the CLI spells them).
TABLE_METHOD_NEEDS: Dict[str, Tuple[str, ...]] = {
    "table i": (),
    "table ii": ("grar-gate", "grar"),
    "table iii": ("nvl", "evl", "rvl"),
    "table iv": ("base", "rvl", "grar"),
    "table v": ("base", "rvl", "grar"),
    "table vi": ("base", "rvl", "grar"),
    "table vii": ("base", "rvl", "grar"),
    "table viii": ("base", "rvl", "grar"),
    "table ix": ("rvl", "rvl-movable"),
    "vi-d": ("grar",),
}

#: Tables that additionally need simulated error rates.
ERROR_RATE_TABLES = frozenset({"table viii"})


def methods_for_tables(
    wanted: Optional[Iterable[str]],
) -> Tuple[Tuple[str, ...], bool]:
    """(methods, need_error_rates) for a table selection (None = all)."""
    if not wanted:
        return TABLE_METHODS, True
    methods: List[str] = []
    need_rates = False
    for table_id in wanted:
        table_id = table_id.lower()
        for method in TABLE_METHOD_NEEDS.get(table_id, ()):
            if method not in methods:
                methods.append(method)
        if table_id in ERROR_RATE_TABLES:
            need_rates = True
    return tuple(methods), need_rates


@dataclass(frozen=True)
class CellTask:
    """One canonical (circuit, method, overhead) unit of work.

    Ships the parent's exact inputs so the worker reproduces the
    sequential run bit for bit.
    """

    circuit: str
    method: str
    overhead: float
    netlist: Netlist
    scheme: ClockScheme
    library: Library
    guard: Optional[str]
    solver_policy: Any
    error_rate: bool
    cycles: int
    seed: int
    #: Monte-Carlo seed sweep for the Table VIII simulation — every
    #: seed runs through one shared compile
    #: (:func:`~repro.sim.batch.estimate_error_rate_batched`) and the
    #: cell reports the mean error rate.  Empty = ``(seed,)``.
    seeds: Tuple[int, ...] = ()
    #: ``None`` = the default, resolved in the worker at simulation.
    sim_backend: Optional[str] = None
    sta_mode: str = "incremental"
    sta_engine: str = "object"
    retime_cache: bool = True
    #: persistent artifact-store directory the worker opens and runs
    #: under — compiled problems and arenas are shared through it
    #: across the whole worker fleet (and later invocations).
    store_dir: Optional[str] = None
    #: sweep points this task covers (empty = just ``overhead``).
    #: G-RAR tasks ship one sweep per circuit so the worker's compiled
    #: problem and warm basis are reused across overheads.
    overheads: Tuple[float, ...] = ()
    #: subset of ``overheads`` that still owes a simulated error rate.
    rate_overheads: Tuple[float, ...] = ()

    @property
    def key(self) -> Tuple[str, str, float]:
        return (self.circuit, self.method, self.overhead)

    @property
    def sweep(self) -> Tuple[float, ...]:
        """The overheads this task actually runs."""
        return self.overheads or (self.overhead,)


@dataclass
class CellResult:
    """What a worker sends back: a record or a structured failure."""

    circuit: str
    method: str
    overhead: float
    record: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None
    error_type: Optional[str] = None
    error_rate: Optional[float] = None
    wall_s: float = 0.0
    metrics: Optional[Dict[str, Any]] = None
    #: which simulation backend produced the error rate (when one ran).
    sim_backend: Optional[str] = None
    #: simulation throughput of this cell's Table VIII run (``None``
    #: when no simulation ran or the wall clock read zero).
    sim_cycles_per_sec: Optional[float] = None

    @property
    def key(self) -> Tuple[str, str, float]:
        return (self.circuit, self.method, self.overhead)

    @property
    def failed(self) -> bool:
        return self.record is None


def plan_cells(
    suite: ExperimentSuite,
    methods: Sequence[str] = TABLE_METHODS,
    error_rates: bool = True,
) -> List[CellTask]:
    """The canonical cells the suite still needs, ready to ship.

    c-independent methods contribute only their ``c = 1.0`` canonical
    cell (derived overheads re-cost in-process); cells already memoized
    — including from a resumed memo — are skipped unless they still
    owe an error rate.
    """
    tasks: List[CellTask] = []
    store_dir = (
        str(suite.store.root)
        if suite.store is not None and suite.store.persistent
        else None
    )
    for name in suite.circuit_names:
        try:
            # Same prepare scope as ExperimentSuite._run: a broken
            # netlist surfaces as a typed error (strict) or FAILED
            # cells (isolate), never a bare KeyError during planning.
            with stage_scope("prepare", circuit=name):
                netlist = suite.netlist(name)
                scheme = suite.scheme(name)
        except ReproError as exc:
            if not suite.isolate:
                raise
            exc.annotate(circuit=name)
            for method in methods:
                levels = (
                    (1.0,)
                    if method in suite.C_INDEPENDENT
                    else tuple(c for _, c in LEVELS)
                )
                for overhead in levels:
                    key = (name, method, overhead)
                    if key in suite._outcomes and not isinstance(
                        suite._outcomes[key], FailedOutcome
                    ):
                        continue
                    suite.record_outcome(
                        key,
                        FailedOutcome(
                            method=method,
                            circuit_name=name,
                            overhead=overhead,
                            stage=exc.stage,
                            error=exc.to_dict(),
                        ),
                    )
            continue
        for method in methods:
            if method in suite.C_INDEPENDENT:
                levels: Tuple[float, ...] = (1.0,)
            else:
                levels = tuple(c for _, c in LEVELS)
            pending: List[float] = []
            pending_rates: List[float] = []
            for overhead in levels:
                key = (name, method, overhead)
                have_outcome = key in suite._outcomes and not isinstance(
                    suite._outcomes[key], FailedOutcome
                )
                need_rate = (
                    error_rates
                    and method in ERROR_RATE_METHODS
                    and key not in suite._error_rates
                )
                if have_outcome and not need_rate:
                    continue
                pending.append(overhead)
                if need_rate:
                    pending_rates.append(overhead)
            if not pending:
                continue
            group = (
                method in ExperimentSuite.GRAR_METHODS
                and suite.retime_cache
            )
            if group:
                # One task per circuit covering the whole overhead
                # sweep: the worker compiles the problem once and
                # warm-starts each subsequent solve.
                batches = [tuple(pending)]
            else:
                batches = [(overhead,) for overhead in pending]
            for batch in batches:
                tasks.append(
                    CellTask(
                        circuit=name,
                        method=method,
                        overhead=batch[0],
                        netlist=netlist,
                        scheme=scheme,
                        library=suite.library,
                        guard=suite.guard,
                        solver_policy=suite.solver_policy,
                        error_rate=batch[0] in pending_rates,
                        cycles=suite.error_rate_cycles,
                        seed=suite.sim_seed,
                        seeds=suite.sim_seeds,
                        sim_backend=suite.sim_backend,
                        sta_mode=suite.sta_mode,
                        sta_engine=suite.sta_engine,
                        retime_cache=suite.retime_cache,
                        store_dir=store_dir,
                        overheads=batch,
                        rate_overheads=tuple(
                            c for c in batch if c in pending_rates
                        ),
                    )
                )
    return tasks


def run_cell(task: CellTask) -> List[CellResult]:
    """Execute one task's overhead sweep; the worker entry point.

    Single-overhead tasks return one result; grouped G-RAR tasks run
    the circuit's whole sweep in-process, so the compiled retiming
    problem and warm basis carry from point to point.  A task with a
    ``store_dir`` opens the shared artifact store *once* for its whole
    sweep (per-point opens would discard the memory tier between
    points) and runs under it.
    """
    if task.store_dir:
        with use_store(open_store(task.store_dir)):
            return [_run_point(task, overhead) for overhead in task.sweep]
    return [_run_point(task, overhead) for overhead in task.sweep]


def _run_point(task: CellTask, overhead: float) -> CellResult:
    """One (circuit, method, overhead) cell of a task (also inline).

    Mirrors ``ExperimentSuite._run`` plus the Table VIII simulation:
    failures come back as structured :class:`ReproError` dictionaries
    so the parent can either isolate them (``FailedOutcome``) or
    re-raise the typed error.
    """
    if task.overheads:
        need_rate = overhead in task.rate_overheads
    else:
        need_rate = task.error_rate
    collector = metrics.MetricsCollector()
    started = time.perf_counter()
    result = CellResult(
        circuit=task.circuit, method=task.method, overhead=overhead
    )
    with metrics.collect_into(collector):
        try:
            outcome = run_flow(
                task.method,
                task.netlist,
                task.library,
                overhead,
                scheme=task.scheme,
                guard=task.guard,
                solver_policy=task.solver_policy,
                sta_mode=task.sta_mode,
                sta_engine=task.sta_engine,
                retime_cache=task.retime_cache,
            )
        except ReproError as exc:
            exc.annotate(circuit=task.circuit)
            result.error = exc.to_dict()
            result.error_type = type(exc).__name__
        else:
            result.record = dict(FlowRecord.from_outcome(outcome).__dict__)
            if need_rate:
                result.sim_backend = resolve_backend(task.sim_backend)
                try:
                    with stage_scope("simulate", circuit=task.circuit):
                        # One compile serves the whole seed sweep;
                        # single-seed reports are byte-identical to
                        # the sequential per-seed call.
                        reports = estimate_error_rate_batched(
                            outcome.circuit,
                            outcome.retiming.placement,
                            outcome.edl_endpoints,
                            cycles=task.cycles,
                            seeds=task.seeds or (task.seed,),
                            backend=result.sim_backend,
                        )
                except ReproError as exc:
                    exc.annotate(circuit=task.circuit)
                    result.error = exc.to_dict()
                    result.error_type = type(exc).__name__
                    result.error_rate = float("nan")
                else:
                    result.error_rate = sum(
                        r.error_rate for r in reports
                    ) / len(reports)
                    result.sim_cycles_per_sec = reports[0].cycles_per_sec
    result.wall_s = time.perf_counter() - started
    result.metrics = collector.to_dict()
    return result


def _rebuild_error(result: CellResult) -> ReproError:
    """Reconstruct the worker's typed error on the parent side."""
    payload = result.error or {}
    cls = getattr(errors_mod, result.error_type or "", None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        cls = errors_mod.FlowStageError
    exc = cls(str(payload.get("message", "parallel worker failure")))
    exc.stage = payload.get("stage")
    exc.circuit = payload.get("circuit") or result.circuit
    exc.payload = dict(payload.get("payload") or {})
    return exc


def _merge_result(suite: ExperimentSuite, result: CellResult) -> None:
    """Fold one worker result into the suite exactly like a local run."""
    if result.failed:
        error = result.error or {}
        suite.record_outcome(
            result.key,
            FailedOutcome(
                method=result.method,
                circuit_name=result.circuit,
                overhead=result.overhead,
                stage=error.get("stage"),
                error=error,
            ),
        )
        return
    suite.record_outcome(result.key, FlowRecord(**result.record))
    if result.error_rate is not None:
        suite.record_error_rate(result.key, result.error_rate)
        if result.error is not None:
            # Flow succeeded but the simulation failed: mirror the
            # sequential path, which records the failure and NaN.
            suite.failures.append(
                FailedOutcome(
                    method=result.method,
                    circuit_name=result.circuit,
                    overhead=result.overhead,
                    stage=(result.error or {}).get("stage"),
                    error=result.error or {},
                )
            )


# -- deadline-enforcing task runner ------------------------------------------

#: Failure kinds worth a second attempt: a killed-at-deadline or dead
#: worker may have been a transient resource blip; a worker that
#: *reported* an exception is deterministic and retrying cannot help.
RETRYABLE_KINDS = frozenset({"deadline", "worker-death"})


@dataclass
class TaskFailure:
    """Typed outcome of a task that could not produce a result."""

    #: ``"deadline"`` (killed at the per-task deadline),
    #: ``"worker-death"`` (process died without reporting), or
    #: ``"crash"`` (the worker reported an exception).
    kind: str
    message: str
    attempts: int
    wall_s: float = 0.0
    #: structured ``ReproError`` dict when the worker reported one.
    error: Optional[Dict[str, Any]] = None
    error_type: Optional[str] = None
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_error(self) -> ReproError:
        """The failure as a raisable typed error."""
        cls = DeadlineError if self.kind == "deadline" else (
            getattr(errors_mod, self.error_type or "", None)
            or errors_mod.FlowStageError
        )
        if not (isinstance(cls, type) and issubclass(cls, ReproError)):
            cls = errors_mod.FlowStageError
        exc = cls(self.message)
        exc.stage = (self.error or {}).get("stage") or "parallel"
        exc.circuit = (self.error or {}).get("circuit")
        exc.payload = dict((self.error or {}).get("payload") or {})
        exc.payload.update(self.payload)
        exc.payload["failure_kind"] = self.kind
        exc.payload["attempts"] = self.attempts
        return exc


def _deadline_entry(conn, worker, task) -> None:
    """Child-process entry: run the task, report over the pipe."""
    try:
        result = worker(task)
    except (KeyboardInterrupt, SystemExit):
        raise
    except ReproError as exc:
        conn.send(
            (
                "crash",
                {
                    "message": str(exc),
                    "error": exc.to_dict(),
                    "type": type(exc).__name__,
                },
            )
        )
    except BaseException as exc:  # noqa: BLE001 - crosses a process
        conn.send(
            (
                "crash",
                {
                    "message": f"{type(exc).__name__}: {exc}",
                    "error": None,
                    "type": type(exc).__name__,
                },
            )
        )
    else:
        conn.send(("ok", result))
    finally:
        conn.close()


def run_tasks_with_deadline(
    worker: Callable[[Any], Any],
    tasks: Sequence[Any],
    jobs: int = 1,
    deadline_s: Optional[float] = None,
    backoff_s: float = 0.25,
    retry_kinds: frozenset = RETRYABLE_KINDS,
    max_attempts: int = 2,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Union[Any, TaskFailure]]:
    """Run ``worker(task)`` per task in killable worker processes.

    The executor-based path cannot enforce per-task deadlines — a
    :class:`~concurrent.futures.ProcessPoolExecutor` has no way to
    kill one hung worker without tearing down the pool — so this
    runner owns its processes: one :class:`multiprocessing.Process`
    plus pipe per attempt, at most ``jobs`` live at a time.  A task
    that exceeds ``deadline_s`` is terminated and recorded as
    ``TaskFailure(kind="deadline")``; a worker that dies without
    reporting (OOM kill, segfault) as ``kind="worker-death"``.  Kinds
    in ``retry_kinds`` are retried after a ``backoff_s`` pause (scaled
    by the attempt number) up to ``max_attempts`` total attempts;
    reported exceptions (``kind="crash"``) are deterministic and fail
    immediately.

    Returns one entry per task, in task order: the worker's return
    value or a :class:`TaskFailure`.  The caller decides whether a
    failure degrades gracefully (a FAILED report entry) or raises
    (:meth:`TaskFailure.to_error`).

    ``on_result`` is invoked as ``on_result(task_index, outcome)`` the
    moment each task settles (result or final failure, not interim
    retries) — the hook resumable sweeps use to checkpoint their memo
    while later tasks are still running.
    """
    if deadline_s is not None and deadline_s <= 0:
        raise ValueError("deadline_s must be positive")
    jobs = max(1, int(jobs))
    results: List[Union[Any, TaskFailure]] = [None] * len(tasks)
    queue = deque((index, 1) for index in range(len(tasks)))
    #: retries waiting out their backoff: (not_before, index, attempt).
    delayed: List[Tuple[float, int, int]] = []
    #: conn -> (task index, attempt, process, start time).
    live: Dict[Any, Tuple[int, int, Any, float]] = {}

    def settle(index: int, attempt: int, failure: TaskFailure) -> None:
        if failure.kind in retry_kinds and attempt < max_attempts:
            metrics.count("parallel.deadline.retries")
            delayed.append(
                (time.monotonic() + backoff_s * attempt, index, attempt + 1)
            )
        else:
            results[index] = failure
            if on_result is not None:
                on_result(index, failure)

    while queue or delayed or live:
        now = time.monotonic()
        still_delayed: List[Tuple[float, int, int]] = []
        for not_before, index, attempt in delayed:
            if now >= not_before:
                queue.append((index, attempt))
            else:
                still_delayed.append((not_before, index, attempt))
        delayed = still_delayed

        while queue and len(live) < jobs:
            index, attempt = queue.popleft()
            parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
            process = multiprocessing.Process(
                target=_deadline_entry,
                args=(child_conn, worker, tasks[index]),
                daemon=True,
            )
            process.start()
            child_conn.close()
            live[parent_conn] = (index, attempt, process, time.monotonic())

        if not live:
            if delayed:
                pause = min(nb for nb, _, _ in delayed) - time.monotonic()
                if pause > 0:
                    time.sleep(pause)
            continue

        now = time.monotonic()
        bounds: List[float] = [nb - now for nb, _, _ in delayed]
        if deadline_s is not None:
            bounds.extend(
                started + deadline_s - now
                for (_, _, _, started) in live.values()
            )
        timeout = max(0.0, min(bounds)) if bounds else None
        ready = connection_wait(list(live), timeout=timeout)

        for conn in ready:
            index, attempt, process, started = live.pop(conn)
            wall_s = time.monotonic() - started
            try:
                tag, body = conn.recv()
            except EOFError:
                process.join()
                settle(
                    index,
                    attempt,
                    TaskFailure(
                        kind="worker-death",
                        message=(
                            f"worker died without reporting a result "
                            f"(exit code {process.exitcode})"
                        ),
                        attempts=attempt,
                        wall_s=wall_s,
                        payload={"exitcode": process.exitcode},
                    ),
                )
            else:
                process.join()
                if tag == "ok":
                    results[index] = body
                    if on_result is not None:
                        on_result(index, body)
                else:
                    settle(
                        index,
                        attempt,
                        TaskFailure(
                            kind="crash",
                            message=body["message"],
                            attempts=attempt,
                            wall_s=wall_s,
                            error=body.get("error"),
                            error_type=body.get("type"),
                        ),
                    )
            finally:
                conn.close()

        if deadline_s is not None:
            ready_set = set(ready)
            now = time.monotonic()
            for conn in [
                c
                for c, (_, _, _, started) in live.items()
                if c not in ready_set and now - started > deadline_s
            ]:
                index, attempt, process, started = live.pop(conn)
                process.terminate()
                process.join(5.0)
                if process.is_alive():  # pragma: no cover - stuck kill
                    process.kill()
                    process.join()
                conn.close()
                metrics.count("parallel.deadline.kills")
                settle(
                    index,
                    attempt,
                    TaskFailure(
                        kind="deadline",
                        message=(
                            f"task exceeded its {deadline_s:g}s deadline "
                            f"and was killed (attempt {attempt})"
                        ),
                        attempts=attempt,
                        wall_s=time.monotonic() - started,
                        payload={"deadline_s": deadline_s},
                    ),
                )
    return results


def _failure_results(
    task: CellTask, failure: TaskFailure
) -> List[CellResult]:
    """One FAILED :class:`CellResult` per sweep point of a dead task."""
    error = dict(failure.error or {})
    error.setdefault("message", failure.message)
    error.setdefault("stage", "parallel")
    payload = dict(error.get("payload") or {})
    payload.update(failure.payload)
    payload["failure_kind"] = failure.kind
    payload["attempts"] = failure.attempts
    error["payload"] = payload
    if failure.kind == "deadline":
        error_type = "DeadlineError"
    else:
        error_type = failure.error_type or "FlowStageError"
    error.setdefault("type", error_type)
    return [
        CellResult(
            circuit=task.circuit,
            method=task.method,
            overhead=overhead,
            error=error,
            error_type=error_type,
            wall_s=failure.wall_s if position == 0 else 0.0,
        )
        for position, overhead in enumerate(task.sweep)
    ]


def run_suite_parallel(
    suite: ExperimentSuite,
    jobs: int,
    methods: Optional[Sequence[str]] = None,
    error_rates: bool = True,
    checkpoint_every: Optional[int] = None,
    deadline_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Prewarm the suite's memo with ``jobs`` worker processes.

    Returns a bench summary (cells, wall clock, per-cell timings,
    merged worker metrics); the suite afterwards renders every table
    from the warm memo.  With ``jobs <= 1`` the cells run inline
    through the same code path, which is what the parity test
    exploits.

    ``deadline_s`` enforces a per-task wall-clock deadline through
    :func:`run_tasks_with_deadline` (even at ``jobs=1``, since only a
    separate process can be killed): a hung cell is terminated,
    retried once, and on the second miss recorded as a
    ``FailedOutcome`` whose error is a :class:`DeadlineError` dict.

    Failures honour ``suite.isolate``: isolated suites record
    ``FailedOutcome`` cells, strict suites re-raise the first worker
    error as its original :class:`ReproError` type.
    """
    if checkpoint_every is None:
        checkpoint_every = max(suite.checkpoint_every, 8)
    suite.checkpoint_every = max(1, int(checkpoint_every))

    tasks = plan_cells(
        suite, methods=tuple(methods or TABLE_METHODS),
        error_rates=error_rates,
    )
    started = time.perf_counter()
    results: List[CellResult] = []
    if deadline_s is not None:
        raw = run_tasks_with_deadline(
            run_cell, tasks, jobs=jobs, deadline_s=deadline_s
        )
        for task, item in zip(tasks, raw):
            if isinstance(item, TaskFailure):
                results.extend(_failure_results(task, item))
            else:
                results.extend(item)
    elif jobs <= 1 or len(tasks) <= 1:
        for task in tasks:
            results.extend(run_cell(task))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            pending = {pool.submit(run_cell, task) for task in tasks}
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    results.extend(future.result())
    # Merge in a deterministic order so memo files and failure lists
    # do not depend on completion timing.
    results.sort(key=lambda r: (r.circuit, r.method, r.overhead))
    first_failure: Optional[CellResult] = None
    ambient = metrics.current()
    for result in results:
        if result.metrics and ambient is not None:
            ambient.merge_dict(result.metrics)
        if result.failed and not suite.isolate:
            if first_failure is None:
                first_failure = result
            continue
        _merge_result(suite, result)
    suite.checkpoint(force=True)
    wall_s = time.perf_counter() - started
    if first_failure is not None:
        raise _rebuild_error(first_failure)

    busy_s = sum(r.wall_s for r in results)
    # None = unmeasured (no simulation, or a wall clock too coarse to
    # resolve the run) — only measured cells enter the average.
    sim_rates = [
        r.sim_cycles_per_sec
        for r in results
        if r.sim_cycles_per_sec is not None
    ]
    summary: Dict[str, Any] = {
        "jobs": jobs,
        # The backend the cells actually ran (the default resolves
        # per worker); the suite's request when no cell simulated.
        "sim_backend": next(
            (r.sim_backend for r in results if r.sim_backend),
            suite.sim_backend,
        ),
        "sta_engine": suite.sta_engine,
        "sim_cells": len(sim_rates),
        "sim_cycles_per_sec": round(
            sum(sim_rates) / len(sim_rates), 2
        ) if sim_rates else None,
        "n_cells": len(results),
        "n_failed": sum(1 for r in results if r.failed),
        "wall_s": round(wall_s, 6),
        "cells_wall_s": round(busy_s, 6),
        "parallel_efficiency": round(
            busy_s / (wall_s * jobs), 4
        ) if wall_s > 0 and jobs > 0 else 0.0,
        "cells": [
            {
                "circuit": r.circuit,
                "method": r.method,
                "overhead": r.overhead,
                "wall_s": round(r.wall_s, 6),
                "failed": r.failed,
                "solver_backend": (
                    (r.record or {}).get("solver_backend", "")
                ),
                "sim_backend": r.sim_backend,
                "sim_cycles_per_sec": (
                    None
                    if r.sim_cycles_per_sec is None
                    else round(r.sim_cycles_per_sec, 2)
                ),
            }
            for r in results
        ],
    }
    metrics.count("parallel.cells", len(results))
    metrics.count("parallel.wall_s", wall_s)
    return summary
