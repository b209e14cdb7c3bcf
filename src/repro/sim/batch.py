"""Batched Monte-Carlo error-rate estimation: one compile, many seeds.

:func:`~repro.sim.errorrate.estimate_error_rate` pays the
cycle-invariant setup — the :class:`~repro.sim.kernel.CompiledSimulator`
compile (topological schedule, arc delays, truth tables) — once per
*seed*.  A Monte-Carlo sweep over many vector seeds on a fixed
``(circuit, placement, plan)`` re-derives the identical compile every
time; on the Table-VIII-scale circuits that compile dominates short
runs.

:func:`estimate_error_rate_batched` hoists the compile out of the seed
loop: one shared :class:`~repro.sim.errorrate._CycleLoop` (kernel or
event simulator, endpoint/flop key tables, injection plan validation),
then one independent lane of mutable state per seed, advanced
cycle-major through the shared loop.

**Parity is structural**: each lane owns its own
:class:`~repro.sim.vectors.VectorSource`, flop values and latch state,
and every cycle runs through the *same* :meth:`_CycleLoop.step` the
sequential estimator uses — there is no second copy of the window
scan, capture, or SEU bookkeeping to drift.  The reports are therefore
comparison-identical to calling ``estimate_error_rate`` once per seed
(``tests/test_arena.py`` pins this, including under injection plans).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Set

from repro import metrics
from repro.latches.placement import SlavePlacement
from repro.latches.resilient import TwoPhaseCircuit
from repro.scenarios.injectors import InjectionPlan
from repro.sim.errorrate import ErrorRateReport, _CycleLoop, resolve_backend
from repro.sim.logicsim import MAX_EVENTS_PER_NET


def estimate_error_rate_batched(
    circuit: TwoPhaseCircuit,
    placement: SlavePlacement,
    edl_endpoints: Set[str],
    cycles: int = 256,
    seeds: Sequence[int] = (2017,),
    toggle_probability: float = 0.5,
    backend: Optional[str] = None,
    max_events_per_net: int = MAX_EVENTS_PER_NET,
    injection: Optional[InjectionPlan] = None,
) -> List[ErrorRateReport]:
    """Error-rate reports for every seed, sharing one simulator compile.

    Returns one :class:`~repro.sim.errorrate.ErrorRateReport` per entry
    of ``seeds``, in order, each comparison-equal to
    ``estimate_error_rate(..., seed=s)`` with the same arguments.  The
    ``cycles_per_sec`` field (excluded from report comparison) carries
    the *aggregate* batch throughput — total lane-cycles over the
    shared wall clock — since the per-lane split of a batched pass is
    not meaningful.  ``backend=None`` picks the default
    (:func:`~repro.sim.errorrate.resolve_backend`).
    """
    plan = injection or InjectionPlan()
    backend = resolve_backend(backend)
    if backend == "vector":
        from repro.sim.vector import estimate_error_rate_vector

        return estimate_error_rate_vector(
            circuit,
            placement,
            edl_endpoints,
            cycles=cycles,
            seeds=seeds,
            toggle_probability=toggle_probability,
            max_events_per_net=max_events_per_net,
            injection=injection,
        )
    loop = _CycleLoop(
        circuit, placement, edl_endpoints, plan, backend, max_events_per_net
    )
    lanes = [
        loop.new_lane(cycles, seed, toggle_probability) for seed in seeds
    ]

    started = time.perf_counter()
    # Cycle-major: glitch/SEU schedules index by cycle, so one pass
    # over the schedule serves every lane; per-lane state keeps the
    # lanes fully independent regardless of interleaving order.
    for cycle in range(cycles):
        for lane in lanes:
            loop.step(cycle, lane)
    wall_s = time.perf_counter() - started

    reports = [loop.finish(lane) for lane in lanes]
    total_cycles = cycles * len(lanes)
    if wall_s > 0.0:
        throughput = total_cycles / wall_s
        for report in reports:
            report.cycles_per_sec = throughput

    metrics.count("sim.batched.runs")
    metrics.count("sim.batched.lanes", len(lanes))
    metrics.count(f"sim.backend.{backend}")
    metrics.count("sim.cycles", total_cycles)
    metrics.record_value("sim.wall_s", wall_s)
    if not plan.empty and lanes:
        counts = plan.counts()
        metrics.count("sim.inject.runs", len(lanes))
        metrics.count(
            "sim.inject.glitches", counts["glitches"] * len(lanes)
        )
        metrics.count(
            "sim.inject.scaled_gates", counts["scaled_gates"] * len(lanes)
        )
    return reports
