"""Error-rate estimation (Table VIII).

Per the paper, the error rate is measured with random-input
simulation: a cycle is an *error cycle* when the data at any
error-detecting master transitions inside the timing-resiliency window
``(Pi, Pi + phi1]``.  Non-error-detecting masters must never toggle in
the window — the flows' constraints guarantee it, and the estimator
verifies it (``non_edl_violations``).

Three interchangeable backends evaluate the cycles:

* ``"event"`` — the reference :class:`~repro.sim.logicsim.TimedSimulator`,
  re-deriving delays and waveform lookups per cycle (the oracle);
* ``"compiled"`` — :class:`~repro.sim.kernel.CompiledSimulator`,
  which compiles the cycle-invariant work once and is bit-identical to
  the event backend (the parity test in
  ``tests/test_sim_regressions.py`` is the acceptance gate);
* ``"vector"`` — :mod:`repro.sim.vector`, which reuses the compiled
  schedule but makes the Monte-Carlo seed axis a NumPy array
  dimension and evaluates gates and latches in a native C helper
  (:mod:`repro.sim._native`), advancing every seed per pass
  (bit-identical per-seed reports; single-seed calls run as one lane).

``backend=None`` (the default everywhere) is resolved by
:func:`resolve_backend` at the first simulation call: ``"vector"``
when the native helper loads, else ``"compiled"``, with one
``RuntimeWarning`` per process naming why the helper is unavailable.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro import metrics
from repro.cells.edl import window_has_transition
from repro.errors import SimulationError
from repro.latches.placement import SlavePlacement
from repro.latches.resilient import TwoPhaseCircuit
from repro.netlist.netlist import GateType
from repro.scenarios.injectors import InjectionPlan
from repro.sim import _native
from repro.sim.logicsim import MAX_EVENTS_PER_NET, TimedSimulator
from repro.sim.vectors import VectorSource

#: Valid values of the ``backend`` switch.
SIM_BACKENDS = ("event", "compiled", "vector")

_fallback_warned = False


def resolve_backend(backend: Optional[str]) -> str:
    """The backend a simulation call runs.

    An explicit ``backend`` is validated and returned.  ``None`` is
    the default: ``"vector"`` when the native helper loads, else
    ``"compiled"``.  The fallback counts ``sim.native.unavailable``
    and warns once per process with the recorded reason.
    """
    global _fallback_warned
    if backend is not None:
        if backend not in SIM_BACKENDS:
            raise ValueError(
                f"unknown simulation backend {backend!r}; "
                f"expected one of {SIM_BACKENDS}"
            )
        return backend
    if _native.load() is not None:
        return "vector"
    metrics.count("sim.native.unavailable")
    if not _fallback_warned:
        _fallback_warned = True
        warnings.warn(
            "native simulation helper unavailable "
            f"({_native.status().reason}); the default simulation "
            "backend falls back to 'compiled'",
            RuntimeWarning,
            stacklevel=3,
        )
    return "compiled"


@dataclass
class ErrorRateReport:
    """Simulation outcome over N cycles."""

    cycles: int
    error_cycles: int
    #: error count per error-detecting master.
    per_endpoint: Dict[str, int] = field(default_factory=dict)
    #: window transitions observed at masters *not* marked EDL —
    #: should be zero for a correct design.
    non_edl_violations: int = 0
    #: flop state after the last cycle (settled capture values).
    final_flop_state: Dict[str, int] = field(default_factory=dict)
    #: latch/source state after the last cycle (``src:`` and
    #: ``latch:`` keys, as the simulator maintains them).
    final_latch_state: Dict[str, int] = field(default_factory=dict)
    #: which backend produced the report (not part of equality: all
    #: backends must produce comparison-identical reports).
    backend: str = field(default="event", compare=False)
    #: simulation throughput, for bench artifacts (not compared).
    #: ``None`` means unmeasured — a run too fast for the wall clock
    #: to resolve stays ``None`` instead of masquerading as 0.0.
    cycles_per_sec: Optional[float] = field(default=None, compare=False)

    @property
    def error_rate(self) -> float:
        """Fraction of cycles with at least one error, in percent."""
        if self.cycles == 0:
            return 0.0
        return 100.0 * self.error_cycles / self.cycles


def _check_plan_targets(
    netlist, plan: InjectionPlan, placement: SlavePlacement
) -> None:
    """Reject an injection plan naming nets/state the design lacks.

    A silently-ignored injection target would make a scenario look
    healthier than it is, so unknown names are a typed failure.  SEU
    targets may be flop names or ``latch:<driver>:<sink>`` state keys;
    the latter are validated against the placement's actual latch
    edges — a typo'd key would otherwise mutate phantom ``latch_state``
    entries no waveform ever reads.
    """
    if plan.empty:
        return
    known_nets = {g.name for g in netlist.comb_gates()}
    known_nets.update(g.name for g in netlist.sources())
    flop_names = {g.name for g in netlist.flops()}
    latch_keys = {
        f"latch:{driver}:{sink}"
        for driver, sink in placement.latch_edges(netlist)
    }
    bad = sorted(
        {
            spec.net
            for specs in plan.glitches.values()
            for spec in specs
            if spec.net not in known_nets
        }
    )
    bad += sorted(
        name for name in plan.delay_scale if name not in known_nets
    )
    bad += sorted(
        {
            target
            for targets in plan.seu_flips.values()
            for target in targets
            if target not in flop_names and target not in latch_keys
        }
    )
    if bad:
        raise SimulationError(
            f"injection plan names unknown targets: {bad[:8]}",
            payload={"unknown_targets": bad, "plan": plan.label},
        )


@dataclass
class _LaneState:
    """Mutable per-seed state of one simulation lane."""

    source: VectorSource
    report: ErrorRateReport
    latch_state: Dict[str, int]
    flop_values: Dict[str, int]


class _CycleLoop:
    """Cycle-invariant simulation setup plus the per-cycle bookkeeping.

    Both :func:`estimate_error_rate` and
    :func:`~repro.sim.batch.estimate_error_rate_batched` drive their
    cycles through :meth:`step`, so the batched estimator is
    bit-identical to running the sequential one per seed *by
    construction* — there is exactly one copy of the window scan, the
    settled-value capture, and the SEU flip logic.
    """

    def __init__(
        self,
        circuit: TwoPhaseCircuit,
        placement: SlavePlacement,
        edl_endpoints: Set[str],
        plan: InjectionPlan,
        backend: str,
        max_events_per_net: int,
    ) -> None:
        # Callers resolve the backend and dispatch "vector" to
        # repro.sim.vector, which advances all lanes at once.
        netlist = circuit.netlist
        _check_plan_targets(netlist, plan, placement)
        self.backend = backend
        self.plan = plan
        self.edl_endpoints = edl_endpoints
        scheme = circuit.scheme
        self.window_open = scheme.window_open
        self.window_close = scheme.window_close

        # The compile (kernel) / construction (event) cost is paid
        # once here, shared by every lane stepped through this loop.
        if backend == "compiled":
            from repro.sim.kernel import CompiledSimulator

            kernel = CompiledSimulator(
                circuit,
                placement,
                max_events_per_net=max_events_per_net,
                delay_scale=plan.delay_scale,
            )

            def run_cycle(launch, state, glitches):
                return kernel.run_cycle(launch, state, glitches=glitches)

        else:
            simulator = TimedSimulator(
                circuit,
                max_events_per_net=max_events_per_net,
                delay_scale=plan.delay_scale,
            )

            def run_cycle(launch, state, glitches):
                return simulator.run_cycle(
                    launch, placement, state, glitches=glitches
                )

        self.run_cycle = run_cycle
        self.pi_names = [g.name for g in netlist.inputs()]
        # (endpoint name, waveform key) pairs, hoisted out of the loop.
        self.endpoint_keys = [
            (
                g.name,
                f"{g.name}::d" if g.gtype is GateType.DFF else g.name,
            )
            for g in netlist.endpoints()
        ]
        self.flop_keys = [(g.name, f"{g.name}::d") for g in netlist.flops()]
        self.flop_names = {name for name, _ in self.flop_keys}

    def new_lane(
        self, cycles: int, seed: int, toggle_probability: float
    ) -> _LaneState:
        """Fresh lane state for one seed (zeroed flops, empty latches)."""
        return _LaneState(
            source=VectorSource(
                self.pi_names,
                seed=seed,
                toggle_probability=toggle_probability,
            ),
            report=ErrorRateReport(
                cycles=cycles, error_cycles=0, backend=self.backend
            ),
            latch_state={},
            flop_values={name: 0 for name, _ in self.flop_keys},
        )

    def step(self, cycle: int, lane: _LaneState) -> None:
        """Advance one lane through one cycle."""
        report = lane.report
        launch = dict(lane.flop_values)
        launch.update(lane.source.next_vector())
        waves = self.run_cycle(
            launch, lane.latch_state, self.plan.glitches.get(cycle, ())
        )

        cycle_error = False
        for name, wave_key in self.endpoint_keys:
            wave = waves[wave_key]
            times = wave.transition_times()
            if not window_has_transition(
                times, self.window_open, self.window_close
            ):
                continue
            if name in self.edl_endpoints:
                cycle_error = True
                report.per_endpoint[name] = (
                    report.per_endpoint.get(name, 0) + 1
                )
            else:
                report.non_edl_violations += 1
        if cycle_error:
            report.error_cycles += 1

        # Masters capture the *settled* value: an error stalls the
        # next stage in silicon until the time-borrowed transition has
        # landed, so the state carried into the next cycle is the
        # waveform's final value — not a sample at the window close,
        # which would lose any transition borrowed past it.
        for name, wave_key in self.flop_keys:
            lane.flop_values[name] = waves[wave_key].final

        # SEU capture flips strike the carried-over state *after* this
        # cycle's capture settles — a particle inverting the stored
        # bit.  Applied to the shared state dicts, so both backends
        # see the identical corruption by construction.
        for target in self.plan.seu_flips.get(cycle, ()):
            if target in self.flop_names:
                lane.flop_values[target] = 1 - lane.flop_values[target]
            else:
                lane.latch_state[target] = 1 - lane.latch_state.get(
                    target, 0
                )
            metrics.count("sim.inject.seu_flips")

    def finish(self, lane: _LaneState) -> ErrorRateReport:
        """Seal a lane's report with its final state snapshots."""
        lane.report.final_flop_state = dict(lane.flop_values)
        lane.report.final_latch_state = dict(lane.latch_state)
        return lane.report


def estimate_error_rate(
    circuit: TwoPhaseCircuit,
    placement: SlavePlacement,
    edl_endpoints: Set[str],
    cycles: int = 256,
    seed: int = 2017,
    toggle_probability: float = 0.5,
    backend: Optional[str] = None,
    max_events_per_net: int = MAX_EVENTS_PER_NET,
    injection: Optional[InjectionPlan] = None,
) -> ErrorRateReport:
    """Random-input error-rate simulation of a retimed design.

    ``injection`` perturbs the run with a resolved
    :class:`~repro.scenarios.injectors.InjectionPlan` — delay-corner
    scaling, per-cycle glitch pulses, and SEU capture-state flips.
    Every backend honours the same plan identically (the bit-parity
    contract extends to injected runs).  ``backend=None`` picks the
    default (:func:`resolve_backend`).
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
            seeds=(seed,),
            toggle_probability=toggle_probability,
            max_events_per_net=max_events_per_net,
            injection=injection,
        )[0]
    loop = _CycleLoop(
        circuit, placement, edl_endpoints, plan, backend, max_events_per_net
    )
    lane = loop.new_lane(cycles, seed, toggle_probability)
    report = lane.report

    started = time.perf_counter()
    for cycle in range(cycles):
        loop.step(cycle, lane)
    wall_s = time.perf_counter() - started
    loop.finish(lane)
    if wall_s > 0.0:
        report.cycles_per_sec = cycles / wall_s
    metrics.count(f"sim.backend.{backend}")
    metrics.count("sim.cycles", cycles)
    # A wall-clock measurement is a gauge, not an event count — it
    # lives under "values" in bench artifacts, not "counters".
    metrics.record_value("sim.wall_s", wall_s)
    if not plan.empty:
        counts = plan.counts()
        metrics.count("sim.inject.runs")
        metrics.count("sim.inject.glitches", counts["glitches"])
        metrics.count("sim.inject.scaled_gates", counts["scaled_gates"])
    return report
