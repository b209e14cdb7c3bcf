"""The benchmark's workloads: inputs, timed ops and output checks.

Every workload runs in one process and one thread and calls only the
public API.  A workload is a ``setup`` (netlists, clock schemes and,
for simulation, the designs under test) and a list of :class:`Op`:
``run`` is the timed call, ``check`` verifies its output outside the
timed span and returns a failure reason or ``None``.

Functions are looked up through their modules at call time
(``repro.flows.run.run_flow``, not a name bound at import), so the
traced run's patches see the benchmark's own calls too.

Seeds: ``seed == 0`` is the paper's Table I suite and the Table VIII
Monte-Carlo seeds 2017 onwards.  Any other seed reseeds every circuit
profile of the flow workloads, and shifts the Monte-Carlo seeds of
``sim-mc`` (whose designs stay the Table I ones).  The same seed always
gives the same inputs.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import repro.circuits
import repro.flows.run
import repro.sim
from repro.cells import default_library

#: QoR figures a pure performance change must leave untouched.
QOR_KEYS = (
    "qor.total_area",
    "qor.seq_area",
    "qor.n_slaves",
    "qor.n_edl",
    "qor.error_rate_pct",
    "latches.forward_violations",
    "latches.window_overflows",
)


@dataclass
class Op:
    """One timed operation and the check of its output."""

    label: str
    run: Callable[[], Any]
    #: ``check(output, tally)`` -> failure reason or ``None``; adds the
    #: op's QoR into ``tally``.
    check: Callable[[Any, "Tally"], Optional[str]]


@dataclass
class Tally:
    """What one pass over the ops produced, beyond its timings."""

    qor: Dict[str, float] = dataclasses.field(
        default_factory=lambda: {key: 0.0 for key in QOR_KEYS}
    )
    error_rates: List[float] = dataclasses.field(default_factory=list)
    lane_cycles: int = 0

    def finish(self) -> Dict[str, float]:
        """The QoR dict, with the mean error rate filled in."""
        qor = dict(self.qor)
        if self.error_rates:
            qor["qor.error_rate_pct"] = statistics.fmean(self.error_rates)
        return qor


def build_circuit(name: str, library, seed: int):
    """A Table I circuit, reseeded for ``seed != 0``."""
    if seed == 0:
        return repro.circuits.build_benchmark(name, library)
    profile = repro.circuits.BENCHMARK_PROFILES[name]
    profile = dataclasses.replace(profile, seed=profile.seed + 100_003 * seed)
    return repro.circuits.generate_circuit(profile.spec(), library)


def _prepare(names, seed: int) -> Dict[str, Any]:
    library = default_library()
    circuits = []
    for name in names:
        netlist = build_circuit(name, library, seed)
        scheme, _ = repro.flows.run.prepare_circuit(netlist, library)
        circuits.append((name, netlist, scheme))
    return {"library": library, "circuits": circuits}


def _add_outcome(tally: Tally, outcome) -> None:
    qor = tally.qor
    qor["qor.total_area"] += outcome.total_area
    qor["qor.seq_area"] += outcome.sequential_area
    qor["qor.n_slaves"] += outcome.n_slaves
    qor["qor.n_edl"] += outcome.n_edl


def _check_flow(outcome, tally: Tally) -> Optional[str]:
    """A flow op fails unless its final placement is legal and needs
    no further sizing."""
    _add_outcome(tally, outcome)
    report = outcome.circuit.check_legality(outcome.retiming.placement)
    tally.qor["latches.forward_violations"] += len(report.forward_violations)
    tally.qor["latches.window_overflows"] += len(report.window_overflows)
    if not report.ok or report.needs_sizing:
        return report.summary()
    return None


def _run_flow(method, netlist, library, overhead, scheme):
    return repro.flows.run.run_flow(
        method, netlist, library, overhead, scheme=scheme
    )


class Workload:
    """Base: ``setup(seed)`` builds the inputs, ``ops(ctx, seed)``
    lists the timed operations.  ``setup_reps`` setups run per process;
    ``setup_s`` reports their median."""

    name = ""
    setup_reps = 5

    def setup_seeds(self, seed: int) -> List[int]:
        """Input seeds of the setup repetitions, ``seed`` last.

        The earlier repetitions build their own reseeded inputs: the
        generator retries a varying number of times per netlist, so
        the median over several input sets is a steadier setup cost
        than repeats of one.  Only the last set feeds the timed ops.
        """
        reps = self.setup_reps
        return [1_000_000 + seed * reps + rep for rep in range(reps - 1)] + [
            seed
        ]

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def ops(self, ctx: Any, seed: int) -> List[Op]:
        raise NotImplementedError


class FlowWorkload(Workload):
    """``run_flow`` over circuits x (method, c) cells, in order: a cell
    can read what an earlier one left in the compiled-G-RAR cache."""

    def __init__(self, name: str, circuits, cells) -> None:
        self.name = name
        self.circuits = circuits
        self.cells = cells

    def setup(self, seed):
        return _prepare(self.circuits, seed)

    def ops(self, ctx, seed):
        library = ctx["library"]
        return [
            Op(
                label=f"{name}/{method}@{overhead}",
                run=functools.partial(
                    _run_flow, method, netlist, library, overhead, scheme
                ),
                check=_check_flow,
            )
            for name, netlist, scheme in ctx["circuits"]
            for method, overhead in self.cells
        ]


class SimMc(Workload):
    """Table VIII error-rate simulation of base and RVL designs."""

    name = "sim-mc"
    # Setup is four full flows, long enough to normalize on its own.
    setup_reps = 1
    circuits = ("s1423", "s5378")
    methods = ("base", "rvl")
    #: Table VIII's cycle count.
    cycles = 192
    n_seeds = 4
    base_seed = 2017

    def setup(self, seed):
        # The designs are always the Table I netlists; the seed picks
        # the Monte-Carlo stimulus.  Reseeded netlists give designs
        # whose error rates (44-98%) and hence simulation work swing
        # with the seed far more than the host noise being measured.
        ctx = _prepare(self.circuits, 0)
        library = ctx["library"]
        designs = []
        for name, netlist, scheme in ctx["circuits"]:
            for method in self.methods:
                try:
                    outcome = _run_flow(method, netlist, library, 1.0, scheme)
                except Exception as exc:  # reported by the design's op
                    outcome = exc
                designs.append((name, method, outcome))
        ctx["designs"] = designs
        # One tiny call on a separate small design, so any lazy
        # per-process compile of the simulator lands in setup rather
        # than in the first timed op.
        small = build_circuit("s1488", library, 0)
        warm = repro.flows.run.run_flow(
            "base", small, library, 1.0, sizing=False
        )
        repro.sim.estimate_error_rate_batched(
            warm.circuit, warm.retiming.placement, warm.edl_endpoints,
            cycles=2, seeds=(self.base_seed,),
        )
        return ctx

    def seeds(self, seed: int):
        first = self.base_seed + self.n_seeds * seed
        return tuple(range(first, first + self.n_seeds))

    def ops(self, ctx, seed):
        seeds = self.seeds(seed)
        ops = []
        for name, method, outcome in ctx["designs"]:
            ops.append(
                Op(
                    label=f"{name}/{method}@1.0/sim",
                    run=functools.partial(self._simulate, outcome, seeds),
                    check=functools.partial(self._check, outcome, seeds),
                )
            )
        return ops

    def _simulate(self, outcome, seeds):
        if isinstance(outcome, Exception):
            raise outcome
        return repro.sim.estimate_error_rate_batched(
            outcome.circuit,
            outcome.retiming.placement,
            outcome.edl_endpoints,
            cycles=self.cycles,
            seeds=seeds,
        )

    def _check(self, outcome, seeds, reports, tally: Tally):
        """An error-rate op fails on a wrong report count or cycle
        count, or on a window transition at a non-EDL master."""
        _add_outcome(tally, outcome)
        if len(reports) != len(seeds):
            return f"{len(reports)} reports for {len(seeds)} seeds"
        tally.lane_cycles += sum(report.cycles for report in reports)
        tally.error_rates.extend(report.error_rate for report in reports)
        bad_cycles = [r.cycles for r in reports if r.cycles != self.cycles]
        if bad_cycles:
            return f"cycle counts {bad_cycles}, expected {self.cycles}"
        violations = sum(report.non_edl_violations for report in reports)
        if violations:
            return f"{violations} non-EDL window violations"
        return None


#: Why each workload exists is recorded in ``BENCHMARK.json``.
WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        # Table IV/V: base, RVL, then a G-RAR c-sweep whose later cells
        # read the compiled-G-RAR cache and warm-start the simplex.
        FlowWorkload(
            "tables-sweep",
            ("s1423", "s5378"),
            (("base", 1.0), ("rvl", 1.0), ("grar", 0.5), ("grar", 1.0),
             ("grar", 2.0)),
        ),
        # Cold G-RAR, one c per circuit: the compile cache only writes.
        FlowWorkload("grar-large", ("s9234", "s13207"), (("grar", 1.0),)),
        SimMc(),
    )
}
