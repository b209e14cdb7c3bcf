"""The area / error-rate trade-off sweep (Section VI-D).

The paper observes that "with a modest area increase of, on average
5%, error-rates can be further reduced, sometimes to 0": spending more
combinational area on speeding near-critical cones pulls more masters
out of the resiliency window, cutting both EDL count and dynamic error
rate.  This sweep exposes that curve by scaling G-RAR's cost-aware
rescue budget — and, since the scenario engine added fragility-ranked
selective hardening, lets the two hardening policies share one plot:
``methods=("grar", "selective")`` sweeps the G-RAR rescue budget and
the selective harden fraction side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cells.library import Library
from repro.clocks import ClockScheme
from repro.flows.run import prepare_circuit, run_flow
from repro.netlist.netlist import Netlist
from repro.sim import estimate_error_rate

#: Harden fractions the selective-hardening arm of the sweep visits
#: (its knob is a fraction in [0, 1], not an unbounded budget scale).
SELECTIVE_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class TradeoffPoint:
    """One knob setting on the area/error-rate curve.

    ``budget_scale`` is the method's knob value: the rescue-budget
    scale for G-RAR points, the harden fraction for selective points.
    """

    budget_scale: float
    total_area: float
    comb_area: float
    n_edl: int
    error_rate: float
    method: str = "grar"

    def row(self) -> tuple:
        """The point as a rounded tuple (for tables)."""
        return (
            self.budget_scale,
            round(self.total_area, 1),
            round(self.comb_area, 1),
            self.n_edl,
            round(self.error_rate, 2),
        )


def error_rate_tradeoff(
    netlist: Netlist,
    library: Library,
    overhead: float,
    budget_scales: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0),
    scheme: Optional[ClockScheme] = None,
    cycles: int = 160,
    seed: int = 2017,
    sim_backend: Optional[str] = None,
    retime_cache: bool = True,
    methods: Sequence[str] = ("grar",),
    harden_fractions: Sequence[float] = SELECTIVE_FRACTIONS,
) -> List[TradeoffPoint]:
    """Sweep each method's knob and measure area vs error rate.

    Every point re-runs its flow on the same pristine netlist, so with
    ``retime_cache`` on the first solve of each point hits the
    compiled problem (only post-rescue re-retimes see fresh
    fingerprints).  ``"grar"`` sweeps ``budget_scales`` through the
    rescue budget; ``"selective"`` sweeps ``harden_fractions`` through
    the fragility-ranked hardening policy.  All methods share the one
    clock scheme and simulation seed, so their points are directly
    comparable.
    """
    if scheme is None:
        scheme, _ = prepare_circuit(netlist, library)
    points: List[TradeoffPoint] = []
    for method in methods:
        if method == "selective":
            knobs = harden_fractions
        else:
            knobs = budget_scales
        for knob in knobs:
            outcome = run_flow(
                method,
                netlist,
                library,
                overhead,
                scheme=scheme,
                rescue_budget_scale=(
                    knob if method != "selective" else 1.0
                ),
                harden_fraction=(
                    knob if method == "selective" else 0.5
                ),
                retime_cache=retime_cache,
            )
            report = estimate_error_rate(
                outcome.circuit,
                outcome.retiming.placement,
                outcome.edl_endpoints,
                cycles=cycles,
                seed=seed,
                backend=sim_backend,
            )
            points.append(
                TradeoffPoint(
                    budget_scale=knob,
                    total_area=outcome.total_area,
                    comb_area=outcome.comb_area,
                    n_edl=outcome.n_edl,
                    error_rate=report.error_rate,
                    method=method,
                )
            )
    return points
