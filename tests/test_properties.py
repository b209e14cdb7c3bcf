"""Cross-cutting property-based tests on randomly generated circuits.

These hammer the invariants that make the reproduction trustworthy:
solver exactness (simplex == LP), retiming legality, credit soundness,
and arrival-model consistency, across a family of random FSM clouds.
"""

import functools
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cells import default_library
from repro.circuits import build_benchmark
from repro.circuits.fig4 import fig4_circuit
from repro.circuits.generator import CloudSpec, generate_circuit
from repro.flows import prepare_circuit
from repro.latches import SlavePlacement
from repro.latches.resilient import EPS
from repro.netlist.netlist import GateType
from repro.retime import (
    base_retime,
    build_retiming_graph,
    compute_cut_sets,
    compute_regions,
    grar_retime,
    solve_retiming_flow,
    solve_retiming_lp,
)

LIBRARY = default_library()


def make_circuit(seed, flops=8, gates=90, depth=6, fraction=0.3):
    spec = CloudSpec(
        name=f"prop{seed}",
        seed=seed,
        n_inputs=4,
        n_outputs=3,
        n_flops=flops,
        n_gates=gates,
        depth=depth,
        critical_fraction=fraction,
    )
    netlist = generate_circuit(spec, LIBRARY)
    _, circuit = prepare_circuit(netlist, LIBRARY)
    return circuit


SEEDS = st.integers(min_value=1, max_value=10**6)
SLOW = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSolverExactness:
    @given(SEEDS, st.sampled_from([0.5, 1.0, 2.0]))
    @SLOW
    def test_simplex_matches_lp(self, seed, overhead):
        circuit = make_circuit(seed)
        regions = compute_regions(circuit)
        cuts = compute_cut_sets(circuit, regions)
        graph = build_retiming_graph(circuit, regions, cuts, overhead)
        flow = solve_retiming_flow(graph)
        lp = solve_retiming_lp(graph)
        assert flow.objective == lp.objective

    @given(SEEDS)
    @SLOW
    def test_labels_within_bounds(self, seed):
        circuit = make_circuit(seed)
        regions = compute_regions(circuit)
        graph = build_retiming_graph(circuit, regions)
        flow = solve_retiming_flow(graph)
        for name, (lo, hi) in graph.bounds.items():
            assert lo <= flow.r_values[name] <= hi


class TestRetimingInvariants:
    @given(SEEDS, st.sampled_from([0.5, 2.0]))
    @SLOW
    def test_grar_placement_legal(self, seed, overhead):
        circuit = make_circuit(seed)
        result = grar_retime(circuit, overhead=overhead)
        report = circuit.check_legality(result.placement)
        assert report.ok, report.summary()

    @given(SEEDS)
    @SLOW
    def test_credits_sound(self, seed):
        """Every credit the solver takes must be a real non-EDL master."""
        circuit = make_circuit(seed)
        result = grar_retime(circuit, overhead=2.0)
        edl = circuit.edl_endpoints(result.placement)
        assert not (result.credited_endpoints & edl)

    @given(SEEDS)
    @SLOW
    def test_grar_cost_never_above_base(self, seed):
        circuit = make_circuit(seed)
        grar = grar_retime(circuit, overhead=1.0)
        # The resiliency-unaware *min-area* objective is an upper
        # bound for the G-RAR objective: any min-area labeling extends
        # to the credit graph with only non-positive credit terms.
        # (Realized latch_units can tie-break either way — masters may
        # be non-EDL without an earned credit — so only the objectives
        # are comparable exactly.)
        regions = compute_regions(circuit)
        graph = build_retiming_graph(circuit, regions)
        plain = solve_retiming_flow(graph)
        assert grar.objective <= plain.objective

    @given(SEEDS)
    @SLOW
    def test_arrival_dp_matches_per_endpoint(self, seed):
        circuit = make_circuit(seed, flops=6, gates=60, depth=5)
        result = base_retime(circuit, overhead=1.0)
        placement = result.placement
        bulk = circuit.endpoint_arrivals(placement)
        for endpoint in circuit.endpoint_names:
            assert bulk[endpoint] == pytest.approx(
                circuit.endpoint_arrival(placement, endpoint)
            )

    @given(SEEDS)
    @SLOW
    def test_initial_placement_slave_count(self, seed):
        """Before retiming there is one slave per source."""
        circuit = make_circuit(seed)
        placement = SlavePlacement.initial()
        assert placement.slave_count(circuit.netlist) == len(
            circuit.source_names
        )


@functools.lru_cache(maxsize=None)
def parity_circuit(name):
    """Fig. 4 or a prepared Table I circuit, built once per session."""
    if name == "fig4":
        return fig4_circuit()
    _, circuit = prepare_circuit(build_benchmark(name, LIBRARY), LIBRARY)
    return circuit


def fanin_closed_placement(circuit, rng, rate):
    """A random placement in which a gate is retimed only if all of its
    fanins are.  Such placements are non-negative and phase-legal."""
    netlist = circuit.netlist
    retimed = set()
    for name in netlist.topo_order():
        gate = netlist[name]
        if gate.gtype is GateType.OUTPUT:
            continue
        if not gate.is_source and not retimed.issuperset(gate.fanins):
            continue
        if rng.random() < rate:
            retimed.add(name)
    return SlavePlacement(retimed=retimed)


PARITY_CIRCUITS = st.sampled_from(["fig4", "s1196", "s1423"])
RATES = st.floats(min_value=0.2, max_value=1.0)
PARITY = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestLegalityParity:
    """The linear legality check against the per-endpoint eq. (5)
    oracle on random non-negative placements."""

    @given(PARITY_CIRCUITS, SEEDS, RATES)
    @PARITY
    def test_check_legality_matches_oracle(self, name, seed, rate):
        circuit = parity_circuit(name)
        placement = fanin_closed_placement(circuit, random.Random(seed), rate)
        report = circuit.check_legality(placement)
        assert report.negative_edges == []
        window_close = circuit.scheme.window_close
        oracle = {}
        for endpoint in circuit.endpoint_names:
            overflow = (
                circuit.endpoint_arrival(placement, endpoint) - window_close
            )
            if overflow > EPS:
                oracle[endpoint] = overflow
        assert list(report.window_overflows.items()) == list(oracle.items())

    @given(PARITY_CIRCUITS, SEEDS, RATES)
    @PARITY
    def test_arrival_dp_within_4_ulp_of_oracle(self, name, seed, rate):
        circuit = parity_circuit(name)
        placement = fanin_closed_placement(circuit, random.Random(seed), rate)
        bulk = circuit.endpoint_arrivals(placement)
        for endpoint in circuit.endpoint_names:
            dp = bulk[endpoint]
            oracle = circuit.endpoint_arrival(placement, endpoint)
            assert abs(dp - oracle) <= 4 * math.ulp(max(abs(dp), abs(oracle)))
