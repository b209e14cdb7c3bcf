#!/usr/bin/env python3
"""The paper's Fig. 4/5 worked example, step by step.

Reconstructs the illustrative circuit with the published delays and
walks the whole G-RAR pipeline: timing analysis, retiming regions, the
cut set g(O9), the modified retiming graph, the min-cost-flow solve,
and the final Cut1-vs-Cut2 comparison (5 vs 4 area units at c = 2).

Run:  python examples/worked_example.py
"""

from repro.circuits.fig4 import FIG4_DELAYS, fig4_circuit
from repro.latches import HOST, SlavePlacement
from repro.retime import (
    build_retiming_graph,
    compute_cut_sets,
    compute_regions,
    grar_retime,
    solve_retiming_flow,
)


def main() -> None:
    circuit = fig4_circuit()
    netlist = circuit.netlist
    scheme = circuit.scheme

    print("=== Fig. 4: the illustrative circuit ===")
    print(f"clock: phi1=gamma1=phi2=gamma2=2.5, Pi={scheme.period}, "
          f"P={scheme.max_path_delay}")
    print(f"{'gate':>5s} {'d':>3s} {'D^f':>4s} {'D^b(.,O9)':>9s}")
    for name in ("I1", "I2", "G3", "G4", "G5", "G6", "G7", "G8"):
        db = circuit.db(name, "O9")
        db_text = f"{db:.0f}" if db != float("-inf") else "-"
        print(f"{name:>5s} {FIG4_DELAYS[name]:3.0f} "
              f"{circuit.df(name):4.0f} {db_text:>9s}")

    print("\n=== Retiming regions (Section IV-B) ===")
    regions = compute_regions(circuit)
    print(f"Vm (must retime through) : {sorted(regions.vm)}")
    print(f"Vn (must not)            : {sorted(regions.vn)}")
    print(f"Vr (free)                : {sorted(regions.vr)}")

    print("\n=== Cut sets g(t) (Section IV-A) ===")
    cuts = compute_cut_sets(circuit, regions)
    for endpoint, cut in sorted(cuts.items()):
        print(f"g({endpoint}) -> {cut.kind.value:7s} {sorted(cut.gates)}")
    print("key A(u,v,t) values:")
    for u, v in (("G6", "G7"), ("G3", "G6"), ("G5", "G7"), ("I2", "G5")):
        print(f"  A({u},{v},O9) = {circuit.arrival_through(u, v, 'O9'):.0f}")

    print("\n=== The modified retiming graph (Fig. 5) ===")
    graph = build_retiming_graph(circuit, regions, cuts, overhead=2.0)
    print(f"stats: {graph.stats()}")

    print("\n=== Min-cost-flow solve (eq. 14) ===")
    solution = solve_retiming_flow(graph)
    moved = sorted(
        name for name, value in solution.r_values.items()
        if value == -1 and "##" not in name and name != HOST
    )
    print(f"r = -1 for: {moved}")
    print(f"objective: {solution.objective} "
          f"({solution.iterations} simplex pivots)")

    print("\n=== Cut1 vs Cut2 (the paper's comparison, c = 2) ===")
    cut1 = SlavePlacement(retimed={"I1", "I2", "G3"})
    result = grar_retime(circuit, overhead=2.0)
    for label, placement in (("Cut1", cut1), ("Cut2", result.placement)):
        cost = circuit.sequential_cost(placement, overhead=2.0)
        arrival = circuit.endpoint_arrival(placement, "O9")
        edl = "EDL" if "O9" in circuit.edl_endpoints(placement) else "non-EDL"
        print(
            f"{label}: {cost.n_slaves} slaves, O9 arrival {arrival:.0f} "
            f"({edl}), sequential cost {cost.latch_units:.0f} units"
        )
    print("\nG-RAR picks Cut2, exactly as the paper's ILP does.")


if __name__ == "__main__":
    main()
