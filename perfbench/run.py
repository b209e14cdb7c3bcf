"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --ref-ms R0 --workload tables-sweep \
        --seed 0 --seconds 10 --trace 0

Times are reported in *host-normalized* seconds: a sampler runs a fixed
reference kernel every 100 ms for the whole process, and each timed
span is scaled by ``R0 / median(kernel durations in the span)`` (see
``hostnorm.py``).  ``R0`` is pinned in ``BENCHMARK.json``'s command.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (timed ops,
output checks excluded), ``setup_s`` (median of several setups) and
``peak_rss_mb``.  ``--trace 1`` runs an untraced pass and then a traced
pass (fresh artifact store each) and prints per-layer self-times,
counters from ``repro.metrics``, QoR figures and host diagnostics.

The last stdout line is the result object; the line before it holds
raw (unnormalized) figures for inspection.  Ops whose output check
flags a defect, or that raise, count as ``failed``; ``correct`` is
false when passes over the same inputs disagree on failures or QoR.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import hostnorm

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Per-layer counters snapshotted from ``repro.metrics``.
COUNTERS = (
    "retime.compile.hits",
    "retime.compile.misses",
    "simplex.pivots",
    "simplex.warm_start",
    "sta.forward.query",
    "sta.incremental.nodes_recomputed",
    "sta.backward_to.compute",
    "sta.full_recompute",
    "sim.cycles",
    "sim.backend.compiled",
    "sim.backend.vector",
    "sim.backend.event",
    "store.compiled-grar.hits",
    "store.compiled-grar.misses",
)

#: Further timed passes start only while the timed section is shorter
#: than ``--seconds`` and the process younger than this.
PASS_DEADLINE_S = 90.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ref-ms", type=float, required=True,
        help="pinned reference-kernel duration R0, in milliseconds",
    )
    return parser.parse_args(argv)


@dataclass
class Pass:
    """One timed pass over a workload's ops."""

    spans: List[Tuple[float, float]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    qor: Dict[str, float] = field(default_factory=dict)
    lane_cycles: int = 0


def run_pass(workload, ctx, seed, tracer=None) -> Pass:
    from repro.store import ArtifactStore, use_store
    from workloads import Tally

    result = Pass()
    tally = Tally()
    # A fresh in-memory store per pass: every pass starts as cold as a
    # new process does.
    with use_store(ArtifactStore()):
        for op in workload.ops(ctx, seed):
            if tracer is not None:
                tracer.active = True
            started = time.perf_counter()
            try:
                output = op.run()
            except Exception as exc:  # the op boundary: record, go on
                output, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            ended = time.perf_counter()
            if tracer is not None:
                tracer.active = False
                tracer.cut(started, ended)
            result.spans.append((started, ended))
            if error is None:
                error = op.check(output, tally)
            if error is not None:
                result.failures.append(f"{op.label}: {error}")
    result.qor = tally.finish()
    result.lane_cycles = tally.lane_cycles
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    ref_s = args.ref_ms / 1000.0
    sampler = hostnorm.Sampler().start()
    try:
        return measure(args, ref_s, sampler)
    finally:
        sampler.stop()


def measure(args, ref_s, sampler) -> int:
    process_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    from repro import metrics
    from tracer import Tracer

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    tracer = Tracer() if args.trace else None
    collector = metrics.MetricsCollector()
    setup_spans = []
    setup_seeds = workload.setup_seeds(args.seed)
    for rep, setup_seed in enumerate(setup_seeds):
        traced = tracer is not None and rep == len(setup_seeds) - 1
        with contextlib.ExitStack() as scope:
            if traced:
                scope.enter_context(tracer)
                scope.enter_context(metrics.collect_into(collector))
                tracer.active = True
            started = time.perf_counter()
            ctx = workload.setup(setup_seed)
            ended = time.perf_counter()
        setup_spans.append((started, ended))
        if traced:
            tracer.cut(started, ended)

    passes = []
    timed_raw = 0.0
    while not passes or (
        timed_raw < args.seconds
        and time.perf_counter() - process_start < PASS_DEADLINE_S
    ):
        passes.append(run_pass(workload, ctx, args.seed))
        timed_raw += sum(end - start for start, end in passes[-1].spans)
    traced_pass = None
    if tracer is not None:
        with tracer, metrics.collect_into(collector):
            traced_pass = run_pass(workload, ctx, args.seed, tracer=tracer)
    sampler.stop()

    samples = sampler.samples

    def norm(span):
        return hostnorm.normalize(samples, span[0], span[1], ref_s)

    def pass_wall(p):
        return sum(norm(span) for span in p.spans)

    def pass_raw(p):
        return sum(end - start for start, end in p.spans)

    walls = [pass_wall(p) for p in passes]
    wall_s = statistics.median(walls)
    setup_s = statistics.median(norm(span) for span in setup_spans)
    raw_wall_s = statistics.median(pass_raw(p) for p in passes)
    raw_setup_s = statistics.median(end - start for start, end in setup_spans)
    ref_ms = 1000.0 * statistics.median(d for _, d in samples)

    outcome = passes[0]
    checked = passes + ([traced_pass] if traced_pass else [])
    consistent = all(
        p.failures == outcome.failures and p.qor == outcome.qor
        for p in checked
    )
    attempted = sum(len(p.spans) for p in checked)
    failed = sum(len(p.failures) for p in checked)

    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "passes": len(passes),
        "pass_wall_s": walls,
        "raw_wall_s": raw_wall_s,
        "raw_setup_s": raw_setup_s,
        "ref_ms": ref_ms,
        "samples": len(samples),
        "failures": outcome.failures,
        "consistent": consistent,
        "qor": outcome.qor,
    }
    if args.trace:
        traced_wall = pass_wall(traced_pass)
        layers = tracer.normalized(
            lambda start, end: (
                norm((start, end)) / (end - start) if end > start else 1.0
            )
        )
        counters = collector.counters
        values = dict(layers)
        values["latches.legality.calls"] = tracer.calls[
            "latches.legality_s"
        ]
        for name in COUNTERS:
            values[name] = counters.get(name, 0.0)
        values["sim.lanes"] = counters.get(
            "sim.batched.lanes", 0.0
        ) + counters.get("sim.vector.lanes", 0.0)
        lane_cycles = outcome.lane_cycles
        values["sim.lane_cycles_per_s"] = (
            lane_cycles / wall_s if lane_cycles else 0.0
        )
        values.update(outcome.qor)
        values["host.ref_ms"] = ref_ms
        values["host.wall_s"] = wall_s
        values["host.raw_wall_s"] = raw_wall_s
        values["host.raw_setup_s"] = raw_setup_s
        values["host.trace_overhead_s"] = traced_wall - wall_s
        metric_units = per_layer_units()
        result_metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in metric_units.items()
        }
        detail["traced_wall_s"] = traced_wall
    else:
        result_metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": consistent,
                "attempted": attempted,
                "failed": failed,
                "metrics": result_metrics,
            }
        )
    )
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer_units():
    """Per-layer metric names and units, as ``BENCHMARK.json`` lists
    them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {row["name"]: row["unit"] for row in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
