"""Per-layer self-times for the traced run, from the benchmark's side.

:class:`Tracer` replaces each layer's public functions *where they are
imported* (the module attribute the caller looks up at call time) with
a wrapper that pushes a span on a stack.  A span's self-time is its
duration minus the time its wrapped children took, so the layer
figures add up to the traced op time without double counting.  No
tracing code lives in ``src/``; everything is undone on exit.

Self-times accumulate raw (``perf_counter`` seconds) and are cut into
segments at op boundaries by :meth:`Tracer.cut`, so the runner can
scale each segment by the host speed measured over that op.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

#: (module, attribute, layer metric).  Each row is one import site:
#: a function defined in one module and bound by name in another is
#: patched in the module that *calls* it.
SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.circuits", "build_benchmark", "circuits.build_s"),
    ("repro.circuits", "generate_circuit", "circuits.build_s"),
    ("repro.flows.run", "prepare_circuit", "flows.prepare_s"),
    ("repro.flows.run", "run_flow", "flows.run_flow.self_s"),
    ("repro.flows.run", "grar_retime", "retime.grar.self_s"),
    ("repro.flows.run", "base_retime", "retime.base.self_s"),
    ("repro.flows.run", "vl_retime", "vl.retime_s"),
    ("repro.retime.grar", "compile_retiming", "retime.compile_s"),
    ("repro.retime.base", "compile_retiming", "retime.compile_s"),
    ("repro.retime.grar", "compute_cut_sets", "retime.cutset_s"),
    ("repro.retime.base", "compute_cut_sets", "retime.cutset_s"),
    ("repro.retime.compile", "compute_cut_sets", "retime.cutset_s"),
    ("repro.vl.flow", "compute_cut_sets", "retime.cutset_s"),
    ("repro.retime.netflow", "solve_min_cost_flow", "retime.mincostflow_s"),
    ("repro.flows.run", "size_only_compile", "synth.size_only_s"),
    ("repro.synth.sizing", "size_only_compile", "synth.size_only_s"),
    ("repro.flows.run", "rescue_paths", "synth.rescue_s"),
    ("repro.flows.run", "speed_paths", "synth.speed_s"),
    ("repro.synth.sizing", "speed_paths", "synth.speed_s"),
    ("repro.flows.run", "recover_area", "synth.recovery_s"),
    ("repro.sim", "estimate_error_rate_batched", "sim.estimate_s"),
)

#: Methods patched on a class: (module, class, method, layer metric).
METHOD_SITES: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.latches.resilient", "TwoPhaseCircuit", "check_legality",
     "latches.legality_s"),
)

#: Every self-time metric the tracer can report.
LAYER_METRICS: Tuple[str, ...] = tuple(
    dict.fromkeys(row[-1] for row in SITES + METHOD_SITES)
)


class Tracer:
    """Span stack with self-times, installed over :data:`SITES`."""

    def __init__(self) -> None:
        self.active = False
        #: open spans: [layer, time spent in wrapped children]
        self._stack: List[list] = []
        self._raw: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: (start, end, {layer: raw self seconds}) per cut.
        self.segments: List[Tuple[float, float, Dict[str, float]]] = []
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            self._stack.append(frame)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self._stack.pop()
                self._raw[layer] += elapsed - frame[1]
                self.calls[layer] += 1
                if self._stack:
                    self._stack[-1][1] += elapsed

        return traced

    def install(self) -> "Tracer":
        """Patch every site; :meth:`uninstall` restores them."""
        for module_name, attr, layer in SITES:
            module = importlib.import_module(module_name)
            self._patch(module, attr, layer)
        for module_name, cls_name, attr, layer in METHOD_SITES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, attr, layer)
        return self

    def _patch(self, owner: object, attr: str, layer: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.active = False
        self.uninstall()

    def cut(self, start: float, end: float) -> None:
        """Close a segment: the self-times accumulated since the last
        cut belong to the span ``[start, end]``."""
        self.segments.append((start, end, dict(self._raw)))
        self._raw.clear()

    def normalized(
        self, factor_of: Callable[[float, float], float]
    ) -> Dict[str, float]:
        """Per-layer self-times, each segment scaled by
        ``factor_of(start, end)``."""
        totals = {layer: 0.0 for layer in LAYER_METRICS}
        for start, end, raw in self.segments:
            factor = factor_of(start, end)
            for layer, seconds in raw.items():
                totals[layer] += seconds * factor
        return totals
