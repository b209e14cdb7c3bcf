"""Compiled simulation kernel: compile once, run many cycles.

:class:`~repro.sim.logicsim.TimedSimulator` re-derives everything per
cycle: each gate evaluation linearly scans every input waveform for
``value_at``, runs an O(events²) ``abs(t - when) < eps`` causing-pin
search, and re-computes arc delays through the STA calculator even
though the load and slew it evaluates them at are cycle-invariant.
For the Table VIII sweep (hundreds of cycles over a fixed
``(circuit, placement)``) that per-cycle rediscovery dominates the
whole suite run.

:class:`CompiledSimulator` hoists the cycle-invariant work into a
one-time compile:

* the topological schedule of combinational gates, with every net —
  source, gate output, or latched edge — assigned a flat slot index;
* per-gate, per-pin arc delays pre-evaluated at the static load / slew
  the STA calculator reports, split by output edge direction;
* per-gate truth tables (cycles index a tuple instead of calling the
  cell's evaluator);
* latch-edge classification under the placement, with the
  ``latch:<driver>:<sink>`` state keys pre-rendered.

Cycle evaluation then works on flat ``(initial, times, values)``
tuples with monotone event cursors — one for the inclusive
``value_at`` semantics, one for the causing-pin tolerance window — so
a gate with E input events costs O(E) instead of O(E²).

**Parity is the contract**: the kernel reproduces the event-driven
backend bit for bit — same candidate-time set, same inclusive
``value_at`` semantics, same ``abs(t - when) < 1e-15`` causing-pin
tolerance, same preemption and normalization, same ``latch_state``
evolution — so ``estimate_error_rate(backend="compiled")`` returns an
:class:`~repro.sim.errorrate.ErrorRateReport` identical to the
event-driven one.  ``tests/test_sim_regressions.py`` pins this down
per suite circuit and placement.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cells.cell import CombCell
from repro.errors import NetlistError
from repro.latches.placement import HOST, SlavePlacement
from repro.latches.resilient import TwoPhaseCircuit
from repro.netlist.netlist import GateType
from repro.scenarios.injectors import GlitchSpec, glitch_events
from repro.sim.logicsim import (
    MAX_EVENTS_PER_NET,
    Waveform,
    check_event_cap,
)

#: Causing-pin tolerance — must match ``TimedSimulator._evaluate_gate``.
_EPS = 1e-15

#: Truth tables are tabulated up to this many inputs; wider gates fall
#: back to the cell's evaluator (none exist in the bundled library).
_MAX_TABLE_INPUTS = 10

#: A waveform in kernel form: (initial value, transition times,
#: values after each transition).  Times are sorted strictly
#: increasing and values are pruned to actual changes, exactly like
#: ``Waveform.normalized``.
_Wave = Tuple[int, List[float], List[int]]

_EMPTY: Tuple = ()


def _glitched(
    wave: _Wave, specs: Optional[Sequence[GlitchSpec]]
) -> _Wave:
    """``wave`` with ``specs`` applied (no-op when ``specs`` is falsy)."""
    if not specs:
        return wave
    initial, times, values = wave
    for spec in specs:
        times, values = glitch_events(initial, times, values, spec)
    return (initial, times, values)


def _eval_wide(
    name: str,
    waves_in: Sequence[_Wave],
    delays: Sequence[Sequence[float]],
    table: Optional[Sequence[int]],
    evaluate: Callable[[List[int]], int],
    max_events: int,
) -> Tuple[int, List[Tuple[float, int]]]:
    """The n-input candidate loop of one gate: ``(initial, events)``.

    ``events`` are the output transitions after preemption, before the
    value-change prune (empty when no input transitions).  Shared by
    the kernel's wider-than-two-input gates and the vector backend's
    untabulated gates.  ``table`` may be ``None`` (use ``evaluate``).
    """
    times_set: set = set()
    for wave in waves_in:
        times_set.update(wave[1])
    n_events = len(times_set)
    if n_events > max_events:
        check_event_cap(name, n_events, max_events)
    current = [wave[0] for wave in waves_in]
    if table is not None:
        mask = 0
        for i, bit in enumerate(current):
            mask |= bit << i
        out_initial = table[mask]
    else:
        out_initial = evaluate(current)
    events: List[Tuple[float, int]] = []
    if not n_events:
        return out_initial, events
    k = len(waves_in)
    pins = range(k)
    times_in = [wave[1] for wave in waves_in]
    values_in = [wave[2] for wave in waves_in]
    lengths = [len(t) for t in times_in]
    value_cursor = [0] * k
    cause_cursor = [0] * k
    for when in sorted(times_set):
        for i in pins:
            in_times = times_in[i]
            cursor = value_cursor[i]
            end = lengths[i]
            if cursor < end and in_times[cursor] <= when:
                while cursor < end and in_times[cursor] <= when:
                    cursor += 1
                current[i] = values_in[i][cursor - 1]
                value_cursor[i] = cursor
        if table is not None:
            mask = 0
            for i, bit in enumerate(current):
                mask |= bit << i
            new_value = table[mask]
        else:
            new_value = evaluate(current)
        delay = 0.0
        lo_bound = when - _EPS
        hi_bound = when + _EPS
        for i in pins:
            end = lengths[i]
            if not end:
                continue
            in_times = times_in[i]
            cursor = cause_cursor[i]
            while cursor < end and in_times[cursor] <= lo_bound:
                cursor += 1
            cause_cursor[i] = cursor
            if cursor < end and in_times[cursor] < hi_bound:
                arc_delay = delays[i][new_value]
                if arc_delay > delay:
                    delay = arc_delay
        out_time = when + delay
        while events and events[-1][0] >= out_time:
            events.pop()
        events.append((out_time, new_value))
    return out_initial, events


class CompiledSimulator:
    """Compile-once, run-many backend for a fixed (circuit, placement).

    Unlike :class:`~repro.sim.logicsim.TimedSimulator.run_cycle`, the
    returned mapping holds only the *endpoint* waveforms (flop D under
    ``"<name>::d"``, POs under their own name) — the per-net interior
    waveforms stay in flat kernel form and are never materialized.
    ``latch_state`` is read and updated with exactly the keys and
    values the event-driven backend uses, so the two backends can run
    in lockstep from a shared state dict.
    """

    def __init__(
        self,
        circuit: TwoPhaseCircuit,
        placement: SlavePlacement,
        max_events_per_net: int = MAX_EVENTS_PER_NET,
        delay_scale: Optional[Mapping[str, float]] = None,
    ) -> None:
        if circuit.library is None:
            raise ValueError("simulation needs a library")
        self.circuit = circuit
        self.placement = placement
        self.max_events_per_net = max_events_per_net
        self.delay_scale = dict(delay_scale or {})
        netlist = circuit.netlist
        library = circuit.library
        calc = circuit.engine.calculator
        scheme = circuit.scheme

        # Latch constants (floats identical to the event backend's:
        # same operands, same operations).
        self._t_open = scheme.slave_open
        self._t_close = scheme.slave_close
        self._d_q = circuit.latch_d_q
        self._open_edge = self._t_open + circuit.latch_ck_q

        # -- slot assignment ---------------------------------------------
        slot_of: Dict[str, int] = {}

        def new_slot(name: str) -> int:
            slot_of[name] = len(slot_of)
            return slot_of[name]

        #: (state_key, latched-wave slot) for every latched cloud edge;
        #: drives the end-of-cycle held-value update.
        self._latch_updates: List[Tuple[str, int]] = []
        latch_slot: Dict[Tuple[str, str], Tuple[int, int, str]] = {}

        def edge_latched(driver: str, sink: str) -> bool:
            return placement.edge_weight_after(netlist, driver, sink) == 1

        def latch_op(driver: str, sink: str) -> Tuple[int, int, str]:
            """(driver slot, latched slot, state key) for a latched
            edge, shared across duplicate fanin positions."""
            op = latch_slot.get((driver, sink))
            if op is None:
                key = f"latch:{driver}:{sink}"
                op = (slot_of[driver], new_slot(key), key)
                latch_slot[(driver, sink)] = op
                self._latch_updates.append((key, op[1]))
            return op

        # -- sources -----------------------------------------------------
        #: (name, slot, "src:<name>" key, host-latch key or None)
        self._sources: List[Tuple[str, int, str, Optional[str]]] = [
            (
                gate.name,
                new_slot(gate.name),
                f"src:{gate.name}",
                f"latch:{HOST}:{gate.name}"
                if edge_latched(HOST, gate.name)
                else None,
            )
            for gate in netlist.sources()
        ]

        # -- combinational schedule --------------------------------------
        #: (name, out slot, input slots, latch ops, per-pin delays
        #: indexed by new value, truth table, evaluator fallback)
        self._schedule: List[tuple] = []
        for name in netlist.topo_order():
            gate = netlist[name]
            if not gate.is_comb:
                continue
            cell = library[gate.cell]
            if not isinstance(cell, CombCell):
                raise NetlistError(
                    [f"gate {gate.name!r}: cell {gate.cell!r} is not "
                     f"combinational"]
                )
            load = calc.load(name)
            # Delay-corner injection: scale every arc *before* the
            # slowest-causing-arc max, the same multiplication the
            # event backend applies per causing pin — the two stay
            # bit-identical because x * f is deterministic and max
            # commutes with multiplication by a positive factor.
            factor = self.delay_scale.get(name)
            pairs: List[Tuple[float, float]] = []
            for pin, fanin in zip(cell.inputs, gate.fanins):
                arc = cell.arc(pin)
                slew = calc.slew(fanin)
                fall = arc.delay_for_output_edge(
                    rising_output=False, load=load, input_slew=slew
                )
                rise = arc.delay_for_output_edge(
                    rising_output=True, load=load, input_slew=slew
                )
                if factor is not None:
                    fall = fall * factor
                    rise = rise * factor
                pairs.append((fall, rise))
            delays = tuple(pairs)
            n_inputs = len(gate.fanins)
            table: Optional[Tuple[int, ...]] = None
            if n_inputs <= _MAX_TABLE_INPUTS:
                table = tuple(
                    cell.evaluate(
                        [(mask >> i) & 1 for i in range(n_inputs)]
                    )
                    for mask in range(1 << n_inputs)
                )
            ops: List[Tuple[int, int, str]] = []
            in_slots: List[int] = []
            for driver in gate.fanins:
                if edge_latched(driver, name):
                    op = latch_op(driver, name)
                    if op not in ops:
                        ops.append(op)
                    in_slots.append(op[1])
                else:
                    in_slots.append(slot_of[driver])
            self._schedule.append(
                (
                    name,
                    new_slot(name),
                    tuple(in_slots),
                    tuple(ops),
                    delays,
                    table,
                    cell.evaluate,
                )
            )

        # -- endpoints ---------------------------------------------------
        #: (result key, wave slot, latch op or None)
        self._endpoints: List[
            Tuple[str, int, Optional[Tuple[int, int, str]]]
        ] = []
        for gate in netlist.endpoints():
            if not gate.fanins:
                raise NetlistError(
                    [f"endpoint {gate.name!r} has no fanins; cannot "
                     f"simulate its data input"]
                )
            driver = gate.fanins[0]
            result_key = (
                f"{gate.name}::d"
                if gate.gtype is GateType.DFF
                else gate.name
            )
            if edge_latched(driver, gate.name):
                op = latch_op(driver, gate.name)
                self._endpoints.append((result_key, op[1], op))
            else:
                self._endpoints.append(
                    (result_key, slot_of[driver], None)
                )

        self._n_slots = len(slot_of)

    # -- latch transform ---------------------------------------------------

    def _latch_transform(self, wave: _Wave, held: int) -> _Wave:
        """Kernel twin of ``TimedSimulator._latch_transform``."""
        initial, times, values = wave
        t_open = self._t_open
        t_close = self._t_close
        d_q = self._d_q
        events: List[Tuple[float, int]] = []
        index = bisect_right(times, t_open)
        opening_value = values[index - 1] if index else initial
        if opening_value != held:
            events.append((self._open_edge, opening_value))
        for when, value in zip(times, values):
            if t_open < when <= t_close:
                out_time = when + d_q
                while events and events[-1][0] >= out_time:
                    events.pop()
                events.append((out_time, value))
        out_times: List[float] = []
        out_values: List[int] = []
        value = held
        for when, new_value in events:
            if new_value != value:
                out_times.append(when)
                out_values.append(new_value)
                value = new_value
        return (held, out_times, out_values)

    # -- cycle evaluation ----------------------------------------------------

    def run_cycle(
        self,
        launch_values: Mapping[str, int],
        latch_state: Dict[str, int],
        glitches: Sequence[GlitchSpec] = (),
    ) -> Dict[str, Waveform]:
        """Evaluate one clock cycle; returns the endpoint waveforms.

        ``glitches`` strike net *wires* with the same semantics and at
        the same point in the pipeline as the event backend: after the
        net's own evaluation and held-state bookkeeping, before any
        consumer (gate or cloud latch) reads it.
        """
        slots: List[Optional[_Wave]] = [None] * self._n_slots
        state_get = latch_state.get
        launch_get = launch_values.get
        transform = self._latch_transform
        max_events = self.max_events_per_net
        glitch_map: Dict[str, List[GlitchSpec]] = {}
        for spec in glitches:
            glitch_map.setdefault(spec.net, []).append(spec)

        for name, slot, src_key, host_key in self._sources:
            previous = state_get(src_key, 0)
            value = 1 if launch_get(name, previous) else 0
            if value != previous:
                wave: _Wave = (previous, [0.0], [value])
            else:
                wave = (previous, _EMPTY, _EMPTY)
            if host_key is not None:
                wave = transform(wave, state_get(host_key, 0))
                latch_state[host_key] = (
                    wave[2][-1] if wave[2] else wave[0]
                )
            slots[slot] = _glitched(wave, glitch_map.get(name))
            latch_state[src_key] = value

        for (
            name,
            out_slot,
            in_slots,
            latch_ops,
            delays,
            table,
            evaluate,
        ) in self._schedule:
            for src_slot, dst_slot, key in latch_ops:
                slots[dst_slot] = transform(
                    slots[src_slot], state_get(key, 0)
                )

            if len(in_slots) == 1:
                # Fast path: the input's own transitions are the
                # candidate set, and the single pin always causes.
                initial, in_times, in_values = slots[in_slots[0]]
                out_initial = table[initial]
                if not in_times:
                    slots[out_slot] = _glitched(
                        (out_initial, _EMPTY, _EMPTY),
                        glitch_map.get(name),
                    )
                    continue
                check_event_cap(name, len(in_times), max_events)
                pin_delay = delays[0]
                events: List[Tuple[float, int]] = []
                for when, value in zip(in_times, in_values):
                    new_value = table[value]
                    out_time = when + pin_delay[new_value]
                    while events and events[-1][0] >= out_time:
                        events.pop()
                    events.append((out_time, new_value))
            elif len(in_slots) == 2:
                # Fast path: merge the two sorted transition lists
                # directly — no candidate set, no per-pin list traffic.
                init_a, times_a, values_a = slots[in_slots[0]]
                init_b, times_b, values_b = slots[in_slots[1]]
                out_initial = table[init_a | (init_b << 1)]
                len_a = len(times_a)
                len_b = len(times_b)
                if not (len_a or len_b):
                    slots[out_slot] = _glitched(
                        (out_initial, _EMPTY, _EMPTY),
                        glitch_map.get(name),
                    )
                    continue
                delay_a, delay_b = delays
                value_a = init_a
                value_b = init_b
                pos_a = pos_b = 0
                cause_a = cause_b = 0
                n_candidates = 0
                events = []
                while pos_a < len_a or pos_b < len_b:
                    if pos_b >= len_b or (
                        pos_a < len_a and times_a[pos_a] <= times_b[pos_b]
                    ):
                        when = times_a[pos_a]
                    else:
                        when = times_b[pos_b]
                    n_candidates += 1
                    while pos_a < len_a and times_a[pos_a] <= when:
                        value_a = values_a[pos_a]
                        pos_a += 1
                    while pos_b < len_b and times_b[pos_b] <= when:
                        value_b = values_b[pos_b]
                        pos_b += 1
                    new_value = table[value_a | (value_b << 1)]
                    delay = 0.0
                    lo_bound = when - _EPS
                    hi_bound = when + _EPS
                    while (
                        cause_a < len_a and times_a[cause_a] <= lo_bound
                    ):
                        cause_a += 1
                    if cause_a < len_a and times_a[cause_a] < hi_bound:
                        delay = delay_a[new_value]
                    while (
                        cause_b < len_b and times_b[cause_b] <= lo_bound
                    ):
                        cause_b += 1
                    if cause_b < len_b and times_b[cause_b] < hi_bound:
                        arc_delay = delay_b[new_value]
                        if arc_delay > delay:
                            delay = arc_delay
                    out_time = when + delay
                    while events and events[-1][0] >= out_time:
                        events.pop()
                    events.append((out_time, new_value))
                if n_candidates > max_events:
                    check_event_cap(name, n_candidates, max_events)
            else:
                out_initial, events = _eval_wide(
                    name,
                    [slots[s] for s in in_slots],
                    delays,
                    table,
                    evaluate,
                    max_events,
                )
                if not events:
                    slots[out_slot] = _glitched(
                        (out_initial, _EMPTY, _EMPTY),
                        glitch_map.get(name),
                    )
                    continue

            out_times: List[float] = []
            out_values: List[int] = []
            value = out_initial
            for when, new_value in events:
                if new_value != value:
                    out_times.append(when)
                    out_values.append(new_value)
                    value = new_value
            slots[out_slot] = _glitched(
                (out_initial, out_times, out_values),
                glitch_map.get(name),
            )

        results: Dict[str, Waveform] = {}
        for result_key, slot, op in self._endpoints:
            if op is not None and slots[slot] is None:
                src_slot, dst_slot, key = op
                slots[dst_slot] = transform(
                    slots[src_slot], state_get(key, 0)
                )
            wave = slots[slot]
            results[result_key] = Waveform(
                initial=wave[0], events=list(zip(wave[1], wave[2]))
            )

        t_close = self._t_close
        for key, slot in self._latch_updates:
            wave = slots[slot]
            times = wave[1]
            index = bisect_right(times, t_close)
            latch_state[key] = wave[2][index - 1] if index else wave[0]
        return results
