"""The flat-array arena: bit-parity with the object engines.

The arena's whole value proposition is that ``--sta-engine arena`` is
*bit-identical* to the object reference — same floats, same error
messages, same incremental-repair behaviour — so every test here
compares the two implementations directly rather than asserting
absolute numbers.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cells import default_library
from repro.circuits.generator import CloudSpec, generate_circuit
from repro.circuits.suite import (
    BENCHMARK_PROFILES,
    build_benchmark,
    scaled_profile,
)
from repro.core import (
    STA_ENGINES,
    ArenaMinDelayAnalysis,
    ArenaTimingEngine,
    clear_arena_cache,
    compile_arena,
    make_timing_engine,
)
from repro import metrics
from repro.errors import SimulationError, TimingError
from repro.flows import prepare_circuit, run_flow
from repro.latches import SlavePlacement, TwoPhaseCircuit
from repro.scenarios.injectors import (
    InjectionPlan,
    latch_state_keys,
)
from repro.netlist import NetlistBuilder
from repro.sim import estimate_error_rate, estimate_error_rate_batched
from repro.sta.engine import TimingEngine
from repro.sta.min_delay import MinDelayAnalysis

LIBRARY = default_library()


def make_netlist(seed, flops=8, gates=90, depth=6, fraction=0.3):
    spec = CloudSpec(
        name=f"arena{seed}",
        seed=seed,
        n_inputs=4,
        n_outputs=3,
        n_flops=flops,
        n_gates=gates,
        depth=depth,
        critical_fraction=fraction,
    )
    return generate_circuit(spec, LIBRARY)


def engine_pair(netlist, model="path", **kwargs):
    """(object, arena) engines over private copies of ``netlist``."""
    obj_nl = netlist.copy()
    arena_nl = netlist.copy()
    obj = TimingEngine(obj_nl, LIBRARY, model=model, **kwargs)
    arena = ArenaTimingEngine(arena_nl, LIBRARY, model=model, **kwargs)
    return obj, arena


def assert_engines_identical(obj, arena):
    """Every forward / backward query is bit-identical."""
    names = [g.name for g in obj.netlist.gates.values()]
    for name in names:
        gate = obj.netlist[name]
        if gate.gtype.name != "OUTPUT":
            a = obj.forward_arrival(name)
            b = arena.forward_arrival(name)
            assert a == b or (math.isnan(a) and math.isnan(b)), name
        a = obj.max_backward(name)
        b = arena.max_backward(name)
        assert a == b or (math.isnan(a) and math.isnan(b)), name
    assert obj.worst_arrival() == arena.worst_arrival()
    assert obj.endpoint_arrivals() == arena.endpoint_arrivals()


class TestForwardBackwardParity:
    @pytest.mark.parametrize("model", ["path", "gate"])
    @pytest.mark.parametrize("bench", ["s1196", "s1488"])
    def test_suite_circuit_parity(self, bench, model):
        netlist = build_benchmark(bench, LIBRARY)
        obj, arena = engine_pair(netlist, model=model)
        assert_engines_identical(obj, arena)

    def test_source_offsets_parity(self):
        netlist = make_netlist(11)
        offsets = {
            g.name: 0.01 * i
            for i, g in enumerate(netlist.sources())
        }
        obj, arena = engine_pair(netlist, source_offsets=offsets)
        assert_engines_identical(obj, arena)

    @pytest.mark.parametrize("model", ["path", "gate"])
    def test_mutation_parity(self, model):
        """Cell swaps take the arena's patch path; still bit-identical."""
        netlist = make_netlist(23)
        obj, arena = engine_pair(netlist, model=model)
        rng = random.Random(7)
        comb = [g.name for g in netlist.comb_gates()]
        for _ in range(12):
            name = rng.choice(comb)
            variants = LIBRARY.drive_variants(
                LIBRARY[obj.netlist[name].cell]
            )
            swap = rng.choice(variants).name
            obj.netlist.replace_cell(name, swap)
            arena.netlist.replace_cell(name, swap)
            assert_engines_identical(obj, arena)

    def test_min_delay_parity(self):
        netlist = make_netlist(31)
        obj = MinDelayAnalysis(netlist.copy(), LIBRARY)
        arena = ArenaMinDelayAnalysis(netlist.copy(), LIBRARY)
        for gate in netlist.gates.values():
            if gate.gtype.name == "OUTPUT":
                continue
            assert obj.min_arrival(gate.name) == arena.min_arrival(
                gate.name
            ), gate.name

    def test_error_message_parity(self):
        """A comb gate reading a PO errors identically in both engines."""
        builder = NetlistBuilder("badread", LIBRARY)
        a = builder.input("a")
        b = builder.input("b")
        g1 = builder.gate("g1", "AND", [a, b])
        po = builder.output("po", g1)
        g2 = builder.gate("g2", "AND", [a, b])
        builder.output("po2", g2)
        netlist = builder.build()
        # g2 now reads the PO marker — illegal, and not a cycle.
        netlist.rewire_fanin(g2, b, po)
        obj, arena = engine_pair(netlist)
        with pytest.raises(TimingError) as obj_err:
            obj.worst_arrival()
        with pytest.raises(TimingError) as arena_err:
            arena.worst_arrival()
        assert str(obj_err.value) == str(arena_err.value)


class TestEngineThreading:
    def test_make_timing_engine_dispatch(self):
        netlist = make_netlist(5)
        assert type(make_timing_engine("object", netlist, LIBRARY)) is (
            TimingEngine
        )
        assert isinstance(
            make_timing_engine("arena", netlist, LIBRARY),
            ArenaTimingEngine,
        )
        with pytest.raises(ValueError, match="unknown sta engine"):
            make_timing_engine("simd", netlist, LIBRARY)

    def test_circuit_rejects_unknown_engine(self):
        netlist = make_netlist(5)
        _, circuit = prepare_circuit(netlist, LIBRARY)
        with pytest.raises(ValueError, match="unknown sta_engine"):
            TwoPhaseCircuit(
                netlist, circuit.scheme, LIBRARY, sta_engine="fast"
            )
        assert "arena" in STA_ENGINES

    def test_run_flow_engine_parity(self):
        netlist = build_benchmark("s1196", LIBRARY)
        obj = run_flow("base", netlist, LIBRARY, 0.5, sta_engine="object")
        arena = run_flow("base", netlist, LIBRARY, 0.5, sta_engine="arena")
        assert obj.cost.latch_units == arena.cost.latch_units
        assert obj.n_slaves == arena.n_slaves
        assert obj.n_edl == arena.n_edl
        assert obj.total_area == arena.total_area


class TestArenaCache:
    def test_compile_cache_hits(self, library):
        clear_arena_cache()
        netlist = make_netlist(53)
        engine = ArenaTimingEngine(netlist, LIBRARY)
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            engine.worst_arrival()
            engine.invalidate()
            engine.worst_arrival()
        assert collector.counters.get("arena.compile.misses", 0) == 1
        assert collector.counters.get("arena.compile.hits", 0) == 1

    def test_patch_does_not_mutate_cached_arena(self):
        clear_arena_cache()
        netlist = make_netlist(59)
        engine = ArenaTimingEngine(netlist, LIBRARY)
        before = engine.worst_arrival()
        pristine = compile_arena(engine.netlist, engine.calculator)
        delays = pristine.t_delay.copy() if pristine.rf else (
            pristine.f_delay.copy()
        )
        comb = next(g for g in netlist.comb_gates())
        variants = LIBRARY.drive_variants(LIBRARY[comb.cell])
        swap = next(v.name for v in variants if v.name != comb.cell)
        netlist.replace_cell(comb.name, swap)
        engine.worst_arrival()
        if pristine.rf:
            assert (pristine.t_delay == delays).all()
        else:
            assert (pristine.f_delay == delays).all()
        netlist.replace_cell(comb.name, comb.cell)
        assert engine.worst_arrival() == before


class TestScaledBenchmarks:
    def test_scaled_profile_counts(self):
        base = BENCHMARK_PROFILES["s1196"]
        scaled = scaled_profile(base, 10)
        assert scaled.name == "s1196x10"
        assert scaled.n_gates == base.n_gates * 10
        assert scaled.n_flops == base.n_flops * 10
        assert scaled.depth == base.depth

    def test_scaled_build_is_deterministic(self):
        a = build_benchmark("s1196x2", LIBRARY)
        b = build_benchmark("s1196x2", LIBRARY)
        assert sorted(a.gates) == sorted(b.gates)
        assert len(a.gates) > len(build_benchmark("s1196", LIBRARY).gates)

    def test_bad_scaled_names(self):
        with pytest.raises(KeyError):
            build_benchmark("nope_x10", LIBRARY)
        with pytest.raises(ValueError, match="out of range"):
            build_benchmark("s1196x1", LIBRARY)
        with pytest.raises(ValueError, match="out of range"):
            build_benchmark("s1196x101", LIBRARY)


def small_circuit():
    netlist = build_benchmark("s1196", LIBRARY)
    _, circuit = prepare_circuit(netlist, LIBRARY)
    placement = SlavePlacement.initial()
    edl = {g.name for g in circuit.netlist.endpoints()}
    return circuit, placement, edl


class TestBatchedSimulation:
    def test_batched_matches_sequential(self):
        circuit, placement, edl = small_circuit()
        seeds = [3, 14, 2017]
        sequential = [
            estimate_error_rate(
                circuit, placement, edl, cycles=24, seed=s
            )
            for s in seeds
        ]
        batched = estimate_error_rate_batched(
            circuit, placement, edl, cycles=24, seeds=seeds
        )
        assert batched == sequential

    def test_batched_event_backend(self):
        circuit, placement, edl = small_circuit()
        seeds = [1, 2]
        sequential = [
            estimate_error_rate(
                circuit, placement, edl, cycles=8, seed=s, backend="event"
            )
            for s in seeds
        ]
        batched = estimate_error_rate_batched(
            circuit, placement, edl, cycles=8, seeds=seeds, backend="event"
        )
        assert batched == sequential

    def test_batched_with_injection(self):
        circuit, placement, edl = small_circuit()
        flop = next(g.name for g in circuit.netlist.flops())
        comb = next(g.name for g in circuit.netlist.comb_gates())
        plan = InjectionPlan(
            label="corner",
            delay_scale={comb: 1.2},
            seu_flips={3: (flop,), 9: (flop,)},
        )
        seeds = [5, 6]
        sequential = [
            estimate_error_rate(
                circuit, placement, edl, cycles=16, seed=s, injection=plan
            )
            for s in seeds
        ]
        batched = estimate_error_rate_batched(
            circuit, placement, edl, cycles=16, seeds=seeds, injection=plan
        )
        assert batched == sequential

    def test_batched_metrics(self):
        circuit, placement, edl = small_circuit()
        collector = metrics.MetricsCollector()
        with metrics.collect_into(collector):
            estimate_error_rate_batched(
                circuit,
                placement,
                edl,
                cycles=4,
                seeds=[1, 2, 3],
                backend="compiled",
            )
        assert collector.counters["sim.batched.runs"] == 1
        assert collector.counters["sim.batched.lanes"] == 3
        assert collector.counters["sim.cycles"] == 12
        assert collector.values["sim.wall_s"].count == 1


class TestLatchTargetValidation:
    """The ``latch:`` SEU-target validation (regression).

    Before the fix, any target starting with ``latch:`` was accepted
    unchecked, so a typo'd key silently mutated phantom state — these
    tests fail if the ``target not in latch_keys`` check is reverted
    to the old ``startswith("latch:")`` bypass.
    """

    def test_bogus_latch_key_rejected(self):
        circuit, placement, edl = small_circuit()
        plan = InjectionPlan(
            label="typo",
            seu_flips={0: ("latch:no_such_driver:no_such_sink",)},
        )
        with pytest.raises(SimulationError) as err:
            estimate_error_rate(
                circuit, placement, edl, cycles=2, injection=plan
            )
        assert "unknown targets" in str(err.value)
        payload = err.value.payload
        assert payload["unknown_targets"] == [
            "latch:no_such_driver:no_such_sink"
        ]

    def test_real_latch_keys_accepted(self):
        circuit, placement, edl = small_circuit()
        keys = latch_state_keys(circuit.netlist, placement)
        assert keys, "expected at least one latch edge"
        plan = InjectionPlan(label="real", seu_flips={0: (keys[0],)})
        report = estimate_error_rate(
            circuit, placement, edl, cycles=2, injection=plan
        )
        assert report.cycles == 2

    def test_batched_validates_too(self):
        circuit, placement, edl = small_circuit()
        plan = InjectionPlan(
            label="typo", seu_flips={0: ("latch:bogus:key",)}
        )
        with pytest.raises(SimulationError):
            estimate_error_rate_batched(
                circuit, placement, edl, cycles=2, seeds=[1], injection=plan
            )


SEEDS = st.integers(min_value=1, max_value=10**6)
SLOW = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestArenaProperties:
    """Hypothesis sweep: parity across random circuits and mutations."""

    @given(SEEDS, st.sampled_from(["path", "gate"]))
    @SLOW
    def test_random_circuit_parity(self, seed, model):
        netlist = make_netlist(seed, flops=6, gates=70, depth=5)
        obj, arena = engine_pair(netlist, model=model)
        assert_engines_identical(obj, arena)
        obj_min = MinDelayAnalysis(obj.netlist, LIBRARY)
        arena_min = ArenaMinDelayAnalysis(arena.netlist, LIBRARY)
        for gate in netlist.gates.values():
            if gate.gtype.name == "OUTPUT":
                continue
            assert obj_min.min_arrival(gate.name) == (
                arena_min.min_arrival(gate.name)
            )

    @given(SEEDS, st.integers(min_value=0, max_value=10**6))
    @SLOW
    def test_random_mutations_parity(self, seed, mut_seed):
        netlist = make_netlist(seed, flops=6, gates=70, depth=5)
        obj, arena = engine_pair(netlist)
        rng = random.Random(mut_seed)
        comb = [g.name for g in netlist.comb_gates()]
        for _ in range(5):
            name = rng.choice(comb)
            variants = LIBRARY.drive_variants(
                LIBRARY[obj.netlist[name].cell]
            )
            swap = rng.choice(variants).name
            obj.netlist.replace_cell(name, swap)
            arena.netlist.replace_cell(name, swap)
        assert_engines_identical(obj, arena)

    @given(SEEDS, st.floats(min_value=0.8, max_value=1.5))
    @SLOW
    def test_batched_reports_bit_identical(self, seed, scale):
        netlist = make_netlist(seed, flops=6, gates=70, depth=5)
        _, circuit = prepare_circuit(netlist, LIBRARY)
        placement = SlavePlacement.initial()
        edl = {g.name for g in circuit.netlist.endpoints()}
        comb = next(g.name for g in circuit.netlist.comb_gates())
        plan = InjectionPlan(
            label=f"corner{seed}", delay_scale={comb: scale}
        )
        seeds = [seed % 97, seed % 89 + 1]
        sequential = [
            estimate_error_rate(
                circuit, placement, edl, cycles=6, seed=s, injection=plan
            )
            for s in seeds
        ]
        batched = estimate_error_rate_batched(
            circuit, placement, edl, cycles=6, seeds=seeds, injection=plan
        )
        assert batched == sequential
