"""Cross-backend parity suite for the lane-vectorized simulator.

``repro.sim.vector`` promises comparison-identical
:class:`~repro.sim.errorrate.ErrorRateReport` objects against the
event and compiled backends for every seed — including final
flop/latch state, under injection plans and at any lane count.  These
tests are that promise's acceptance gate: random circuits ×
placements × injection plans × lane counts (a single lane and a
ragged final batch included) against the event-backend oracle.

They also pin the default-backend rule (vector when the native helper
loads, else compiled with a recorded reason and one warning), its
laziness, and the hardening of the helper's on-disk cache.  Tests
that need the helper skip on a host without a C compiler.
"""

import functools
import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import metrics
from repro.cells import default_library
from repro.circuits import build_benchmark
from repro.circuits.fig4 import fig4_netlist
from repro.circuits.generator import CloudSpec, generate_circuit
from repro.errors import SimulationError
from repro.flows import prepare_circuit
from repro.latches import SlavePlacement
from repro.retime import grar_retime
from repro.scenarios.injectors import build_injection_plan
from repro.sim import (
    SIM_BACKENDS,
    ErrorRateReport,
    estimate_error_rate,
    estimate_error_rate_batched,
    estimate_error_rate_vector,
    resolve_backend,
)
from repro.sim import _native, errorrate

LIBRARY = default_library()
CYCLES = 12

SLOW = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@functools.lru_cache(maxsize=32)
def make_case(seed, retimed=False):
    """A small random FSM cloud plus a placement and EDL set."""
    spec = CloudSpec(
        name=f"vec{seed}",
        seed=seed,
        n_inputs=4,
        n_outputs=3,
        n_flops=6,
        n_gates=60,
        depth=5,
        critical_fraction=0.3,
    )
    netlist = generate_circuit(spec, LIBRARY)
    scheme, circuit = prepare_circuit(netlist, LIBRARY)
    if retimed:
        placement = grar_retime(circuit, overhead=1.0).placement
    else:
        placement = SlavePlacement.initial()
    edl = frozenset(g.name for g in circuit.netlist.endpoints())
    return circuit, scheme, placement, edl


@pytest.fixture(scope="module")
def helper():
    """Skip unless the native helper builds and loads on this host."""
    if _native.load() is None:
        pytest.skip(f"native helper unavailable: {_native.status().reason}")


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    """A fresh helper load on a host with no C compiler on PATH."""
    monkeypatch.setenv("PATH", str(tmp_path / "empty-bin"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_status", None)
    monkeypatch.setattr(errorrate, "_fallback_warned", False)


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """An empty private cache dir and an unloaded helper."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_status", None)
    return tmp_path / "repro"


def event_reports(circuit, placement, edl, seeds, injection=None):
    """The oracle: one sequential event-backend run per seed."""
    return [
        estimate_error_rate(
            circuit,
            placement,
            set(edl),
            cycles=CYCLES,
            seed=s,
            backend="event",
            injection=injection,
        )
        for s in seeds
    ]


def make_plan(circuit, scheme, placement, seed):
    return build_injection_plan(
        circuit.netlist,
        scheme,
        cycles=CYCLES,
        seed=seed,
        sigma=0.03,
        seu_rate=0.2,
        glitch_rate=0.2,
        placement=placement,
    )


@pytest.mark.usefixtures("helper")
class TestVectorParity:
    @given(
        st.integers(min_value=1, max_value=10**6),
        st.booleans(),
        st.sampled_from([1, 2, 5]),
        st.booleans(),
    )
    @SLOW
    def test_matches_event_backend(self, seed, retimed, lanes, inject):
        """Random circuit × placement × plan × lane count == event."""
        circuit, scheme, placement, edl = make_case(seed % 40, retimed)
        seeds = tuple(seed + 31 * k for k in range(lanes))
        plan = (
            make_plan(circuit, scheme, placement, seed) if inject else None
        )
        vec = estimate_error_rate_vector(
            circuit,
            placement,
            set(edl),
            cycles=CYCLES,
            seeds=seeds,
            injection=plan,
        )
        assert vec == event_reports(
            circuit, placement, edl, seeds, injection=plan
        )

    def test_ragged_final_batch(self):
        """lane_block=4 over 6 seeds: a full block plus a ragged tail."""
        circuit, _, placement, edl = make_case(3)
        seeds = tuple(100 + k for k in range(6))
        vec = estimate_error_rate_vector(
            circuit,
            placement,
            set(edl),
            cycles=CYCLES,
            seeds=seeds,
            lane_block=4,
        )
        assert len(vec) == len(seeds)
        assert all(r.backend == "vector" for r in vec)
        assert vec == event_reports(circuit, placement, edl, seeds)

    def test_event_cap_overflow_parity(self):
        """A too-small event cap raises the same typed error as the
        compiled backend (same gate and count on a single lane)."""
        circuit, _, placement, edl = make_case(7)
        with pytest.raises(SimulationError) as compiled_exc:
            estimate_error_rate(
                circuit,
                placement,
                set(edl),
                cycles=CYCLES,
                seed=42,
                backend="compiled",
                max_events_per_net=1,
            )
        with pytest.raises(SimulationError) as vector_exc:
            estimate_error_rate_vector(
                circuit,
                placement,
                set(edl),
                cycles=CYCLES,
                seeds=(42,),
                max_events_per_net=1,
            )
        assert str(vector_exc.value) == str(compiled_exc.value)


class TestVectorDispatch:
    def test_sim_backends_contents(self):
        assert SIM_BACKENDS == ("event", "compiled", "vector")

    @pytest.mark.usefixtures("helper")
    def test_estimate_error_rate_vector_backend(self):
        """Single-seed ``backend='vector'`` dispatch == compiled."""
        circuit, _, placement, edl = make_case(9)
        compiled = estimate_error_rate(
            circuit,
            placement,
            set(edl),
            cycles=CYCLES,
            seed=77,
            backend="compiled",
        )
        vec = estimate_error_rate(
            circuit,
            placement,
            set(edl),
            cycles=CYCLES,
            seed=77,
            backend="vector",
        )
        assert vec == compiled

    @pytest.mark.usefixtures("helper")
    def test_batched_vector_backend(self):
        """``estimate_error_rate_batched(backend='vector')`` returns
        the same reports as the batched compiled backend."""
        circuit, _, placement, edl = make_case(9)
        seeds = (5, 6, 7)
        compiled = estimate_error_rate_batched(
            circuit,
            placement,
            set(edl),
            cycles=CYCLES,
            seeds=seeds,
            backend="compiled",
        )
        vec = estimate_error_rate_batched(
            circuit,
            placement,
            set(edl),
            cycles=CYCLES,
            seeds=seeds,
            backend="vector",
        )
        assert vec == compiled

    def test_cycles_per_sec_none_semantics(self):
        """``None`` means unmeasured and never affects comparison."""
        assert ErrorRateReport.__dataclass_fields__[
            "cycles_per_sec"
        ].compare is False
        circuit, _, placement, edl = make_case(9)
        report = estimate_error_rate(
            circuit, placement, set(edl), cycles=CYCLES, seed=3
        )
        twin = estimate_error_rate(
            circuit, placement, set(edl), cycles=CYCLES, seed=3
        )
        report.cycles_per_sec = None
        twin.cycles_per_sec = 123.0
        assert report == twin


def _design(name):
    """Fig. 4 or a Table I circuit, unretimed, every master EDL."""
    netlist = (
        fig4_netlist() if name == "fig4" else build_benchmark(name, LIBRARY)
    )
    _, circuit = prepare_circuit(netlist, LIBRARY)
    edl = {g.name for g in circuit.netlist.endpoints()}
    return circuit, SlavePlacement.initial(), edl


class TestDefaultBackend:
    @pytest.mark.usefixtures("helper")
    @pytest.mark.parametrize("name", ["fig4", "s1196"])
    def test_default_is_vector_and_matches_oracles(self, name):
        circuit, placement, edl = _design(name)
        assert resolve_backend(None) == "vector"
        runs = {
            backend: estimate_error_rate(
                circuit,
                placement,
                edl,
                cycles=CYCLES,
                seed=2017,
                backend=backend,
            )
            for backend in (None, "compiled", "event")
        }
        assert runs[None].backend == "vector"
        assert runs[None] == runs["compiled"] == runs["event"]

    @pytest.mark.usefixtures("no_compiler")
    def test_fallback_records_reason_and_warns_once(self):
        circuit, placement, edl = _design("fig4")
        collector = metrics.MetricsCollector()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with metrics.collect_into(collector):
                reports = [
                    estimate_error_rate_batched(
                        circuit, placement, edl, cycles=CYCLES, seeds=(1, 2)
                    )
                    for _ in range(2)
                ]
        assert _native.status().reason == "no C compiler on PATH"
        assert _native.status().path is None
        assert all(r.backend == "compiled" for run in reports for r in run)
        runtime = [w for w in caught if w.category is RuntimeWarning]
        assert len(runtime) == 1
        assert "no C compiler on PATH" in str(runtime[0].message)
        assert collector.counters["sim.native.unavailable"] == 2
        assert collector.counters["sim.backend.compiled"] == 2
        assert reports[0] == event_reports(
            circuit, placement, frozenset(edl), (1, 2)
        )

    @pytest.mark.usefixtures("no_compiler")
    def test_explicit_vector_without_helper_raises(self):
        circuit, placement, edl = _design("fig4")
        for run in (
            lambda: estimate_error_rate_vector(
                circuit, placement, edl, cycles=CYCLES
            ),
            lambda: estimate_error_rate(
                circuit, placement, edl, cycles=CYCLES, backend="vector"
            ),
        ):
            with pytest.raises(SimulationError, match="no C compiler"):
                run()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown simulation backend"):
            resolve_backend("quantum")

    def test_flow_leaves_helper_unloaded(self):
        """Neither import nor ``run_flow`` resolves the backend."""
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys, repro\n"
            "from repro.cells import default_library\n"
            "from repro.circuits.fig4 import fig4_netlist\n"
            "repro.run_flow('grar', fig4_netlist(), default_library(), 1.0)\n"
            "native = sys.modules.get('repro.sim._native')\n"
            "print(native is None or native.status() is None)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "True"


class TestHelperCache:
    def test_group_writable_dir_refused(self, fresh_cache):
        fresh_cache.mkdir(mode=0o700)
        fresh_cache.chmod(0o770)
        with pytest.raises(_native._Unavailable, match="group-writable"):
            _native.private_cache_dir()

    def test_world_writable_dir_refused(self, fresh_cache):
        fresh_cache.mkdir(mode=0o700)
        fresh_cache.chmod(0o707)
        with pytest.raises(_native._Unavailable, match="world-writable"):
            _native.private_cache_dir()

    def test_foreign_owned_dir_refused(self, fresh_cache, monkeypatch):
        fresh_cache.mkdir(mode=0o700)
        uid = os.geteuid()
        monkeypatch.setattr(os, "geteuid", lambda: uid + 1)
        with pytest.raises(_native._Unavailable, match="not owned"):
            _native.private_cache_dir()

    def test_private_dir_created_0700(self, fresh_cache):
        assert _native.private_cache_dir() == str(fresh_cache)
        assert fresh_cache.stat().st_mode & 0o777 == 0o700

    @pytest.mark.usefixtures("helper")
    def test_rejected_dir_builds_privately(self, fresh_cache):
        fresh_cache.mkdir(mode=0o700)
        fresh_cache.chmod(0o770)
        assert _native.load() is not None
        status = _native.status()
        assert status.notes == ("cache dir rejected: group-writable",)
        assert not status.path.startswith(str(fresh_cache))
        assert list(fresh_cache.iterdir()) == []

    @pytest.mark.usefixtures("helper")
    def test_tampered_object_is_rebuilt(self, fresh_cache):
        compiler, version = _native._compiler_identity()
        key = _native.cache_key(compiler, version)
        directory = _native.private_cache_dir()
        notes = []
        path = _native._helper_path(directory, key, compiler, notes)
        assert notes == []
        bad = Path(path).read_bytes() + b"tampered"
        tampered = Path(directory) / "tampered"
        tampered.write_bytes(bad)
        os.replace(tampered, path)
        again = _native._helper_path(directory, key, compiler, notes)
        assert notes == ["digest mismatch, rebuilt"]
        digest = Path(_native._record_path(directory, key)).read_text()
        data = Path(again).read_bytes()
        assert data != bad
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.usefixtures("helper")
    def test_concurrent_cold_builds(self, tmp_path):
        """Processes racing to build into one empty cache all load a
        verified helper (unique temporaries + atomic renames)."""
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "from repro.sim import _native\n"
            "lib = _native.load()\n"
            "print(lib is not None, _native.status().reason)\n"
        )
        env = dict(
            os.environ, PYTHONPATH=str(src), XDG_CACHE_HOME=str(tmp_path)
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code],
                env=env,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(4)
        ]
        outs = [proc.communicate(timeout=120)[0].strip() for proc in procs]
        assert outs == ["True None"] * 4
        cache = tmp_path / "repro"
        (record,) = cache.glob("*.sha256")
        digest = record.read_text()
        (obj,) = cache.glob(f"*-{digest[:16]}.so")
        assert hashlib.sha256(obj.read_bytes()).hexdigest() == digest
        assert not list(cache.glob(".build-*"))

    def test_key_covers_compiler_flags_platform(self):
        base = _native.cache_key("/usr/bin/cc", "cc 1.0")
        assert base == _native.cache_key("/usr/bin/cc", "cc 1.0")
        assert base != _native.cache_key("/usr/bin/gcc", "cc 1.0")
        assert base != _native.cache_key("/usr/bin/cc", "cc 1.1")
        assert base != _native.cache_key(
            "/usr/bin/cc", "cc 1.0", flags=_native.FLAGS + ("-g",)
        )
