"""Tests for the traced run's span stack and its patching.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import importlib
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import LAYER_METRICS, METHOD_SITES, SITES, Tracer  # noqa: E402


def test_self_times_exclude_wrapped_children():
    tracer = Tracer()
    inner = tracer._wrap("inner", lambda: time.sleep(0.05))

    def outer_body():
        time.sleep(0.05)
        inner()
        inner()

    outer = tracer._wrap("outer", outer_body)
    tracer.active = True
    outer()
    tracer.cut(0.0, 1.0)
    raw = tracer.segments[0][2]
    assert raw["outer"] == pytest.approx(0.05, abs=0.03)
    assert raw["inner"] == pytest.approx(0.10, abs=0.03)
    assert tracer.calls == {"outer": 1, "inner": 2}


def test_inactive_tracer_records_nothing():
    tracer = Tracer()
    wrapped = tracer._wrap("layer", lambda: 7)
    assert wrapped() == 7
    tracer.cut(0.0, 1.0)
    assert tracer.segments[0][2] == {}


def test_normalized_scales_each_segment():
    tracer = Tracer()
    tracer.segments = [
        (0.0, 1.0, {"retime.cutset_s": 1.0}),
        (1.0, 2.0, {"retime.cutset_s": 1.0, "sim.estimate_s": 0.5}),
    ]
    factors = {0.0: 1.0, 1.0: 0.5}
    totals = tracer.normalized(lambda start, end: factors[start])
    assert totals["retime.cutset_s"] == pytest.approx(1.5)
    assert totals["sim.estimate_s"] == pytest.approx(0.25)
    assert set(totals) == set(LAYER_METRICS)


def test_install_patches_every_site_and_uninstall_restores():
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in SITES
    }
    for module, cls, attr, _ in METHOD_SITES:
        owner = getattr(importlib.import_module(module), cls)
        originals[(module, f"{cls}.{attr}")] = owner.__dict__[attr]
    with Tracer():
        for module, attr, _ in SITES:
            assert (
                getattr(importlib.import_module(module), attr)
                is not originals[(module, attr)]
            )
    for module, attr, _ in SITES:
        assert (
            getattr(importlib.import_module(module), attr)
            is originals[(module, attr)]
        )
    for module, cls, attr, _ in METHOD_SITES:
        owner = getattr(importlib.import_module(module), cls)
        assert owner.__dict__[attr] is originals[(module, f"{cls}.{attr}")]
