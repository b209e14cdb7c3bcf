"""Gate-level timed logic simulation and error-rate estimation.

The paper's Table VIII measures error rates with random-input
simulation: an error occurs in a cycle when the data at an
error-detecting master toggles inside the timing-resiliency window.
:class:`TimedSimulator` produces per-net transition waveforms under a
transport-delay model (per-pin delays from the same calculators STA
uses); :func:`estimate_error_rate` drives it cycle by cycle over a
slave-latch placement and counts window violations.
"""

from repro.sim.logicsim import (
    MAX_EVENTS_PER_NET,
    TimedSimulator,
    Waveform,
    apply_glitches,
)
from repro.sim.kernel import CompiledSimulator
from repro.sim.vectors import VectorSource, random_vectors
from repro.sim.errorrate import (
    SIM_BACKENDS,
    ErrorRateReport,
    estimate_error_rate,
    resolve_backend,
)
from repro.sim.batch import estimate_error_rate_batched
from repro.sim.vector import estimate_error_rate_vector
from repro.sim.vcd import vcd_text, write_vcd

__all__ = [
    "MAX_EVENTS_PER_NET",
    "SIM_BACKENDS",
    "CompiledSimulator",
    "TimedSimulator",
    "Waveform",
    "apply_glitches",
    "VectorSource",
    "random_vectors",
    "ErrorRateReport",
    "estimate_error_rate",
    "estimate_error_rate_batched",
    "estimate_error_rate_vector",
    "resolve_backend",
    "vcd_text",
    "write_vcd",
]
