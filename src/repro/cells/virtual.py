"""Virtual resynthesis library for the VL-RAR flow (Section V).

Each latch of the base library is augmented with two new versions:

* a **non-error-detecting** version whose setup time is extended by the
  resiliency window, so the synthesis tool only uses it when the data
  arrives before the window opens;
* an **error-detecting** version whose area is enlarged by ``1 + c``;
  its arrivals may fall inside the window.

The untouched base latches form the third group and are used in
pipeline stages that are not error-detecting at all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cells.cell import LatchCell
from repro.cells.library import LatchGroup, Library
from repro.clocks import ClockScheme


@dataclass(frozen=True)
class VirtualLibrary:
    """The merged library plus quick access to the three latch groups."""

    library: Library
    normal: LatchCell
    non_edl: LatchCell
    edl: LatchCell
    overhead: float
    scheme: ClockScheme

    def latch_for_group(self, group: LatchGroup) -> LatchCell:
        """The latch cell instantiated for ``group``."""
        if group is LatchGroup.NORMAL:
            return self.normal
        if group is LatchGroup.NON_EDL:
            return self.non_edl
        return self.edl

    def group_area(self, group: LatchGroup) -> float:
        """Area of the latch instantiated for ``group``."""
        return self.latch_for_group(group).area

    def arrival_limit(self, group: LatchGroup) -> float:
        """Latest legal data arrival at a master latch of this group.

        Non-EDL masters must receive data before the resiliency window
        opens (``Pi``); EDL masters may absorb arrivals up to the
        window close (``Pi + phi1``).  Group-three latches carry no
        resiliency constraint (their stage is not error-detecting) and
        are bounded by the window close as well.
        """
        if group is LatchGroup.NON_EDL:
            return self.scheme.window_open
        return self.scheme.window_close


def build_virtual_library(
    base: Library, scheme: ClockScheme, overhead: float
) -> VirtualLibrary:
    """Create the three-group virtual library from ``base``.

    The base library's plain latch is cloned twice: ``VLATCH_N``
    (extended setup = base setup + resiliency window) and ``VLATCH_E``
    (area scaled by ``1 + overhead`` and tagged error-detecting).
    """
    if overhead < 0:
        raise ValueError("overhead must be non-negative")
    normal = base.default_latch()
    vname = f"{base.name}_vl"
    vlib = Library(name=vname)
    for cell in base.cells.values():
        vlib.add(cell)
    vlib.latch_groups.update(base.latch_groups)

    non_edl = replace(
        normal,
        name="VLATCH_N_X1",
        timing=normal.timing.with_setup(
            normal.timing.setup + scheme.resiliency_window
        ),
    )
    edl = replace(
        normal,
        name="VLATCH_E_X1",
        area=normal.area * (1.0 + overhead),
        error_detecting=True,
        overhead=overhead,
    )
    vlib.add(non_edl, group=LatchGroup.NON_EDL)
    vlib.add(edl, group=LatchGroup.EDL)
    return VirtualLibrary(
        library=vlib,
        normal=normal,
        non_edl=non_edl,
        edl=edl,
        overhead=overhead,
        scheme=scheme,
    )
