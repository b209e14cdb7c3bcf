"""Library container with drive-strength and latch-group queries."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cells.cell import Cell, CombCell, FlipFlopCell, LatchCell, SequentialCell


class LatchGroup(Enum):
    """Latch groups of the virtual-library approach (Section V).

    * ``NORMAL`` — unmodified standard-cell latches (group three), used
      in non-error-detecting pipeline stages.
    * ``NON_EDL`` — setup time extended by the resiliency window so the
      tool keeps arrivals out of the window (group one).
    * ``EDL`` — area enlarged by ``1 + c`` to reflect error-detection
      overhead; arrivals may fall inside the window (group two).
    """

    NORMAL = "normal"
    NON_EDL = "non_edl"
    EDL = "edl"


@dataclass
class Library:
    """A named collection of cells with convenience queries.

    :meth:`add` is the one mutation point of ``cells``: it drops the
    lazily built drive-variant index, so mutate ``cells`` through it.
    """

    name: str
    cells: Dict[str, Cell] = field(default_factory=dict)
    #: Optional latch-group tagging used by the virtual-library flow.
    latch_groups: Dict[str, LatchGroup] = field(default_factory=dict)
    #: ``(base_name, vt)`` -> comb cells sorted by drive; built on the
    #: first drive-variant query, dropped by :meth:`add`.
    _variants: Optional[Dict[Tuple[str, str], List[CombCell]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def add(self, cell: Cell, group: Optional[LatchGroup] = None) -> None:
        """Register ``cell``; optionally tag its virtual-library group."""
        if cell.name in self.cells:
            raise ValueError(f"duplicate cell name {cell.name!r}")
        self.cells[cell.name] = cell
        self._variants = None
        if group is not None:
            self.latch_groups[cell.name] = group

    def __contains__(self, name: str) -> bool:
        return name in self.cells

    def __getitem__(self, name: str) -> Cell:
        try:
            return self.cells[name]
        except KeyError:
            raise KeyError(
                f"cell {name!r} not in library {self.name!r}"
            ) from None

    def __len__(self) -> int:
        return len(self.cells)

    def comb_cells(self) -> List[CombCell]:
        """All combinational cells."""
        return [c for c in self.cells.values() if isinstance(c, CombCell)]

    def latches(self) -> List[LatchCell]:
        """All latch cells."""
        return [c for c in self.cells.values() if isinstance(c, LatchCell)]

    def flip_flops(self) -> List[FlipFlopCell]:
        """All flip-flop cells."""
        return [c for c in self.cells.values() if isinstance(c, FlipFlopCell)]

    def group_of(self, name: str) -> LatchGroup:
        """Virtual-library group of a latch (NORMAL by default)."""
        return self.latch_groups.get(name, LatchGroup.NORMAL)

    def latches_in_group(self, group: LatchGroup) -> List[LatchCell]:
        """Latches tagged with ``group``."""
        return [
            cell
            for cell in self.latches()
            if self.group_of(cell.name) is group
        ]

    def _variant_index(self) -> Dict[Tuple[str, str], List[CombCell]]:
        if self._variants is None:
            index: Dict[Tuple[str, str], List[CombCell]] = {}
            for c in self.comb_cells():
                index.setdefault((c.base_name, c.vt), []).append(c)
            # A stable sort: equal drives keep their library order.
            for variants in index.values():
                variants.sort(key=lambda c: c.drive)
            self._variants = index
        return self._variants

    def drive_variants(self, cell: CombCell) -> List[CombCell]:
        """Drive strengths of ``cell``'s base at its Vt, weakest first."""
        return list(self._variant_index().get((cell.base_name, cell.vt), ()))

    def next_drive_up(self, cell: CombCell) -> Optional[CombCell]:
        """The next stronger variant of ``cell``, or None at the top."""
        for candidate in self._variant_index().get(
            (cell.base_name, cell.vt), ()
        ):
            if candidate.drive > cell.drive:
                return candidate
        return None

    def vt_variant(self, cell: CombCell, vt: str) -> Optional[CombCell]:
        """Same base function and drive at a different Vt flavour."""
        if cell.vt == vt:
            return cell
        for candidate in self._variant_index().get((cell.base_name, vt), ()):
            if candidate.drive == cell.drive:
                return candidate
        return None

    def comb_by_function(
        self, function: str, n_inputs: int, vt: str = "svt"
    ) -> List[CombCell]:
        """Cells implementing ``function``/``n_inputs`` at one Vt.

        Technology mapping targets standard-Vt cells; the sizing
        engine swaps individual instances to LVT afterwards.
        """
        return sorted(
            (
                c
                for c in self.comb_cells()
                if c.function == function
                and len(c.inputs) == n_inputs
                and c.vt == vt
            ),
            key=lambda c: c.drive,
        )

    def pick_comb(
        self, function: str, n_inputs: int, drive: int = 1
    ) -> CombCell:
        """The cell for ``function``/``n_inputs`` at the given drive."""
        candidates = self.comb_by_function(function, n_inputs)
        if not candidates:
            raise KeyError(
                f"library {self.name!r} has no {function} cell with "
                f"{n_inputs} inputs"
            )
        for cell in candidates:
            if cell.drive == drive:
                return cell
        return candidates[0]

    def default_latch(self) -> LatchCell:
        """The weakest normal (non-error-detecting) latch."""
        normal = [
            c
            for c in self.latches()
            if not c.error_detecting
            and self.group_of(c.name) is LatchGroup.NORMAL
        ]
        if not normal:
            raise KeyError(f"library {self.name!r} has no normal latch")
        return min(normal, key=lambda c: c.area)

    def default_flip_flop(self) -> FlipFlopCell:
        """The smallest non-error-detecting flip-flop."""
        ffs = [c for c in self.flip_flops() if not c.error_detecting]
        if not ffs:
            raise KeyError(f"library {self.name!r} has no flip-flop")
        return min(ffs, key=lambda c: c.area)

    def edl_latch(self) -> LatchCell:
        """The error-detecting latch cell."""
        edls = [c for c in self.latches() if c.error_detecting]
        if not edls:
            raise KeyError(
                f"library {self.name!r} has no error-detecting latch"
            )
        return min(edls, key=lambda c: c.area)

    def sequential(self, name: str) -> SequentialCell:
        """Look up ``name`` and require it to be sequential."""
        cell = self[name]
        if not isinstance(cell, SequentialCell):
            raise TypeError(f"cell {name!r} is not sequential")
        return cell

    def stats(self) -> Dict[str, int]:
        """Cell counts by kind."""
        return {
            "cells": len(self.cells),
            "combinational": len(self.comb_cells()),
            "latches": len(self.latches()),
            "flip_flops": len(self.flip_flops()),
        }

    def merged_with(self, other: "Library", name: str) -> "Library":
        """A new library containing this library's cells plus ``other``'s.

        Cells in ``other`` shadow same-named cells here.
        """
        merged = Library(name=name)
        for cell in {**self.cells, **other.cells}.values():
            merged.add(cell)
        merged.latch_groups.update(self.latch_groups)
        merged.latch_groups.update(other.latch_groups)
        return merged

    @staticmethod
    def from_cells(name: str, cells: Iterable[Cell]) -> "Library":
        """Build a library from an iterable of cells."""
        lib = Library(name=name)
        for cell in cells:
            lib.add(cell)
        return lib
