"""Tests for the library container and the default-library builder."""

from dataclasses import replace

import pytest

from repro.cells import (
    LatchGroup,
    Library,
    build_virtual_library,
    default_library,
)
from repro.cells.builder import (
    FF_AREA,
    LATCH_AREA_RATIO,
    LVT_AREA_FACTOR,
    _COMB_SPECS,
)
from repro.clocks import scheme_from_period


class TestLibraryQueries:
    def test_duplicate_cell_rejected(self, library):
        with pytest.raises(ValueError):
            library.add(library["INV_X1"])

    def test_getitem_missing(self, library):
        with pytest.raises(KeyError):
            library["NO_SUCH_CELL"]

    def test_contains(self, library):
        assert "INV_X1" in library
        assert "INV_X9" not in library

    def test_drive_variants_same_vt(self, library):
        variants = library.drive_variants(library["NAND2_X1"])
        assert [c.drive for c in variants] == [1, 2, 4]
        assert all(c.vt == "svt" for c in variants)

    def test_next_drive_up(self, library):
        assert library.next_drive_up(library["INV_X1"]).name == "INV_X2"
        assert library.next_drive_up(library["INV_X2"]).name == "INV_X4"
        assert library.next_drive_up(library["INV_X4"]) is None

    def test_vt_variant(self, library):
        lvt = library.vt_variant(library["NOR2_X2"], "lvt")
        assert lvt.name == "NOR2_LVT_X2"
        assert lvt.drive == 2
        # Same-vt request returns the cell itself.
        assert library.vt_variant(lvt, "lvt") is lvt
        back = library.vt_variant(lvt, "svt")
        assert back.name == "NOR2_X2"

    def test_comb_by_function_svt_only(self, library):
        cells = library.comb_by_function("NAND", 2)
        assert all(c.vt == "svt" for c in cells)
        assert [c.drive for c in cells] == [1, 2, 4]

    def test_pick_comb_fallback(self, library):
        cell = library.pick_comb("XOR", 2, drive=16)
        assert cell.drive == 1  # falls back to weakest

    def test_pick_comb_missing(self, library):
        with pytest.raises(KeyError):
            library.pick_comb("NAND", 7)

    def test_default_latch_and_edl(self, library):
        latch = library.default_latch()
        edl = library.edl_latch()
        assert not latch.error_detecting
        assert edl.error_detecting
        assert edl.area > latch.area

    def test_default_flip_flop(self, library):
        ff = library.default_flip_flop()
        assert ff.name == "DFF_X1"
        assert not ff.error_detecting

    def test_stats(self, library):
        stats = library.stats()
        assert stats["latches"] == 2
        assert stats["flip_flops"] == 2
        assert stats["combinational"] == stats["cells"] - 4

    def test_merged_with(self, library):
        other = Library("other")
        other.add(library["INV_X1"])
        merged = library.merged_with(other, "merged")
        assert len(merged) == len(library)

    def test_from_cells(self, library):
        lib = Library.from_cells("sub", [library["INV_X1"], library["BUF_X1"]])
        assert len(lib) == 2


class TestDefaultLibrary:
    def test_latch_to_ff_ratio_is_43_percent(self, library):
        """Paper Section VI-D: latch area is 43% of a flip-flop's."""
        latch = library.default_latch()
        ff = library.default_flip_flop()
        assert latch.area / ff.area == pytest.approx(LATCH_AREA_RATIO)

    def test_edl_area_scales_with_overhead(self):
        for c in (0.5, 1.0, 2.0):
            lib = default_library(edl_overhead=c)
            latch = lib.default_latch()
            edl = lib.edl_latch()
            assert edl.area == pytest.approx(latch.area * (1 + c))
            assert edl.overhead == c

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError):
            default_library(edl_overhead=-0.1)

    def test_every_function_at_every_drive_and_vt(self, library):
        for base in _COMB_SPECS:
            for drive in (1, 2, 4):
                assert f"{base}_X{drive}" in library
                assert f"{base}_LVT_X{drive}" in library

    def test_lvt_faster_same_pins(self, library):
        svt = library["NAND2_X1"]
        lvt = library["NAND2_LVT_X1"]
        load = 3.0
        assert lvt.worst_delay(load) < svt.worst_delay(load)
        assert lvt.area == pytest.approx(svt.area * LVT_AREA_FACTOR)
        for pin in svt.inputs:
            assert lvt.pin_cap(pin) == pytest.approx(svt.pin_cap(pin))

    def test_stronger_drive_wins_under_load(self, library):
        x1 = library["INV_X1"]
        x4 = library["INV_X4"]
        assert x4.worst_delay(8.0) < x1.worst_delay(8.0)
        assert x4.area > x1.area

    def test_latch_dq_vs_ckq_gap(self, library):
        """Section III: D->Q and CK->Q can differ by up to 40%."""
        latch = library.default_latch()
        gap = latch.ck_to_q / latch.d_to_q
        assert 1.2 <= gap <= 1.5

    def test_edl_master_has_heavier_d_pin(self, library):
        assert (
            library["DFF_ED_X1"].input_cap > library["DFF_X1"].input_cap
        )
        assert (
            library["LATCH_ED_X1"].input_cap
            > library["LATCH_X1"].input_cap
        )

    def test_unsupported_drive_rejected(self):
        with pytest.raises(ValueError):
            default_library(drives=(1, 3))


class TestVirtualLibrary:
    def test_three_groups(self, library):
        scheme = scheme_from_period(1.0)
        vl = build_virtual_library(library, scheme, overhead=1.0)
        assert vl.library.group_of("VLATCH_N_X1") is LatchGroup.NON_EDL
        assert vl.library.group_of("VLATCH_E_X1") is LatchGroup.EDL
        assert vl.library.group_of("LATCH_X1") is LatchGroup.NORMAL

    def test_non_edl_setup_extended_by_window(self, library):
        """Section V: non-EDL setup grows by the resiliency window."""
        scheme = scheme_from_period(1.0)
        vl = build_virtual_library(library, scheme, overhead=1.0)
        base_setup = library.default_latch().timing.setup
        assert vl.non_edl.timing.setup == pytest.approx(
            base_setup + scheme.resiliency_window
        )

    def test_edl_area_inflated(self, library):
        scheme = scheme_from_period(1.0)
        for c in (0.5, 2.0):
            vl = build_virtual_library(library, scheme, overhead=c)
            assert vl.edl.area == pytest.approx(
                vl.normal.area * (1 + c)
            )

    def test_arrival_limits(self, library):
        scheme = scheme_from_period(1.0)
        vl = build_virtual_library(library, scheme, overhead=1.0)
        assert vl.arrival_limit(LatchGroup.NON_EDL) == pytest.approx(
            scheme.window_open
        )
        assert vl.arrival_limit(LatchGroup.EDL) == pytest.approx(
            scheme.window_close
        )

    def test_negative_overhead_rejected(self, library):
        with pytest.raises(ValueError):
            build_virtual_library(library, scheme_from_period(1.0), -1.0)

    def test_group_area_ordering(self, library):
        scheme = scheme_from_period(1.0)
        vl = build_virtual_library(library, scheme, overhead=1.0)
        assert vl.group_area(LatchGroup.EDL) > vl.group_area(
            LatchGroup.NORMAL
        )
        assert vl.group_area(LatchGroup.NON_EDL) == pytest.approx(
            vl.group_area(LatchGroup.NORMAL)
        )


def _scan_drive_variants(library, cell):
    """The linear scan the drive-variant index replaces."""
    return sorted(
        (
            c
            for c in library.comb_cells()
            if c.base_name == cell.base_name and c.vt == cell.vt
        ),
        key=lambda c: c.drive,
    )


def _scan_next_drive_up(library, cell):
    for candidate in _scan_drive_variants(library, cell):
        if candidate.drive > cell.drive:
            return candidate
    return None


def _scan_vt_variant(library, cell, vt):
    if cell.vt == vt:
        return cell
    for candidate in library.comb_cells():
        if (
            candidate.base_name == cell.base_name
            and candidate.drive == cell.drive
            and candidate.vt == vt
        ):
            return candidate
    return None


def _fresh_library():
    """A private copy of the default library, safe to mutate."""
    return Library.from_cells("copy", default_library().cells.values())


def _inv_x8(library):
    return replace(library["INV_X4"], name="INV_X8", drive=8)


class TestDriveVariantIndex:
    @pytest.mark.parametrize("virtual", [False, True])
    def test_matches_linear_scan(self, virtual):
        library = default_library()
        if virtual:
            library = build_virtual_library(
                library, scheme_from_period(1.0), overhead=1.0
            ).library
        for cell in library.comb_cells():
            assert library.drive_variants(cell) == _scan_drive_variants(
                library, cell
            )
            assert library.next_drive_up(cell) is _scan_next_drive_up(
                library, cell
            )
            for vt in ("svt", "lvt"):
                assert library.vt_variant(cell, vt) is _scan_vt_variant(
                    library, cell, vt
                )

    def test_returned_list_is_a_copy(self, library):
        variants = library.drive_variants(library["INV_X1"])
        variants.clear()
        assert library.drive_variants(library["INV_X1"])

    def test_add_after_lookup(self):
        library = _fresh_library()
        top = library["INV_X4"]
        assert library.next_drive_up(top) is None
        library.add(_inv_x8(library))
        assert library.next_drive_up(top).name == "INV_X8"
        assert library.drive_variants(top)[-1].name == "INV_X8"

    def test_merge_after_lookup(self):
        library = _fresh_library()
        top = library["INV_X4"]
        assert library.next_drive_up(top) is None
        other = Library.from_cells("extra", [_inv_x8(library)])
        merged = library.merged_with(other, "merged")
        assert merged.next_drive_up(top).name == "INV_X8"
        assert library.next_drive_up(top) is None
        assert merged.drive_variants(top) == _scan_drive_variants(
            merged, top
        )

    def test_virtual_build_after_lookup(self):
        library = _fresh_library()
        top = library["INV_X4"]
        assert library.next_drive_up(top) is None
        library.add(_inv_x8(library))
        vlib = build_virtual_library(
            library, scheme_from_period(1.0), overhead=1.0
        ).library
        assert vlib.next_drive_up(top).name == "INV_X8"
        assert vlib.next_drive_up(vlib["INV_X8"]) is None
        vlib.add(replace(top, name="INV_X16", drive=16))
        assert vlib.next_drive_up(vlib["INV_X8"]).name == "INV_X16"
