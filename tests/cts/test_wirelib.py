"""Tests for the wire library."""

import pytest

from repro.cts.wirelib import WireLibrary, WireType, ispd09_wire_library


class TestWireType:
    def test_resistance_and_capacitance_scale_with_length(self):
        wire = WireType("w", 0.1, 0.2)
        assert wire.resistance(100.0) == pytest.approx(10.0)
        assert wire.capacitance(100.0) == pytest.approx(20.0)

    def test_invalid_parasitics_raise(self):
        with pytest.raises(ValueError):
            WireType("w", 0.0, 0.2)
        with pytest.raises(ValueError):
            WireType("w", 0.1, -1.0)


class TestWireLibrary:
    def test_ordering_narrowest_to_widest(self):
        lib = ispd09_wire_library()
        resistances = [wire.unit_resistance for wire in lib]
        assert resistances == sorted(resistances, reverse=True)
        assert list(lib)[-1] == lib.widest

    def test_default_is_widest(self):
        lib = ispd09_wire_library()
        assert lib.default == lib.widest

    def test_by_name_and_missing(self):
        lib = ispd09_wire_library()
        assert lib.by_name("W_WIDE") == lib.widest
        with pytest.raises(KeyError):
            lib.by_name("missing")

    # Wiresizing only ever downsizes, so the library walks toward narrower wires.
    def test_narrower_and_wider_walk_the_ladder(self):
        lib = ispd09_wire_library()
        assert lib.narrower(lib.widest) == lib.by_name("W_NARROW")

    def test_endpoints_saturate(self):
        lib = ispd09_wire_library()
        narrowest = lib.by_name("W_NARROW")
        assert lib.narrower(narrowest) == narrowest

    def test_can_downsize_and_upsize(self):
        lib = ispd09_wire_library()
        assert lib.can_downsize(lib.widest)
        assert not lib.can_downsize(lib.by_name("W_NARROW"))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            WireLibrary([WireType("w", 0.1, 0.2), WireType("w", 0.2, 0.1)])

    def test_empty_library_rejected(self):
        with pytest.raises(ValueError):
            WireLibrary([])

    def test_membership(self):
        lib = ispd09_wire_library()
        assert lib.widest in lib
        assert len(lib) == 2
