"""Unit tests for the byte/sector unit constants."""

from repro.common.units import GIB, KIB, MIB, SECTOR_SIZE


def test_unit_constants_are_powers_of_1024():
    assert KIB == 1024
    assert MIB == 1024**2
    assert GIB == 1024**3
    assert SECTOR_SIZE == 512
