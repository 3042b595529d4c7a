"""Fixed-point formats, two's-complement bit slicing, and the doubled domain.

Bit slicing is `piso_schedule`'s: a single operand's per-slice addresses
are its bits, LSB first.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from comet.fxp import FxpFormat, as_int
from comet.obc_ipc import build_naive_lut, piso_schedule, sa_run


def _from_slices(slices: list[int]) -> int:
    """Reassemble an integer from LSB-first two's-complement bits."""
    b = len(slices)
    return sum(s << r for r, s in enumerate(slices[:-1])) \
        - (slices[-1] << (b - 1))


def test_format_range():
    fmt = FxpFormat(8)
    assert fmt.min_value == -128
    assert fmt.max_value == 127


@pytest.mark.parametrize("bits", [0, 1, 33, -4, 8.5, "8", None, True])
def test_format_rejects_bad_width(bits):
    with pytest.raises(ValueError):
        FxpFormat(bits)


def test_format_takes_bits_through_as_int():
    """A numpy width becomes an int; FxpFormat(8.5).max_value raised
    TypeError."""
    fmt = FxpFormat(np.int64(8))
    assert fmt == FxpFormat(8) and type(fmt.bits) is int
    with pytest.raises(ValueError, match="bit-width 8.5 is not an integer"):
        FxpFormat(8.5)


def test_as_int_takes_integers_and_rejects_bools():
    """A bool passed `operator.index` as 0 or 1, while `metrics.is_number`
    rejects it: throughput_mac(True, 1, 8, 1e8) gave 12500000.0."""
    for value in (7, np.int32(-3), np.uint8(200)):
        got = as_int(value, "v")
        assert got == value and type(got) is int
    for value in (True, False, np.True_, 0.5, "3", None):
        with pytest.raises(ValueError, match="is not an integer"):
            as_int(value, "v")


def test_bit_slice_examples():
    assert piso_schedule([5], 4) == [1, 0, 1, 0]
    assert piso_schedule([-3], 4) == [1, 0, 1, 1]   # two's complement 1101
    assert piso_schedule([-8], 4) == [0, 0, 0, 1]
    assert piso_schedule([7], 4) == [1, 1, 1, 0]


def test_check_ints_names_the_first_offender():
    fmt = FxpFormat(4)
    got = fmt.check_ints(np.array([-8, 7]), "operand")
    assert got == [-8, 7] and all(type(v) is int for v in got)
    with pytest.raises(ValueError, match="operand 9 outside 4-bit range"):
        fmt.check_ints([1, 9, -9], "operand")
    with pytest.raises(ValueError, match="operand 0.5 is not an integer"):
        fmt.check_ints([1, 0.5, 99], "operand")


def test_bit_slice_rejects_out_of_range():
    with pytest.raises(ValueError):
        piso_schedule([8], 4)
    with pytest.raises(ValueError):
        piso_schedule([-9], 4)
    with pytest.raises(ValueError, match="operand 300 outside 8-bit range"):
        piso_schedule([1, 300, -2], 8)
    assert piso_schedule([1], np.int64(8)) == [1] + [0] * 7
    for b in (1, 33, 8.0):      # 8.0 equals the np.int64(8) just used
        with pytest.raises(ValueError, match="bit-width"):
            piso_schedule([0], b)


@pytest.mark.parametrize("bits", range(2, 11))
def test_round_trip_exhaustive(bits):
    fmt = FxpFormat(bits)
    for v in range(fmt.min_value, fmt.max_value + 1):
        assert _from_slices(piso_schedule([v], bits)) == v


@given(st.integers(min_value=2, max_value=32), st.data())
def test_round_trip_property(bits, data):
    fmt = FxpFormat(bits)
    v = data.draw(st.integers(fmt.min_value, fmt.max_value))
    assert _from_slices(piso_schedule([v], bits)) == v


@given(st.integers(min_value=2, max_value=32), st.data())
def test_doubled_domain_identity(bits, data):
    """Shift-accumulating the digits 2b - 1 (the one-coefficient table)
    from -1, with the sign slice negated, gives 2v."""
    fmt = FxpFormat(bits)
    v = data.draw(st.integers(fmt.min_value, fmt.max_value))
    assert sa_run(build_naive_lut([1]), [v], bits, -1, record=False)[0] == v
