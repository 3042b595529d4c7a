"""Fixed-point formats, bit slicing, and offset-binary digit recoding."""

import pytest
from hypothesis import given, strategies as st

from comet.fxp import FxpFormat, bit_slice, from_bits, obc_delta, \
    quantize_saturate


def test_format_range():
    fmt = FxpFormat(8)
    assert fmt.min_value == -128
    assert fmt.max_value == 127
    assert fmt.contains(-128) and fmt.contains(127)
    assert not fmt.contains(128) and not fmt.contains(-129)


@pytest.mark.parametrize("bits", [0, 1, 33, -4])
def test_format_rejects_bad_width(bits):
    with pytest.raises(ValueError):
        FxpFormat(bits)


def test_quantize_saturate_clamps():
    fmt = FxpFormat(4)  # [-8, 7]
    assert quantize_saturate(100, fmt) == 7
    assert quantize_saturate(-100, fmt) == -8
    assert quantize_saturate(5, fmt) == 5
    assert quantize_saturate(-8, fmt) == -8


def test_bit_slice_examples():
    fmt = FxpFormat(4)
    assert bit_slice(5, fmt) == [0, 1, 0, 1]
    assert bit_slice(-3, fmt) == [1, 1, 0, 1]   # two's complement 1101
    assert bit_slice(-8, fmt) == [1, 0, 0, 0]
    assert bit_slice(7, fmt) == [0, 1, 1, 1]


def test_bit_slice_rejects_out_of_range():
    with pytest.raises(ValueError):
        bit_slice(8, FxpFormat(4))
    with pytest.raises(ValueError):
        bit_slice(-9, FxpFormat(4))


@pytest.mark.parametrize("bits", range(2, 11))
def test_round_trip_exhaustive(bits):
    fmt = FxpFormat(bits)
    for v in range(fmt.min_value, fmt.max_value + 1):
        assert from_bits(bit_slice(v, fmt)) == v


@given(st.integers(min_value=2, max_value=32), st.data())
def test_round_trip_property(bits, data):
    fmt = FxpFormat(bits)
    v = data.draw(st.integers(fmt.min_value, fmt.max_value))
    assert from_bits(bit_slice(v, fmt)) == v


def test_obc_delta_sign_slice_negates():
    assert obc_delta([1, 0], 0, 4) == [-1, 1]
    assert obc_delta([1, 0], 1, 4) == [1, -1]
    assert obc_delta([1, 1, 0], 3, 4) == [1, 1, -1]


def test_obc_delta_rejects_bad_slice_index():
    with pytest.raises(ValueError):
        obc_delta([0], 4, 4)
    with pytest.raises(ValueError):
        obc_delta([0], -1, 4)


@given(st.integers(min_value=2, max_value=16), st.data())
def test_doubled_domain_identity(bits, data):
    """sum_r delta_r * 2^(B-1-r) equals 2v + 1 for every representable v."""
    fmt = FxpFormat(bits)
    v = data.draw(st.integers(fmt.min_value, fmt.max_value))
    slices = bit_slice(v, fmt)
    total = 0
    for r in range(bits):
        (d,) = obc_delta([slices[r]], r, bits)
        total += d << (bits - 1 - r)
    assert total == 2 * v + 1
