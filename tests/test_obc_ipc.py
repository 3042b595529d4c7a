"""Naive offset-binary table, merged offset, and shift-accumulate runs."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from comet.fxp import FxpFormat
from comet.obc_ipc import (
    NAIVE_K_LIMIT,
    IpcProblem,
    ObcLut,
    Scheme,
    build_naive_lut,
    ipc_obc,
    ipc_oracle,
    merged_offset,
    piso_schedule,
    sa_run,
)


def test_naive_lut_two_coeffs():
    lut = build_naive_lut([3, 5])
    # address bits (b1 b2), b1 most significant: -3-5, -3+5, 3-5, 3+5
    assert lut.entries == [-8, 2, -2, 8]
    assert lut.k == 2
    assert lut(0) == -8 and lut(3) == 8


def test_naive_lut_msb_is_first_coeff():
    lut = build_naive_lut([100, 1, 1])
    # flipping the MSB address bit toggles the first coefficient's sign
    assert lut(0b100) - lut(0b000) == 2 * 100


def test_naive_lut_entry_zero_is_negated_sum():
    for coeffs in ([7], [1, 2, 3], [-4, 9, 0, -1]):
        lut = build_naive_lut(coeffs)
        assert lut(0) == -sum(coeffs)
        assert lut(2 ** len(coeffs) - 1) == sum(coeffs)


@pytest.mark.parametrize("k", range(1, 13))
def test_naive_lut_mirror_antisymmetry(k):
    """entries[addr] == -entries[~addr] for every address."""
    coeffs = [((37 * i + 11) % 255) - 127 for i in range(k)]
    lut = build_naive_lut(coeffs)
    mask = (1 << k) - 1
    for addr in range(1 << k):
        assert lut(addr) == -lut(addr ^ mask)


def test_naive_lut_size_bound():
    with pytest.raises(ValueError):
        build_naive_lut([1] * (NAIVE_K_LIMIT + 1))


def test_merged_offset():
    assert merged_offset([3, 5], 0) == -8
    assert merged_offset([3, 5], -1) == -10
    assert merged_offset([], 4) == 8
    assert merged_offset([-2, 2], 3) == 6


def test_sa_run_single_coeff_two_bits():
    """K=1, B=2: table [-c, +c], operands in {-2..1}, result == c*x."""
    c = 3
    lut = build_naive_lut([c])
    for x in range(-2, 2):
        res, trace = sa_run(lut, [x], 2, merged_offset([c], 0))
        assert res == c * x
        assert all(len(v) == 2 for v in trace.values())
        # slices are consumed LSB-first: entry 0 reads bit 0 of x
        assert trace["address"] == [x & 1, (x >> 1) & 1]


def test_sa_run_exhaustive_k2_b4():
    fmt = FxpFormat(4)
    coeffs = [5, -3]
    lut = build_naive_lut(coeffs)
    for x0, x1 in itertools.product(range(-8, 8), repeat=2):
        res, _ = sa_run(lut, [x0, x1], 4, merged_offset(coeffs, 0),
                        record=False)
        assert res == 5 * x0 - 3 * x1
    assert fmt.min_value <= x0 <= fmt.max_value


def test_sa_run_rejects_overwide_operand():
    lut = build_naive_lut([1])
    with pytest.raises(ValueError):
        sa_run(lut, [2], 2, merged_offset([1], 0))


def _piso_loop(operands, b):
    """The reference transposition: one bit per operand and slice."""
    addrs = []
    for shift in range(b):
        addr = 0
        for v in operands:
            addr = (addr << 1) | ((v >> shift) & 1)
        addrs.append(addr)
    return addrs


@pytest.mark.parametrize("b", [2, 8, 17, 32])
@pytest.mark.parametrize("k", [1, 3, 16, 25])
def test_piso_equals_bit_loop(k, b):
    lo, hi = -(1 << (b - 1)), (1 << (b - 1)) - 1
    rng = random.Random(k * 100 + b)
    cases = [[lo] * k, [hi] * k, [-1] * k, [0] * k,
             [(lo, hi, -1, 0)[i % 4] for i in range(k)]]
    cases += [[rng.randint(lo, hi) for _ in range(k)] for _ in range(50)]
    for ops in cases:
        assert piso_schedule(ops, b) == _piso_loop(ops, b), ops


def test_sa_run_reads_the_lut_once_per_slice():
    coeffs = [3, -5, 7]
    naive = build_naive_lut(coeffs)
    reads = []

    def lut(address):
        reads.append(address)
        return naive(address)

    for record in (False, True):
        reads.clear()
        res, _ = sa_run(lut, [1, -4, 3], 6, merged_offset(coeffs, 2),
                        record=record)
        assert res == 3 * 1 - 5 * -4 + 7 * 3 + 2
        assert reads == piso_schedule([1, -4, 3], 6)


@pytest.mark.parametrize("bad", [0.5, 1.7, float("nan"), np.float64(2.0),
                                 "3"])
def test_operands_must_be_integers(bad):
    """`operator.index` semantics: these used to be truncated or compared
    as floats (`ipc_oracle([0.5], [3])` gave 0, `piso_schedule` read 1.7
    as 1 and `IpcProblem` took 0.5)."""
    fmt = FxpFormat(4)
    with pytest.raises(ValueError, match="is not an integer"):
        ipc_oracle([bad], [3])
    with pytest.raises(ValueError, match="is not an integer"):
        ipc_oracle([3], [1], bad)
    with pytest.raises(ValueError, match="is not an integer"):
        piso_schedule([bad, 2], 4)
    for scheme in Scheme:
        with pytest.raises(ValueError, match="is not an integer"):
            IpcProblem.from_vectors([bad], [1], 0, scheme, fmt, fmt)
        with pytest.raises(ValueError, match="is not an integer"):
            IpcProblem.from_vectors([1], [1], bad, scheme, fmt, fmt)


def test_ipc_oracle_rejects_unequal_lengths():
    """Zipping cut the longer vector: `ipc_oracle([1, 2], [3])` gave 3."""
    with pytest.raises(ValueError, match="2 weights but 1 inputs"):
        ipc_oracle([1, 2], [3])
    with pytest.raises(ValueError, match="1 weights but 3 inputs"):
        ipc_oracle([5], [1, 2, 3], 1)
    assert ipc_oracle([], []) == 0


def test_numpy_integers_are_integers():
    w, x = np.array([3, -5], np.int8), np.array([1, -2], np.int64)
    fmt = FxpFormat(4)
    assert ipc_oracle(w, x, np.int16(4)) == 17
    assert piso_schedule(x, 4) == piso_schedule([1, -2], 4)
    prob = IpcProblem.from_vectors(w, x, np.int32(4), Scheme.B, fmt, fmt)
    assert prob.coeffs == (1, -2) and prob.serial_operands == (3, -5)
    assert all(type(v) is int for v in prob.coeffs + prob.serial_operands)
    assert ipc_obc(prob, "hybrid", record=False)[0] == 17


def test_obclut_callable():
    lut = ObcLut([1, 2, 3, 4], 2)
    assert lut(2) == 3


def test_ipc_problem_validation():
    fi, fw = FxpFormat(4), FxpFormat(4)
    with pytest.raises(ValueError):
        IpcProblem.from_vectors([1, 2], [3], 0, Scheme.A, fi, fw)
    with pytest.raises(ValueError, match="coefficient 99 outside 4-bit"):
        IpcProblem.from_vectors([1, 99], [3, 4], 0, Scheme.A, fi, fw)
    with pytest.raises(ValueError, match="operand -9 outside 4-bit"):
        IpcProblem.from_vectors([1, 2], [3, -9], 0, Scheme.A, fi, fw)
    with pytest.raises(ValueError, match="K must be at least 1"):
        IpcProblem.from_vectors([], [], 0, Scheme.A, fi, fw)


def test_ipc_problem_scheme_arrangement():
    fi, fw = FxpFormat(6), FxpFormat(4)
    a = IpcProblem.from_vectors([1, 2], [3, 4], 7, Scheme.A, fi, fw)
    assert a.coeffs == (1, 2) and a.serial_operands == (3, 4)
    assert a.serial_bits == 6
    b = IpcProblem.from_vectors([1, 2], [3, 4], 7, Scheme.B, fi, fw)
    assert b.coeffs == (3, 4) and b.serial_operands == (1, 2)
    assert b.serial_bits == 4
    # the scheme only arranges the operands: "B" is Scheme B, "C" no scheme
    assert IpcProblem.from_vectors([1, 2], [3, 4], 7, "B", fi, fw) == b
    with pytest.raises(ValueError):
        IpcProblem.from_vectors([1, 2], [3, 4], 7, "C", fi, fw)


def test_scheme_hashes_by_identity():
    """Memo keys hash a Scheme on every GEMM call; Enum's own __hash__
    runs in Python, object's in C, and identity matches Enum equality."""
    assert Scheme.__hash__ is object.__hash__
    assert {Scheme.A: 1, Scheme("B"): 2}[Scheme("A")] == 1


def test_ipc_obc_small_example():
    fi, fw = FxpFormat(4), FxpFormat(4)
    prob = IpcProblem.from_vectors([3, 5], [1, -2], -1, Scheme.A, fi, fw)
    res, trace = ipc_obc(prob)
    assert res == ipc_oracle([3, 5], [1, -2], -1) == -8
    # LSB slice of (1, -2) is (1, 0) -> address 0b10
    assert len(trace["address"]) == 4 and trace["address"][0] == 0b10


@pytest.mark.parametrize("scheme", [Scheme.A, Scheme.B])
def test_ipc_obc_exhaustive_k1(scheme):
    fi, fw = FxpFormat(3), FxpFormat(3)
    for w in range(-4, 4):
        for x in range(-4, 4):
            prob = IpcProblem.from_vectors([w], [x], 0, scheme, fi, fw)
            res, _ = ipc_obc(prob, record=False)
            assert res == w * x


small = st.integers(min_value=-8, max_value=7)


@settings(max_examples=300, deadline=None)
@given(st.lists(small, min_size=1, max_size=6), st.data(),
       st.sampled_from([Scheme.A, Scheme.B]), small)
def test_ipc_obc_matches_oracle(weights, data, scheme, bias):
    inputs = data.draw(st.lists(small, min_size=len(weights),
                                max_size=len(weights)))
    prob = IpcProblem.from_vectors(weights, inputs, bias, scheme,
                                   FxpFormat(4), FxpFormat(4))
    res, _ = ipc_obc(prob, record=False)
    assert res == ipc_oracle(weights, inputs, bias)


@settings(max_examples=200, deadline=None)
@given(st.lists(small, min_size=1, max_size=5), st.data(),
       st.integers(min_value=-50, max_value=50))
def test_bias_merge_is_exact(weights, data, bias):
    """Merging bias into the offset equals adding it afterwards."""
    inputs = data.draw(st.lists(small, min_size=len(weights),
                                max_size=len(weights)))
    fi, fw = FxpFormat(4), FxpFormat(4)
    with_bias = ipc_obc(IpcProblem.from_vectors(
        weights, inputs, bias, Scheme.A, fi, fw), record=False)[0]
    without = ipc_obc(IpcProblem.from_vectors(
        weights, inputs, 0, Scheme.A, fi, fw), record=False)[0]
    assert with_bias == without + bias


@pytest.mark.parametrize("bits", [2, 4, 8, 16])
def test_cycle_count_equals_serial_width(bits):
    fmt = FxpFormat(bits)
    prob = IpcProblem.from_vectors([1, 1], [1, 1], 0, Scheme.A, fmt,
                                   FxpFormat(4))
    _, trace = ipc_obc(prob)
    assert all(len(v) == bits for v in trace.values())


def test_ipc_obc_rejects_unknown_impl():
    prob = IpcProblem.from_vectors([1], [1], 0, Scheme.A, FxpFormat(4),
                                   FxpFormat(4))
    with pytest.raises(ValueError, match="unknown LUT kind 'bogus'"):
        ipc_obc(prob, lut_impl="bogus")
