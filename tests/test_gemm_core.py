"""Tiled OBC GEMM: lowering, serialization, cycle law, engine equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from comet.gemm_core import (
    GemmConfig,
    TilePlan,
    gemm_cycles,
    gemm_obc,
    gemm_oracle,
    im2col,
    piso_schedule,
)
from comet.im2col_addr import LayerConfigWord
from comet.obc_ipc import Scheme
from comet.tensor_io import SplitMix64

ARCHS = ("parallel", "shared", "split", "hybrid", "naive")


def _rand(shape, bits, seed=0):
    return SplitMix64(seed).fill(shape, bits)


# -- im2col ---------------------------------------------------------------

def test_im2col_identity_kernel():
    cfg = LayerConfigWord(c=1, kh=1, kw=1, s=1, p=0, n=1, b=8, h=2, w=3)
    x = np.arange(6).reshape(1, 2, 3)
    cols = im2col(x, cfg)
    assert cols.shape == (1, 6)
    assert (cols[0] == [0, 1, 2, 3, 4, 5]).all()


def test_im2col_patch_order_channel_major():
    cfg = LayerConfigWord(c=2, kh=2, kw=2, s=1, p=0, n=1, b=8, h=2, w=2)
    x = np.arange(8).reshape(2, 2, 2)
    cols = im2col(x, cfg)
    # single position, patch runs channel-major then row-major
    assert (cols[:, 0] == [0, 1, 2, 3, 4, 5, 6, 7]).all()


def test_im2col_one_sided_padding():
    cfg = LayerConfigWord(c=1, kh=3, kw=3, s=2, p=1, n=1, b=8, h=4, w=4)
    x = np.ones((1, 4, 4), dtype=np.int64)
    cols = im2col(x, cfg)
    assert cfg.h_out == 2 and cfg.w_out == 2
    # only the bottom-right position touches the zero pad (ih or iw == 4)
    sums = cols.sum(axis=0)
    assert sums[0] == 9           # top-left fully inside
    assert sums[3] == 4           # bottom-right loses one row + one col
    assert (cols >= 0).all()


def test_im2col_rejects_bad_shape():
    cfg = LayerConfigWord(c=1, kh=1, kw=1, s=1, p=0, n=1, b=8, h=2, w=2)
    with pytest.raises(ValueError):
        im2col(np.zeros((1, 3, 3)), cfg)


def test_im2col_stride_two():
    cfg = LayerConfigWord(c=1, kh=1, kw=1, s=2, p=1, n=1, b=8, h=3, w=3)
    x = np.arange(9).reshape(1, 3, 3)
    cols = im2col(x, cfg)
    assert (cols[0] == [0, 2, 6, 8]).all()


# -- PISO -----------------------------------------------------------------

def test_piso_example():
    # operand 0 occupies the address MSB; the LSB slice goes first
    assert piso_schedule([1, -2], 2) == [2, 1]


def test_piso_width_check():
    with pytest.raises(ValueError):
        piso_schedule([2], 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 12), st.data())
def test_piso_round_trip(b, data):
    ops = data.draw(st.lists(st.integers(-(1 << (b - 1)), (1 << (b - 1)) - 1),
                             min_size=1, max_size=6))
    addrs = piso_schedule(ops, b)
    assert len(addrs) == b
    k = len(ops)
    rebuilt = []
    for i in range(k):
        bits = [(addrs[b - 1 - r] >> (k - 1 - i)) & 1 for r in range(b)]
        v = -bits[0] << (b - 1) if bits[0] else 0
        v += sum(bits[r] << (b - 1 - r) for r in range(1, b))
        rebuilt.append(v)
    assert rebuilt == ops


# -- tiling ---------------------------------------------------------------

def test_tile_plan():
    plan = TilePlan.for_patch(25, 16)
    assert plan.tiles == 2 and plan.tail_pad == 7
    plan = TilePlan.for_patch(32, 16)
    assert plan.tiles == 2 and plan.tail_pad == 0


# -- cycle law ------------------------------------------------------------

def test_cycle_formula_examples():
    cfg = GemmConfig(k_hw=25, l=6, scheme=Scheme.A, b1=8, b2=8)
    assert gemm_cycles(6, 784, 25, cfg) == 784 * 1 * 8 * 1 == 6272
    cfg = GemmConfig(k_hw=16, l=10, scheme=Scheme.A, b1=8, b2=8)
    assert gemm_cycles(6, 784, 25, cfg) == 784 * 2 * 8 * 1
    cfg_b = GemmConfig(k_hw=16, l=10, scheme=Scheme.B, b1=16, b2=8)
    cfg_a = GemmConfig(k_hw=16, l=10, scheme=Scheme.A, b1=16, b2=8)
    assert 2 * gemm_cycles(6, 784, 25, cfg_b) == gemm_cycles(6, 784, 25, cfg_a)


def test_gemm_reports_closed_form_cycles():
    theta = _rand((3, 10), 8, seed=1)
    x = _rand((10, 7), 8, seed=2)
    bias = _rand((3,), 8, seed=3)
    cfg = GemmConfig(k_hw=4, l=2, scheme=Scheme.A, arch="hybrid")
    _, cycles, _ = gemm_obc(theta, x, bias, cfg)
    assert cycles == gemm_cycles(3, 7, 10, cfg) == 7 * 3 * 8 * 2


# -- engine equivalence ---------------------------------------------------

@pytest.mark.parametrize("scheme", [Scheme.A, Scheme.B])
@pytest.mark.parametrize("arch", ARCHS)
def test_gemm_matches_oracle(scheme, arch):
    theta = _rand((5, 21), 8, seed=11)
    x = _rand((21, 9), 8, seed=12)
    bias = _rand((5,), 8, seed=13)
    cfg = GemmConfig(k_hw=8, l=3, scheme=scheme, arch=arch, b1=8, b2=8)
    y, _, _ = gemm_obc(theta, x, bias, cfg)
    assert (y == gemm_oracle(theta, x, bias)).all()


@pytest.mark.parametrize("scheme", [Scheme.A, Scheme.B])
@pytest.mark.parametrize("arch", ARCHS)
def test_scalar_and_vectorized_engines_agree(scheme, arch):
    theta = _rand((3, 10), 6, seed=21)
    x = _rand((10, 4), 6, seed=22)
    bias = _rand((3,), 6, seed=23)
    cfg = GemmConfig(k_hw=4, l=2, scheme=scheme, arch=arch, b1=6, b2=6)
    y_vec, _, tr = gemm_obc(theta, x, bias, cfg)
    assert tr is None
    y_ref, _, traces = gemm_obc(theta, x, bias, cfg, record=True)
    assert (y_vec == y_ref).all()
    assert traces is not None
    b = cfg.serial_bits
    assert all(t.cycles == b for t in traces.values())
    # one trace per (row, column, tile)
    assert len(traces) == 3 * 4 * 3


def test_gemm_mixed_widths():
    theta = _rand((4, 9), 4, seed=31)
    x = _rand((9, 5), 16, seed=32)
    bias = _rand((4,), 4, seed=33)
    for scheme in (Scheme.A, Scheme.B):
        cfg = GemmConfig(k_hw=4, l=1, scheme=scheme, arch="split",
                         b1=16, b2=4)
        y, _, _ = gemm_obc(theta, x, bias, cfg)
        assert (y == gemm_oracle(theta, x, bias)).all()


def test_tail_padding_is_neutral():
    """A patch that doesn't fill its last tile still computes exactly."""
    theta = _rand((2, 5), 8, seed=41)
    x = _rand((5, 3), 8, seed=42)
    bias = _rand((2,), 8, seed=43)
    cfg = GemmConfig(k_hw=4, l=1, scheme=Scheme.A, arch="hybrid")
    y, _, _ = gemm_obc(theta, x, bias, cfg)
    assert (y == gemm_oracle(theta, x, bias)).all()


def test_bias_joins_last_tile_only():
    theta = _rand((2, 8), 8, seed=51)
    x = _rand((8, 2), 8, seed=52)
    bias = np.array([37, -19])
    cfg = GemmConfig(k_hw=4, l=1, scheme=Scheme.A, arch="naive")
    _, _, traces = gemm_obc(theta, x, bias, cfg, record=True)
    for (n, m, t), trace in traces.items():
        # reconstruct this tile's accumulator start from its first step
        first = trace.steps[0]
        shift0 = 0  # LSB slice contributes lut << 0
        init = first.accumulator_after - (first.lut_output << shift0)
        coeffs = theta[n, t * 4:(t + 1) * 4]
        expected = -int(coeffs.sum()) + (2 * int(bias[n]) if t == 1 else 0)
        assert init == expected


def test_gemm_validation():
    cfg = GemmConfig(k_hw=4, l=1, b1=8, b2=8)
    with pytest.raises(ValueError):
        gemm_obc(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2), cfg)
    with pytest.raises(ValueError):
        gemm_obc(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(3), cfg)
    with pytest.raises(ValueError):
        gemm_obc(np.full((2, 3), 200), np.zeros((3, 2)), np.zeros(2), cfg)
    with pytest.raises(ValueError):
        GemmConfig(k_hw=0)
    with pytest.raises(ValueError):
        GemmConfig(arch="bogus")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 9), st.integers(1, 4),
       st.sampled_from(ARCHS), st.sampled_from([Scheme.A, Scheme.B]),
       st.integers(0, 2 ** 32 - 1))
def test_gemm_oracle_property(n, kdim, m, arch, scheme, seed):
    rng = SplitMix64(seed)
    theta = rng.fill((n, kdim), 8)
    x = rng.fill((kdim, m), 8)
    bias = rng.fill((n,), 8)
    cfg = GemmConfig(k_hw=4, l=2, scheme=scheme, arch=arch)
    y, _, _ = gemm_obc(theta, x, bias, cfg)
    assert (y == gemm_oracle(theta, x, bias)).all()


WIDTHS = st.one_of(st.sampled_from([2, 16, 30, 31, 32]), st.integers(2, 32))


@settings(max_examples=80, deadline=None)
@given(WIDTHS, WIDTHS, st.integers(1, 3),
       st.integers(1, 40), st.integers(1, 3), st.sampled_from([3, 4, 8, 16]),
       st.sampled_from(ARCHS), st.sampled_from([Scheme.A, Scheme.B]),
       st.data())
def test_gemm_exact_or_rejected_at_every_width(b1, b2, n, kdim, m, k_hw, arch,
                                               scheme, data):
    """Admitted widths give exact sums; the rest raise, never wrap."""
    def draw(shape, bits):
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        vals = st.one_of(st.sampled_from([lo, hi]), st.integers(lo, hi))
        flat = data.draw(st.lists(vals, min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape))))
        return np.array(flat, dtype=np.int64).reshape(shape)

    theta, x, bias = draw((n, kdim), b2), draw((kdim, m), b1), draw((n,), b2)
    cfg = GemmConfig(k_hw=k_hw, l=1, scheme=scheme, arch=arch, b1=b1, b2=b2)
    if kdim * 2 ** (b1 + b2 - 1) + 2 ** b2 >= 2 ** 63:
        with pytest.raises(ValueError):
            gemm_obc(theta, x, bias, cfg)
        return
    y, _, _ = gemm_obc(theta, x, bias, cfg)
    want = [[sum(int(theta[i, k]) * int(x[k, j]) for k in range(kdim))
             + int(bias[i]) for j in range(m)] for i in range(n)]
    assert y.tolist() == want
