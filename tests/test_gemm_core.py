"""Tiled OBC GEMM: lowering, serialization, cycle law, engine equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from comet import gemm_core
from comet.gemm_core import (
    GemmConfig,
    _im2col_map,
    _coef_half,
    _content,
    _kernel,
    _product,
    _serial_half,
    _weight_side,
    gemm_cycles,
    gemm_obc,
    gemm_oracle,
    im2col,
)
from comet.fxp import FxpFormat
from comet.im2col_addr import LayerConfigWord
from comet.lut_arch import PreparedLut, field_layout, mirror_read, \
    padded_layout
from comet.obc_ipc import IpcProblem, Scheme, build_naive_lut, ipc_obc, \
    merged_offset, piso_schedule
from comet.tensor_io import SplitMix64

ARCHS = ("parallel", "shared", "split", "hybrid")


def _rand(shape, bits, seed=0):
    return SplitMix64(seed).fill(shape, bits)


LAYOUTS = ("F-ordered", "transposed", "negative-stride", "read-only")


def _laid_out(a, layout):
    """A new array of `a`'s values in another memory layout."""
    if layout == "F-ordered":
        return np.asfortranarray(a)
    if layout == "transposed":          # a view of the transposed copy
        return np.ascontiguousarray(a.T).T
    if layout == "negative-stride":     # a reversed view of a reversed copy
        return np.flip(np.flip(a).copy())
    a = a.copy()
    a.flags.writeable = False
    return a


def _im2col_loop(x, cfg):
    """im2col by a per-element Python loop, pad taps included."""
    want = np.zeros((cfg.patch_len, cfg.h_out * cfg.w_out), dtype=np.int64)
    for ci in range(cfg.c):
        for i in range(cfg.kh):
            for j in range(cfg.kw):
                for oh in range(cfg.h_out):
                    for ow in range(cfg.w_out):
                        r, q = oh * cfg.s + i, ow * cfg.s + j
                        if r < cfg.h and q < cfg.w:
                            want[(ci * cfg.kh + i) * cfg.kw + j,
                                 oh * cfg.w_out + ow] = x[ci, r, q]
    return want


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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from([1, 2]), st.sampled_from([0, 1]), st.integers(1, 6),
       st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_im2col_equals_element_loop(c, kh, kw, s, p, h, w, seed):
    """Every entry, pad taps included, against a per-element Python loop."""
    try:
        cfg = LayerConfigWord(c=c, kh=kh, kw=kw, s=s, p=p, n=1, b=8, h=h, w=w)
    except ValueError:          # the kernel does not fit the input
        return
    x = _rand((c, h, w), 8, seed)
    want = _im2col_loop(x, cfg)
    got = im2col(x, cfg)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert (got == want).all()
    assert got.flags.c_contiguous       # patch-major, as the kernel tiles it


@pytest.mark.parametrize("layout", LAYOUTS)
def test_im2col_of_any_memory_layout(layout):
    """Equals the element loop and leaves its input as it was."""
    cfg = LayerConfigWord(c=2, kh=3, kw=2, s=2, p=1, n=1, b=8, h=5, w=4)
    x = _laid_out(_rand((2, 5, 4), 8, seed=94), layout)
    before = x.copy()
    got = im2col(x, cfg)
    assert got.flags.c_contiguous and (got == _im2col_loop(x, cfg)).all()
    assert (x == before).all()


def test_im2col_map_is_read_only():
    cfg = LayerConfigWord(c=2, kh=3, kw=2, s=2, p=1, n=1, b=8, h=5, w=4)
    assert _im2col_map(cfg) is _im2col_map(cfg)
    assert not _im2col_map(cfg).flags.writeable
    x = _rand((2, 5, 4), 8)
    first = im2col(x, cfg)
    want = first.copy()
    first[...] = 99
    assert (im2col(x, cfg) == want).all()


def test_non_integer_operands_are_rejected():
    """A cast to int64 would truncate 0.5 + 1.9 to 1 or wrap 2^64 - 1 to -1."""
    cfg = GemmConfig()
    with pytest.raises(ValueError, match="int64 integers"):
        gemm_obc([[0.5, 1.9]], [[1], [1]], [0], cfg)
    with pytest.raises(ValueError, match="int64 integers"):
        gemm_obc([[1]], [[0.5]], [0], cfg)
    with pytest.raises(ValueError, match="int64 integers"):
        gemm_obc([[1]], [[1]], [np.nan], cfg)
    with pytest.raises(ValueError, match="int64 integers"):
        gemm_obc(np.array([[2 ** 64 - 1]], dtype=np.uint64), [[1]], [0], cfg)
    with pytest.raises(ValueError, match="int64 integers"):
        gemm_obc([[2 ** 70]], [[1]], [0], cfg)
    im2col_cfg = LayerConfigWord(c=1, kh=1, kw=1, s=1, p=0, n=1, b=8, h=1, w=2)
    with pytest.raises(ValueError, match="int64 integers"):
        im2col(np.array([[[1, 2.5]]]), im2col_cfg)
    # integral values of any dtype pass unchanged
    y, _, _ = gemm_obc(np.array([[1.0, 2.0]]), np.array([[3], [4]], np.uint8),
                       np.array([-1], np.int8), cfg)
    assert y.tolist() == [[10]]
    assert im2col(np.array([[[1.0, -2.0]]]), im2col_cfg).tolist() == [[1, -2]]



# -- the weight side, prepared once per weight set ------------------------

@pytest.mark.parametrize("scheme", [Scheme.A, Scheme.B])
def test_weight_side_follows_in_place_edits(scheme):
    """The memo is keyed by content: a weight or bias edited in place
    between two calls gives the new exact result."""
    theta, x, bias = _rand((3, 20), 8, seed=31), _rand((20, 4), 8, seed=32), \
        _rand((3,), 8, seed=33)
    cfg = GemmConfig(k_hw=8, l=1, scheme=scheme, arch="hybrid")
    for _ in range(2):
        y, _, _ = gemm_obc(theta, x, bias, cfg)
        assert (y == gemm_oracle(theta, x, bias)).all()
        theta[1, 7] ^= 1
        bias[2] ^= 1


@pytest.mark.parametrize("scheme", [Scheme.A, Scheme.B])
def test_writing_into_results_leaves_the_next_call_unchanged(scheme):
    theta, x, bias = _rand((3, 20), 8, seed=34), _rand((20, 4), 8, seed=35), \
        _rand((3,), 8, seed=36)
    cfg = GemmConfig(k_hw=8, l=1, scheme=scheme, arch="split")
    y, _, trace = gemm_obc(theta, x, bias, cfg, record=True)
    want = [a.copy() for a in (y, *trace.values())]
    assert not trace["address"].flags.writeable     # a broadcast view
    for a in (y, trace["lut_output"], trace["accumulator"]):
        a[...] = 99
    y, _, trace = gemm_obc(theta, x, bias, cfg, record=True)
    assert all((a == w).all() for a, w in zip((y, *trace.values()), want))


@pytest.mark.parametrize("scheme", [Scheme.A, Scheme.B])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n, m", [(3, 5), (0, 5), (3, 0)])
def test_gemm_of_any_memory_layout(scheme, layout, n, m):
    """Operands in any memory layout, with no rows or no columns too, give
    the oracle's result and are left as they were."""
    theta, x, bias = _rand((n, 21), 8, seed=95), _rand((21, m), 8, seed=96), \
        _rand((n,), 8, seed=97)
    want = gemm_oracle(theta, x, bias).tolist()
    operands = [_laid_out(a, layout) for a in (theta, x, bias)]
    before = [a.copy() for a in operands]
    cfg = GemmConfig(k_hw=8, l=1, scheme=scheme, arch="hybrid")
    for record in (False, True):
        y, _, _ = gemm_obc(*operands, cfg, record=record)
        assert y.shape == (n, m) and y.tolist() == want
        assert all((a == b).all() for a, b in zip(operands, before))


@pytest.mark.parametrize("scheme", [Scheme.A, Scheme.B])
def test_gemm_returns_a_c_contiguous_int64_n_by_m(scheme):
    """Both schemes give the product in one orientation, (N, M), and the
    result is a fresh C-contiguous int64 array, with and without a trace."""
    theta, x, bias = _rand((3, 21), 8, seed=37), _rand((21, 5), 8, seed=38), \
        _rand((3,), 8, seed=39)
    cfg = GemmConfig(k_hw=8, l=1, scheme=scheme, arch="hybrid")
    for record in (False, True):
        y, _, _ = gemm_obc(theta, x, bias, cfg, record=record)
        assert y.shape == (3, 5) and y.dtype == np.int64
        assert y.flags.c_contiguous and y.flags.owndata


@pytest.mark.parametrize("k_hw", [3, 4, 8])
@pytest.mark.parametrize("kind", ARCHS)
def test_coef_rows_are_every_tiles_half_tables(kind, k_hw):
    """Row v * tiles + t of the coefficient half is half-table entry v of
    tile t: the half sign matrix times that tile's zero-padded operands."""
    cols = _rand((2 * k_hw + 1, 4), 8, seed=41 + k_hw)
    kq, signs, _ = _kernel(kind, k_hw)
    got = _coef_half(cols, k_hw, kind, 8)
    tiles = 3
    padded = np.zeros((tiles, kq, 4), np.int64)
    for t in range(tiles):
        tile = cols[t * k_hw:(t + 1) * k_hw]
        padded[t, :len(tile)] = tile
    assert got.rows.shape == (len(signs) * tiles, 4)
    for t in range(tiles):
        assert (got.rows[t::tiles] == signs @ padded[t]).all(), t
    assert (got.sums == padded.sum(axis=1)).all()


def test_weights_outside_b2_raise_on_every_call():
    cfg = GemmConfig(k_hw=4, l=1)
    for _ in range(2):
        with pytest.raises(ValueError, match="weights"):
            gemm_obc([[200, 1]], [[1], [1]], [0], cfg)
        with pytest.raises(ValueError, match="biases"):
            gemm_obc([[1, 1]], [[1], [1]], [-129], cfg)


# -- the start value: the merged offset -----------------------------------

def test_scheme_a_start_is_the_merged_offset():
    """Scheme A's weight side holds, per row, the accumulator start of the
    scalar path: `merged_offset(theta[n], bias[n])`."""
    theta, bias = _rand((5, 37), 8, seed=61), _rand((5,), 8, seed=62)
    start = _weight_side(_content(theta, "weights"), _content(bias, "biases"),
                         Scheme.A, "hybrid", 16, 8)[3]
    assert start.shape == (5, 1) and not start.flags.writeable
    assert start[:, 0].tolist() == [
        merged_offset(theta[n].tolist(), int(bias[n])) for n in range(5)]


@pytest.mark.parametrize("scheme", [Scheme.A, Scheme.B])
@pytest.mark.parametrize("arch", ARCHS)
def test_square_gemm_with_distinct_biases(scheme, arch):
    """With N == M a bias added along the wrong axis still broadcasts;
    distinct biases make it show, in the result and in the trace, whose
    last accumulators summed over the tiles are the doubled result."""
    theta, x = _rand((6, 21), 8, seed=63), _rand((21, 6), 8, seed=64)
    bias = np.arange(6) * 37 - 100
    cfg = GemmConfig(k_hw=8, l=1, scheme=scheme, arch=arch)
    want = gemm_oracle(theta, x, bias).tolist()
    y, _, _ = gemm_obc(theta, x, bias, cfg)
    assert y.tolist() == want
    y, _, trace = gemm_obc(theta, x, bias, cfg, record=True)
    assert y.tolist() == want
    assert (trace["accumulator"][..., -1].sum(axis=2) == 2 * y).all()


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


@pytest.mark.parametrize("shape", [(-1, 5, 3), (2, -1, 3), (2, 5, -1)])
def test_cycle_formula_rejects_negative_sizes(shape):
    """A negative N read as zero cycles."""
    with pytest.raises(ValueError, match="negative"):
        gemm_cycles(*shape, GemmConfig())


@pytest.mark.parametrize("field, value", [
    ("k_hw", 2.5), ("k_hw", "16"), ("l", 1.5), ("l", None), ("b1", 0),
    ("b1", 8.5), ("b1", 1), ("b2", 40), ("b2", "8"), ("scheme", "C"),
    ("scheme", None), ("k_hw", True), ("l", True), ("b1", True),
])
def test_gemm_config_rejects_bad_fields(field, value):
    """Each was accepted (l=1.5 gave 16.0 cycles; b1=0 and b2=40 passed)
    or raised TypeError (k_hw=2.5, b1=8.5)."""
    with pytest.raises(ValueError):
        GemmConfig(**{field: value})


def test_gemm_config_takes_fields_by_their_rules():
    """The scheme "A" is Scheme A (it ran as Scheme B: 8 cycles instead of
    16), and numpy integers become ints."""
    cfg = GemmConfig(k_hw=np.int64(8), l=np.int32(2), scheme="A",
                     b1=np.int64(8), b2=4)
    assert cfg == GemmConfig(k_hw=8, l=2, scheme=Scheme.A, b1=8, b2=4)
    assert all(type(v) is int for v in (cfg.k_hw, cfg.l, cfg.b1, cfg.b2))
    _, cycles, _ = gemm_obc(np.ones((1, 16)), np.ones((16, 1)), [0], cfg)
    assert cycles == 2 * 8
    assert GemmConfig(scheme="B", b1=8, b2=4).serial_bits == 4


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
@pytest.mark.parametrize("k_hw", [1, 3, 4, 5, 16, 17])
def test_gemm_exact_over_the_tiling_cases(k_hw, scheme):
    """A tail or none, and kq == k_hw or kq > k_hw (kq is 2, 4, 4, 8, 16
    and 20 here): exact with `record` off and on, and with it the last
    slice's accumulators, summed over the tiles and halved, are the
    result."""
    lens = [p for p in (k_hw - 1, k_hw, 2 * k_hw, 2 * k_hw + 1) if p >= 1]
    for patch_len in lens:
        theta = _rand((3, patch_len), 8, seed=patch_len)
        x = _rand((patch_len, 4), 8, seed=100 + patch_len)
        bias = _rand((3,), 8, seed=200 + patch_len)
        want = gemm_oracle(theta, x, bias)
        for arch in ARCHS:
            cfg = GemmConfig(k_hw=k_hw, l=2, scheme=scheme, arch=arch)
            for record in (False, True):
                y, _, tr = gemm_obc(theta, x, bias, cfg, record=record)
                assert (y == want).all(), (patch_len, arch, record)
                if record:
                    last = tr["accumulator"][..., -1].sum(axis=2)
                    assert (last == 2 * y).all(), (patch_len, arch)


@pytest.mark.parametrize("scheme", [Scheme.A, Scheme.B])
def test_an_odd_accumulator_fails_the_evenness_check(monkeypatch, scheme):
    """The doubled-domain assert fires on one odd accumulator, with and
    without `record`; it passes an exact result with odd entries (so it
    reads bit 0 alone) and empty results."""
    product, odd = gemm_core._product, []

    def patched(*args):
        y2, trace = product(*args)
        if odd and y2.size:
            y2[-1, -1] += 1
        return y2, trace

    monkeypatch.setattr(gemm_core, "_product", patched)
    cfg = GemmConfig(k_hw=4, l=1, scheme=scheme, arch="hybrid")
    theta, x = _rand((3, 6), 8, seed=81), _rand((6, 5), 8, seed=82)
    bias = _rand((3,), 8, seed=83)
    want = gemm_oracle(theta, x, bias)
    assert (want % 2 == 1).any()
    for record in (False, True):
        assert (gemm_obc(theta, x, bias, cfg, record=record)[0] == want).all()
    odd.append(True)
    for record in (False, True):
        with pytest.raises(AssertionError, match="even"):
            gemm_obc(theta, x, bias, cfg, record=record)
        for n, m in ((0, 5), (3, 0)):
            y, _, _ = gemm_obc(theta[:n], x[:, :m], bias[:n], cfg,
                               record=record)
            assert y.shape == (n, m)


@pytest.mark.parametrize("scheme", [Scheme.A, Scheme.B])
@pytest.mark.parametrize("arch", ARCHS)
def test_scalar_and_vectorized_engines_agree(scheme, arch):
    """Every (n, m, tile) slice of the recorded trace is the scalar
    reference's: ipc_obc on that tile, the bias joining the last tile."""
    b1, b2 = 6, 5
    theta = _rand((3, 10), b2, seed=21)
    x = _rand((10, 4), b1, seed=22)
    bias = _rand((3,), b2, seed=23)
    for k_hw in (3, 4, 12):     # tail tiles, and a tile wider than the patch
        cfg = GemmConfig(k_hw=k_hw, l=2, scheme=scheme, arch=arch,
                         b1=b1, b2=b2)
        y_vec, _, none = gemm_obc(theta, x, bias, cfg)
        y, _, tr = gemm_obc(theta, x, bias, cfg, record=True)
        assert none is None and (y == y_vec).all()
        tiles = -(-10 // k_hw)
        assert all(a.shape == (3, 4, tiles, cfg.serial_bits)
                   for a in tr.values())
        assert (tr["accumulator"][..., -1].sum(axis=2) // 2 == y).all()
        w_tiles, x_tiles = (
            np.pad(a, ((0, 0), (0, tiles * k_hw - 10))).reshape(-1, tiles, k_hw)
            for a in (theta, x.T))
        for n, m, t in np.ndindex(3, 4, tiles):
            prob = IpcProblem.from_vectors(
                w_tiles[n, t].tolist(), x_tiles[m, t].tolist(),
                int(bias[n]) if t == tiles - 1 else 0, scheme,
                FxpFormat(b1), FxpFormat(b2))
            _, ref = ipc_obc(prob, arch, record=True)
            assert {k: v[n, m, t].tolist() for k, v in tr.items()} == ref


@pytest.mark.parametrize("scheme", [Scheme.A, Scheme.B])
@pytest.mark.parametrize("arch", ARCHS)
def test_gemm_at_largest_slice_weight(scheme, arch):
    """Serial operands all -2^31 at B_serial = 32, the largest slice
    weight: a mirrored field's entry-0 read count reaches 2^32 - 1."""
    b1, b2 = (32, 24) if scheme is Scheme.A else (24, 32)
    theta = _rand((3, 20), b2, seed=61)
    x = _rand((20, 5), b1, seed=62)
    if scheme is Scheme.A:
        x[:] = -(1 << 31)
    else:
        theta[:] = -(1 << 31)
    bias = _rand((3,), b2, seed=63)
    cfg = GemmConfig(k_hw=8, l=1, scheme=scheme, arch=arch, b1=b1, b2=b2)
    y, _, _ = gemm_obc(theta, x, bias, cfg)
    assert (y == gemm_oracle(theta, x, bias)).all()
    # the kernel's half tables (sign-matrix product), each followed by its
    # negated mirror, are PreparedLut's full tables, here at 32-bit
    # coefficients with entries up to 2^33
    coeffs = [-(1 << 31)] * 5 + _rand((3,), 32, seed=64).tolist()
    signs = _kernel(arch, len(coeffs))[1]
    halves = (signs @ np.array(coeffs)).astype(np.int64).tolist()
    got = []
    for _, _, f in PreparedLut(arch, coeffs)._full:
        half, halves = halves[:len(f) // 2], halves[len(f) // 2:]
        got += half + [-v for v in reversed(half)]
    assert halves == []
    want = np.concatenate([f for _, _, f in PreparedLut(arch, coeffs)._full])
    assert got == want.tolist()


@pytest.mark.parametrize("k_hw", [1, 2, 3, 5, 8, 16, 17])
@pytest.mark.parametrize("arch", ARCHS)
def test_kernel_signs_are_prepared_full_tables_of_unit_coefficients(arch,
                                                                    k_hw):
    """Column i of the kernel's half sign matrix is the lower half of each
    of `PreparedLut`'s full tables, field after field, of the i-th unit
    coefficient vector over the padded width, at the kernel's group size;
    each full table's upper half is its lower half negated and reversed
    (the entry at ~v is minus the entry at v), so the halves determine
    every full-table entry."""
    kq, signs, lit = _kernel(arch, k_hw)
    q = PreparedLut(arch, [1] * k_hw).q
    assert signs.shape == (lit.shape[1] // 2, kq)
    for i, unit in enumerate(np.eye(kq, dtype=np.int64).tolist()):
        lut = PreparedLut(arch, unit, q=q)
        halves = []
        for _, _, f in lut._full:
            half = list(f[:len(f) // 2])
            assert list(f) == half + [-v for v in reversed(half)], i
            halves += half
        assert signs[:, i].tolist() == halves, i


@pytest.mark.parametrize("scheme", [Scheme.A, Scheme.B])
@pytest.mark.parametrize("arch", ARCHS)
def test_gemm_at_every_serial_width(scheme, arch):
    """Serial widths 2..32, each with rows of -2^(b-1), -1 and 2^(b-1)-1
    and a random row with both extremes mixed in: a mask bit above the
    sign slice must never reach a read count."""
    for b in range(2, 33):
        other = max(2, 33 - b)          # coefficients as wide as fits
        lo, hi = -(1 << (b - 1)), (1 << (b - 1)) - 1
        serial = _rand((4, 11), b, seed=80 + b)
        serial[:3] = np.array([lo, -1, hi])[:, None]
        serial[3, ::4], serial[3, 1::4] = lo, hi
        coef = _rand((3, 11), other, seed=120 + b)
        if scheme is Scheme.A:
            theta, x, b1, b2 = coef, serial.T, b, other
        else:
            theta, x, b1, b2 = serial, coef.T, other, b
        bias = _rand((len(theta),), b2, seed=160 + b)
        cfg = GemmConfig(k_hw=4, l=1, scheme=scheme, arch=arch, b1=b1, b2=b2)
        y, _, _ = gemm_obc(theta, x, bias, cfg)
        assert (y == gemm_oracle(theta, x, bias)).all(), b


@pytest.mark.parametrize("scheme", [Scheme.A, Scheme.B])
@pytest.mark.parametrize("arch", ARCHS)
def test_gemm_either_side_of_the_float64_bound(scheme, arch):
    """A float64 product of the read counts is exact while its sum of
    magnitudes, at most tiles * kq * 2^(coefficient bits - 1) * (2^b - 1)
    for b-bit serial operands, stays within 2^53: 256 full tiles take the
    float64 product, 257 the int64 one.  Every operand is at an extreme of
    its format, each serial one with a coefficient of its sign, three
    positive to one negative, so the magnitudes reach that bound and the
    sum is odd."""
    b, bc, k_hw = 20, 24, 4
    def bound(tiles):
        return (tiles * k_hw << bc - 1) * ((1 << b) - 1)
    assert bound(256) <= 1 << 53 < bound(257)
    for tiles in (256, 257):
        high = np.tile([True, True, True, False], tiles)
        serial = np.where(high, (1 << b - 1) - 1, -(1 << b - 1))[None]
        coef = np.where(high, (1 << bc - 1) - 1, -(1 << bc - 1))[None]
        if scheme is Scheme.A:
            theta, x, b1, b2 = coef, serial.T, b, bc
        else:
            theta, x, b1, b2 = serial, coef.T, bc, b
        bias = np.array([(1 << b2 - 1) - 1])
        cfg = GemmConfig(k_hw=k_hw, l=1, scheme=scheme, arch=arch,
                         b1=b1, b2=b2)
        y, _, _ = gemm_obc(theta, x, bias, cfg)
        assert (y == gemm_oracle(theta, x, bias)).all(), tiles


@pytest.mark.parametrize("kind", ARCHS[:4])
def test_product_in_int64_at_46_bit_coefficients(kind):
    """Past 2^53 even at 2-bit serial operands (46-bit coefficients, wider
    than gemm_obc admits, over 257 tiles), the kernel takes the int64
    product, and the doubled products stay exact."""
    tiles, b, bits = 257, 2, 46
    high = np.tile([True, True, True, False], tiles)
    coef = np.where(high, (1 << bits - 1) - 1, -(1 << bits - 1))
    serial = np.where(high, 1, -2)
    # (patch_len, operands), 4-wide tiles: one coefficient and one serial
    coef_half = _coef_half(coef[:, None], 4, kind, bits)
    serial_half = _serial_half(serial[:, None], 4, kind, b)
    start = -coef_half.sums.sum(axis=0)
    # either half as the weights': the coefficients' start as a column, or
    # as a row
    for *halves, s in ((coef_half, serial_half, start[:, None]),
                       (serial_half, coef_half, start)):
        y2, _ = _product(*halves, (s,))
        assert y2.tolist() == [[2 * sum(map(int, coef * serial))]]


@pytest.mark.parametrize("kind", ARCHS)
def test_product_wraps_mod_2_64_to_an_exact_int64(kind):
    """48-bit coefficients alternate in sign from tile to tile, and each
    pair of tiles reads the same 16-bit serial operands: the terms of the
    int64 product sum past 2^64 in magnitude, so it wraps, but the doubled
    products fit int64, so mod 2^64 they are exact."""
    k_hw, bits, b = 4, 48, 16
    coef = np.repeat(np.tile([(1 << bits - 1) - 1, -(1 << bits - 1)], 8),
                     k_hw)
    serial = np.repeat(_rand((8, 1, k_hw, 3), b, seed=240), 2, axis=1
                       ).reshape(-1, 3)
    coef_half = _coef_half(coef[:, None], k_hw, kind, bits)
    serial_half = _serial_half(serial, k_hw, kind, b)
    full = coef_half.rows[:, 0].astype(np.int64).tolist()
    for counts in serial_half.rows.T.tolist():
        assert sum(abs(f * c) for f, c in zip(full, counts)) > 1 << 64
    start = -coef_half.sums.sum(axis=0)
    want = [2 * sum(c * v for c, v in zip(coef.tolist(), s))
            for s in serial.T.tolist()]
    assert max(map(abs, want)) < 1 << 63
    # either half as the weights': (1, 3) with the coefficients' row, or
    # (3, 1) with their column
    y2, _ = _product(coef_half, serial_half, (start[:, None],))
    assert y2.tolist() == [want]
    y2, _ = _product(serial_half, coef_half, (start,))
    assert y2.tolist() == [[w] for w in want]


@pytest.mark.parametrize("b", [2, 8, 9, 16, 17, 32])
@pytest.mark.parametrize("kind", ARCHS)
def test_serial_counts_are_signed_one_hot_reads(kind, b):
    """At the edges of the 1-, 2- and 4-byte containers, each value mask
    of `_serial_half`, read as a signed integer, is, tile by tile, the sum
    over the slices s of +-2^s (the sign slice negative) at that field
    value in the slice's `piso_schedule` address; the masks run over every
    field's lower-half values, then their complements in the same order.
    The folded count of (field, v) is the signed reads at v minus those
    at ~v, in row v * tiles + t, the row order of `_coef_half`."""
    tiles, kq, n = 3, 8, 7
    fields = field_layout(kind, *padded_layout(kq))
    serial = _rand((tiles, kq, n), b, seed=200 + b)
    lo, hi = -(1 << (b - 1)), (1 << (b - 1)) - 1
    serial[:, :, :3] = np.array([lo, -1, hi])
    serial[:, ::3, 3], serial[:, 1::3, 3] = lo, hi
    halves = sum(1 << w - 1 for _, w, _ in fields)
    got = _serial_half(serial.reshape(tiles * kq, n), kq, kind, b)
    masks = got.masks.view(f"<i{got.masks.itemsize}")
    assert masks.shape == (2 * halves, tiles, n)
    assert got.rows.shape == (halves * tiles, n)
    assert got.rows.dtype == np.float64
    for t, r in np.ndindex(tiles, n):
        reads = [[0] * (1 << w) for _, w, _ in fields]
        for s, address in enumerate(piso_schedule(serial[t, :, r], b)):
            for (start, w, _), read in zip(fields, reads):
                f = address >> (kq - start - w) & ((1 << w) - 1)
                read[f] += -(1 << s) if s == b - 1 else 1 << s
        lower = [v for read in reads for v in read[:len(read) // 2]]
        upper = [v for read in reads for v in read[::-1][:len(read) // 2]]
        assert masks[:, t, r].tolist() == lower + upper, (t, r)
        want = [v - c for v, c in zip(lower, upper)]
        assert got.rows[t::tiles, r].tolist() == want, (t, r)


@pytest.mark.parametrize("kq", [4, 8, 16])
@pytest.mark.parametrize("kind", ARCHS[:4])
def test_fold_full_tables_are_the_naive_lut(kind, kq):
    """`half_signs @ coeffs` (the half sign matrix of `_kernel`) holds
    the lower half of every field's table; read through the mirror (the
    entry at ~v is minus the entry at v) and summed over the fields at an
    address, they give the naive table's entry."""
    coeffs = _rand((kq,), 8, seed=90 + kq)
    fields = field_layout(kind, *padded_layout(kq))
    half = _kernel(kind, kq)[1] @ coeffs
    assert len(half) == sum(1 << w - 1 for _, w, _ in fields)
    address = np.arange(1 << kq)
    value, column = 0, 0
    for start, w, _ in fields:
        f = address >> (kq - start - w) & ((1 << w) - 1)
        index, sign = mirror_read(f, w, True)
        value = value + sign * half[column + index]
        column += 1 << w - 1
    assert value.tolist() == build_naive_lut(coeffs.tolist()).entries


@pytest.mark.parametrize("scheme", [Scheme.A, Scheme.B])
@pytest.mark.parametrize("n, m", [(0, 3), (2, 0), (2, 3)])
def test_gemm_empty_rows_or_columns(scheme, n, m):
    bias = _rand((n,), 8, seed=73)
    cfg = GemmConfig(k_hw=4, l=1, scheme=scheme, arch="hybrid")
    for k in (5, 0):            # a zero-length patch leaves only the bias
        theta, x = _rand((n, k), 8, seed=71), _rand((k, m), 8, seed=72)
        for record in (False, True):
            y, _, tr = gemm_obc(theta, x, bias, cfg, record=record)
            assert y.shape == (n, m)
            assert k or (y == bias[:, None]).all()
            if record:
                assert all(a.shape == (n, m, -(-k // 4), 8)
                           for a in tr.values())


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
    cfg = GemmConfig(k_hw=4, l=1, scheme=Scheme.A, arch="parallel")
    _, _, tr = gemm_obc(theta, x, bias, cfg, record=True)
    # each (n, m, tile) accumulator's start: the LSB slice adds lut << 0
    init = tr["accumulator"][..., 0] - tr["lut_output"][..., 0]
    expected = -theta.reshape(2, 2, 4).sum(axis=2) + np.outer(2 * bias, [0, 1])
    assert (init == expected[:, None, :]).all()


def test_gemm_rejects_bias_outside_b2():
    for bias, b2 in ((1 << 62, 8), (200, 8), (-129, 8), (1 << 31, 32)):
        with pytest.raises(ValueError, match="biases"):
            gemm_obc([[1]], [[1]], [bias], GemmConfig(b2=b2))
    y, _, _ = gemm_obc([[1]], [[1]], [-128], GemmConfig())
    assert y.tolist() == [[-127]]


def test_gemm_oracle_exact_past_int64():
    # 8 * (-2^30)^2 = 2^63, one past the int64 range
    theta = np.full((1, 8), -(1 << 30))
    y = gemm_oracle(theta, theta.T, np.zeros(1, dtype=np.int64))
    assert y[0, 0] == 1 << 63


def test_gemm_validation():
    cfg = GemmConfig(k_hw=4, l=1, b1=8, b2=8)
    with pytest.raises(ValueError):
        gemm_obc(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2), cfg)
    with pytest.raises(ValueError):
        gemm_obc(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(3), cfg)
    with pytest.raises(ValueError):
        gemm_obc(np.full((2, 3), 200), np.zeros((3, 2)), np.zeros(2), cfg)
    with pytest.raises(ValueError, match="k_hw <= 63"):
        gemm_obc(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(2),
                 GemmConfig(k_hw=64), record=True)
    with pytest.raises(ValueError):
        GemmConfig(k_hw=0)
    for arch in ("bogus", "naive"):     # the dense table is verify's alone
        with pytest.raises(ValueError):
            GemmConfig(arch=arch)


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
