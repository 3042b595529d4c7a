"""Tiled OBC GEMM: im2col lowering, PISO bit-serialization, lane accounting.

Matrix products are computed tile-by-tile through the offset-binary
shift-accumulate datapath and must equal the direct integer GEMM oracle
bit-exactly.  One vectorized kernel serves both schemes (Scheme B swaps
which half the weights and the inputs feed).  It is operand-major: R
operands (activations or weight rows) are tiled as (kq, tiles, R),
straight into the dtype of the half they feed, and each half gives a
(halves * tiles, R) array, row v * tiles + t for half-table entry v of
tile t.  The coefficient half holds the lower half of every tile's field
tables (`comet.lut_arch.Layout.tables`; the entry at ~v is minus the one
at v), all tiles in one product with a half sign matrix; the serial half
counts the table reads of all bit-slices at once, with one bit mask per
field value, and folds them onto the lower half, count(v) - count(~v).
One exact product (float64 while its sums stay within 2^53, int64 past
that), the weights' half transposed times the inputs' half, sums the
reads into (N, M) accumulators in both schemes, started at the merged
offset.
The weights' half and start are prepared once per weight set.  With
`record` set, the kernel also returns the per-slice trace that
:func:`comet.obc_ipc.ipc_obc` gives for one tile, for every tile at once.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fxp import FxpFormat, as_int, as_int64, cached_format
from .im2col_addr import LayerConfigWord
from .lut_arch import HYBRID, KINDS, layout
from .obc_ipc import Scheme, merged_offset
# unused here: bench/tracing.py patches these names on this module
from .obc_ipc import IpcProblem, ipc_obc  # noqa: F401


@dataclass(frozen=True)
class GemmConfig:
    """Engine shape: lane IPC length, lane count, scheme, LUT technique and
    widths; k_hw and l go through `as_int`, b1 and b2 through `FxpFormat`
    and the scheme through `Scheme`, so "A" is Scheme A."""

    k_hw: int = 16
    l: int = 10
    scheme: Scheme = Scheme.A
    arch: str = HYBRID          # a LUT technique
    b1: int = 8
    b2: int = 8

    def __post_init__(self):
        checked = {"k_hw": as_int(self.k_hw, "k_hw"), "l": as_int(self.l, "l"),
                   "b1": FxpFormat(self.b1).bits, "b2": FxpFormat(self.b2).bits,
                   "scheme": Scheme(self.scheme)}
        for name, value in checked.items():     # frozen: past the guard
            object.__setattr__(self, name, value)
        if self.k_hw < 1 or self.l < 1:
            raise ValueError("k_hw and l must be positive")
        if self.arch not in KINDS:  # unhashable too, unlike a cache lookup
            raise ValueError(f"unknown LUT kind {self.arch!r}")

    @property
    def serial_bits(self) -> int:
        return self.b1 if self.scheme is Scheme.A else self.b2


def check_operands(theta, x, bias, b1: int, b2: int):
    """One layer's operands through `FxpFormat.check`: (N, patch_len)
    weights and (N,) biases of B2 bits, inputs of any shape of B1 bits;
    ValueError otherwise, or when the layer's sums could leave int64.

    The datapath accumulates in the doubled domain, where every partial sum
    is bounded by patch_len * 2^(B1 + B2 - 1) + 2^B2 (each tile's offset and
    slices add at most 2^B_serial * sum|coefficients|, plus the doubled
    bias); a layer whose bound reaches 2^63 is rejected.  Every B1 <= 16,
    B2 = 8 LeNet layer is far inside it.  `gemm_obc` and the oracle path
    both admit exactly what this admits: `gemm_obc` runs the weight half
    once per weight set and the input half on every call.
    """
    theta, bias = _checked_weights(theta, bias, b2)
    return theta, _checked_inputs(x, theta.shape[1], b1, b2), bias


def _checked_weights(theta, bias, b2: int):
    """The weight half of `check_operands`."""
    fmt_wt = cached_format(b2)
    theta, bias = fmt_wt.check(theta, "weights"), fmt_wt.check(bias, "biases")
    if theta.ndim != 2 or bias.shape != theta.shape[:1]:
        raise ValueError("weights must be (N, patch_len) and biases (N,)")
    return theta, bias


def _checked_inputs(x, patch_len: int, b1: int, b2: int):
    """The input half of `check_operands`: the B1 format and the headroom."""
    x = cached_format(b1).check(x, "inputs")
    if (patch_len << (b1 + b2 - 1)) + (1 << b2) >= 1 << 63:
        raise ValueError(f"a {patch_len}-long patch at B1={b1}, "
                         f"B2={b2} can overflow the int64 accumulator")
    return x


@lru_cache(maxsize=64)
def _im2col_map(cfg: LayerConfigWord) -> np.ndarray:
    """Read-only (Np, M) flat indices into x, c*h*w (one past x) for a pad
    tap: built from the configuration word alone, once per layer."""
    ch, i, j, oh, ow = np.ix_(*map(np.arange, (cfg.c, cfg.kh, cfg.kw,
                                               cfg.h_out, cfg.w_out)))
    r, q = oh * cfg.s + i, ow * cfg.s + j
    index = np.where((r < cfg.h) & (q < cfg.w), (ch * cfg.h + r) * cfg.w + q,
                     cfg.c * cfg.h * cfg.w).reshape(cfg.patch_len, -1)
    index.flags.writeable = False
    return index


_ZERO = np.zeros(1, np.int64)     # what im2col's pad taps read


def im2col(x: np.ndarray, cfg: LayerConfigWord) -> np.ndarray:
    """Flatten convolution patches of `x` (C, H, W) into an (Np, M) matrix.

    Column (oh, ow) holds the channel-major patch at that output position;
    one-sided zero padding extends the bottom/right edge when cfg.p == 1.
    One gather through the layer's cached address map, the pad taps reading
    a zero appended to x; the result is C-contiguous, patch-major.
    """
    x = cfg.check_input(x)
    return np.concatenate((x.reshape(-1), _ZERO))[_im2col_map(cfg)]


def gemm_oracle(theta: np.ndarray, xcols: np.ndarray,
                bias: np.ndarray) -> np.ndarray:
    """Direct integer matrix product: the ground truth for gemm_obc.

    Computed on Python integers, so it is exact at every width.
    """
    theta, xcols, bias = (np.asarray(a).astype(object)
                          for a in (theta, xcols, bias))
    return theta @ xcols + bias[:, None]


def gemm_cycles(n: int, m: int, patch_len: int, cfg: GemmConfig) -> int:
    """Closed-form cycle count: M * tiles * B_serial * ceil(N / L)."""
    n, m = as_int(n, "n"), as_int(m, "m")
    patch_len = as_int(patch_len, "patch_len")
    if min(n, m, patch_len) < 0:
        raise ValueError(f"GEMM shape {(n, m, patch_len)} has a negative size")
    tiles = -(-patch_len // cfg.k_hw)
    return m * tiles * cfg.serial_bits * (-(-n // cfg.l))


def _tiled(cols: np.ndarray, k_hw: int, out: np.ndarray) -> np.ndarray:
    """(patch_len, R) written tile by tile into the zeroed (width, tiles, R)
    `out`, in its dtype, zeros after the values; returns `out`."""
    (n, r), full = cols.shape, cols.shape[0] // k_hw
    out[:k_hw, :full] = cols[:full * k_hw].reshape(full, k_hw, r) \
        .transpose(1, 0, 2)
    if n > full * k_hw:         # the tail: the last tile's first values
        out[:n - full * k_hw, full] = cols[full * k_hw:]
    return out


def gemm_obc(theta: np.ndarray, xcols: np.ndarray, bias: np.ndarray,
             cfg: GemmConfig, record: bool = False):
    """OBC GEMM: Y[n, m] = sum_k theta[n, k] * xcols[k, m] + bias[n].

    Each patch is cut into k_hw-wide tiles; every tile runs one
    shift-accumulate pass with its own offset initialization, and the
    doubled bias joins the last tile's offset only: summed over the tiles,
    accumulator (n, m) starts at `merged_offset(theta[n], bias[n])`.  Returns
    (Y, cycles, traces); traces is None unless `record` is set, and then
    maps "address", "lut_output" and "accumulator" to int64 arrays of
    shape (N, M, tiles, B_serial), LSB slice first.  Addresses are int64,
    so recording needs k_hw <= 63.

    Operands pass both halves of `check_operands` (formats, shapes and
    int64 headroom); one table kernel serves both schemes, Scheme B
    swapping which half each operand feeds.  The weight side (the checked
    weights, their half of the kernel and their term of the start value)
    comes from `_weight_side`, keyed by content, so a weight set is
    prepared once however many images go through it.  Y is a fresh
    C-contiguous int64 (N, M) array in both schemes.
    """
    theta, bias, half, start = _weight_side(
        _content(theta, "weights"), _content(bias, "biases"), cfg.scheme,
        cfg.arch, cfg.k_hw, cfg.b2)
    xcols = _checked_inputs(xcols, theta.shape[1], cfg.b1, cfg.b2)
    if xcols.ndim != 2 or theta.shape[1] != xcols.shape[0]:
        raise ValueError("theta (N,Np) and xcols (Np,M) shapes inconsistent")
    if record and cfg.k_hw > 63:
        raise ValueError(f"trace addresses are int64: recording needs "
                         f"k_hw <= 63, got {cfg.k_hw}")
    k_hw = cfg.k_hw if record else None
    if cfg.scheme is Scheme.A:
        serial = _serial_half(xcols, cfg.k_hw, cfg.arch, cfg.b1)
        y2, trace = _product(half, serial, (start,), k_hw)
    else:
        coef = _coef_half(xcols, cfg.k_hw, cfg.arch, cfg.b1)
        y2, trace = _product(half, coef, (start, -np.add.reduce(xcols)),
                             k_hw)
    assert not np.bitwise_or.reduce(y2, axis=None) & 1, \
        "doubled-domain result must be even"
    if record:                  # a zero-length patch has no last tile
        trace["accumulator"][:, :, -1:] += 2 * bias[:, None, None, None]
    cycles = gemm_cycles(len(theta), xcols.shape[1], theta.shape[1], cfg)
    return np.right_shift(y2, 1, out=y2), cycles, trace


def _content(a, what: str):
    """(dtype, shape, bytes): a hashable key that changes with any value."""
    a = np.asarray(a)
    if a.dtype.hasobject:       # the bytes of an object array are pointers
        a = as_int64(a, what)
    return a.dtype, a.shape, a.tobytes()


# The LeNet-5m grid holds 48 weight sides (6 layers x 2 schemes x 4
# techniques, shared by B1 8 and 16): a smaller bound misses on every call.
@lru_cache(maxsize=64)
def _weight_side(theta, bias, scheme, arch, k_hw, b2):
    """(theta, bias, half, start) for the `_content` keys of the weights and
    biases: both through `_checked_weights`, the weights' half of
    `_product` (the coefficient half in Scheme A, the serial half in
    Scheme B), and their term of its start value, an (N, 1) column:
    Scheme A's merged offset per row, or Scheme B's doubled bias.
    Every array is read-only: callers share them."""
    theta, bias = _checked_weights(*(np.frombuffer(data, dtype).reshape(shape)
                                     for dtype, shape, data in (theta, bias)),
                                   b2)
    if scheme is Scheme.A:      # builtin sum over theta.T: one per row
        half = _coef_half(theta.T, k_hw, arch, b2)
        start = merged_offset(theta.T, bias)[:, None]
    else:
        half, start = _serial_half(theta.T, k_hw, arch, b2), 2 * bias[:, None]
    for a in (theta, bias, *half[:-1], start):
        a.flags.writeable = False
    return theta, bias, half, start


@lru_cache(maxsize=64)
def _kernel(arch, k_hw):
    """(kq, signs, lit) of a (technique, k_hw) layout, read-only: the
    padded width, the (halves, kq) half sign matrix (per field, the lower
    half of `Layout.tables`' full table over the rows of eye(kq)) and the
    mask literals (per field operand, MSB first, an operand of [~u, u]) of
    the lower-half values field by field, then of their complements."""
    lay = layout(arch, k_hw)
    kq = lay.padded
    signs = np.concatenate([f[:len(f) // 2]
                            for f in lay.tables(list(np.eye(kq)))])
    half = [(v, s, w) for s, w, _ in lay.fields for v in range(1 << w - 1)]
    f, start, w = (np.array(a) for a in zip(
        *half, *((v ^ (1 << w) - 1, s, w) for v, s, w in half)))
    # a narrower field repeats its last operand: AND ignores the repeat
    j = np.minimum(np.arange(w.max()), w[:, None] - 1)
    lit = start[:, None] + j + kq * (f[:, None] >> (w[:, None] - 1 - j) & 1)
    for a in (signs, lit):
        a.flags.writeable = False
    return kq, signs, lit.T


class _CoefHalf(NamedTuple):
    """The coefficient side of `_product`, from (patch_len, P) operands."""

    rows: np.ndarray    # (halves * tiles, P) float64: lower half tables
    tiled: np.ndarray   # (kq, tiles, P) float64: the zero-padded operands
    bits: int           # the operands are at most this wide

    @property
    def sums(self) -> np.ndarray:
        """(tiles, P) int64: each tile's sum of coefficients."""
        return np.add.reduce(self.tiled).astype(np.int64)


class _SerialHalf(NamedTuple):
    """The serial side of `_product`, from (patch_len, Q) operands."""

    rows: np.ndarray    # (halves * tiles, Q) float64: folded read counts
    u: np.ndarray       # (kq, tiles, Q) unsigned b-bit patterns
    masks: np.ndarray   # (2 * halves, tiles, Q): bit s set where slice s reads
    bits: int           # b: the operands are b-bit two's complement


def _coef_half(cols, k_hw, arch, bits) -> _CoefHalf:
    """Tile the operands into float64 (exact for them and each tile's sum;
    one cast when they fill every tile, as at kq == k_hw with no tail) and
    fill every tile's half tables (per field, the entries at values of
    MSB 0) by one product with the layout's half sign matrix: row
    v * tiles + t holds half-table entry v of tile t."""
    kq, signs, _ = _kernel(arch, k_hw)
    tiles, n_coef = -(-len(cols) // k_hw), cols.shape[1]
    coef = cols.reshape(tiles, kq, n_coef).transpose(1, 0, 2) \
        .astype(np.float64, order="C") if tiles * kq == len(cols) else \
        _tiled(cols, k_hw, np.zeros((kq, tiles, n_coef), np.float64))
    rows = signs @ coef.reshape(kq, tiles * n_coef)     # (halves, tiles * P)
    return _CoefHalf(rows.reshape(len(signs) * tiles, n_coef), coef, bits)


def _serial_half(cols, k_hw, arch, b) -> _SerialHalf:
    """Tile the serial operands straight into the upper half of the literal
    array [~u, u] as b-bit patterns u (unsigned, only the bytes b needs),
    invert them into its lower half, and slice them LSB first, the sign slice
    weighing negative.  The AND over a field's operands of u or ~u is, per
    field value, a mask whose bit s is set exactly where slice s reads that
    value.  In a pattern every bit from b-1 up copies the sign slice, and
    AND and NOT keep that, so a mask read as a signed integer of its
    container is the b-bit two's-complement value's signed read count: the
    sum of +-2^s over its slices.  A table entry at ~v is minus the one
    at v, so the counts fold onto the lower half: count(v) - count(~v) in
    a container twice as wide, then float64 (exact below 2^33), in the
    row order of `_coef_half`."""
    kq, _, lit = _kernel(arch, k_hw)
    size = (1, 2, 4, 4)[(b - 1) // 8]
    tiles, n_serial = -(-len(cols) // k_hw), cols.shape[1]
    lits = np.zeros((2 * kq, tiles, n_serial), f"<u{size}")   # [~u, u]
    u = _tiled(cols, k_hw, lits[kq:])           # two's complement wraps
    np.invert(u, out=lits[:kq])
    masks = np.bitwise_and.reduce(lits.take(lit, axis=0), axis=0)
    signed, h = masks.view(f"<i{size}"), lit.shape[1] // 2
    counts = np.subtract(signed[:h], signed[h:], dtype=f"<i{2 * size}")
    return _SerialHalf(counts.astype(np.float64).reshape(h * tiles, n_serial),
                       u, masks, b)


def _product(weights, inputs, start, k_hw=None):
    """Doubled accumulators (N, M), C-contiguous, started at the sum of
    the `start` arrays: the weights' half (N operands) transposed times
    the inputs' half (M operands), one a `_CoefHalf`, the other a
    `_SerialHalf` with the same row order.

    One product of the half tables T with the folded read counts sums the
    reads (sum_v T[v] c[v] over the lower half of T[v] (c[v] - c[~v])),
    then the start goes in place: with -sum(coef) as the start, they are
    the doubled products 2 * sum(coef * serial).

    The float64 product is exact while the magnitudes bounding every
    partial sum stay within 2^53: a table entry sums at most 4
    coefficients (below 2^(coef.bits+1)), a slice reads one value per
    field, so a field's folded counts sum to at most 2^b - 1 in magnitude,
    and a tile adds at most kq * 2^(coef.bits-1) * (2^b - 1).  Past that
    bound the product is taken in int64 instead: it may wrap, but is exact
    mod 2^64, and `check_operands` keeps the doubled result within int64.

    Returns (products, trace).  The trace is None unless `k_hw` (the
    unpadded tile width, at most 63) is given; then it holds int64 arrays
    of shape (N, M, tiles, b), LSB slice first: each tile's k_hw-bit PISO
    `address`, the `lut_output` read from the half tables through the
    mask bits (the bit at v less the bit at ~v), and the `accumulator`
    after the slice, started at -sum(coef) of the tile.
    """
    coef, serial = (weights, inputs) if isinstance(weights, _CoefHalf) \
        else (inputs, weights)
    _, tiles, n_coef = coef.tiled.shape
    b, kq, h = serial.bits, serial.u.shape[0], serial.masks.shape[0] // 2
    if (tiles * kq << coef.bits - 1) * ((1 << b) - 1) <= 1 << 53:
        y2 = (weights.rows.T @ inputs.rows).astype(np.int64)
    else:
        y2 = weights.rows.astype(np.int64).T @ inputs.rows.astype(np.int64)
    for s in start:
        y2 += s
    if k_hw is None:
        return y2, None
    # (Q, tiles, b, kq + 2 * h): the pattern bits, then the mask bits
    bits = np.unpackbits(np.concatenate((serial.u, serial.masks))
                         [..., None].view(np.uint8), axis=-1, count=b,
                         bitorder="little").transpose(2, 1, 3, 0)
    address = bits[..., :k_hw] @ (1 << np.arange(k_hw - 1, -1, -1))
    reads = bits[..., kq:kq + h].astype(np.int8) - bits[..., kq + h:]
    lut_output = np.einsum("vtp,qtsv->pqts", coef.rows.astype(np.int64)
                           .reshape(h, tiles, n_coef), reads)
    weight = np.append(1 << np.arange(b - 1), -(1 << (b - 1)))
    accumulator = np.cumsum(lut_output * weight, axis=-1) \
        - coef.sums.T[:, None, :, None]
    trace = {"address": np.broadcast_to(address, (n_coef, *address.shape)),
             "lut_output": lut_output, "accumulator": accumulator}
    if coef is inputs:          # (M, N, ...): the weights are serial
        trace = {k: v.transpose(1, 0, 2, 3) for k, v in trace.items()}
    return y2, trace
