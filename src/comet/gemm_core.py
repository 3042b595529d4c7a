"""Tiled OBC GEMM: im2col lowering, PISO bit-serialization, lane accounting.

Matrix products are computed tile-by-tile through the offset-binary
shift-accumulate datapath and must equal the direct integer GEMM oracle
bit-exactly.  Two engines share that contract:

* a scalar reference engine built on :func:`comet.obc_ipc.ipc_obc`, which
  produces per-slice traces, and
* a vectorized engine that builds each tile's stored field tables (the
  layout `comet.lut_arch.field_layout` gives per technique) with numpy
  and reads them for every bit-slice of every serial operand at once.
  One kernel serves both schemes: Scheme B is Scheme A with the
  coefficient and serial operands swapped and the result transposed.
  It is the default because full-model inference would otherwise be
  impractically slow.

Both are cross-checked in the test suite; `record=True` selects the
scalar engine.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fxp import FxpFormat
from .im2col_addr import LayerConfigWord
from .lut_arch import HYBRID, KINDS, PARALLEL, field_entries, field_layout, \
    mirror_read, padded_layout
from .obc_ipc import IpcProblem, Scheme, ipc_obc, piso_schedule  # noqa: F401


@dataclass(frozen=True)
class GemmConfig:
    """Engine shape: lane IPC length, lane count, scheme, LUT technique."""

    k_hw: int = 16
    l: int = 10
    scheme: Scheme = Scheme.A
    arch: str | None = HYBRID   # None = naive dense table
    b1: int = 8
    b2: int = 8

    def __post_init__(self):
        if self.k_hw < 1 or self.l < 1:
            raise ValueError("k_hw and l must be positive")
        if self.arch is not None and self.arch not in KINDS + ("naive",):
            raise ValueError(f"unknown LUT technique {self.arch!r}")

    @property
    def serial_bits(self) -> int:
        return self.b1 if self.scheme is Scheme.A else self.b2


@dataclass(frozen=True)
class TilePlan:
    """How a patch of length `patch_len` is cut into k_hw-wide tiles."""

    patch_len: int
    k_hw: int
    tiles: int
    tail_pad: int

    @classmethod
    def for_patch(cls, patch_len: int, k_hw: int) -> "TilePlan":
        tiles = -(-patch_len // k_hw)
        return cls(patch_len, k_hw, tiles, tiles * k_hw - patch_len)


def im2col(x: np.ndarray, cfg: LayerConfigWord) -> np.ndarray:
    """Flatten convolution patches of `x` (C, H, W) into an (Np, M) matrix.

    Column (oh, ow) holds the channel-major patch at that output position;
    one-sided zero padding extends the bottom/right edge when cfg.p == 1.
    """
    x = np.asarray(x)
    if x.shape != (cfg.c, cfg.h, cfg.w):
        raise ValueError(f"input shape {x.shape} != {(cfg.c, cfg.h, cfg.w)}")
    if cfg.p:
        x = np.pad(x, ((0, 0), (0, cfg.p), (0, cfg.p)))
    win = sliding_window_view(x, (cfg.kh, cfg.kw), axis=(1, 2))
    win = win[:, ::cfg.s, ::cfg.s][:, :cfg.h_out, :cfg.w_out]  # (C,Ho,Wo,kh,kw)
    return win.transpose(0, 3, 4, 1, 2).reshape(cfg.patch_len, -1) \
        .astype(np.int64)


def gemm_oracle(theta: np.ndarray, xcols: np.ndarray,
                bias: np.ndarray) -> np.ndarray:
    """Direct integer matrix product: the ground truth for gemm_obc."""
    theta = np.asarray(theta, dtype=np.int64)
    xcols = np.asarray(xcols, dtype=np.int64)
    bias = np.asarray(bias, dtype=np.int64)
    return theta @ xcols + bias[:, None]


def gemm_cycles(n: int, m: int, patch_len: int, cfg: GemmConfig) -> int:
    """Closed-form cycle count: M * tiles * B_serial * ceil(N / L)."""
    tiles = -(-patch_len // cfg.k_hw)
    return m * tiles * cfg.serial_bits * (-(-n // cfg.l))


def _pad_cols(a: np.ndarray, rows: int) -> np.ndarray:
    if a.shape[0] == rows:
        return a
    return np.pad(a, ((0, rows - a.shape[0]),) + ((0, 0),) * (a.ndim - 1))


def gemm_obc(theta: np.ndarray, xcols: np.ndarray, bias: np.ndarray,
             cfg: GemmConfig, record: bool = False):
    """OBC GEMM: Y[n, m] = sum_k theta[n, k] * xcols[k, m] + bias[n].

    Each patch is cut into k_hw-wide tiles; every tile runs one
    shift-accumulate pass with its own offset initialization, and the
    doubled bias joins the last tile's offset only.  Returns
    (Y, cycles, traces); traces is None unless `record` is set.

    Both engines accumulate in int64 in the doubled domain, where every
    partial sum is bounded by patch_len * 2^(B1 + B2 - 1) + 2^B2 (each
    tile's offset and slices add at most 2^B_serial * sum|coefficients|,
    plus the doubled bias).  A call whose bound reaches 2^63 raises
    ValueError; every B1 <= 16, B2 = 8 LeNet layer is far inside it.
    """
    theta = np.asarray(theta, dtype=np.int64)
    xcols = np.asarray(xcols, dtype=np.int64)
    bias = np.asarray(bias, dtype=np.int64)
    if theta.ndim != 2 or xcols.ndim != 2 or theta.shape[1] != xcols.shape[0]:
        raise ValueError("theta (N,Np) and xcols (Np,M) shapes inconsistent")
    n_out, patch_len = theta.shape
    m_out = xcols.shape[1]
    if bias.shape != (n_out,):
        raise ValueError("bias must have one entry per output row")
    fmt_in, fmt_wt = FxpFormat(cfg.b1), FxpFormat(cfg.b2)
    if theta.size and not (theta.min() >= fmt_wt.min_value
                           and theta.max() <= fmt_wt.max_value):
        raise ValueError(f"weights exceed the {cfg.b2}-bit format")
    if xcols.size and not (xcols.min() >= fmt_in.min_value
                           and xcols.max() <= fmt_in.max_value):
        raise ValueError(f"inputs exceed the {cfg.b1}-bit format")
    if (patch_len << (cfg.b1 + cfg.b2 - 1)) + (1 << cfg.b2) >= 1 << 63:
        raise ValueError(f"a {patch_len}-long patch at B1={cfg.b1}, "
                         f"B2={cfg.b2} can overflow the int64 accumulator")

    plan = TilePlan.for_patch(patch_len, cfg.k_hw)
    cycles = gemm_cycles(n_out, m_out, patch_len, cfg)
    if record:
        y, traces = _gemm_scalar(theta, xcols, bias, cfg, plan,
                                 fmt_in, fmt_wt)
        return y, cycles, traces
    return _gemm_vectorized(theta, xcols, bias, cfg, plan), cycles, None


def _gemm_scalar(theta, xcols, bias, cfg, plan, fmt_in, fmt_wt):
    """Reference engine: one ipc_obc call per (row, column, tile)."""
    n_out, m_out = theta.shape[0], xcols.shape[1]
    k = plan.k_hw
    tpad = _pad_cols(theta.T, plan.tiles * k).T.tolist()
    xpad = _pad_cols(xcols, plan.tiles * k).tolist()
    y = np.zeros((n_out, m_out), dtype=np.int64)
    traces = {}
    arch = None if cfg.arch == "naive" else cfg.arch
    for n in range(n_out):
        for m in range(m_out):
            acc = 0
            for t in range(plan.tiles):
                w_tile = [tpad[n][i] for i in range(t * k, (t + 1) * k)]
                x_tile = [xpad[i][m] for i in range(t * k, (t + 1) * k)]
                tile_bias = int(bias[n]) if t == plan.tiles - 1 else 0
                prob = IpcProblem.from_vectors(
                    w_tile, x_tile, tile_bias, cfg.scheme, fmt_in, fmt_wt)
                res, trace = ipc_obc(prob, arch, record=True)
                acc += res
                traces[(n, m, t)] = trace
            y[n, m] = acc
    return y, traces


def _gemm_vectorized(theta, xcols, bias, cfg, plan):
    """Vectorized engine: one table kernel for both schemes."""
    k = plan.k_hw
    kq, q = padded_layout(k)
    # naive stays on the parallel layout: a dense 2^k_hw table per column
    # would not fit in memory for Scheme B
    kind = PARALLEL if cfg.arch in (None, "naive") else cfg.arch
    fields = field_layout(kind, kq, q)

    def tiled(rows):   # (R, patch_len) -> (R, tiles, kq), zero-padded
        rows = np.pad(rows, ((0, 0), (0, plan.tail_pad)))
        return np.pad(rows.reshape(len(rows), plan.tiles, k),
                      ((0, 0), (0, 0), (0, kq - k)))

    w_rows, x_rows = tiled(theta), tiled(xcols.T)
    if cfg.scheme is Scheme.A:
        y2 = _obc_kernel(w_rows, x_rows, cfg.b1, fields)
    else:
        y2 = _obc_kernel(x_rows, w_rows, cfg.b2, fields).T
    y2 = y2 + 2 * bias[:, None]
    assert not np.any(y2 & 1), "doubled-domain result must be even"
    return y2 >> 1


def _obc_kernel(coef, serial, b, fields):
    """Doubled products 2 * sum(coef[p] * serial[q]) over all tiles: (P, Q).

    `coef` (P, tiles, kq) fills one set of stored field tables per row and
    tile; `serial` (Q, tiles, kq) is bit-sliced LSB first over `b` cycles,
    the sign slice accumulated negated.  The field addresses of every
    slice are formed at once.  Each read adds its slice weight to a count
    per (serial row, stored entry), negated reads to a second block that
    is subtracted, and one product with the tables sums them.
    """
    n_coef, tiles, kq = coef.shape
    n_serial = serial.shape[0]
    cols = list(np.moveaxis(coef, -1, 0))
    tables = np.concatenate(
        [np.stack(field_entries(cols[s:s + w], m), axis=-1)
         for s, w, m in fields], axis=-1).reshape(n_coef, -1)
    n_stored = tables.shape[1]          # tiles * stored entries per tile
    start, width, mirrored = (np.array(v) for v in zip(*fields))
    # field values per (serial row, tile, field, slice), kept as bytes:
    # operands fit 32 bits and fields here are at most 4 bits wide
    bits = np.unpackbits(serial.astype("<u4")[..., None].view(np.uint8),
                         axis=-1, bitorder="little")[..., :b]
    place = np.repeat(start + width - 1, width) - np.arange(kq)
    bits <<= place.astype(np.uint8)[:, None]
    f = np.add.reduceat(bits, start, axis=2, dtype=np.uint8)
    index, sign = mirror_read(f, width.astype(np.int8)[:, None],
                              mirrored.astype(np.int8)[:, None])
    # flat index into `reads` (serial row, +/- block, tile, entry);
    # int32 suffices, as `reads` itself must fit in memory
    size = np.array([1 << (w - m) for _, w, m in fields])
    index = index.astype(np.int32)
    index += ((np.cumsum(size) - size)[:, None]
              + np.arange(0, n_stored, n_stored // tiles)[:, None, None]
              + np.arange(n_serial)[:, None, None, None] * (2 * n_stored)
              ).astype(np.int32) + (sign < 0) * np.int32(n_stored)
    reads = np.zeros(n_serial * 2 * n_stored, dtype=np.int64)
    for shift in range(b):
        weight = -(1 << shift) if shift == b - 1 else 1 << shift
        np.add.at(reads, index[..., shift].ravel(), weight)
    reads = reads.reshape(n_serial, 2, n_stored)
    reads = reads[:, 0] - reads[:, 1]
    return -coef.sum(axis=(1, 2))[:, None] + tables @ reads.T
