"""Modified LeNet-5 as a fixed-point graph lowered onto the OBC GEMM core.

The built-in model replaces average pooling with stride-2 convolutions,
tanh with ReLU, and the large dense layers with global average pooling
plus a compact classifier.  Every convolution and dense layer runs as
im2col + tiled OBC GEMM; a direct sliding-window oracle with identical
requantization provides the ground truth the DA path must match exactly.

Inter-layer requantization is a fixed per-layer arithmetic right shift
with round-half-away-from-zero, then saturation back to the B1-wide
activation format.  Applied after exact accumulation, it keeps the DA
and oracle paths trivially identical.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .fxp import FxpFormat, as_int, as_int64, cached_format
from .gemm_core import GemmConfig, check_operands, gemm_cycles, gemm_obc, \
    im2col
from .im2col_addr import LayerConfigWord


@dataclass(frozen=True)
class LayerSpec:
    """One model layer: a convolution, global average pool, or dense layer.
    Its GEMM shapes are cached per instance, outside the compared fields."""

    kind: str                        # "conv" | "gap" | "fc"
    cfg: LayerConfigWord | None = None
    in_features: int = 0             # fc only
    out_features: int = 0            # fc only
    act: str | None = None           # "relu" or None
    shift: int = 0                   # post-accumulation right shift

    @cached_property
    def weight_shape(self) -> tuple[int, ...]:
        """(N, C, kh, kw) for a convolution, (out, in) for a dense layer."""
        if self.kind == "conv":
            c = self.cfg
            return (c.n, c.c, c.kh, c.kw)
        if self.kind == "fc":
            return (self.out_features, self.in_features)
        raise ValueError("gap layers have no weights")

    @cached_property
    def out_shape(self) -> tuple[int, ...]:
        """(N, H_out, W_out) for a convolution, (out,) for a dense layer."""
        if self.kind == "conv":
            return (self.cfg.n, self.cfg.h_out, self.cfg.w_out)
        return self.weight_shape[:1]

    @cached_property
    def patch_len(self) -> int:
        """GEMM inner dimension; a dense layer is the 1x1 im2col case."""
        return math.prod(self.weight_shape[1:])


@dataclass(frozen=True)
class ModelSpec:
    layers: tuple[LayerSpec, ...]
    b1: int
    b2: int

    def manifest(self) -> dict:
        """JSON-ready description of layers, shapes, and shifts."""
        out = {"b1": self.b1, "b2": self.b2, "layers": []}
        for i, lay in enumerate(self.layers):
            d = {"index": i, "kind": lay.kind, "act": lay.act,
                 "shift": lay.shift}
            if lay.kind == "conv":
                c = lay.cfg
                d.update(c_in=c.c, kh=c.kh, kw=c.kw, stride=c.s, pad=c.p,
                         c_out=c.n, h=c.h, w=c.w,
                         h_out=c.h_out, w_out=c.w_out)
            elif lay.kind == "fc":
                d.update(in_features=lay.in_features,
                         out_features=lay.out_features)
            out["layers"].append(d)
        return out


def _conv_shift(patch_len: int, b2: int) -> int:
    # tracks accumulator growth (weight magnitude times sqrt of the fan-in).
    # (B1, B2) = (4, 4) collapses: 72 of 80 runs give all-zero logits (seed
    # 42 weights, inputs 0-9, 2 schemes x 4 LUTs); (8|16, 4) and B2 = 8: none
    return max(0, b2 - 2 + math.ceil(math.log2(patch_len)) // 2)


def build_modified_lenet5(b1: int = 8, b2: int = 8) -> ModelSpec:
    """The seven-layer modified LeNet-5 for 1x32x32 inputs."""
    FxpFormat(b1), FxpFormat(b2)  # validate widths

    def conv(c, k, s, p, n, h, w):
        cfg = LayerConfigWord(c=c, kh=k, kw=k, s=s, p=p, n=n, b=b1, h=h, w=w)
        return LayerSpec("conv", cfg=cfg, act="relu",
                         shift=_conv_shift(cfg.patch_len, b2))

    layers = (
        conv(1, 5, 1, 0, 6, 32, 32),    # -> 6 x 28 x 28
        conv(6, 3, 2, 1, 6, 28, 28),    # -> 6 x 14 x 14 (strided, padded)
        conv(6, 5, 1, 0, 16, 14, 14),   # -> 16 x 10 x 10
        conv(16, 3, 2, 1, 16, 10, 10),  # -> 16 x 5 x 5 (strided, padded)
        LayerSpec("gap"),               # -> 16
        LayerSpec("fc", in_features=16, out_features=32, act="relu",
                  shift=_conv_shift(16, b2)),
        LayerSpec("fc", in_features=32, out_features=10, act=None,
                  shift=_conv_shift(32, b2)),
    )
    return ModelSpec(layers, b1, b2)


def requantize(acc: np.ndarray, shift: int, b1: int,
               act: str | None = None) -> np.ndarray:
    """Right-shift with round-half-away-from-zero, saturate to B1, then
    apply `act` ("relu" or None; others raise ValueError).

    Rounding is monotone, so the saturation and the ReLU go first, as one
    clip to the bounds scaled by 2^shift; then the rounding half (less one
    below zero) is added and the shift is arithmetic, in place.  Where B1 +
    shift >= 62 the scaled bounds could leave int64, so the magnitude is
    rounded unsigned first.  Exact for every shift in 0..63; a shift that
    `as_int` rejects (a bool, 2.5, "2") or outside 0..63 raises ValueError.
    The input is never written."""
    shift = as_int(shift, "requantize shift")
    if not 0 <= shift <= 63:
        raise ValueError(f"requantize shift {shift} outside 0..63")
    if act not in (None, "relu"):
        raise ValueError(f"unknown activation {act!r}")
    acc = as_int64(acc, "accumulators")
    fmt = cached_format(b1)
    lo, hi = (0 if act else fmt.min_value), fmt.max_value
    if b1 + shift >= 62:        # so shift >= 30
        mag = ((np.abs(acc).astype(np.uint64) >> (shift - 1)) + 1) >> 1
        acc, shift = np.sign(acc) * mag.astype(np.int64), 0
    y = np.maximum(acc, lo << shift)
    y = np.minimum(y, hi << shift, out=y if y.ndim else None)
    if shift > 0:
        if lo < 0:
            y -= y < 0
        y += 1 << (shift - 1)
        y >>= shift
    return y


def _gap(x: np.ndarray) -> np.ndarray:
    """Rounded-to-nearest integer mean per channel (half away from zero)."""
    s = x.reshape(x.shape[0], -1).sum(axis=1, dtype=np.int64)
    n = x.shape[1] * x.shape[2]
    mag = (np.abs(s) * 2 + n) // (2 * n)
    return np.sign(s) * mag


@dataclass
class InferResult:
    logits: list[int]
    argmax: int
    total_cycles: int
    layer_outputs: list[np.ndarray] = field(default_factory=list)
    traces: list = field(default_factory=list)


def _check_weights(model: ModelSpec, weights) -> None:
    """Reject missing layers, weights keyed by an index that is not a conv
    or dense layer, and shapes other than the layer's; each layer's product
    checks the values (`check_operands`)."""
    gemm = [i for i, lay in enumerate(model.layers) if lay.kind != "gap"]
    extra = [i for i in weights if i not in gemm]
    if extra:
        raise ValueError(f"weights keyed {extra} name no conv or dense layer")
    for i in gemm:
        lay = model.layers[i]
        if i not in weights:
            raise ValueError(f"layer {i} has no weights")
        lw = weights[i]
        if (lw.weight.shape != lay.weight_shape
                or lw.bias.shape != lay.out_shape[:1]):
            raise ValueError(f"layer {i} weight/bias shape mismatch")


def _walk(model: ModelSpec, weights, x: np.ndarray, matmul) -> list:
    """Run every layer and return each layer's output.

    `matmul(layer, act, weight, bias)` checks a conv or dense layer's
    operands and gives its accumulators in `layer.out_shape`; pooling,
    requantization and the activation are the same for every caller.
    """
    _check_weights(model, weights)
    act = cached_format(model.b1).check(x, "inputs")
    outputs = []
    for i, lay in enumerate(model.layers):
        if lay.kind == "gap":
            act = _gap(act)
        else:
            lw = weights[i]
            y = matmul(lay, act, lw.weight, lw.bias)
            act = requantize(y, lw.shift, model.b1, lay.act)
        outputs.append(act)
    return outputs


def infer(model: ModelSpec, weights, x: np.ndarray, gemm_cfg: GemmConfig,
          record: bool = False) -> InferResult:
    """Run the model through the OBC GEMM datapath.

    `weights` maps layer index to an object with `.weight`, `.bias` and
    `.shift` attributes (see tensor_io.WeightBundle).
    """
    cfg = _with_widths(gemm_cfg, model.b1, model.b2)
    cycles, traces = [], []

    def matmul(lay, act, w, b):
        cols = im2col(act, lay.cfg) if lay.kind == "conv" \
            else act.reshape(-1, 1)
        y, n_cycles, tr = gemm_obc(w.reshape(len(w), -1), cols, b, cfg,
                                   record=record)
        cycles.append(n_cycles)
        traces.append(tr)
        return y.reshape(lay.out_shape)

    outputs = _walk(model, weights, x, matmul)
    logits = outputs[-1]
    return InferResult(logits.tolist(), int(logits.argmax()),
                       sum(cycles), outputs, traces)


def infer_oracle(model: ModelSpec, weights, x: np.ndarray) -> list[int]:
    """Direct sliding-window / dense evaluation with identical rescaling,
    admitting exactly the operands `gemm_obc` admits (`check_operands`)."""
    def matmul(lay, act, w, b):
        theta, act, b = check_operands(w.reshape(len(w), -1), act, b,
                                       model.b1, model.b2)
        if lay.kind == "conv":
            return conv_direct(act, theta.reshape(w.shape), b, lay.cfg)
        return theta @ act.reshape(-1) + b

    return [int(v) for v in _walk(model, weights, x, matmul)[-1]]


def _magnitude(a: np.ndarray) -> int:
    """max |a| as a Python integer (0 when empty): two reductions."""
    return max(-int(a.min()), int(a.max())) if a.size else 0


def conv_direct(x: np.ndarray, w: np.ndarray, bias: np.ndarray,
                cfg: LayerConfigWord) -> np.ndarray:
    """Sliding-window convolution (no im2col, no GEMM core): one product of
    the (N, C*kh*kw) weights with the strided window view of the input,
    padded at the bottom and right, laid out (C*kh*kw, H_out*W_out).

    The product's sums are bounded by C*kh*kw * max|x| * max|w| +
    max|bias|.  Below 2^53 it is a float64 (BLAS) product, exact there;
    below 2^63 an int64 one; past that it is on Python integers (an object
    array), so the result is exact at every width.  Operands go through
    `as_int64`; an input other than (C, H, W), weights other than
    (N, C, kh, kw) or biases other than (N,) raise ValueError.
    """
    x = cfg.check_input(x)
    w, bias = as_int64(w, "weights"), as_int64(bias, "biases")
    if w.shape != (cfg.n, cfg.c, cfg.kh, cfg.kw) or bias.shape != (cfg.n,):
        raise ValueError(f"weights must be {(cfg.n, cfg.c, cfg.kh, cfg.kw)} "
                         f"and biases {(cfg.n,)}")
    bound = cfg.patch_len * _magnitude(x) * _magnitude(w) + _magnitude(bias)
    dtype = np.float64 if bound < 1 << 53 else np.int64
    padded = np.zeros((cfg.c, cfg.h + cfg.p, cfg.w + cfg.p), dtype)
    padded[:, :cfg.h, :cfg.w] = x
    sc, sh, sw = padded.strides          # (C, kh, kw, H_out, W_out) windows
    windows = np.ndarray((cfg.c, cfg.kh, cfg.kw, cfg.h_out, cfg.w_out),
                         dtype, padded, 0,
                         (sc, sh, sw, sh * cfg.s, sw * cfg.s))
    w, cols = w.reshape(cfg.n, -1).astype(dtype, copy=False), \
        windows.reshape(cfg.patch_len, -1)
    if bound >= 1 << 63:
        w, cols, bias = (a.astype(object) for a in (w, cols, bias))
    y = (w @ cols).astype(bias.dtype, copy=False)     # float64 to int64
    y += bias[:, None]
    return y.reshape(cfg.n, cfg.h_out, cfg.w_out)


@lru_cache(maxsize=64)
def _with_widths(cfg: GemmConfig, b1: int, b2: int) -> GemmConfig:
    """`cfg` at a model's widths; `replace` re-checks every field, so it
    runs once per (config, widths)."""
    return replace(cfg, b1=b1, b2=b2)


def model_cycles(model: ModelSpec, gemm_cfg: GemmConfig) -> int:
    """Closed-form cycle total over the GEMM-lowered layers."""
    cfg = _with_widths(gemm_cfg, model.b1, model.b2)
    return sum(gemm_cycles(lay.out_shape[0], math.prod(lay.out_shape[1:]),
                           lay.patch_len, cfg)
               for lay in model.layers if lay.kind != "gap")
