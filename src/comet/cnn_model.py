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

import numpy as np

from .fxp import FxpFormat
from .gemm_core import GemmConfig, gemm_cycles, gemm_obc, im2col
from .im2col_addr import LayerConfigWord


@dataclass(frozen=True)
class LayerSpec:
    """One model layer: a convolution, global average pool, or dense layer."""

    kind: str                        # "conv" | "gap" | "fc"
    cfg: LayerConfigWord | None = None
    in_features: int = 0             # fc only
    out_features: int = 0            # fc only
    act: str | None = None           # "relu" or None
    shift: int = 0                   # post-accumulation right shift

    @property
    def patch_len(self) -> int:
        if self.kind == "conv":
            return self.cfg.patch_len
        if self.kind == "fc":
            return self.in_features
        raise ValueError("gap layers have no patch")


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
    # tracks typical accumulator growth (weight magnitude times sqrt of
    # the fan-in) so activations stay lively instead of collapsing to zero
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


def requantize(acc: np.ndarray, shift: int, b1: int) -> np.ndarray:
    """Right-shift with round-half-away-from-zero, then saturate to B1."""
    acc = np.asarray(acc, dtype=np.int64)
    if shift > 0:
        mag = (np.abs(acc) + (1 << (shift - 1))) >> shift
        acc = np.sign(acc) * mag
    fmt = FxpFormat(b1)
    return np.clip(acc, fmt.min_value, fmt.max_value)


def _apply_act(y: np.ndarray, act: str | None) -> np.ndarray:
    if act == "relu":
        return np.maximum(y, 0)
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
    for i, lay in enumerate(model.layers):
        if lay.kind == "gap":
            continue
        w, b = weights[i].weight, weights[i].bias
        if lay.kind == "conv":
            c = lay.cfg
            want = (c.n, c.c, c.kh, c.kw)
            nb = c.n
        else:
            want = (lay.out_features, lay.in_features)
            nb = lay.out_features
        if tuple(w.shape) != want or b.shape != (nb,):
            raise ValueError(f"layer {i} weight/bias shape mismatch")


def infer(model: ModelSpec, weights, x: np.ndarray, gemm_cfg: GemmConfig,
          record: bool = False) -> InferResult:
    """Run the model through the OBC GEMM datapath.

    `weights` maps layer index to an object with `.weight`, `.bias`, and
    optional `.shift` attributes (see tensor_io.WeightBundle).
    """
    _check_weights(model, weights)
    x = np.asarray(x, dtype=np.int64)
    fmt_in = FxpFormat(model.b1)
    if x.min() < fmt_in.min_value or x.max() > fmt_in.max_value:
        raise ValueError("input exceeds the activation format")
    act = x
    total_cycles = 0
    outputs, traces = [], []
    for i, lay in enumerate(model.layers):
        if lay.kind == "gap":
            act = _gap(act)
            outputs.append(act)
            continue
        w = np.asarray(weights[i].weight, dtype=np.int64)
        b = np.asarray(weights[i].bias, dtype=np.int64)
        shift = getattr(weights[i], "shift", lay.shift)
        cfg = replace(gemm_cfg, b1=model.b1, b2=model.b2)
        if lay.kind == "conv":
            cols = im2col(act, lay.cfg)
            theta = w.reshape(lay.cfg.n, -1)
            y, cycles, tr = gemm_obc(theta, cols, b, cfg, record=record)
            y = y.reshape(lay.cfg.n, lay.cfg.h_out, lay.cfg.w_out)
        else:
            y, cycles, tr = gemm_obc(w, act.reshape(-1, 1), b, cfg,
                                     record=record)
            y = y.reshape(-1)
        total_cycles += cycles
        act = _apply_act(requantize(y, shift, model.b1), lay.act)
        outputs.append(act)
        traces.append(tr)
    logits = [int(v) for v in act]
    return InferResult(logits, int(np.argmax(act)), total_cycles,
                       outputs, traces)


def infer_oracle(model: ModelSpec, weights, x: np.ndarray) -> list[int]:
    """Direct sliding-window / dense evaluation with identical rescaling."""
    _check_weights(model, weights)
    act = np.asarray(x, dtype=np.int64)
    for i, lay in enumerate(model.layers):
        if lay.kind == "gap":
            act = _gap(act)
            continue
        w = np.asarray(weights[i].weight, dtype=np.int64)
        b = np.asarray(weights[i].bias, dtype=np.int64)
        shift = getattr(weights[i], "shift", lay.shift)
        if lay.kind == "conv":
            y = conv_direct(act, w, b, lay.cfg)
        else:
            y = w @ act.reshape(-1) + b
        act = _apply_act(requantize(y, shift, model.b1), lay.act)
    return [int(v) for v in act]


def conv_direct(x: np.ndarray, w: np.ndarray, bias: np.ndarray,
                cfg: LayerConfigWord) -> np.ndarray:
    """Nested sliding-window convolution (no im2col, no GEMM)."""
    if cfg.p:
        x = np.pad(x, ((0, 0), (0, cfg.p), (0, cfg.p)))
    ho, wo = cfg.h_out, cfg.w_out
    out = np.zeros((cfg.n, ho, wo), dtype=np.int64)
    for k in range(cfg.kh):
        for l in range(cfg.kw):
            window = x[:, k:k + ho * cfg.s:cfg.s, l:l + wo * cfg.s:cfg.s]
            out += np.tensordot(w[:, :, k, l], window, axes=(1, 0))
    return out + bias[:, None, None]


def model_cycles(model: ModelSpec, gemm_cfg: GemmConfig) -> int:
    """Closed-form cycle total over the GEMM-lowered layers."""
    cfg = replace(gemm_cfg, b1=model.b1, b2=model.b2)
    total = 0
    for lay in model.layers:
        if lay.kind == "conv":
            c = lay.cfg
            total += gemm_cycles(c.n, c.h_out * c.w_out, c.patch_len, cfg)
        elif lay.kind == "fc":
            total += gemm_cycles(lay.out_features, 1, lay.in_features, cfg)
    return total
