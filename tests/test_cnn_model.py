"""Modified LeNet-5: shape chain, requantization, DA-vs-oracle inference."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from comet.cnn_model import (
    LayerSpec,
    ModelSpec,
    build_modified_lenet5,
    conv_direct,
    infer,
    infer_oracle,
    model_cycles,
    requantize,
    _gap,
    _walk,
)
from comet.gemm_core import GemmConfig, _weight_side, gemm_oracle, im2col
from comet.im2col_addr import LayerConfigWord
from comet.lut_arch import KINDS
from comet.obc_ipc import Scheme
from comet.tensor_io import LayerWeights, SplitMix64, WeightBundle, \
    gen_input, gen_weights

CFG = GemmConfig(k_hw=16, l=10, scheme=Scheme.A, arch="hybrid", b1=8, b2=8)


def test_model_has_seven_layers():
    model = build_modified_lenet5()
    assert len(model.layers) == 7
    assert [lay.kind for lay in model.layers] == \
        ["conv", "conv", "conv", "conv", "gap", "fc", "fc"]


def test_shape_chain():
    model = build_modified_lenet5()
    convs = [lay.cfg for lay in model.layers if lay.kind == "conv"]
    assert (convs[0].h_out, convs[0].w_out, convs[0].n) == (28, 28, 6)
    assert (convs[1].h_out, convs[1].w_out, convs[1].n) == (14, 14, 6)
    assert (convs[2].h_out, convs[2].w_out, convs[2].n) == (10, 10, 16)
    assert (convs[3].h_out, convs[3].w_out, convs[3].n) == (5, 5, 16)
    assert model.layers[5].in_features == 16
    assert model.layers[5].out_features == 32
    assert model.layers[6].out_features == 10
    conv1, gap, fc1 = model.layers[0], model.layers[4], model.layers[5]
    assert conv1.weight_shape == (6, 1, 5, 5)
    assert conv1.out_shape == (6, 28, 28) and conv1.patch_len == 25
    assert fc1.weight_shape == (32, 16)
    assert fc1.out_shape == (32,) and fc1.patch_len == 16
    for prop in ("weight_shape", "out_shape", "patch_len"):
        with pytest.raises(ValueError):
            getattr(gap, prop)


def test_strided_convs_replace_pooling():
    model = build_modified_lenet5()
    assert model.layers[1].cfg.s == 2 and model.layers[1].cfg.p == 1
    assert model.layers[3].cfg.s == 2 and model.layers[3].cfg.p == 1


def test_relu_everywhere_but_logits():
    model = build_modified_lenet5()
    acts = [lay.act for lay in model.layers]
    assert acts == ["relu", "relu", "relu", "relu", None, "relu", None]


def test_manifest_round_trips_shapes():
    m = build_modified_lenet5(16, 8).manifest()
    assert m["b1"] == 16 and m["b2"] == 8
    assert len(m["layers"]) == 7
    assert m["layers"][0]["h_out"] == 28
    assert m["layers"][6]["out_features"] == 10


def test_requantize_round_half_away():
    assert requantize(np.array([3]), 1, 8)[0] == 2     # 1.5 -> 2
    assert requantize(np.array([-3]), 1, 8)[0] == -2   # -1.5 -> -2
    assert requantize(np.array([5]), 2, 8)[0] == 1     # 1.25 -> 1
    assert requantize(np.array([6]), 2, 8)[0] == 2     # 1.5 -> 2
    assert requantize(np.array([1000]), 0, 8)[0] == 127
    assert requantize(np.array([-1000]), 0, 8)[0] == -128
    assert requantize(np.array([40]), 3, 8)[0] == 5


def test_requantize_exact_at_every_shift():
    big = np.array([1 << 62, -(1 << 62), (1 << 63) - 1, -(1 << 63), 3, -3])
    for shift in range(64):
        want = [(abs(v) + (1 << shift >> 1)) >> shift for v in big.tolist()]
        want = [w if v >= 0 else -w for v, w in zip(big.tolist(), want)]
        assert requantize(big, shift, 32).tolist() \
            == np.clip(want, -(1 << 31), (1 << 31) - 1).tolist(), shift
    assert requantize(np.array([1 << 62]), 63, 8)[0] == 1     # 0.5 -> 1


def test_requantize_rejects_non_integers():
    """A cast truncated [2.7, -3.9] to [2, -3] and wrapped 2^63 + 5 to -128;
    a shift of True ran as 1, and 2.5, "2" or None raised TypeError."""
    for acc in (np.array([2.7, -3.9]), np.array([(1 << 63) + 5], np.uint64)):
        with pytest.raises(ValueError, match="int64 integers"):
            requantize(acc, 0, 8)
    for shift in (True, 2.5, "2", None):
        with pytest.raises(ValueError, match="shift .* not an integer"):
            requantize(np.array([6]), shift, 8)
    assert requantize(np.array([6]), np.int64(2), 8).tolist() == [2]


@pytest.mark.parametrize("shift", [-1, 64, 100])
def test_requantize_rejects_shift_outside_0_63(shift):
    with pytest.raises(ValueError, match="0..63"):
        requantize(np.array([5]), shift, 8)


def _requantized(v: int, shift: int, b1: int, act) -> int:
    """Round half away from zero, saturate to B1, then `act`, on Python
    integers."""
    r = (abs(v) + (1 << shift >> 1)) >> shift
    r = min(max(r if v >= 0 else -r, -(1 << (b1 - 1))), (1 << (b1 - 1)) - 1)
    return max(r, 0) if act == "relu" else r


@pytest.mark.parametrize("act", [None, "relu"])
@pytest.mark.parametrize("b1", [2, 8, 16, 31, 32])
def test_requantize_equals_python_integers(b1, act):
    """Every shift 0..63, so both sides of B1 + shift = 62, where the clip
    to the scaled bounds gives way to the unsigned magnitude; values are
    the int64 extremes, and both sides of each scaled bound and of its
    rounding edges."""
    i64 = range(-(1 << 63), 1 << 63)
    for shift in range(64):
        half = 1 << shift >> 1
        edges = {-(1 << 63), (1 << 63) - 1, 0}
        for bound in (-(1 << (b1 - 1)), 0, (1 << (b1 - 1)) - 1):
            for edge in (bound << shift, (bound << shift) + half,
                         (bound << shift) - half):
                edges.update(edge + d for d in (-2, -1, 0, 1, 2))
        vals = sorted(v for v in edges if v in i64)
        got = requantize(np.array(vals), shift, b1, act).tolist()
        assert got == [_requantized(v, shift, b1, act) for v in vals], \
            (shift, b1, act)


@pytest.mark.parametrize("shift", [0, 5, 40])
def test_requantize_leaves_its_input_unchanged(shift):
    """Read-only and non-contiguous accumulators are read, never written."""
    acc = np.arange(-300, 300, dtype=np.int64).reshape(20, 30) << shift
    want = [[_requantized(v, shift, 8, "relu") for v in row]
            for row in acc.T[::3].tolist()]
    frozen = acc.copy()
    frozen.flags.writeable = False
    for a in (acc.T[::3], frozen.T[::3]):
        assert requantize(a, shift, 8, "relu").tolist() == want
    assert (acc == frozen).all()
    assert requantize(np.int64(-7 << shift), shift, 8) == -7


@pytest.mark.parametrize("act", ["tanh", "ReLU", ""])
def test_requantize_rejects_unknown_activations(act):
    """Any activation name but "relu" used to pass the values through."""
    with pytest.raises(ValueError, match="activation"):
        requantize(np.array([5]), 0, 8, act)


def test_gap_rounded_mean():
    x = np.ones((2, 5, 5), dtype=np.int64)
    x[1] *= -3
    assert (_gap(x) == [1, -3]).all()
    x = np.zeros((1, 5, 5), dtype=np.int64)
    x.reshape(-1)[:13] = 1   # mean 13/25 = 0.52 -> 1
    assert _gap(x)[0] == 1
    x.reshape(-1)[:13] = -1
    assert _gap(x)[0] == -1


def _delta_bundle(model):
    """Kernels that pass through channel 0's top-left tap unchanged."""
    layers = {}
    for i, lay in enumerate(model.layers):
        if lay.kind == "conv":
            c = lay.cfg
            w = np.zeros((c.n, c.c, c.kh, c.kw), dtype=np.int64)
            w[:, 0, 0, 0] = 1
            layers[i] = LayerWeights(w, np.zeros(c.n, dtype=np.int64), 0)
        elif lay.kind == "fc":
            w = np.zeros((lay.out_features, lay.in_features), dtype=np.int64)
            np.fill_diagonal(w, 1)
            layers[i] = LayerWeights(
                w, np.zeros(lay.out_features, dtype=np.int64), 0)
    return WeightBundle(layers)


def test_delta_kernel_identity_first_layer():
    model = build_modified_lenet5()
    bundle = _delta_bundle(model)
    x = gen_input(3, (1, 32, 32), 8)
    res = infer(model, bundle, x, CFG)
    first = res.layer_outputs[0]
    ref = np.maximum(x[0, :28, :28], 0)
    assert (first[0] == ref).all()


def test_zero_weights_give_zero_logits():
    model = build_modified_lenet5()
    layers = {}
    for i, lw in _delta_bundle(model).items():
        layers[i] = LayerWeights(np.zeros_like(lw.weight),
                                 np.zeros_like(lw.bias), 0)
    res = infer(model, WeightBundle(layers), gen_input(0, (1, 32, 32), 8), CFG)
    assert res.logits == [0] * 10
    assert res.argmax == 0  # lowest index wins ties


@pytest.mark.parametrize("scheme", [Scheme.A, Scheme.B])
@pytest.mark.parametrize("arch", ["parallel", "shared", "split", "hybrid"])
def test_infer_matches_oracle(scheme, arch):
    model = build_modified_lenet5()
    w = gen_weights(5, model, 8)
    x = gen_input(9, (1, 32, 32), 8)
    cfg = GemmConfig(k_hw=16, l=10, scheme=scheme, arch=arch)
    res = infer(model, w, x, cfg)
    assert res.logits == infer_oracle(model, w, x)
    assert res.argmax == int(np.argmax(res.logits))



def test_a_second_image_prepares_no_weights():
    """Over the 16-config grid (scheme x technique x B1 in {8, 16}), the
    first image prepares 6 layers x 2 schemes x 4 techniques weight sides,
    which both B1 share; the second image finds every one of them."""
    grid = [(build_modified_lenet5(b1), GemmConfig(scheme=scheme, arch=arch))
            for b1 in (8, 16) for scheme in Scheme for arch in KINDS]
    _weight_side.cache_clear()
    for seed in (1, 2):
        misses = _weight_side.cache_info().misses
        for model, cfg in grid:
            infer(model, gen_weights(42, model, 8),
                  gen_input(seed, (1, 32, 32), model.b1), cfg)
    assert _weight_side.cache_info().misses == misses
    assert _weight_side.cache_info().currsize <= 48

def test_logits_are_nontrivial():
    """Requantization keeps signal alive end to end (no all-zero collapse)."""
    model = build_modified_lenet5()
    w = gen_weights(42, model, 8)
    for seed in range(5):
        res = infer(model, w, gen_input(seed, (1, 32, 32), 8), CFG)
        assert any(v != 0 for v in res.logits)


def test_infer_wide_activations():
    model = build_modified_lenet5(16, 8)
    w = gen_weights(7, model, 8)
    x = gen_input(2, (1, 32, 32), 16)
    cfg = GemmConfig(k_hw=16, l=10, scheme=Scheme.B, arch="split")
    res = infer(model, w, x, cfg)
    assert res.logits == infer_oracle(model, w, x)


@pytest.mark.parametrize("scheme, cycles", [(Scheme.A, 38_464),
                                            (Scheme.B, 19_232)])
@pytest.mark.parametrize("arch", KINDS)
def test_infer_at_b1_8_b2_4_end_to_end(scheme, cycles, arch):
    """(B1, B2) = (8, 4), the widths of four of the six published designs:
    exact against the oracle with logits not all zero, and Scheme A, serial
    over the 8-bit activations, takes twice Scheme B's cycles."""
    model = build_modified_lenet5(8, 4)
    w = gen_weights(42, model, 4)
    cfg = GemmConfig(k_hw=16, l=10, scheme=scheme, arch=arch)
    assert model_cycles(model, cfg) == cycles
    for seed in range(3):
        x = gen_input(seed, (1, 32, 32), 8)
        res = infer(model, w, x, cfg)
        assert res.logits == infer_oracle(model, w, x), seed
        assert any(v != 0 for v in res.logits), seed
        assert res.total_cycles == cycles


def test_total_cycles_match_closed_form():
    model = build_modified_lenet5()
    w = gen_weights(1, model, 8)
    for scheme in (Scheme.A, Scheme.B):
        cfg = GemmConfig(k_hw=16, l=10, scheme=scheme, arch="hybrid")
        res = infer(model, w, gen_input(0, (1, 32, 32), 8), cfg)
        assert res.total_cycles == model_cycles(model, cfg)


def test_conv_direct_matches_manual():
    cfg = LayerConfigWord(c=1, kh=2, kw=2, s=1, p=0, n=1, b=8, h=3, w=3)
    x = np.arange(9).reshape(1, 3, 3)
    w = np.ones((1, 1, 2, 2), dtype=np.int64)
    y = conv_direct(x, w, np.array([1]), cfg)
    assert (y[0] == [[9, 13], [21, 25]]).all()


def _conv_loop(x, w, bias, cfg):
    """conv_direct by a per-element loop on Python integers, pad taps zero."""
    x, w = x.tolist(), w.tolist()
    out = []
    for n in range(cfg.n):
        for oh in range(cfg.h_out):
            for ow in range(cfg.w_out):
                acc = int(bias[n])
                for ci in range(cfg.c):
                    for i in range(cfg.kh):
                        for j in range(cfg.kw):
                            r, q = oh * cfg.s + i, ow * cfg.s + j
                            if r < cfg.h and q < cfg.w:
                                acc += w[n][ci][i][j] * x[ci][r][q]
                out.append(acc)
    return out


def _conv_operands(cfg, b1, b2, seed):
    rng = SplitMix64(seed)
    return (rng.fill((cfg.c, cfg.h, cfg.w), b1),
            rng.fill((cfg.n, cfg.c, cfg.kh, cfg.kw), b2),
            rng.fill((cfg.n,), b2))


LENET_CONVS = [lay.cfg for lay in build_modified_lenet5(16, 8).layers
               if lay.kind == "conv"]


@pytest.mark.parametrize("cfg", LENET_CONVS,
                         ids=lambda c: f"{c.c}x{c.kh}s{c.s}p{c.p}")
def test_conv_direct_equals_element_loop_on_lenet(cfg):
    """All four LeNet-5m convolutions (two of them padded, stride 2), on
    random B1 = 16 / B2 = 8 operands and at both ends of those formats."""
    x, w, bias = _conv_operands(cfg, 16, 8, seed=cfg.c * 10 + cfg.kh)
    cases = [(x, w, bias)]
    for xv, wv, bv in ((-(1 << 15), -128, 127), (-(1 << 15), 127, -128),
                       ((1 << 15) - 1, 127, 127)):
        cases.append((np.full_like(x, xv), np.full_like(w, wv),
                      np.full_like(bias, bv)))
    for x, w, bias in cases:
        y = conv_direct(x, w, bias, cfg)
        assert y.dtype == np.int64
        assert y.shape == (cfg.n, cfg.h_out, cfg.w_out)
        assert y.ravel().tolist() == _conv_loop(x, w, bias, cfg)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from([1, 2]), st.sampled_from([0, 1]), st.integers(1, 6),
       st.integers(1, 6), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_conv_direct_equals_element_loop(c, kh, kw, s, p, h, w, n, seed):
    try:
        cfg = LayerConfigWord(c=c, kh=kh, kw=kw, s=s, p=p, n=n, b=8, h=h, w=w)
    except ValueError:          # the kernel does not fit the input
        return
    x, wt, bias = _conv_operands(cfg, 8, 8, seed)
    assert conv_direct(x, wt, bias, cfg).ravel().tolist() == \
        _conv_loop(x, wt, bias, cfg)


def test_conv_direct_is_exact_past_int64():
    """Four products of (-2^31)^2 sum to 2^64: this returned [0] when the
    product wrapped in int64.  Past the bound the result is exact on Python
    integers; at it, int64 is kept."""
    cfg = LayerConfigWord(c=1, kh=2, kw=2, s=1, p=0, n=1, b=32, h=2, w=2)
    v = -(1 << 31)
    x, w = np.full((1, 2, 2), v), np.full((1, 1, 2, 2), v)
    assert conv_direct(x, w, [0], cfg).tolist() == [[[1 << 64]]]
    assert conv_direct(x, w, [v], cfg).tolist() == [[[(1 << 64) + v]]]
    one = LayerConfigWord(c=1, kh=1, kw=1, s=1, p=0, n=1, b=32, h=1, w=1)
    y = conv_direct(np.full((1, 1, 1), v), np.full((1, 1, 1, 1), v),
                    [-v - 1], one)      # 2^62 + 2^31 - 1 < 2^63
    assert y.dtype == np.int64 and y.tolist() == [[[v * v - v - 1]]]
    wide = LayerConfigWord(c=2, kh=3, kw=2, s=2, p=1, n=3, b=32, h=5, w=4)
    xs, ws, bs = _conv_operands(wide, 32, 32, seed=9)
    assert conv_direct(xs, ws, bs, wide).ravel().tolist() == \
        _conv_loop(xs, ws, bs, wide)


@pytest.mark.parametrize("sign", [1, -1])
def test_conv_direct_either_side_of_the_float64_bound(sign):
    """The product is in float64 while the bound 3 * max|x| * max|w| +
    max|bias| of 3-tap patches stays below 2^53.  Each case puts the bound
    just below, at or just above 2^53 with every sum at the bound; the last
    has sums of 2^53 + 1 from the taps alone, which a float64 product
    rounds to 2^53.  Every result must equal Python integers."""
    cfg = LayerConfigWord(c=3, kh=1, kw=1, s=1, p=0, n=1, b=32, h=1, w=2)
    m = ((1 << 53) - 1) // (3 << 26)
    below = (1 << 53) - 1 - (3 * m << 26)
    cases = [([1 << 26] * 3, [m] * 3, below + d) for d in (0, 1, 2)]
    cases.append(([1 << 26, 1 << 26, 1], [1 << 26, 1 << 26, 1], 0))
    for x, w, bias in cases:
        x = np.repeat(np.array(x)[:, None, None], 2, axis=2) * sign
        w, bias = np.array(w).reshape(1, 3, 1, 1), np.array([bias * sign])
        y = conv_direct(x, w, bias, cfg)
        assert y.dtype == np.int64
        assert y.ravel().tolist() == _conv_loop(x, w, bias, cfg) == \
            [sum(map(int, x[:, 0, 0] * w.ravel())) + int(bias[0])] * 2
        assert abs(y[0, 0, 0]) >= (1 << 53) - 1


CONV_2X2 = LayerConfigWord(c=1, kh=2, kw=2, s=1, p=0, n=2, b=8, h=3, w=3)


@pytest.mark.parametrize("x, w, bias, match", [
    (np.arange(9).reshape(1, 3, 3), np.ones((2, 1, 2, 2)), [1], "biases"),
    (np.arange(9).reshape(1, 3, 3), np.ones((2, 1, 3, 3)), [1, 1], "weights"),
    (np.arange(9).reshape(1, 3, 3), np.ones((2, 4)), [1, 1], "weights"),
    (np.full((1, 3, 3), 0.5), np.ones((2, 1, 2, 2)), [1, 1], "int64 integers"),
], ids=["bias (1,)", "kernel 3x3", "weight (2, 4)", "input 0.5"])
def test_conv_direct_rejects_operands_of_another_shape_or_type(x, w, bias,
                                                               match):
    """These used to broadcast the bias, read the 3x3 kernel's top-left
    2x2, raise IndexError and raise UFuncTypeError."""
    with pytest.raises(ValueError, match=match):
        conv_direct(x, w, bias, CONV_2X2)


def test_conv_direct_takes_integral_values_of_any_dtype():
    y = conv_direct(np.arange(9.0).reshape(1, 3, 3),
                    np.ones((2, 1, 2, 2), np.int8), [1.0, -1.0], CONV_2X2)
    assert y.tolist() == [[[9, 13], [21, 25]], [[7, 11], [19, 23]]]


def test_infer_validates_weights_and_input():
    model = build_modified_lenet5()
    w = gen_weights(0, model, 8)
    bad = {i: LayerWeights(lw.weight[:, :1], lw.bias, lw.shift)
           if lw.weight.ndim == 2 else lw
           for i, lw in w.items()}
    for run in (lambda *args: infer(*args, CFG), infer_oracle):
        with pytest.raises(ValueError):
            run(model, w, np.full((1, 32, 32), 300))
        with pytest.raises(ValueError):
            run(model, WeightBundle(bad), gen_input(0, (1, 32, 32), 8))


def test_infer_and_oracle_reject_input_of_another_shape():
    """The oracle used to return the logits of a 40x40 image's top-left
    32x32 crop."""
    model = build_modified_lenet5()
    w = gen_weights(0, model, 8)
    x = gen_input(0, (1, 40, 40), 8)
    for run in (lambda *args: infer(*args, CFG), infer_oracle):
        with pytest.raises(ValueError, match="input shape"):
            run(model, w, x)
    with pytest.raises(ValueError, match="input shape"):
        conv_direct(x, w[0].weight, w[0].bias, model.layers[0].cfg)


def test_infer_rejects_non_integer_input_and_weights():
    """int64 casts would truncate these to integers the oracle agrees on."""
    model = build_modified_lenet5()
    w = gen_weights(0, model, 8)
    x = gen_input(0, (1, 32, 32), 8)
    halved = WeightBundle({i: LayerWeights(lw.weight / 2, lw.bias, lw.shift)
                           for i, lw in w.items()})
    for run in (lambda *args: infer(*args, CFG), infer_oracle):
        with pytest.raises(ValueError, match="int64 integers"):
            run(model, w, x + 0.4)
        with pytest.raises(ValueError, match="int64 integers"):
            run(model, halved, x)
    want = infer_oracle(model, w, x)
    assert infer(model, w, x.astype(float), CFG).logits == want
    assert infer_oracle(model, w, x.astype(float)) == want


@pytest.mark.parametrize("missing", [0, 5])
def test_infer_rejects_missing_layer(missing):
    """A bundle without a conv or dense layer's weights is a ValueError,
    not a KeyError."""
    model = build_modified_lenet5()
    w = gen_weights(0, model, 8)
    del w[missing]
    for run in (lambda *args: infer(*args, CFG), infer_oracle):
        with pytest.raises(ValueError, match=f"layer {missing} has no weights"):
            run(model, w, gen_input(0, (1, 32, 32), 8))


@pytest.mark.parametrize("extra", [4, 9, "5"])
def test_infer_rejects_weights_for_no_gemm_layer(extra):
    """Weights keyed by the pooling layer, a layer past the model, or a
    key that is not an index are never read: reject them."""
    model = build_modified_lenet5()
    w = gen_weights(0, model, 8)
    w[extra] = w[0]
    for run in (lambda *args: infer(*args, CFG), infer_oracle):
        with pytest.raises(ValueError, match="no conv or dense layer"):
            run(model, w, gen_input(0, (1, 32, 32), 8))


def test_relu_output_is_nonnegative():
    model = build_modified_lenet5()
    w = gen_weights(3, model, 8)
    res = infer(model, w, gen_input(4, (1, 32, 32), 8), CFG)
    for out, lay in zip(res.layer_outputs, model.layers):
        if lay.act == "relu":
            assert out.min() >= 0


def test_gap_output_within_activation_range():
    model = build_modified_lenet5()
    w = gen_weights(6, model, 8)
    res = infer(model, w, gen_input(8, (1, 32, 32), 8), CFG)
    gap_out = res.layer_outputs[4]
    assert gap_out.shape == (16,)
    assert gap_out.min() >= -128 and gap_out.max() <= 127


def test_custom_model_spec():
    cfg = LayerConfigWord(c=1, kh=2, kw=2, s=1, p=0, n=2, b=8, h=4, w=4)
    model = ModelSpec((LayerSpec("conv", cfg=cfg, act="relu", shift=2),
                       LayerSpec("gap")), 8, 8)
    w = gen_weights(11, model, 8)
    x = gen_input(12, (1, 4, 4), 8)
    res = infer(model, w, x, CFG)
    assert res.logits == infer_oracle(model, w, x)
    assert len(res.logits) == 2


def test_oracle_rejects_sums_past_int64():
    """36 products of (-2^31)^2 sum to 36 * 2^62: int64 wrapped this to 0."""
    lo = -(1 << 31)
    cfg = LayerConfigWord(c=4, kh=3, kw=3, s=1, p=0, n=1, b=32, h=3, w=3)
    model = ModelSpec((LayerSpec("conv", cfg=cfg, act="relu", shift=40),
                       LayerSpec("gap"),
                       LayerSpec("fc", in_features=1, out_features=1)), 32, 32)
    zero = np.zeros(1, dtype=np.int64)
    weights = {0: LayerWeights(np.full((1, 4, 3, 3), lo), zero, 40),
               2: LayerWeights(np.ones((1, 1), dtype=np.int64), zero, 0)}
    x = np.full((4, 3, 3), lo)
    for run in (lambda *args: infer(*args, CFG), infer_oracle):
        with pytest.raises(ValueError, match="overflow"):
            run(model, weights, x)   # the exact logit is 150994944


def test_infer_and_oracle_share_the_headroom_bound():
    """(-2^31)^2 - 2^31 fits int64, but not the datapath's doubled
    accumulator: infer raised while the oracle returned [2147483647]."""
    lo = -(1 << 31)
    cfg = LayerConfigWord(c=1, kh=1, kw=1, s=1, p=0, n=1, b=32, h=1, w=1)
    model = ModelSpec((LayerSpec("conv", cfg=cfg), LayerSpec("gap")), 32, 32)
    weights = {0: LayerWeights(np.full((1, 1, 1, 1), lo), np.full(1, lo), 0)}
    x = np.full((1, 1, 1), lo)
    for run in (lambda *args: infer(*args, CFG), infer_oracle):
        with pytest.raises(ValueError, match="overflow"):
            run(model, weights, x)


@st.composite
def _small_models(draw):
    """1-3 convolutions, gap and a dense layer, with weights and an input."""
    widths = st.one_of(st.sampled_from([2, 31, 32]), st.integers(2, 32))
    b1, b2 = draw(widths), draw(widths)
    c, h, w = (draw(st.integers(1, 3)), draw(st.integers(1, 6)),
               draw(st.integers(1, 6)))
    shape, layers = (c, h, w), []
    for _ in range(draw(st.integers(1, 3))):
        p, s = draw(st.integers(0, 1)), draw(st.integers(1, 2))
        k = draw(st.integers(1, min(4, h + p, w + p)))
        cfg = LayerConfigWord(c=c, kh=k, kw=k, s=s, p=p,
                              n=draw(st.integers(1, 3)), b=b1, h=h, w=w)
        layers.append(LayerSpec("conv", cfg=cfg, act="relu",
                                shift=draw(st.integers(0, b2 + 4))))
        c, h, w = cfg.n, cfg.h_out, cfg.w_out
    layers += [LayerSpec("gap"),
               LayerSpec("fc", in_features=c, out_features=draw(
                   st.integers(1, 3)), shift=draw(st.integers(0, b2)))]
    model = ModelSpec(tuple(layers), b1, b2)
    # random values, or every value at the format minimum
    rng, extreme = SplitMix64(draw(st.integers(0, 2 ** 32 - 1))), \
        draw(st.booleans())

    def fill(shape, bits):
        return np.full(shape, -(1 << (bits - 1))) if extreme \
            else rng.fill(shape, bits)

    weights = {i: LayerWeights(fill(lay.weight_shape, b2),
                               fill(lay.out_shape[:1], b2), lay.shift)
               for i, lay in enumerate(layers) if lay.kind != "gap"}
    return model, weights, fill(shape, b1)


def _exact_logits(model, weights, x) -> list[int]:
    """The oracle's arithmetic on Python integers (gemm_oracle); requantize
    rejects an accumulator past int64."""
    def matmul(lay, act, w, b):
        cols = im2col(act, lay.cfg) if lay.kind == "conv" \
            else act.reshape(-1, 1)
        return gemm_oracle(w.reshape(len(w), -1), cols, b) \
            .reshape(lay.out_shape)

    return [int(v) for v in _walk(model, weights, x, matmul)[-1]]


def _near_the_headroom_bound(c):
    """A 2x2 conv over c channels at B1 = 31, B2 = 28, every value at its
    format minimum, then gap and a 1x1 dense layer.  Its headroom bound
    patch_len * 2^(B1+B2-1) + 2^B2 is 7 * 2^60 + 2^28, just below 2^63, at
    c = 7, and 2^63 + 2^28, just at it, at c = 8; the conv's exact sum
    fits int64 either way."""
    b1, b2 = 31, 28
    lo1, lo2 = -(1 << (b1 - 1)), -(1 << (b2 - 1))
    cfg = LayerConfigWord(c=c, kh=2, kw=2, s=1, p=0, n=1, b=b1, h=2, w=2)
    model = ModelSpec((LayerSpec("conv", cfg=cfg, act="relu", shift=40),
                       LayerSpec("gap"),
                       LayerSpec("fc", in_features=1, out_features=1)), b1, b2)
    weights = {0: LayerWeights(np.full((1, c, 2, 2), lo2), np.full(1, lo2), 40),
               2: LayerWeights(np.full((1, 1), lo2), np.full(1, lo2), 0)}
    return model, weights, np.full((c, 2, 2), lo1)


@settings(max_examples=150, deadline=None)
@given(_small_models(), st.integers(1, 20), st.integers(1, 3),
       st.sampled_from([Scheme.A, Scheme.B]),
       st.sampled_from(["parallel", "shared", "split", "hybrid"]))
@example(_near_the_headroom_bound(7), 4, 1, Scheme.A, "hybrid")
@example(_near_the_headroom_bound(7), 3, 2, Scheme.B, "parallel")
@example(_near_the_headroom_bound(8), 4, 1, Scheme.A, "split")
def test_infer_equals_oracle_or_both_reject(case, k_hw, lanes, scheme, arch):
    """The oracle never wraps: it is exact and equals infer, or it rejects
    and so does infer.  The examples sit at the headroom bound, which a
    random draw rarely reaches."""
    model, weights, x = case
    cfg = GemmConfig(k_hw=k_hw, l=lanes, scheme=scheme, arch=arch)
    try:
        got = infer(model, weights, x, cfg).logits
    except ValueError:
        got = None
    try:
        want = infer_oracle(model, weights, x)
    except ValueError:
        assert got is None
        return
    assert want == _exact_logits(model, weights, x)
    assert got == want
