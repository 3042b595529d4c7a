"""Modified LeNet-5: shape chain, requantization, DA-vs-oracle inference."""

import numpy as np
import pytest

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
)
from comet.gemm_core import GemmConfig
from comet.im2col_addr import LayerConfigWord
from comet.obc_ipc import Scheme
from comet.tensor_io import LayerWeights, WeightBundle, gen_input, gen_weights

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
    for i, lw in _delta_bundle(model).layers.items():
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


def test_infer_validates_weights_and_input():
    model = build_modified_lenet5()
    w = gen_weights(0, model, 8)
    with pytest.raises(ValueError):
        infer(model, w, np.full((1, 32, 32), 300), CFG)
    bad = {i: LayerWeights(lw.weight[:, :1], lw.bias, lw.shift)
           if lw.weight.ndim == 2 else lw
           for i, lw in w.layers.items()}
    with pytest.raises(ValueError):
        infer(model, WeightBundle(bad), gen_input(0, (1, 32, 32), 8), CFG)


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
