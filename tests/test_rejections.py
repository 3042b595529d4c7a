"""Every exported function that takes caller values rejects a bad one with
ValueError, never a TypeError, an IndexError or a silently wrong result.

One table row per (function, argument): a call that varies that argument
alone, the value the call is known to accept, and the bad values.  Each
accepted value must pass, so every rejection is the bad value's.
"""

import numpy as np
import pytest

from comet.cnn_model import requantize
from comet.fxp import FxpFormat
from comet.gemm_core import GemmConfig, check_operands, gemm_cycles
from comet.im2col_addr import LayerConfigWord, gather_stream
from comet.lut_arch import LutArch, lut_cost
from comet.metrics import aep, eps, throughput_mac
from comet.obc_ipc import piso_schedule
from comet.tensor_io import SplitMix64, gen_input

NAN, INF = float("nan"), float("inf")
# not integers: each of these is a bad count, width, size or index
NOT_INT = (0.5, 2.5, "3", None, [1], True)
NOT_NUMBER = ("3", None, [1], True, NAN, INF)

LAYER = dict(c=1, kh=2, kw=2, s=1, p=0, n=1, b=8, h=2, w=2)
CFG = GemmConfig()
THETA, COLS, BIAS = np.ones((2, 4), np.int64), np.ones((4, 3)), np.ones(2)


def _layer_word(field):
    return lambda v: LayerConfigWord(**{**LAYER, field: v})


def _gemm_config(field):
    return lambda v: GemmConfig(**{field: v})


def _positional(fn, good_args, i):
    """`fn` on `good_args` with argument `i` replaced by the value."""
    def call(v):
        args = list(good_args)
        args[i] = v
        return fn(*args)
    return call


def _lut_arch(i):
    return _positional(lambda *a: lut_cost(LutArch(*a)),
                       ("parallel", 4, 1, 4), i)


def _operands(i):
    return _positional(check_operands, (THETA, COLS, BIAS, 8, 8), i)


# name: (call of one value, an accepted value, bad values); no dim or
# operand row holds True: `as_ints` takes a bool as 0 or 1, since a check
# per value would slow criterion 1
TABLE = {
    "fill.dim": (lambda v: SplitMix64(0).fill((v, 2), 8), 3,
                 (-1, 0.5, 2.5, "3", None, [1])),
    "fill.shape": (lambda v: SplitMix64(0).fill(v, 8), 5,
                   (-1, 2.5, "3", None, [[1]])),
    "fill.bits": (lambda v: SplitMix64(0).fill((2,), v), 8,
                  NOT_INT + (-1, 0, 65)),
    "gen_input.seed": (lambda v: gen_input(v, (2,), 8), 7,
                       (0.5, "3", None, [1], True)),
    "gen_input.dim": (lambda v: gen_input(0, (v, 3), 8), 2,
                      (-2, 0.5, 2.5, "3", None, [1])),
    "gen_input.b1": (lambda v: gen_input(0, (2,), v), 8, NOT_INT + (0,)),
    **{f"gemm_cycles.{name}": (
        _positional(gemm_cycles, (2, 3, 4, CFG), i), 5, NOT_INT + (-1,))
       for i, name in enumerate(("n", "m", "patch_len"))},
    "gather_stream.x": (
        lambda v: gather_stream(LayerConfigWord(**LAYER), v, 4),
        np.arange(4).reshape(1, 2, 2),
        (np.arange(8), np.arange(3), np.arange(4), np.full((1, 2, 2), 0.5),
         [[["3"] * 2] * 2])),
    "gather_stream.k_hw": (
        lambda v: gather_stream(LayerConfigWord(**LAYER), np.zeros(4)
                                .reshape(1, 2, 2), v), 3, NOT_INT + (0, -1)),
    "LutArch.kind": (_lut_arch(0), "hybrid", ("naive", None, ["parallel"])),
    "LutArch.k": (_lut_arch(1), 4, NOT_INT + (-4, 8)),
    "LutArch.p": (_lut_arch(2), 1, NOT_INT + (0, -1)),
    "LutArch.q": (_lut_arch(3), 4, NOT_INT + (0, -4)),
    "lut_cost.shared_q": (lambda v: lut_cost(LutArch("shared", v, 1, v)), 2,
                          (1,)),
    "lut_cost.split_q": (lambda v: lut_cost(LutArch("split", v, 1, v)), 2,
                         (1, 3)),
    "requantize.shift": (lambda v: requantize(np.arange(4), v, 8), 2,
                         NOT_INT + (-1, 64)),
    "requantize.b1": (lambda v: requantize(np.arange(4), 2, v), 8,
                      NOT_INT + (1, 33)),
    "requantize.act": (lambda v: requantize(np.arange(4), 2, 8, v), "relu",
                       ("tanh", ["relu"], True)),
    "requantize.acc": (lambda v: requantize(v, 2, 8), [1, 2],
                       ([0.5], [2 ** 64], [None])),
    "piso_schedule.operands": (lambda v: piso_schedule([1, v], 8), -3,
                               (0.5, 2.5, "3", None, [1], 128, -129)),
    "piso_schedule.b": (lambda v: piso_schedule([1, -1], v), 8,
                        NOT_INT + (1, 33)),
    "check_operands.theta": (_operands(0), THETA,
                             (THETA + 0.5, THETA * 200, THETA[0])),
    "check_operands.x": (_operands(1), COLS, (COLS + 0.5, COLS * 200)),
    "check_operands.bias": (_operands(2), BIAS,
                            (BIAS + 0.5, BIAS * 200, np.ones(3))),
    "check_operands.b1": (_operands(3), 8, NOT_INT + (1, 33)),
    "check_operands.b2": (_operands(4), 8, NOT_INT + (1, 33)),
    **{f"LayerConfigWord.{field}": (_layer_word(field), LAYER[field],
                                    NOT_INT + (-1,))
       for field in LAYER},
    "LayerConfigWord.s_range": (_layer_word("s"), 2, (0, 3)),
    "LayerConfigWord.p_range": (_layer_word("p"), 1, (2,)),
    **{f"GemmConfig.{field}": (_gemm_config(field), 16, NOT_INT + (0, -1))
       for field in ("k_hw", "l")},
    **{f"GemmConfig.{field}": (_gemm_config(field), 8, NOT_INT + (1, 33))
       for field in ("b1", "b2")},
    "GemmConfig.scheme": (_gemm_config("scheme"), "B", ("C", None, ["A"])),
    "GemmConfig.arch": (_gemm_config("arch"), "split",
                        ("naive", None, ["hybrid"])),
    "FxpFormat.bits": (FxpFormat, 8, NOT_INT + (1, 33)),
    **{f"throughput_mac.{name}": (
        _positional(throughput_mac, (16, 1, 8, 1e8), i), 4, NOT_INT + (0, -1))
       for i, name in enumerate(("k", "l", "b"))},
    "throughput_mac.f_clk": (_positional(throughput_mac, (16, 1, 8, 1e8), 3),
                             95e6, NOT_NUMBER + (0, -1e8)),
    "eps.power_w": (_positional(eps, (0.8, 0.2), 0), 0.0,
                    NOT_NUMBER + (-1,)),
    "eps.t_mac_gops": (_positional(eps, (0.8, 0.2), 1), 0.38,
                       NOT_NUMBER + (0, -1)),
    "aep.t_mac_ops": (_positional(aep, (1e9, 1e8, 4102), 0), 0,
                      NOT_NUMBER + (-1,)),
    **{f"aep.{name}": (_positional(aep, (1e9, 1e8, 4102), i), 100,
                       NOT_NUMBER + (0, -1))
       for i, name in ((1, "f_clk"), (2, "ens_slices"))},
}


def _value_id(v) -> str:
    if isinstance(v, np.ndarray):
        return f"array{v.shape}" + ("" if v.dtype.kind in "iu" else "float")
    return repr(v)


@pytest.mark.parametrize("name", TABLE)
def test_accepted_value_passes(name):
    call, good, _ = TABLE[name]
    call(good)


@pytest.mark.parametrize("name, value", [
    pytest.param(name, v, id=f"{name}-{_value_id(v)}")
    for name, (_, _, bad) in TABLE.items() for v in bad])
def test_bad_value_raises_value_error(name, value):
    with pytest.raises(ValueError):
        TABLE[name][0](value)


def test_fill_rejects_before_drawing():
    """A rejected shape leaves the stream where it was: a negative dim
    used to move it back one draw, so the next draw repeated the last."""
    rng, ref = SplitMix64(5), SplitMix64(5)
    want = ref.fill((4,), 8).tolist()
    assert rng.fill((3,), 8).tolist() == want[:3]
    with pytest.raises(ValueError):
        rng.fill((-1,), 8)
    assert rng.fill((1,), 8).tolist() == want[3:]
    assert rng.fill((2, 0, 3), 8).shape == (2, 0, 3)
