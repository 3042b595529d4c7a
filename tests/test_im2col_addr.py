"""Hierarchical-counter address generator vs. the im2col reference."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from comet.cnn_model import build_modified_lenet5
from comet.gemm_core import im2col
from comet.im2col_addr import (
    AddrEvent,
    CounterState,
    GroupCtx,
    LayerConfigWord,
    bias_enable,
    gather_stream,
    read_addresses,
    step,
    write_address,
)
from comet.tensor_io import gen_input

CONV_LAYERS = [lay.cfg for lay in build_modified_lenet5().layers
               if lay.kind == "conv"]


def _collect(cfg, k_hw):
    x = gen_input(7, (cfg.c, cfg.h, cfg.w), cfg.b)
    stream, cycles = gather_stream(cfg, x, k_hw)
    events = [ev for _, evs in cycles for ev in evs]
    writes = [ev.addr for ev in events if ev.kind == "write_y"]
    carries = Counter(ev.level for ev in events if ev.kind == "carry")
    return x, stream, writes, carries


@pytest.mark.parametrize("cfg", CONV_LAYERS, ids=lambda c: f"c{c.c}k{c.kh}s{c.s}")
@pytest.mark.parametrize("k_hw", [16])
def test_stream_matches_im2col(cfg, k_hw):
    x, got, _, _ = _collect(cfg, k_hw)
    ref = im2col(x, cfg)
    for ch in range(cfg.n):
        assert (got[ch, :, :cfg.patch_len] == ref.T).all()
        assert (got[ch, :, cfg.patch_len:] == 0).all()   # tile-tail zeros


@settings(max_examples=150, deadline=None)
@given(c=st.integers(1, 3), n=st.integers(1, 3), kh=st.integers(1, 4),
       kw=st.integers(1, 4), s=st.sampled_from([1, 2]),
       p=st.sampled_from([0, 1]), h=st.integers(1, 8), w=st.integers(1, 8),
       k_hw=st.integers(1, 20))
def test_generator_on_random_small_layers(c, n, kh, kw, s, p, h, w, k_hw):
    """Every small layer the word admits, at k_hw up to 20: the x reads
    gather im2col's columns (tile tails read 0), the four counters carry
    as often as their ranges give, every output is written once, and the
    bias is enabled exactly while the tile under calculation came from a
    carry that also finished its position."""
    try:
        cfg = LayerConfigWord(c=c, kh=kh, kw=kw, s=s, p=p, n=n, b=8, h=h, w=w)
    except ValueError:
        reject()
    x, stream, writes, carries = _collect(cfg, k_hw)
    assert (stream[:, :, :cfg.patch_len] == im2col(x, cfg).T).all()
    assert (stream[:, :, cfg.patch_len:] == 0).all()
    hw, tiles = cfg.h_out * cfg.w_out, cfg.tiles(k_hw)
    assert carries == Counter({1: tiles * hw * n, 2: hw * n, 3: n, 4: 1})
    assert sorted(writes) == list(range(n * hw))
    state, last_tile = CounterState.initial(), False
    while not state.done:
        state, events = step(state, cfg, k_hw)
        if AddrEvent("carry", level=1) in events:
            last_tile = AddrEvent("carry", level=2) in events
        assert bias_enable(state, cfg, k_hw) == last_tile


def test_gather_stream_rejects_non_integer_input():
    """A cast read 0.5 as 0 and 1.9 as 1."""
    cfg = LayerConfigWord(c=1, kh=1, kw=1, s=1, p=0, n=1, b=8, h=1, w=2)
    with pytest.raises(ValueError, match="int64 integers"):
        gather_stream(cfg, np.array([[[0.5, 1.9]]]), 4)


@pytest.mark.parametrize("cfg", CONV_LAYERS, ids=lambda c: f"c{c.c}k{c.kh}s{c.s}")
def test_carry_counts(cfg):
    k_hw = 16
    _, _, _, carries = _collect(cfg, k_hw)
    hw = cfg.h_out * cfg.w_out
    assert carries[1] == cfg.tiles(k_hw) * hw * cfg.n
    assert carries[2] == hw * cfg.n
    assert carries[3] == cfg.n
    assert carries[4] == 1


@pytest.mark.parametrize("cfg", CONV_LAYERS, ids=lambda c: f"c{c.c}k{c.kh}s{c.s}")
def test_write_addresses_bijective(cfg):
    _, _, writes, _ = _collect(cfg, 16)
    n_out = cfg.n * cfg.h_out * cfg.w_out
    assert len(writes) == n_out
    assert sorted(writes) == list(range(n_out))


def test_read_addresses_example():
    """Fetching the 12th word of the 3rd tile at position 5, channel 1."""
    cfg = CONV_LAYERS[2]  # 6x5x5 patch: Np = 150, 10 tiles of 16
    state = CounterState(11, GroupCtx(2, 5, 1, 0), None, None)
    ra = read_addresses(state, cfg, 16)
    idx = 2 * 16 + 11  # = 43: channel 1, kernel row 3, col 3
    assert ra["theta"] == 1 * cfg.patch_len + idx
    ch, rem = divmod(idx, 25)
    k, l = divmod(rem, 5)
    oh, ow = divmod(5, cfg.w_out)
    assert ra["x"] == ch * cfg.h * cfg.w + (oh + k) * cfg.w + (ow + l)
    assert ra["beta"] is None  # not the last tile


def test_beta_read_only_on_last_tile_start():
    cfg = CONV_LAYERS[0]  # Np = 25, 2 tiles of 16
    last = cfg.tiles(16) - 1
    assert read_addresses(CounterState(0, GroupCtx(last, 3, 2, 0), None, None),
                          cfg, 16)["beta"] == 2
    assert read_addresses(CounterState(1, GroupCtx(last, 3, 2, 0), None, None),
                          cfg, 16)["beta"] is None
    assert read_addresses(CounterState(0, GroupCtx(0, 3, 2, 0), None, None),
                          cfg, 16)["beta"] is None


def test_tail_reads_are_pad():
    cfg = CONV_LAYERS[0]  # Np = 25; tile 1 indices 25..31 are tail
    state = CounterState(9, GroupCtx(1, 0, 0, 0), None, None)
    ra = read_addresses(state, cfg, 16)
    assert ra["x"] == "pad" and ra["theta"] is None


def test_padding_reads_bottom_right():
    cfg = CONV_LAYERS[1]  # 3x3 stride 2, one-sided padding on 28x28
    # last output position touches the padded column/row
    pos = cfg.h_out * cfg.w_out - 1
    pads = 0
    state = CounterState(0, GroupCtx(0, pos, 0, 0), None, None)
    for _ in range(16):
        ra = read_addresses(state, cfg, 16)
        if ra["x"] == "pad" and ra["theta"] is not None:
            pads += 1
        state = CounterState(state.cntr0 + 1, state.rd, None, None)
    assert pads > 0


def test_carry1_boundary():
    cfg = CONV_LAYERS[0]
    state = CounterState(15, GroupCtx(0, 0, 0, 0), None, None)
    nxt, events = step(state, cfg, 16)
    kinds = [e.kind for e in events]
    assert AddrEvent("carry", level=1) in events
    assert nxt.cntr0 == 0
    assert nxt.rd.tile == 1
    assert "handoff" in kinds


def test_handoff_pipeline_order():
    """Contexts move read -> calculate -> write, one tile per carry."""
    cfg = CONV_LAYERS[0]
    state = CounterState.initial()
    seen = []
    for _ in range(16 * 3):
        prev = state
        state, _ = step(state, cfg, 16)
        if state.cntr0 == 0:
            seen.append((prev.rd, state.cal, state.wr))
    # after the first carry, cal holds the context read just before it
    assert seen[0][1] == GroupCtx(0, 0, 0, 0) and seen[0][2] is None
    assert seen[1][1] == GroupCtx(1, 0, 0, 0)
    assert seen[1][2] == GroupCtx(0, 0, 0, 0)


def test_bias_enable_on_last_tile_in_cal():
    cfg = CONV_LAYERS[0]  # 2 tiles
    s0 = CounterState(0, GroupCtx(0, 0, 0, 0), None, None)
    assert not bias_enable(s0, cfg, 16)
    s1 = CounterState(0, GroupCtx(0, 1, 0, 0), GroupCtx(1, 0, 0, 0), None)
    assert bias_enable(s1, cfg, 16)
    s2 = CounterState(0, GroupCtx(1, 0, 0, 0), GroupCtx(0, 0, 0, 0), None)
    assert not bias_enable(s2, cfg, 16)


def test_bias_enable_pattern_many_tiles():
    """With 10 tiles per position, bias fires on exactly one tile in ten."""
    cfg = CONV_LAYERS[2]  # Np = 150 -> 10 tiles of 16
    fires = 0
    total = 0
    state = CounterState.initial()
    for _ in range(16 * 10 * 3):  # three full positions
        state, _ = step(state, cfg, 16)
        if state.cntr0 == 0:
            total += 1
            fires += bias_enable(state, cfg, 16)
    assert total == 30 and fires == 3


def test_write_address_row_major():
    cfg = CONV_LAYERS[0]  # 28x28 outputs
    assert write_address(GroupCtx(0, 0, 0, 0), cfg) == 0
    assert write_address(GroupCtx(0, 29, 0, 0), cfg) == 29
    assert write_address(GroupCtx(0, 0, 2, 0), cfg) == 2 * 28 * 28


def test_step_after_done_raises():
    cfg = LayerConfigWord(c=1, kh=1, kw=1, s=1, p=0, n=1, b=8, h=1, w=1)
    state = CounterState.initial()
    state, events = step(state, cfg, 1)
    assert state.done
    with pytest.raises(ValueError):
        step(state, cfg, 1)


def test_layer_config_validation():
    with pytest.raises(ValueError):
        LayerConfigWord(c=1, kh=3, kw=3, s=3, p=0, n=1, b=8, h=8, w=8)
    with pytest.raises(ValueError):
        LayerConfigWord(c=1, kh=3, kw=3, s=1, p=2, n=1, b=8, h=8, w=8)
    with pytest.raises(ValueError):
        LayerConfigWord(c=1, kh=9, kw=9, s=1, p=0, n=1, b=8, h=8, w=8)
    cfg = LayerConfigWord(c=6, kh=5, kw=5, s=1, p=0, n=16, b=8, h=14, w=14)
    assert cfg.h_out == 10 and cfg.w_out == 10
    assert cfg.patch_len == 150
    assert cfg.tiles(16) == 10


LAYER = dict(c=1, kh=3, kw=3, s=1, p=0, n=1, b=8, h=8, w=8)


@pytest.mark.parametrize("field, value, match", [
    ("c", 2.5, "is not an integer"), ("h", 8.0, "is not an integer"),
    ("s", "1", "is not an integer"), ("b", None, "is not an integer"),
    ("b", 0, "bit-width"), ("b", 1, "bit-width"), ("b", 33, "bit-width"),
    ("c", True, "is not an integer"), ("s", True, "is not an integer")])
def test_layer_config_rejects_non_integers_and_bad_widths(field, value,
                                                          match):
    """A fractional channel count was kept as is, c = True built a
    1-channel layer, and b = 0 only failed later, with "negative shift
    count" from gen_input."""
    with pytest.raises(ValueError, match=match):
        LayerConfigWord(**{**LAYER, field: value})


def test_layer_config_takes_numpy_integers_as_ints():
    cfg = LayerConfigWord(**{k: np.int64(v) for k, v in LAYER.items()})
    assert cfg == LayerConfigWord(**LAYER)
    assert all(type(v) is int for v in vars(cfg).values())
