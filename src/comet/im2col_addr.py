"""Hierarchical-counter address generator for the im2col dataflow.

A standalone cycle counter walks the operand fetches of one tile; above
it sit four read-counter levels (tile, spatial position, output channel,
layer) that ripple through carry signals 1..4.  Calculation and write
counter groups do not ripple: each completed read context is handed off
read -> calculate -> write, one tile behind per stage, mirroring the
pipelined dataflow.

Memory images are flat row-major arrays: xRAM is (channel, row, col),
thetaRAM is (output channel, patch index), betaRAM one word per output
channel, and YRAM is (output channel, out row, out col).  One-sided zero
padding sits on the bottom/right edge of the input frame; patch taps
falling outside it are emitted as pad-zero events instead of addresses.
"""

from dataclasses import dataclass, fields

import numpy as np

from .fxp import FxpFormat, as_int, as_int64


@dataclass(frozen=True)
class LayerConfigWord:
    """Per-layer configuration: dims, kernel, stride, padding, widths."""

    c: int       # input channels
    kh: int      # kernel height
    kw: int      # kernel width
    s: int       # stride, 1 = normal convolution, 2 = downsampling
    p: int       # 0 = no padding, 1 = one-sided zero padding
    n: int       # output channels
    b: int       # serial bit-width for the layer
    h: int       # input height
    w: int       # input width

    def __post_init__(self):
        for f in fields(self):      # frozen: set past the dataclass guard
            object.__setattr__(self, f.name,
                               as_int(getattr(self, f.name), f.name))
        FxpFormat(self.b)
        if self.s not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {self.s}")
        if self.p not in (0, 1):
            raise ValueError(f"padding must be 0 or 1, got {self.p}")
        if min(self.c, self.kh, self.kw, self.n, self.h, self.w) < 1:
            raise ValueError("dimensions must be positive")
        if self.h_out < 1 or self.w_out < 1:
            raise ValueError("kernel does not fit the (padded) input")

    @property
    def h_out(self) -> int:
        return (self.h + self.p - self.kh) // self.s + 1

    @property
    def w_out(self) -> int:
        return (self.w + self.p - self.kw) // self.s + 1

    @property
    def patch_len(self) -> int:
        return self.c * self.kh * self.kw

    def tiles(self, k_hw: int) -> int:
        return -(-self.patch_len // k_hw)

    def check_input(self, x) -> np.ndarray:
        """`x` through `as_int64`; ValueError unless it is (c, h, w)."""
        x = as_int64(x, "inputs")
        if x.shape != (self.c, self.h, self.w):
            raise ValueError(
                f"input shape {x.shape} != {(self.c, self.h, self.w)}")
        return x


@dataclass(frozen=True)
class GroupCtx:
    """One counter group's committed position: tile / position / channel / layer."""

    tile: int
    pos: int
    chan: int
    layer: int


@dataclass(frozen=True)
class CounterState:
    cntr0: int
    rd: GroupCtx
    cal: GroupCtx | None
    wr: GroupCtx | None
    done: bool = False

    @classmethod
    def initial(cls) -> "CounterState":
        return cls(0, GroupCtx(0, 0, 0, 0), None, None)


@dataclass(frozen=True)
class AddrEvent:
    """One observable event: a memory access, carry, or stage handoff."""

    kind: str                 # read_x | read_x_pad | read_theta | read_beta |
                              # write_y | carry | handoff
    addr: int | None = None
    level: int | None = None  # carry level 1..4
    group: str | None = None  # handoff destination: "cal" or "wr"


def _check_state(state: CounterState, cfg: LayerConfigWord, k_hw: int) -> None:
    tiles = cfg.tiles(k_hw)
    ok = (0 <= state.cntr0 < k_hw and 0 <= state.rd.tile < tiles
          and 0 <= state.rd.pos < cfg.h_out * cfg.w_out
          and 0 <= state.rd.chan < cfg.n)
    if not ok:
        raise ValueError("counter state inconsistent with layer bounds")


def read_addresses(state: CounterState, cfg: LayerConfigWord,
                   k_hw: int) -> dict:
    """Read-side addresses for the current fetch cycle.

    `x` is an int address or the string "pad" when the tap is a zero
    (spatial padding or tile tail beyond the patch length); `beta` is
    present only on the last tile of a spatial position.
    """
    _check_state(state, cfg, k_hw)
    idx = state.rd.tile * k_hw + state.cntr0
    out = {"x": "pad", "theta": None, "beta": None}
    if idx < cfg.patch_len:
        ch, rem = divmod(idx, cfg.kh * cfg.kw)
        k, l = divmod(rem, cfg.kw)
        oh, ow = divmod(state.rd.pos, cfg.w_out)
        ih = oh * cfg.s + k
        iw = ow * cfg.s + l
        if ih < cfg.h and iw < cfg.w:
            out["x"] = ch * cfg.h * cfg.w + ih * cfg.w + iw
        out["theta"] = state.rd.chan * cfg.patch_len + idx
    if state.rd.tile == cfg.tiles(k_hw) - 1 and state.cntr0 == 0:
        out["beta"] = state.rd.chan
    return out


def write_address(ctx: GroupCtx, cfg: LayerConfigWord) -> int:
    """Row-major (n, h_out, w_out) YRAM address for a committed context."""
    oh, ow = divmod(ctx.pos, cfg.w_out)
    return ctx.chan * cfg.h_out * cfg.w_out + oh * cfg.w_out + ow


def bias_enable(state: CounterState, cfg: LayerConfigWord, k_hw: int) -> bool:
    """True when the tile under calculation is the last of its position."""
    return state.cal is not None and state.cal.tile == cfg.tiles(k_hw) - 1


def step(state: CounterState, cfg: LayerConfigWord,
         k_hw: int) -> tuple[CounterState, list[AddrEvent]]:
    """Advance the generator by one clock cycle.

    Emits the read events of the current cycle, then processes carries:
    carry 1 hands the finished tile context down the cal/wr pipeline and
    may ripple up through carries 2..4 in the read group.
    """
    if state.done:
        raise ValueError("generator already finished the layer")
    _check_state(state, cfg, k_hw)
    tiles = cfg.tiles(k_hw)
    events: list[AddrEvent] = []

    ra = read_addresses(state, cfg, k_hw)
    if ra["x"] == "pad":
        events.append(AddrEvent("read_x_pad"))
    else:
        events.append(AddrEvent("read_x", addr=ra["x"]))
    if ra["theta"] is not None:
        events.append(AddrEvent("read_theta", addr=ra["theta"]))
    if ra["beta"] is not None:
        events.append(AddrEvent("read_beta", addr=ra["beta"]))

    cntr0 = state.cntr0 + 1
    rd, cal, wr, done = state.rd, state.cal, state.wr, False
    if cntr0 == k_hw:
        cntr0 = 0
        events.append(AddrEvent("carry", level=1))
        # non-rippling handoff: read -> calculate -> write
        wr = cal
        cal = rd
        events.append(AddrEvent("handoff", group="cal"))
        if wr is not None:
            events.append(AddrEvent("handoff", group="wr"))
            if wr.tile == tiles - 1:
                events.append(AddrEvent("write_y", addr=write_address(wr, cfg)))
        tile = rd.tile + 1
        pos, chan, layer = rd.pos, rd.chan, rd.layer
        if tile == tiles:
            events.append(AddrEvent("carry", level=2))
            tile = 0
            pos += 1
            if pos == cfg.h_out * cfg.w_out:
                events.append(AddrEvent("carry", level=3))
                pos = 0
                chan += 1
                if chan == cfg.n:
                    events.append(AddrEvent("carry", level=4))
                    chan = 0
                    layer += 1
                    done = True
        rd = GroupCtx(tile, pos, chan, layer)
    return CounterState(cntr0, rd, cal, wr, done), events


def run_layer(cfg: LayerConfigWord, k_hw: int):
    """Yield (cycle, events) for a full layer, including pipeline drain.

    After the read counters finish, one drain pulse flushes the context
    still sitting in the calculate stage so the final output position
    gets its write event.
    """
    state = CounterState.initial()
    cycle = 0
    while not state.done:
        state, events = step(state, cfg, k_hw)
        yield cycle, events
        cycle += 1
    tiles = cfg.tiles(k_hw)
    pending = state.cal
    if pending is not None:
        events = [AddrEvent("handoff", group="wr")]
        if pending.tile == tiles - 1:
            events.append(AddrEvent("write_y", addr=write_address(pending, cfg)))
        yield cycle, events


def gather_stream(cfg: LayerConfigWord, x, k_hw: int):
    """Walk a layer and gather the activations its x reads fetch.

    Returns (stream, cycles).  `stream` is an int64 array of shape
    (n, h_out * w_out, tiles * k_hw) in read order: the value of `x`
    (c, h, w) at each read_x address, 0 for each read_x_pad (spatial
    padding or tile tail).  `cycles` lists the (cycle, events) pairs of
    `run_layer`.
    """
    flat = cfg.check_input(x).reshape(-1)
    k_hw = as_int(k_hw, "k_hw")
    if k_hw < 1:
        raise ValueError(f"k_hw must be positive, got {k_hw}")
    cycles = list(run_layer(cfg, k_hw))
    stream = [flat[ev.addr] if ev.kind == "read_x" else 0
              for _, events in cycles for ev in events
              if ev.kind in ("read_x", "read_x_pad")]
    return (np.array(stream, dtype=np.int64).reshape(
        cfg.n, cfg.h_out * cfg.w_out, cfg.tiles(k_hw) * k_hw), cycles)
