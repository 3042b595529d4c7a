"""The benchmark workloads: set-up, one closed-loop round, checks.

Every workload runs in one process and one thread.  A round is the
smallest whole unit of the workload's mix (one image through the full
config grid, one call per inner-product config, one walk per
address-generator config), so every run measures the same mix however
long it lasts.  Inputs for each
round are generated just before it from a SplitMix64 stream seeded by the
workload seed, outside the timed region, and every result is checked
against the package's own oracles.

Calls into the package always go through module attributes
(`cnn.infer`, `ipc.ipc_obc`, ...), so the wrappers that `tracing`
installs, and any fault a test injects, see every call.
"""

import itertools
import sys
import tempfile
import traceback
from array import array
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

from comet import cnn_model as cnn
from comet import gemm_core as gemm
from comet import im2col_addr as addr
from comet import obc_ipc as ipc
from comet import tensor_io as tio
from comet.fxp import FxpFormat
from comet.lut_arch import KINDS

from tracing import NullRecorder

GOLDEN_WEIGHT_DIGEST = \
    "56cc789ae00235e29ed55ee68f86097e1e29d629defa24025e03b7a8d519b508"
WEIGHT_SEED = 42
B2 = 8
B1S = (8, 16)
K_HW = 16
LANES = 10
IMAGE_SHAPE = (1, 32, 32)
IPC_SHAPES = ((4, 8, 8), (8, 16, 8), (16, 16, 4), (16, 8, 4))
ADDRGEN_K_HW = (16, 4)
PACE_CYCLES = 256
MAX_ERRORS_SHOWN = 3


def layer_names(model) -> list[tuple[str, object]]:
    """(name, layer) for the GEMM-lowered layers: conv1..conv4, fc1, fc2."""
    out, seen = [], Counter()
    for lay in model.layers:
        if lay.kind in ("conv", "fc"):
            seen[lay.kind] += 1
            out.append((f"{lay.kind}{seen[lay.kind]}", lay))
    return out


def config_label(cfg) -> str:
    return f"{cfg.scheme.value}-{cfg.arch}-b{cfg.b1}"


class Tally:
    """What one measured phase did: operations, latencies, exact counts."""

    def __init__(self, host=None):
        self.host = host              # HostSpeed paced between operations
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.item_ns = array("q")     # one entry per verified item
        self.call_ns = array("q")     # one entry per datapath call
        self.sim_cycles = 0           # simulated cycles of those calls
        self.counts: Counter = Counter()
        self.group_ns: Counter = Counter()
        self.group_cycles: Counter = Counter()
        self.errors: list[str] = []

    def op(self, check, *args) -> bool:
        """Run one checked operation; a False result or a raise fails it."""
        self.attempted += 1
        try:
            ok = bool(check(*args))
        except Exception:  # a raising call is a failed operation
            ok = False
            if len(self.errors) < MAX_ERRORS_SHOWN:
                self.errors.append(traceback.format_exc())
        if not ok:
            self.failed += 1
        self.pace()
        return ok

    def pace(self) -> None:
        if self.host is not None:
            self.host.pace()

    def paused_ns(self) -> int:
        """Calibration time so far, to leave out of item times."""
        return self.host.spent_ns if self.host is not None else 0

    def call(self, ns: int, cycles: int) -> None:
        self.call_ns.append(ns)
        self.sim_cycles += cycles

    def merge_ops(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors[:MAX_ERRORS_SHOWN])


def _timed(fn, *args):
    t0 = perf_counter_ns()
    out = fn(*args)
    return out, perf_counter_ns() - t0


class Setup:
    """State every workload builds: models, pinned weight bundles, an image.

    Each B1 gets its own model and one weight bundle (seed 42, B2 = 8).
    The bundle digest is checked straight from the generator and again
    after a save/load round trip; the round-tripped bundle is the one the
    workloads use.
    """

    def __init__(self, seed: int, scratch_dir, tally: Tally):
        self.rng = tio.SplitMix64(seed)
        self.ns: dict[str, list[int]] = defaultdict(list)
        self.models = {}
        for b1 in B1S:
            model = cnn.build_modified_lenet5(b1, B2)
            bundle, ns = _timed(tio.gen_weights, WEIGHT_SEED, model, B2)
            self.ns["gen_weights"].append(ns)
            tally.op(lambda: bundle.digest() == GOLDEN_WEIGHT_DIGEST)
            t0 = perf_counter_ns()
            with tempfile.TemporaryDirectory(dir=scratch_dir) as d:
                tio.save_weight_bundle(bundle, model, d)
                loaded = tio.load_weight_bundle(d)
            self.ns["bundle_roundtrip"].append(perf_counter_ns() - t0)
            tally.op(lambda: loaded.digest() == GOLDEN_WEIGHT_DIGEST)
            self.models[b1] = (model, loaded)
        self.images = {}
        for b1 in B1S:
            self.images[b1], ns = _timed(tio.gen_input, self.rng.next_u64(),
                                         IMAGE_SHAPE, b1)
            self.ns["gen_input"].append(ns)

    def next_image(self) -> dict:
        """A fresh image, as an input tensor for each B1."""
        seed = self.rng.next_u64()
        return {b1: tio.gen_input(seed, IMAGE_SHAPE, b1) for b1 in B1S}


# -- lenet-infer ------------------------------------------------------------

class LenetInfer:
    """Seeded images through the full C5 grid on the vectorized engine."""

    name = "lenet-infer"

    def __init__(self, setup: Setup, tally: Tally):
        self.s = setup
        self.configs = {
            b1: [gemm.GemmConfig(k_hw=K_HW, l=LANES, scheme=scheme, arch=arch,
                                 b1=b1, b2=B2)
                 for scheme in ipc.Scheme for arch in KINDS]
            for b1 in B1S}
        self.cycles = {cfg: cnn.model_cycles(self.s.models[b1][0], cfg)
                       for b1, cfgs in self.configs.items() for cfg in cfgs}
        self.images = 0
        self._image(setup.images, tally, NullRecorder(), warmup=True)

    def _image(self, xs, tally, rec, warmup=False):
        for b1 in B1S:
            model, weights = self.s.models[b1]
            x = xs[b1]
            rec.begin_request((f"b{b1}", self.images))
            try:
                want = cnn.infer_oracle(model, weights, x)
            except Exception:
                want = None
                tally.errors.append(traceback.format_exc())
            for cfg in self.configs[b1]:
                rec.begin_request((config_label(cfg), self.images))
                tally.op(self._check, model, weights, x, cfg, want, tally,
                         warmup)

    def _check(self, model, weights, x, cfg, want, tally, warmup):
        t0 = perf_counter_ns()
        res = cnn.infer(model, weights, x, cfg, record=False)
        if not warmup:
            tally.call(perf_counter_ns() - t0, res.total_cycles)
        return (res.logits == want and res.total_cycles == self.cycles[cfg]
                and any(res.logits))

    def round(self, tally, rec):
        xs = self.s.next_image()
        t0, p0 = perf_counter_ns(), tally.paused_ns()
        self._image(xs, tally, rec)
        tally.item_ns.append(perf_counter_ns() - t0 - (tally.paused_ns() - p0))
        self.images += 1


# -- ipc-verify -------------------------------------------------------------

class IpcVerify:
    """Fresh operand triples through every scalar inner-product config."""

    name = "ipc-verify"

    def __init__(self, setup: Setup, tally: Tally):
        self.s = setup
        self.configs = [(k, FxpFormat(b1), FxpFormat(b2), scheme, arch)
                        for k, b1, b2 in IPC_SHAPES
                        for scheme in ipc.Scheme for arch in KINDS]
        self.calls = 0
        warm = tio.SplitMix64(0)
        for cfg in self.configs:
            tally.op(self._check, cfg, self._triple(warm, cfg), None)

    @staticmethod
    def _triple(rng, cfg):
        k, fmt_in, fmt_wt = cfg[:3]
        w = [rng.next_int(fmt_wt.bits) for _ in range(k)]
        x = [rng.next_int(fmt_in.bits) for _ in range(k)]
        return w, x, rng.next_int(fmt_wt.bits)

    def _check(self, cfg, triple, tally):
        _, fmt_in, fmt_wt, scheme, arch = cfg
        w, x, bias = triple
        t0 = perf_counter_ns()
        prob = ipc.IpcProblem.from_vectors(w, x, bias, scheme, fmt_in, fmt_wt)
        t1 = perf_counter_ns()
        got, _ = ipc.ipc_obc(prob, arch, record=False)
        t2 = perf_counter_ns()
        ok = got == ipc.ipc_oracle(w, x, bias)
        if tally is not None:
            tally.call(t2 - t1, prob.serial_bits)
            tally.item_ns.append(perf_counter_ns() - t0)
        return ok

    def round(self, tally, rec):
        triples = [self._triple(self.s.rng, cfg) for cfg in self.configs]
        for cfg, triple in zip(self.configs, triples):
            rec.begin_request((self.calls,))
            tally.op(self._check, cfg, triple, tally)
            self.calls += 1


# -- addrgen ----------------------------------------------------------------

class Addrgen:
    """Counter address generator walked over conv1..conv4 at two k_hw."""

    name = "addrgen"

    def __init__(self, setup: Setup, tally: Tally):
        self.s = setup
        model = setup.models[B1S[0]][0]
        self.walks = [(f"{name}-k{k_hw}", lay.cfg, k_hw)
                      for k_hw in ADDRGEN_K_HW
                      for name, lay in layer_names(model)
                      if lay.kind == "conv"]
        for _, cfg, k_hw in self.walks:
            # one output position per config: every read/carry-1/carry-2 path
            per_pos = cfg.tiles(k_hw) * k_hw
            for _ in itertools.islice(addr.run_layer(cfg, k_hw), per_pos):
                pass

    @staticmethod
    def _walk(cfg, k_hw, lat, pace):
        """Consume one layer walk; time each generator advance into `lat`.

        `pace` runs between advances every PACE_CYCLES cycles, so that host
        calibration samples the whole walk.
        """
        xs, writes = [], []
        carries = [0] * 5
        events = 0
        it = addr.run_layer(cfg, k_hw)
        t = perf_counter_ns()
        for _, evs in it:
            lat.append(perf_counter_ns() - t)
            events += len(evs)
            for ev in evs:
                kind = ev.kind
                if kind == "read_x":
                    xs.append(ev.addr)
                elif kind == "read_x_pad":
                    xs.append(-1)
                elif kind == "carry":
                    carries[ev.level] += 1
                elif kind == "write_y":
                    writes.append(ev.addr)
            if not len(lat) % PACE_CYCLES:
                pace()
            t = perf_counter_ns()
        return xs, writes, carries, events

    @staticmethod
    def _check(cfg, k_hw, x, xs, writes, carries):
        """The stream, carry and write checks of acceptance criterion 4."""
        tiles, hw = cfg.tiles(k_hw), cfg.h_out * cfg.w_out
        per_pos = tiles * k_hw
        xs = np.asarray(xs, dtype=np.int64)
        if xs.shape != (cfg.n * hw * per_pos,):
            return False
        got = np.where(xs >= 0, x.reshape(-1)[xs], 0).reshape(cfg.n, hw,
                                                               per_pos)
        ref = gemm.im2col(x, cfg)
        stream_ok = (got[:, :, :cfg.patch_len] == ref.T[None]).all()
        tail_ok = (xs.reshape(cfg.n, hw, per_pos)[:, :, cfg.patch_len:]
                   == -1).all()
        carries_ok = carries[1:] == [tiles * hw * cfg.n, hw * cfg.n, cfg.n, 1]
        writes_ok = sorted(writes) == list(range(cfg.n * hw))
        return bool(stream_ok and tail_ok and carries_ok and writes_ok)

    def _timed_walk(self, label, cfg, k_hw, x, tally, rec):
        lat = array("q")
        t0, p0 = perf_counter_ns(), tally.paused_ns()
        with rec.span("im2col_addr.run_layer"):
            xs, writes, carries, events = self._walk(cfg, k_hw, lat,
                                                     tally.pace)
        tally.item_ns.append(perf_counter_ns() - t0 - (tally.paused_ns() - p0))
        tally.call_ns.extend(lat)
        tally.sim_cycles += len(lat)
        tally.group_ns[label] += sum(lat)
        tally.group_cycles[label] += len(lat)
        tally.counts["cycles"] += len(lat)
        tally.counts["events"] += events
        return self._check(cfg, k_hw, x, xs, writes, carries)

    def round(self, tally, rec):
        for label, cfg, k_hw in self.walks:
            x = tio.gen_input(self.s.rng.next_u64(), (cfg.c, cfg.h, cfg.w),
                              cfg.b)
            rec.begin_request((label,))
            tally.op(self._timed_walk, label, cfg, k_hw, x, tally, rec)


WORKLOADS = {w.name: w for w in (LenetInfer, IpcVerify, Addrgen)}


def report_errors(tally: Tally) -> None:
    for err in tally.errors[:MAX_ERRORS_SHOWN]:
        print(err, file=sys.stderr)
