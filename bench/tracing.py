"""Spans recorded from outside the program, around calls into its modules.

The recorder keeps every span in memory as parallel arrays (name, start,
end, parent, request) and writes them out once, when the run ends.  Spans
come from wrappers installed on the module attributes that callers look
up at call time, so the program's own code is never edited: while
`instrument` is active, `cnn_model.gemm_obc` (for example) is a wrapper
that opens a span, calls the real function and closes the span.
"""

import contextlib
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np


class NullRecorder:
    """Recorder used with tracing off: keeps nothing."""

    def begin_request(self, label: tuple) -> None:
        pass

    def span(self, name: str):
        return contextlib.nullcontext()


class SpanRecorder:
    """In-memory span store; one entry per call into a wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("i")
        self.requests: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._req = -1

    def begin_request(self, label: tuple) -> None:
        """Tag every span opened from now on with `label`."""
        self.requests.append(label)
        self._req = len(self.requests) - 1

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self._req)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def save(self, path) -> None:
        """Write all spans to one .npz file (names indexed by `name`)."""
        np.savez(path, names=np.array(self.names), name=self.name,
                 start=self.start, end=self.end, parent=self.parent,
                 request=self.request,
                 requests=np.array([repr(r) for r in self.requests]))


class SpanTable:
    """Numpy view of a finished recording, with self times."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self.names = rec.names
        self.name = np.frombuffer(rec.name, dtype=np.uint16)
        self.dur = (np.frombuffer(rec.end, dtype=np.int64)
                    - np.frombuffer(rec.start, dtype=np.int64))
        self.parent = np.frombuffer(rec.parent, dtype=np.int64)
        self.request = np.frombuffer(rec.request, dtype=np.int32)
        child = np.zeros(len(self.dur), dtype=np.int64)
        has = self.parent >= 0
        np.add.at(child, self.parent[has], self.dur[has])
        self.self_ns = self.dur - child

    def ids(self, prefix: str) -> np.ndarray:
        """Indices of spans whose name equals `prefix` or extends it."""
        want = [i for i, n in enumerate(self.names)
                if n == prefix or n.startswith(prefix + ".")]
        return np.flatnonzero(np.isin(self.name, want))

    def median_ns(self, prefix: str, self_time: bool = False) -> float:
        """Median span (or self) duration; 0 when the name never ran."""
        idx = self.ids(prefix)
        if not len(idx):
            return 0.0
        vals = self.self_ns if self_time else self.dur
        return float(np.median(vals[idx]))

    def per_parent_ns(self, child: str, parent: str) -> np.ndarray:
        """Summed `child` time under each `parent` span, one value each."""
        pidx = self.ids(parent)
        if not len(pidx):
            return np.zeros(0)
        cidx = self.ids(child)
        cidx = cidx[np.isin(self.parent[cidx], pidx)]
        pos = np.searchsorted(pidx, self.parent[cidx])
        return np.bincount(pos, weights=self.dur[cidx], minlength=len(pidx))

    def per_request_ns(self, prefix: str) -> dict[tuple, float]:
        """Total `prefix` time per request label, summed over spans."""
        idx = self.ids(prefix)
        out: dict[tuple, float] = {}
        for r, d in zip(self.request[idx], self.dur[idx]):
            label = self.rec.requests[r]
            out[label] = out.get(label, 0.0) + float(d)
        return out


def traced(rec: SpanRecorder, fn, name: str, label=None):
    """Wrap `fn` so each call is one span named `name[.label(args)]`."""
    if label is None:
        def wrapper(*args, **kwargs):
            idx = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)
    else:
        def wrapper(*args, **kwargs):
            idx = rec.open(f"{name}.{label(*args, **kwargs)}")
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)
    return wrapper


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set (module, attribute) -> value; restore on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)


class _TracedIpcProblem:
    """Stands in for the IpcProblem class; only from_vectors is timed."""

    def __init__(self, rec: SpanRecorder, cls):
        self._cls = cls
        self.from_vectors = traced(rec, cls.from_vectors,
                                   "obc_ipc.IpcProblem.from_vectors")

    def __call__(self, *args, **kwargs):
        return self._cls(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._cls, attr)


def _traced_prepared_lut(rec: SpanRecorder, cls):
    """Factory in place of PreparedLut: times the build and each lookup."""
    def make(kind, coeffs, q=None):
        idx = rec.open(f"lut_arch.PreparedLut.init.{kind}")
        try:
            lut = cls(kind, coeffs, q)
        finally:
            rec.close(idx)
        lut.value = traced(rec, lut.value,
                           f"lut_arch.PreparedLut.value.{kind}")
        return lut
    return make


def _counted_gemm(rec: SpanRecorder, fn, layer_of):
    """gemm_obc wrapper: one span per call plus cycle and MAC counters."""
    def wrapper(theta, xcols, bias, cfg, record=False):
        idx = rec.open(f"gemm_core.gemm_obc.{layer_of[np.shape(theta)]}")
        try:
            out = fn(theta, xcols, bias, cfg, record=record)
        finally:
            rec.close(idx)
        n, k = np.shape(theta)
        rec.counts["gemm_core.gemm_obc.cycles"] += out[1]
        rec.counts["gemm_core.gemm_obc.calls"] += 1
        rec.counts["gemm_core.macs"] += n * k * np.shape(xcols)[1]
        return out
    return wrapper


def instrument(rec: SpanRecorder, comet, gemm_layers, conv_layers):
    """Context manager that wraps every timed public function of `comet`.

    `gemm_layers` maps a weight-matrix shape (N, patch_len) to a layer
    name and `conv_layers` maps (C, H, W) input shapes to conv names, so
    spans carry the model layer they belong to.
    """
    cnn, gemm, ipc, addr = (comet.cnn_model, comet.gemm_core, comet.obc_ipc,
                            comet.im2col_addr)
    traced_ipc = traced(rec, ipc.ipc_obc, "obc_ipc.ipc_obc",
                        lambda p, impl=None, record=True: impl)
    problem = _TracedIpcProblem(rec, ipc.IpcProblem)
    return patched([
        (cnn, "infer", traced(rec, cnn.infer, "cnn_model.infer")),
        (cnn, "infer_oracle", traced(rec, cnn.infer_oracle,
                                     "cnn_model.infer_oracle")),
        (cnn, "im2col", traced(rec, cnn.im2col, "gemm_core.im2col",
                               lambda x, cfg: conv_layers[np.shape(x)])),
        (cnn, "gemm_obc", _counted_gemm(rec, cnn.gemm_obc, gemm_layers)),
        (cnn, "requantize", traced(rec, cnn.requantize,
                                   "cnn_model.requantize")),
        (cnn, "conv_direct", traced(rec, cnn.conv_direct,
                                    "cnn_model.conv_direct")),
        (gemm, "ipc_obc", traced_ipc),
        (gemm, "IpcProblem", problem),
        (ipc, "ipc_obc", traced_ipc),
        (ipc, "IpcProblem", problem),
        (ipc, "ipc_oracle", traced(rec, ipc.ipc_oracle, "obc_ipc.ipc_oracle")),
        (ipc, "PreparedLut", _traced_prepared_lut(rec, ipc.PreparedLut)),
        (ipc, "sa_run", traced(rec, ipc.sa_run, "obc_ipc.sa_run")),
        (addr, "step", traced(rec, addr.step, "im2col_addr.step")),
        (addr, "read_addresses", traced(rec, addr.read_addresses,
                                        "im2col_addr.read_addresses")),
    ])
