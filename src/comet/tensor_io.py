"""Bit-exact tensor container (CBT), weight bundles, seeded generators.

CBT is a little-endian wire format:

    magic   4 bytes  "CBT1"
    version u16
    dtype   u8       0 = i8, 1 = i16, 2 = i32
    rank    u8
    dims    rank * u32
    payload prod(dims) * dtype-size signed integers, row-major

Weight/input fixtures come from a SplitMix64 stream (standard published
constants) so identical (seed, model, width) inputs give byte-identical
bundles on every platform.
"""

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fxp import FxpFormat, as_int, as_int64, as_ints

MAGIC = b"CBT1"
VERSION = 1
_DTYPES = {0: np.int8, 1: np.int16, 2: np.int32}
_CODES = {np.dtype(np.int8): 0, np.dtype(np.int16): 1, np.dtype(np.int32): 2}


class CbtError(ValueError):
    """Base class for CBT container violations."""


class MagicMismatch(CbtError):
    pass


class Truncated(CbtError):
    pass


class RangeViolation(CbtError):
    pass


class BundleError(CbtError):
    """A bundle manifest that is malformed or names a file outside it."""


def write_cbt(tensor: np.ndarray, path) -> None:
    """Serialize an integer tensor; dtype chosen from its declared dtype."""
    tensor = np.asarray(tensor)
    dt = np.dtype(tensor.dtype)
    if dt not in _CODES:
        tensor = as_int64(tensor, "tensor values")
        # pick the narrowest container that holds the values
        lo = int(tensor.min()) if tensor.size else 0
        hi = int(tensor.max()) if tensor.size else 0
        for cand in (np.int8, np.int16, np.int32):
            info = np.iinfo(cand)
            if info.min <= lo and hi <= info.max:
                dt = np.dtype(cand)
                break
        else:
            raise RangeViolation(f"values [{lo}, {hi}] exceed i32 at offset 0")
        tensor = tensor.astype(dt)
    header = MAGIC + struct.pack("<HBB", VERSION, _CODES[dt], tensor.ndim)
    header += b"".join(struct.pack("<I", d) for d in tensor.shape)
    payload = np.ascontiguousarray(tensor).astype(dt.newbyteorder("<")).tobytes()
    Path(path).write_bytes(header + payload)


def read_cbt(path) -> np.ndarray:
    """Deserialize a CBT file; errors name the offending byte offset."""
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != MAGIC:
        raise MagicMismatch(f"bad magic at offset 0: {data[:4]!r}")
    if len(data) < 8:
        raise Truncated(f"header cut short at offset {len(data)}")
    version, code, rank = struct.unpack("<HBB", data[4:8])
    if version != VERSION:
        raise CbtError(f"unsupported version {version} at offset 4")
    if code not in _DTYPES:
        raise CbtError(f"unknown dtype code {code} at offset 6")
    off = 8
    if len(data) < off + 4 * rank:
        raise Truncated(f"dims cut short at offset {len(data)}")
    dims = struct.unpack(f"<{rank}I", data[off:off + 4 * rank])
    off += 4 * rank
    dt = np.dtype(_DTYPES[code]).newbyteorder("<")
    count = int(np.prod(dims, dtype=np.int64)) if rank else 1
    need = count * dt.itemsize
    if len(data) != off + need:
        raise Truncated(
            f"payload is {len(data) - off} bytes at offset {off}, need {need}")
    arr = np.frombuffer(data[off:], dtype=dt).reshape(dims)
    return arr.astype(np.int64)


# -- SplitMix64: standard constants, fully deterministic across platforms

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self.state = as_int(seed, "seed") & _MASK

    def next_u64(self) -> int:
        return self.next_int(64) + (1 << 63)

    def next_int(self, bits: int) -> int:
        """Uniform value in [-2**(bits-1), 2**(bits-1) - 1]."""
        z = self.state = (self.state + _GAMMA) & _MASK
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return ((z ^ (z >> 31)) % (1 << bits)) - (1 << (bits - 1))

    def fill(self, shape, bits: int) -> np.ndarray:
        """`next_int(bits)` drawn prod(shape) times, as an int64 array of
        `shape`; bits in [1, 64] and dims nonnegative integers (`as_ints`).
        Computed in uint64, which wraps mod 2**64 as the masks of `next_int`
        do."""
        bits = as_int(bits, "bits")
        shape = as_ints(np.atleast_1d(shape), "dimension")   # 5 is (5,)
        if not 1 <= bits <= 64 or min(shape, default=0) < 0:
            raise ValueError(f"need bits in [1, 64] and dims >= 0, got "
                             f"{bits} bits and shape {shape}")
        n = int(np.prod(shape, dtype=np.int64))
        steps = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self.state) + np.uint64(_GAMMA) * steps
        self.state = (self.state + n * _GAMMA) & _MASK
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        # the low `bits` bits, top bit flipped, read as signed: u - 2**(bits-1)
        z <<= np.uint64(64 - bits)
        z ^= np.uint64(1 << 63)
        return (z.view(np.int64) >> (64 - bits)).reshape(shape)


@dataclass
class LayerWeights:
    weight: np.ndarray
    bias: np.ndarray
    shift: int


class WeightBundle(dict):
    """Per-layer `LayerWeights` keyed by layer index; gap layers are absent."""

    def digest(self) -> str:
        """SHA-256 over the canonical little-endian serialization, every
        value as i32; ValueError for a value that is not an i32 integer."""
        h = hashlib.sha256()
        for idx in sorted(self):
            lw = self[idx]
            for arr in (lw.weight, lw.bias):
                arr = FxpFormat(32).check(arr, "bundle values")
                h.update(struct.pack("<B", len(arr.shape)))
                for d in arr.shape:
                    h.update(struct.pack("<I", d))
                h.update(np.ascontiguousarray(
                    arr.astype("<i4")).tobytes())
            h.update(struct.pack("<i", lw.shift))
        return h.hexdigest()


def gen_weights(seed: int, model, b2: int) -> WeightBundle:
    """Deterministic weight/bias bundle for a model, all values B2-wide."""
    rng = SplitMix64(seed)
    layers = {}
    for idx, lay in enumerate(model.layers):
        if lay.kind != "gap":
            w = rng.fill(lay.weight_shape, b2)
            b = rng.fill(lay.out_shape[:1], b2)
            layers[idx] = LayerWeights(w, b, lay.shift)
    return WeightBundle(layers)


def gen_input(seed: int, shape, b1: int) -> np.ndarray:
    """Deterministic activation tensor, values B1-wide."""
    return SplitMix64(seed).fill(shape, b1)


def save_weight_bundle(bundle: WeightBundle, model, directory) -> None:
    """Write a bundle as one CBT file per tensor plus a JSON manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"model": model.manifest(), "layers": {}}
    for idx in sorted(bundle):
        lw = bundle[idx]
        wf, bf = f"layer{idx}.weight.cbt", f"layer{idx}.bias.cbt"
        write_cbt(lw.weight, directory / wf)
        write_cbt(lw.bias, directory / bf)
        manifest["layers"][str(idx)] = {
            "weight": wf, "bias": bf, "shift": lw.shift}
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True))


def _unique_keys(pairs: list) -> dict:
    """JSON object hook: a repeated key would silently replace the first."""
    out = dict(pairs)
    if len(out) != len(pairs):
        raise BundleError(f"manifest repeats a key among {list(out)}")
    return out


def load_weight_bundle(directory) -> WeightBundle:
    """Read a bundle written by save_weight_bundle.

    Raises BundleError when the manifest is not JSON, repeats a key in one
    object, lacks `layers` or a layer's `weight`/`bias`/`shift`, has a
    layer key that is not a canonical non-negative decimal ("5", not "05",
    " 5" or "+5"), has a shift that is not a JSON integer in 0..63, or
    names a file that is not a string or resolves outside the bundle
    directory.
    """
    directory = Path(directory).resolve()
    text = (directory / "manifest.json").read_text()
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
        entries = {key: (e["weight"], e["bias"], e["shift"])
                   for key, e in doc["layers"].items()}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise BundleError(f"malformed manifest.json: {exc!r}") from exc
    # an alias such as "05" would silently replace layer 5
    if not all(key.isdecimal() and str(int(key)) == key for key in entries):
        raise BundleError(f"manifest layer keys {list(entries)} are not all "
                          f"canonical non-negative decimals")
    # a bool is an int to Python, but not a JSON integer
    if any(type(shift) is not int or not 0 <= shift <= 63
           for _, _, shift in entries.values()):
        raise BundleError("manifest has a shift that is not an integer "
                          "in 0..63")

    def tensor(name):
        if not isinstance(name, str):
            raise BundleError(f"manifest file name {name!r} is not a string")
        path = (directory / name).resolve()
        if not path.is_relative_to(directory):
            raise BundleError(f"manifest names {name!r} outside the bundle")
        return read_cbt(path)

    return WeightBundle({int(key): LayerWeights(tensor(w), tensor(b), shift)
                         for key, (w, b, shift) in entries.items()})
