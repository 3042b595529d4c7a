"""Offset-binary inner products: naive table, merged offset, shift-accumulate.

All arithmetic runs in a doubled integer domain: every table entry and
accumulator value represents twice its fractional meaning, so the global
1/2 factor of offset-binary recoding becomes a single exact arithmetic
right shift at the end (the doubled result is always even).

Scheme A builds the table from weights and bit-serializes inputs over B1
cycles; Scheme B swaps the roles and runs for B2 cycles.  Both must match
the direct multiply-accumulate oracle exactly.
"""

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from operator import lshift, mul

from .fxp import FxpFormat, as_int, as_ints, cached_format
from .lut_arch import PreparedLut

NAIVE_K_LIMIT = 24


class Scheme(Enum):
    A = "A"
    B = "B"
    __hash__ = object.__hash__  # in C, not Python; members are singletons


@dataclass(frozen=True)
class IpcProblem:
    """One K-length inner product, arranged by its serialization scheme.

    `coeffs` feed the LUT (weights under Scheme A, inputs under Scheme B);
    `serial_operands` are bit-sliced over `serial_bits` cycles.  Both must
    be integers within their formats (`FxpFormat.check_ints`) and are
    stored as tuples of Python ints; the bias must be an integer.
    """

    coeffs: tuple[int, ...]
    serial_operands: tuple[int, ...]
    bias: int
    coeff_fmt: FxpFormat
    serial_fmt: FxpFormat

    def __post_init__(self):
        coeffs = self.coeff_fmt.check_ints(self.coeffs, "coefficient")
        serial = self.serial_fmt.check_ints(self.serial_operands, "operand")
        if len(coeffs) != len(serial):
            raise ValueError("coeffs and serial operands must have equal length")
        if not coeffs:
            raise ValueError("K must be at least 1")
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "serial_operands", tuple(serial))
        object.__setattr__(self, "bias", as_int(self.bias, "bias"))

    @classmethod
    def from_vectors(cls, weights, inputs, bias, scheme, fmt_in: FxpFormat,
                     fmt_wt: FxpFormat) -> "IpcProblem":
        """Arrange a (weights, inputs) pair according to the scheme."""
        if Scheme(scheme) is Scheme.A:
            return cls(weights, inputs, bias, coeff_fmt=fmt_wt,
                       serial_fmt=fmt_in)
        return cls(inputs, weights, bias, coeff_fmt=fmt_in, serial_fmt=fmt_wt)

    @property
    def serial_bits(self) -> int:
        return self.serial_fmt.bits


@dataclass
class ObcLut:
    """Dense 2**K offset-binary table in the doubled domain."""

    entries: list[int]
    k: int

    def __call__(self, address: int) -> int:
        return self.entries[address]


def build_naive_lut(coeffs) -> ObcLut:
    """Enumerate all 2**K offset-binary combinations of the coefficients.

    Entry at address b_1..b_K (b_1 most significant) is
    sum_i coeffs[i] * (2*b_i - 1).
    """
    coeffs = list(coeffs)
    k = len(coeffs)
    if k > NAIVE_K_LIMIT:
        raise ValueError(f"K={k} exceeds naive-table bound {NAIVE_K_LIMIT}")
    entries = [0]
    # grow the table LSB-side first so b_1 ends up most significant
    for c in reversed(coeffs):
        entries = [e - c for e in entries] + [e + c for e in entries]
    return ObcLut(entries, k)


def merged_offset(coeffs, bias: int) -> int:
    """Doubled-domain accumulator initialization: offset merged with bias."""
    return -sum(coeffs) + 2 * bias


@lru_cache(maxsize=64)
def _spread(k: int) -> tuple[int, ...]:
    """Byte value -> its bits spread to stride k (bit j moves to bit j*k)."""
    return tuple(sum((v >> j & 1) << j * k for j in range(8))
                 for v in range(256))


def piso_schedule(operands, b: int) -> list[int]:
    """Transpose operand words into per-slice LUT addresses, LSB slice first.

    Address bit order puts operand 0 at the most significant position.
    Operands are integers that fit b bits (`FxpFormat(b).check_ints`);
    ValueError otherwise.
    """
    ops = cached_format(b).check_ints(operands, "operand")
    # slice r of the operands sits in bits r*k .. r*k + k - 1 of `word`
    k = len(ops)
    spread, word = _spread(k), 0
    for j in range(0, b, 8):
        plane = 0
        for v in ops:
            plane = plane << 1 | spread[v >> j & 255]
        word |= plane << j * k
    mask = (1 << k) - 1
    return list(map(mask.__and__, map(word.__rshift__, range(0, b * k, k))))


def sa_run(lut, serial_operands, serial_bits: int, init: int,
           record: bool = True) -> tuple[int, dict[str, list[int]] | None]:
    """Shift-accumulate over the bit-slices of the serial operands.

    Slices are consumed LSB-first; the sign slice's table output is
    accumulated negated.  `lut` is anything callable on an address; it is
    called once per slice.  Returns the halved (true-domain) result plus,
    with `record`, the trace: `address`, `lut_output` and `accumulator`
    lists, one entry per slice, LSB slice first (the keys of
    `gemm_obc(record=True)`).
    """
    addrs = piso_schedule(serial_operands, serial_bits)
    outs = list(map(lut, addrs))
    steps = list(map(lshift, outs, range(serial_bits)))
    steps[-1] = -steps[-1]
    acc = init + sum(steps)
    trace = None
    if record:
        trace = {"address": addrs, "lut_output": outs,
                 "accumulator": list(accumulate(steps, initial=init))[1:]}
    assert acc % 2 == 0, "doubled-domain accumulator must be even"
    return acc >> 1, trace


def ipc_oracle(weights, inputs, bias: int = 0) -> int:
    """Ground truth: direct wide-integer multiply-accumulate.

    Every operand must be an integer (`fxp.as_ints`) and the two vectors
    equally long; ValueError otherwise.
    """
    weights, inputs = as_ints(weights, "weight"), as_ints(inputs, "input")
    if len(weights) != len(inputs):
        raise ValueError(f"{len(weights)} weights but {len(inputs)} inputs")
    return sum(map(mul, weights, inputs)) + as_int(bias, "bias")


def ipc_obc(problem: IpcProblem, lut_impl: str = "naive",
            record: bool = True) -> tuple[int, dict[str, list[int]] | None]:
    """Evaluate one inner product through the OBC datapath.

    `lut_impl` selects a structural technique ("parallel", "shared",
    "split", "hybrid"; `PreparedLut` rejects any other) or the naive dense
    table ("naive").
    """
    coeffs = problem.coeffs
    if lut_impl == "naive":
        lut = build_naive_lut(coeffs)
    else:
        lut = PreparedLut(lut_impl, coeffs).value
    init = merged_offset(coeffs, problem.bias)
    return sa_run(lut, problem.serial_operands, problem.serial_bits, init,
                  record=record)
