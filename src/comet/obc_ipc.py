"""Offset-binary inner products: naive table, merged offset, shift-accumulate.

All arithmetic runs in a doubled integer domain: every table entry and
accumulator value represents twice its fractional meaning, so the global
1/2 factor of offset-binary recoding becomes a single exact arithmetic
right shift at the end (the doubled result is always even).

Scheme A builds the table from weights and bit-serializes inputs over B1
cycles; Scheme B swaps the roles and runs for B2 cycles.  Both must match
the direct multiply-accumulate oracle exactly.
"""

import csv
import io
from dataclasses import dataclass
from enum import Enum

from .fxp import FxpFormat
from .lut_arch import KINDS, PreparedLut

NAIVE_K_LIMIT = 24


class Scheme(Enum):
    A = "A"
    B = "B"


@dataclass(frozen=True)
class IpcProblem:
    """One K-length inner product with its serialization scheme.

    `coeffs` feed the LUT (weights under Scheme A, inputs under Scheme B);
    `serial_operands` are bit-sliced over `serial_bits` cycles.
    """

    coeffs: tuple[int, ...]
    serial_operands: tuple[int, ...]
    bias: int
    scheme: Scheme
    serial_bits: int
    coeff_fmt: FxpFormat
    serial_fmt: FxpFormat

    def __post_init__(self):
        if len(self.coeffs) != len(self.serial_operands):
            raise ValueError("coeffs and serial operands must have equal length")
        if not 1 <= len(self.coeffs):
            raise ValueError("K must be at least 1")
        if self.serial_bits != self.serial_fmt.bits:
            raise ValueError("serial_bits must match the serial format width")
        for v in self.coeffs:
            if not self.coeff_fmt.contains(v):
                raise ValueError(f"coefficient {v} outside {self.coeff_fmt.bits}-bit range")
        for v in self.serial_operands:
            if not self.serial_fmt.contains(v):
                raise ValueError(f"operand {v} outside {self.serial_fmt.bits}-bit range")

    @classmethod
    def from_vectors(cls, weights, inputs, bias, scheme, fmt_in: FxpFormat,
                     fmt_wt: FxpFormat) -> "IpcProblem":
        """Arrange a (weights, inputs) pair according to the scheme."""
        scheme = Scheme(scheme)
        if scheme is Scheme.A:
            return cls(tuple(weights), tuple(inputs), bias, scheme,
                       fmt_in.bits, coeff_fmt=fmt_wt, serial_fmt=fmt_in)
        return cls(tuple(inputs), tuple(weights), bias, scheme,
                   fmt_wt.bits, coeff_fmt=fmt_in, serial_fmt=fmt_wt)

    @property
    def k(self) -> int:
        return len(self.coeffs)


@dataclass
class ObcLut:
    """Dense 2**K offset-binary table in the doubled domain."""

    entries: list[int]
    k: int

    def __call__(self, address: int) -> int:
        return self.entries[address]


@dataclass
class SaStep:
    r: int
    lut_address: int
    lut_output: int
    accumulator_after: int


@dataclass
class SaTrace:
    """Per-slice record of one shift-accumulate run; cycles == serial bits."""

    steps: list[SaStep]
    cycles: int

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["slice_r", "address_bits", "lut_output", "accumulator"])
        width = max((s.lut_address.bit_length() for s in self.steps), default=1)
        for s in self.steps:
            w.writerow([s.r, format(s.lut_address, f"0{width}b"),
                        s.lut_output, s.accumulator_after])
        return buf.getvalue()


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


def piso_schedule(operands, b: int) -> list[int]:
    """Transpose operand words into per-slice LUT addresses, LSB slice first.

    Address bit order puts operand 0 at the most significant position.
    """
    ops = [int(v) for v in operands]
    lo, hi = -(1 << (b - 1)), (1 << (b - 1)) - 1
    for v in ops:
        if not lo <= v <= hi:
            raise ValueError(f"operand {v} does not fit {b} bits")
    addrs = []
    for shift in range(b):
        addr = 0
        for v in ops:
            addr = (addr << 1) | ((v >> shift) & 1)
        addrs.append(addr)
    return addrs


def sa_run(lut, serial_operands, serial_bits: int, init: int,
           record: bool = True) -> tuple[int, SaTrace | None]:
    """Shift-accumulate over the bit-slices of the serial operands.

    Slices are consumed LSB-first; the sign slice's table output is
    accumulated negated.  `lut` is anything callable on an address.
    Returns the halved (true-domain) result plus an optional trace.
    """
    b = serial_bits
    acc = init
    steps = [] if record else None
    for shift, addr in enumerate(piso_schedule(serial_operands, b)):
        out = lut(addr)
        acc += (-out if shift == b - 1 else out) << shift
        if record:
            steps.append(SaStep(b - 1 - shift, addr, out, acc))
    assert acc % 2 == 0, "doubled-domain accumulator must be even"
    result = acc >> 1
    trace = SaTrace(steps, b) if record else None
    return result, trace


def ipc_oracle(weights, inputs, bias: int = 0) -> int:
    """Ground truth: direct wide-integer multiply-accumulate."""
    return sum(int(w) * int(x) for w, x in zip(weights, inputs)) + bias


def ipc_obc(problem: IpcProblem, lut_impl: str | None = None,
            record: bool = True) -> tuple[int, SaTrace | None]:
    """Evaluate one inner product through the OBC datapath.

    `lut_impl` selects a structural technique ("parallel", "shared",
    "split", "hybrid") or the naive dense table when None/"naive".
    """
    coeffs = list(problem.coeffs)
    if lut_impl is None or lut_impl == "naive":
        lut = build_naive_lut(coeffs)
    elif lut_impl in KINDS:
        lut = PreparedLut(lut_impl, coeffs).value
    else:
        raise ValueError(f"unknown LUT implementation {lut_impl!r}")
    init = merged_offset(coeffs, problem.bias)
    return sa_run(lut, problem.serial_operands, problem.serial_bits, init,
                  record=record)
