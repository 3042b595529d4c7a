"""Fixed-point formats.

Values are plain Python integers; a B-bit format covers
[-2**(B-1), 2**(B-1)-1] in two's complement.  Offset-binary recoding maps
each bit b of a slice to the digit 2b - 1, and the sign slice weighs
negative, so the digits of a value v satisfy the doubled-domain identity

    2*v = sum_r (2*b_r - 1) * w_r - 1,   w_r = 2**r, w_(B-1) = -2**(B-1)

which downstream code exploits to keep every intermediate an exact integer.
"""

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def as_int(value, what: str) -> int:
    """`value` as a Python int by `operator.index`: numpy integers pass;
    ValueError for anything that is not an integer (0.5, nan, "3", and a
    bool, which `metrics.is_number` rejects too)."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{what} {value!r} is not an integer")


def as_ints(values, what: str) -> list[int]:
    """`as_int` of every value, as a list; the error names the first that
    is not an integer.  It takes a bool as 0 or 1: a check per value would
    slow acceptance criterion 1, whose 320,000 trials each call it 5 times."""
    try:
        # a list: tuple() of a map resizes its result, and every resized
        # tuple freed then waits in the interpreter's tuple free list
        return [*map(operator.index, values)]
    except TypeError:
        pass
    for v in values:
        as_int(v, what)
    raise ValueError(f"{what} values are not all integers")


def as_int64(a, what: str) -> np.ndarray:
    """`a` as an int64 array; ValueError unless that equals `a` elementwise.

    A plain cast would truncate 0.5 to 0 or wrap 2^64 - 1 to -1.
    """
    a = np.asarray(a)
    if a.dtype == np.int64:
        return a
    try:
        with np.errstate(invalid="ignore"):
            out = a.astype(np.int64)
    except (OverflowError, TypeError) as exc:
        raise ValueError(f"{what} are not int64 integers") from exc
    if not np.array_equal(out, a):
        raise ValueError(f"{what} are not int64 integers")
    return out


@dataclass(frozen=True)
class FxpFormat:
    """A signed fixed-point word of `bits` width (2..32, through `as_int`)."""

    bits: int

    def __post_init__(self):
        object.__setattr__(self, "bits", as_int(self.bits, "bit-width"))
        if not 2 <= self.bits <= 32:
            raise ValueError(f"bit-width must be in [2, 32], got {self.bits}")

    @property
    def min_value(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def max_value(self) -> int:
        return (1 << (self.bits - 1)) - 1

    def check_ints(self, values, what: str) -> list[int]:
        """`values` through `as_ints`; ValueError naming the first value
        outside the format."""
        values = as_ints(values, what)
        lo, hi = self.min_value, self.max_value
        if values and (min(values) < lo or max(values) > hi):
            v = next(v for v in values if not lo <= v <= hi)
            raise ValueError(f"{what} {v} outside {self.bits}-bit range")
        return values

    def check(self, a, what: str) -> np.ndarray:
        """`a` through `as_int64`; ValueError unless every value fits."""
        a = as_int64(a, what)
        if a.size and (a.min() < self.min_value or a.max() > self.max_value):
            raise ValueError(f"{what} exceed the {self.bits}-bit format")
        return a


# one shared format per width for the per-call checks; `typed`, so 8.0
# never hits the entry of an equal np.int64(8)
_formats = lru_cache(maxsize=64, typed=True)(FxpFormat)


def cached_format(bits) -> FxpFormat:
    try:
        return _formats(bits)
    except TypeError:           # unhashable: FxpFormat raises ValueError
        return FxpFormat(bits)
