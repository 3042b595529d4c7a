"""Fixed-point formats.

Values are plain Python integers; a B-bit format covers
[-2**(B-1), 2**(B-1)-1] in two's complement.  Offset-binary recoding maps
each bit b of a slice to the digit 2b - 1, and the sign slice weighs
negative, so the digits of a value v satisfy the doubled-domain identity

    2*v = sum_r (2*b_r - 1) * w_r - 1,   w_r = 2**r, w_(B-1) = -2**(B-1)

which downstream code exploits to keep every intermediate an exact integer.
"""

from dataclasses import dataclass

import numpy as np


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
    """A signed fixed-point word of `bits` width (2..32)."""

    bits: int

    def __post_init__(self):
        if not 2 <= self.bits <= 32:
            raise ValueError(f"bit-width must be in [2, 32], got {self.bits}")

    @property
    def min_value(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def max_value(self) -> int:
        return (1 << (self.bits - 1)) - 1

    def contains(self, value: int) -> bool:
        return self.min_value <= value <= self.max_value

    def check(self, a, what: str) -> np.ndarray:
        """`a` through `as_int64`; ValueError unless every value fits."""
        a = as_int64(a, what)
        if a.size and (a.min() < self.min_value or a.max() > self.max_value):
            raise ValueError(f"{what} exceed the {self.bits}-bit format")
        return a
