"""Fixed-point formats.

Values are plain Python integers; a B-bit format covers
[-2**(B-1), 2**(B-1)-1] in two's complement.  Offset-binary recoding maps
each bit b of a slice to the digit 2b - 1, and the sign slice weighs
negative, so the digits of a value v satisfy the doubled-domain identity

    2*v = sum_r (2*b_r - 1) * w_r - 1,   w_r = 2**r, w_(B-1) = -2**(B-1)

which downstream code exploits to keep every intermediate an exact integer.
"""

from dataclasses import dataclass


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
