"""Fixed-point formats, two's-complement bit slicing, and offset-binary deltas.

All values are plain Python integers; a B-bit format covers
[-2**(B-1), 2**(B-1)-1].  Bit slices are MSB-first lists, index 0 being
the sign bit.  Offset-binary recoding maps each slice bit to a +/-1 digit;
the accumulated digits satisfy the doubled-domain identity

    2*v = sum_r delta_r * 2**(B-1-r) - 1

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


def quantize_saturate(value: int, fmt: FxpFormat) -> int:
    """Clamp `value` into the representable range of `fmt`."""
    if value < fmt.min_value:
        return fmt.min_value
    if value > fmt.max_value:
        return fmt.max_value
    return value


def bit_slice(value: int, fmt: FxpFormat) -> list[int]:
    """Two's-complement bits of `value`, MSB first.

    Raises ValueError when `value` does not fit `fmt`.
    """
    if not fmt.contains(value):
        raise ValueError(f"{value} out of range for {fmt.bits}-bit format")
    b = fmt.bits
    return [(value >> (b - 1 - r)) & 1 for r in range(b)]


def from_bits(bits: list[int]) -> int:
    """Reassemble an integer from MSB-first two's-complement bits."""
    b = len(bits)
    value = -bits[0] << (b - 1) if bits[0] else 0
    for r in range(1, b):
        value += bits[r] << (b - 1 - r)
    return value


def obc_delta(slice_bits: list[int], r: int, bits: int) -> list[int]:
    """Offset-binary digits for one bit-slice across a vector of operands.

    The sign slice (r == 0) carries a negative weight in two's complement,
    so its digits are negated relative to the magnitude slices.
    """
    if not 0 <= r <= bits - 1:
        raise ValueError(f"slice index {r} outside [0, {bits - 1}]")
    sign = -1 if r == 0 else 1
    # b - (1 - b) == 2b - 1
    return [sign * (2 * b - 1) for b in slice_bits]
