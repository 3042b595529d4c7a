"""Structural emulations of the four dynamic LUT generation techniques.

Each technique (parallel, shared, split, hybrid) produces, for every
address, the same value a naive 2**K offset-binary table would hold:

    value(addr) = sum_i coeff_i * (2*b_i - 1)

with b_1 the most-significant address bit.  What differs is what each
technique stores: `field_layout` cuts the address into fields, each with
a stored sub-table that may keep only its mirror half; `layout` caches
those facts per (kind, K, q), and `Layout.tables` builds every field's
full table from coefficients (the stored one is a slice of it), for
`PreparedLut` and (over unit coefficients) the vectorized GEMM engine.
The trace names the nodes each read touches, so structural claims (node
sharing, half sums, pair nodes) are testable.  A closed-form cost model
reports adder/mux counts and critical-path delay.

Coefficient vectors whose length is not a multiple of the group size are
zero-padded at the tail; a zero coefficient with a zero address bit
contributes 0*(2*0-1) = 0, leaving every value unchanged.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .fxp import as_int

PARALLEL = "parallel"
SHARED = "shared"
SPLIT = "split"
HYBRID = "hybrid"
KINDS = (PARALLEL, SHARED, SPLIT, HYBRID)


class FactorizationError(ValueError):
    """Raised when (p, q) does not factor K or violates a technique's shape."""


@dataclass(frozen=True)
class LutArch:
    """One of the four LUT techniques with its K = p*q factorization."""

    kind: str
    k: int
    p: int
    q: int

    def __post_init__(self):
        for name in ("k", "p", "q"):    # frozen: past the dataclass guard
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.p < 1 or self.q < 1 or self.p * self.q != self.k:
            raise FactorizationError(
                f"K={self.k} does not factor as p*q with p={self.p}, q={self.q}"
            )
        field_layout(self.kind, self.k, self.q)     # the technique's rules


@dataclass
class LutCost:
    """Adder/mux/gate counts and CPD for one LutArch (closed forms)."""

    adders: int
    muxes_2to1: int
    cpd_adders: float        # multiples of T_A, exact q + log2(p) form
    cpd_adders_ceil: int     # same with ceil(log2 p) for non-power-of-two p
    cpd_muxes: int           # multiples of T_MX
    and_gates: int = 0       # hybrid select logic only
    xor_gates: float = 0.0   # hybrid select logic only; q*p/4 as printed


@dataclass
class StructTrace:
    """Named internal node values observed during one evaluation."""

    nodes: dict[str, int] = field(default_factory=dict)

    def __getitem__(self, name: str) -> int:
        return self.nodes[name]


def padded_layout(k: int, q: int | None = None) -> tuple[int, int]:
    """Pick (padded length, group size) for a coefficient vector of length k."""
    if q is not None:
        if q < 1 or k % q != 0:
            raise FactorizationError(f"q={q} does not divide K={k}")
        return k, q
    if k >= 4:
        return -(-k // 4) * 4, 4
    return -(-k // 2) * 2, 2


def field_layout(kind: str, padded: int, q: int) -> list[tuple[int, int, bool]]:
    """What a technique stores: its fields over the padded address.

    Each field is (start, width, mirrored), `start` counted from the
    address MSB.  A field's table holds the offset-binary sum of its
    coefficients for every field value; a mirrored field keeps only the
    half whose field MSB is 0 and reads the other half as the negated
    entry at the complemented value.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown LUT kind {kind!r}")
    if kind in (SPLIT, HYBRID) and q % 2 != 0:
        raise FactorizationError(f"{kind} LUT needs even q, got q={q}")
    starts = range(0, padded, q)
    if kind == PARALLEL:
        return [(s, q, False) for s in starts]
    if kind == SHARED:
        # 1-bit head, then the mirror half over bits 2..q (muxed on b_2)
        return [f for s in starts
                for f in ((s, 1, False), (s + 1, q - 1, True)) if f[1]]
    if kind == SPLIT:
        h = q // 2
        return [(s + d, h, True) for s in starts for d in (0, h)]
    # hybrid: one {-sum, -diff} pair per two bits; the mirror gives +diff, +sum
    return [(s, 2, True) for s in range(0, padded, 2)]


def field_entries(coeffs) -> list:
    """Full table of one field, indexed by field value (MSB first).

    Entry f is -sum(coeffs) plus twice the coefficients whose bit is set
    in f, so the entry at the complemented value is -entry f: a mirrored
    field stores the half whose MSB is 0.  Works on anything that adds
    and negates elementwise, so numpy columns give a whole batch of
    tables at once.
    """
    entries = [-sum(coeffs)]
    for c in reversed(coeffs):
        d = 2 * c
        entries += [e + d for e in entries]
    return entries


def mirror_read(f, width, mirrored):
    """Where field value `f` reads its table: (stored index, sign).

    A mirrored field whose value has its MSB set reads the entry at the
    complemented value, negated.  Works elementwise on numpy arrays.
    """
    upper = (f >> (width - 1)) & mirrored
    return f ^ upper * ((1 << width) - 1), 1 - 2 * upper


class Layout(NamedTuple):
    """The layout facts of one (kind, k, q), from `layout`, and its tables."""

    padded: int     # address width after zero padding
    q: int          # group size
    fields: tuple   # `field_layout`: per field (start, width, mirrored)
    reads: tuple    # per field (shift to its LSB, value mask)

    def tables(self, coeffs) -> list:
        """One full table per field (`field_entries`) of coefficients
        padded to `padded`; works on numpy vectors as on ints."""
        return [field_entries(coeffs[s:s + w]) for s, w, _ in self.fields]


@lru_cache(maxsize=256)
def layout(kind: str, k: int, q: int | None = None) -> Layout:
    """`padded_layout` and `field_layout` of a k-long coefficient vector,
    with each field's shift to its LSB and value mask."""
    padded, q = padded_layout(k, q)
    fields = tuple(field_layout(kind, padded, q))
    return Layout(padded, q, fields, tuple((padded - s - w, (1 << w) - 1)
                                           for s, w, _ in fields))


class PreparedLut:
    """A LUT technique bound to one coefficient vector, evaluable per address.

    Builds every field's full table (one entry per field value) once and
    keeps nothing else: a lookup reads one full-table entry per field and
    sums them, and the stored tables are sliced only when read.
    """

    def __init__(self, kind: str, coeffs: list[int], q: int | None = None):
        if kind not in KINDS:   # unhashable too, unlike a `layout` lookup
            raise ValueError(f"unknown LUT kind {kind!r}")
        self.kind = kind
        self.k = len(coeffs)
        if self.k < 1:
            raise ValueError("need at least one coefficient")
        lay = self._layout = layout(kind, self.k, q)
        self.q = lay.q
        self.p = lay.padded // lay.q
        self._pad = lay.padded - self.k
        self._size = 1 << self.k
        self.padded = list(coeffs) + [0] * self._pad
        # _full, per field: (shift to its LSB, value mask, full table)
        self._full = [(*r, t)
                      for r, t in zip(lay.reads, lay.tables(self.padded))]

    @property
    def tables(self) -> list:
        """The stored tables: per field, the first half of its full table
        when the field is mirrored, else all of it."""
        return [t[:1 << (w - m)]
                for (_, w, m), (*_, t) in zip(self._layout.fields, self._full)]

    def value(self, address: int) -> int:
        """The entry at `address`, an integer in [0, 2^K) (`fxp.as_int`;
        a bool or 2.5 is not one); ValueError otherwise."""
        if type(address) is not int:    # one test on the lookup path
            address = as_int(address, "address")
        if not 0 <= address < self._size:
            raise ValueError(f"address {address} outside [0, 2^{self.k})")
        a = address << self._pad
        total = 0
        for shift, mask, full in self._full:
            total += full[a >> shift & mask]
        return total

    def eval(self, address: int, record: bool = False):
        """(value, StructTrace or None); the trace names each node read."""
        value = self.value(address)     # checks the address
        if not record:
            return value, None
        a = address << self._pad
        tables = [t for *_, t in self._full]
        reads = []   # per field: (field value, stored index, signed entry)
        for (shift, mask, t), (_, w, m) in zip(self._full, self._layout.fields):
            f = (a >> shift) & mask
            i, sign = mirror_read(f, w, m)    # i lies in the stored half
            reads.append((f, i, sign * t[i]))
        nodes = {}
        if self.kind == HYBRID:
            for j, ((f, _, v), t) in enumerate(zip(reads, tables)):
                nodes[f"pair{j}.sum"] = -t[0]
                nodes[f"pair{j}.diff"] = -t[1]
                nodes[f"pair{j}.sel"] = (f ^ f >> 1) & 1
                nodes[f"pair{j}.value"] = v
        else:
            per = len(reads) // self.p
            for g in range(self.p):
                self._group_nodes(nodes, g, reads[g * per:(g + 1) * per],
                                  tables[g * per:(g + 1) * per])
        nodes["value"] = sum(v for _, _, v in reads)
        return nodes["value"], StructTrace(nodes)

    def _group_nodes(self, nodes, g, reads, tables):
        q = self.q
        if self.kind == PARALLEL:
            (f, _, _), = reads
            t = tables[0]
            for j in range(q - 1, -1, -1):
                # flipping bits 0..j-1 negates their share, so the mean of
                # the two reads is the chain sum over bits j..q-1
                hi = ((1 << j) - 1) << (q - j)
                nodes[f"g{g}.chain{j}"] = (t[f] + t[f ^ hi]) // 2
            th = self.padded[g * q:(g + 1) * q]
            nodes[f"g{g}.from_zero"] = t[0] + 2 * sum(
                c for j, c in enumerate(th) if f >> (q - 1 - j) & 1)
        elif self.kind == SHARED:
            if len(reads) > 1:
                _, i, _ = reads[1]
                nodes[f"g{g}.sub{i:0{q - 1}b}"] = tables[1][i]
        else:
            h = q // 2
            for name, (_, i, sv), t in zip(("left", "right"), reads, tables):
                nodes[f"g{g}.{name}_sub{i:0{h}b}"] = t[i]
                nodes[f"g{g}.{name}"] = sv
                nodes[name] = nodes.get(name, 0) + sv
        nodes[f"g{g}.value"] = sum(v for _, _, v in reads)


def lut_cost(arch: LutArch) -> LutCost:
    """Adder/mux/CPD complexity of one technique at K = p*q.

    By the printed forms the adder order hybrid <= split holds for q >= 6,
    while split < hybrid at q <= 4.
    """
    p, q = arch.p, arch.q
    log2p = math.log2(p)
    clog2p = math.ceil(log2p)
    if arch.kind == PARALLEL:
        return LutCost(
            adders=(2 ** (q - 1) + q - 2) * p + p - 1,
            muxes_2to1=(2 ** (q - 1) - 1) * p,
            cpd_adders=q + log2p,
            cpd_adders_ceil=q + clog2p,
            cpd_muxes=0,
        )
    if arch.kind == SHARED:
        if q < 2:       # the printed forms count nothing below a 2-bit group
            raise FactorizationError(f"shared LUT cost needs q >= 2, got q={q}")
        return LutCost(
            adders=(2 ** (q - 2) + q - 2) * p + p - 1,
            muxes_2to1=2 ** (q - 2) * p,
            cpd_adders=q + log2p,
            cpd_adders_ceil=q + clog2p,
            cpd_muxes=0,
        )
    if arch.kind == SPLIT:
        return LutCost(
            adders=(2 * (2 ** (q // 2 - 1) - 1) + 1) * p + p - 1,
            muxes_2to1=2 * (2 ** (q // 2)) * p,
            cpd_adders=q / 2 + 1 + log2p,
            cpd_adders_ceil=q // 2 + 1 + clog2p,
            cpd_muxes=1,
        )
    # hybrid; mux count 3(q-2)+1 as printed, independent of p
    return LutCost(
        adders=q * p + p - 1,
        muxes_2to1=3 * (q - 2) + 1,
        cpd_adders=2 + log2p,
        cpd_adders_ceil=2 + clog2p,
        cpd_muxes=2,
        and_gates=q * p // 2,
        xor_gates=q * p / 4,
    )


def split_total_adders(k: int, split_point: int) -> int:
    """Adder count of a split LUT at an arbitrary split point (p = 1).

    Used to check that the equal-halves split minimizes total adders.
    """
    if not 1 <= split_point <= k - 1:
        raise ValueError(f"split point {split_point} outside [1, {k - 1}]")
    return (2 ** (split_point - 1) + 2 ** (k - split_point - 1) - 2) + (k - 2)
