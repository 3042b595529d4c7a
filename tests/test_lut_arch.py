"""Structural LUT techniques: value equivalence, trace invariants, costs."""

import pytest
from hypothesis import given, settings, strategies as st

from comet.lut_arch import (
    HYBRID,
    KINDS,
    PARALLEL,
    SHARED,
    SPLIT,
    FactorizationError,
    LutArch,
    PreparedLut,
    lut_cost,
    split_total_adders,
)
from comet.obc_ipc import build_naive_lut


def _coeffs(k, salt=0):
    return [((31 * (i + salt) + 17) % 255) - 127 for i in range(k)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_values_match_naive_table(kind, k):
    coeffs = _coeffs(k)
    naive = build_naive_lut(coeffs)
    lut = PreparedLut(kind, coeffs)
    for addr in range(1 << k):
        assert lut.value(addr) == naive(addr), (kind, k, addr)


@pytest.mark.parametrize("kind", KINDS)
def test_values_with_explicit_q(kind):
    coeffs = _coeffs(8, salt=3)
    naive = build_naive_lut(coeffs)
    lut = PreparedLut(kind, coeffs, q=2)
    for addr in range(1 << 8):
        assert lut.value(addr) == naive(addr)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [3, 5, 7])
def test_zero_padding_preserves_values(kind, k):
    """Lengths that do not fill a group are padded and stay exact."""
    coeffs = _coeffs(k, salt=1)
    naive = build_naive_lut(coeffs)
    lut = PreparedLut(kind, coeffs)
    assert lut.p * lut.q >= k and lut.p * lut.q % lut.q == 0
    for addr in range(1 << k):
        assert lut.value(addr) == naive(addr)


def test_parallel_trace_from_zero_path():
    """Deriving an entry from the address-0 content matches the chain."""
    coeffs = [3, -5, 7, 2]
    for addr in range(16):
        val, trace = PreparedLut(PARALLEL, coeffs).eval(addr, record=True)
        assert trace["g0.from_zero"] == trace["g0.value"] == val
        assert trace["g0.chain0"] == val  # chain finishes at index 0


def test_shared_trace_node_reuse():
    """Mirror-complement addresses hit the same sub-table node."""
    coeffs = [3, -5, 7, 2]
    _, t3 = PreparedLut(SHARED, coeffs).eval(0b0011, record=True)
    _, t4 = PreparedLut(SHARED, coeffs).eval(0b0100, record=True)
    # both reduce the low three bits to the canonical pattern 011
    assert "g0.sub011" in t3.nodes and "g0.sub011" in t4.nodes
    assert t3["g0.sub011"] == t4["g0.sub011"]


def test_shared_canonical_node_count():
    """Across all addresses only 2^(q-2) distinct sub-nodes appear."""
    coeffs = [3, -5, 7, 2]
    names = set()
    for addr in range(16):
        _, tr = PreparedLut(SHARED, coeffs).eval(addr, record=True)
        names |= {n for n in tr.nodes if ".sub" in n}
    assert len(names) == 4  # 2^(4-2)


def test_split_trace_halves_sum():
    coeffs = [3, -5, 7, 2, 1, -9, 4, 6]
    for addr in (0, 1, 0x5A, 0xFF, 0x80):
        val, trace = PreparedLut(SPLIT, coeffs).eval(addr, record=True)
        assert trace["left"] + trace["right"] == val
        for g in range(len(coeffs) // 4):
            assert trace[f"g{g}.left"] + trace[f"g{g}.right"] == \
                trace[f"g{g}.value"]


def test_split_half_nodes_are_mirrored():
    """Each half reuses one canonical node for an address and its complement."""
    coeffs = [3, -5, 7, 2]
    lut = PreparedLut(SPLIT, coeffs)
    _, t_a = lut.eval(0b0111, record=True)   # left half 01, right half 11
    _, t_b = lut.eval(0b1000, record=True)   # bitwise complement
    left_a = {n: v for n, v in t_a.nodes.items() if "left_sub" in n}
    left_b = {n: v for n, v in t_b.nodes.items() if "left_sub" in n}
    assert left_a == left_b
    assert t_a["g0.left"] == -t_b["g0.left"]
    assert t_a["g0.right"] == -t_b["g0.right"]


def test_hybrid_trace_pair_nodes():
    coeffs = [3, -5, 7, 2]
    for addr in range(16):
        val, trace = PreparedLut(HYBRID, coeffs).eval(addr, record=True)
        assert trace["pair0.sum"] == 3 + (-5)
        assert trace["pair0.diff"] == 3 - (-5)
        assert trace["pair1.sum"] == 7 + 2
        assert trace["pair1.diff"] == 7 - 2
        assert trace["pair0.value"] + trace["pair1.value"] == val


def test_hybrid_select_logic():
    """Difference node is selected iff the pair's address bits differ."""
    coeffs = [3, -5]
    cases = {
        0b00: -(3 + -5),   # select sum, negative sign
        0b01: -(3 - -5),   # select diff, b_a = 0 -> negative
        0b10: +(3 - -5),   # select diff, b_a = 1 -> positive
        0b11: +(3 + -5),
    }
    for addr, want in cases.items():
        val, trace = PreparedLut(HYBRID, coeffs).eval(addr, record=True)
        assert val == want
        assert trace["pair0.sel"] == ((addr >> 1) ^ addr) & 1


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KINDS),
       st.lists(st.integers(-127, 127), min_size=1, max_size=9),
       st.data())
def test_equivalence_property(kind, coeffs, data):
    addr = data.draw(st.integers(0, (1 << len(coeffs)) - 1))
    naive = build_naive_lut(coeffs)
    assert PreparedLut(kind, coeffs).eval(addr, record=True)[0] == naive(addr)


# -- closed-form costs ----------------------------------------------------

def test_cost_k4_q4():
    assert lut_cost(LutArch(PARALLEL, 4, 1, 4)).adders == 10
    assert lut_cost(LutArch(PARALLEL, 4, 1, 4)).muxes_2to1 == 7
    assert lut_cost(LutArch(SHARED, 4, 1, 4)).adders == 6
    assert lut_cost(LutArch(SHARED, 4, 1, 4)).muxes_2to1 == 4
    assert lut_cost(LutArch(SPLIT, 4, 1, 4)).adders == 3
    assert lut_cost(LutArch(SPLIT, 4, 1, 4)).muxes_2to1 == 8
    hy = lut_cost(LutArch(HYBRID, 4, 1, 4))
    assert hy.adders == 4
    assert hy.muxes_2to1 == 7
    assert hy.and_gates == 2
    assert hy.xor_gates == 1


@pytest.mark.parametrize("k,p", [(4, 1), (8, 2), (16, 4), (32, 8)])
def test_cost_closed_forms_q4(k, p):
    q = 4
    par = lut_cost(LutArch(PARALLEL, k, p, q))
    assert par.adders == (2 ** (q - 1) + q - 2) * p + p - 1
    assert par.muxes_2to1 == (2 ** (q - 1) - 1) * p
    sh = lut_cost(LutArch(SHARED, k, p, q))
    assert sh.adders == (2 ** (q - 2) + q - 2) * p + p - 1
    assert sh.muxes_2to1 == 2 ** (q - 2) * p
    sp = lut_cost(LutArch(SPLIT, k, p, q))
    assert sp.adders == (2 * (2 ** (q // 2 - 1) - 1) + 1) * p + p - 1
    assert sp.muxes_2to1 == 2 * 2 ** (q // 2) * p
    hy = lut_cost(LutArch(HYBRID, k, p, q))
    assert hy.adders == q * p + p - 1
    assert hy.muxes_2to1 == 3 * (q - 2) + 1
    assert hy.and_gates == q * p // 2
    assert hy.xor_gates == q * p / 4


@pytest.mark.parametrize("q,adders", [
    (6, {PARALLEL: 36, SHARED: 20, SPLIT: 7, HYBRID: 6}),
    (8, {PARALLEL: 134, SHARED: 70, SPLIT: 15, HYBRID: 8}),
])
def test_cost_adders_p1_above_crossover(q, adders):
    # Worked by hand from the printed forms; hybrid <= split from q = 6 on.
    for kind, expected in adders.items():
        assert lut_cost(LutArch(kind, q, 1, q)).adders == expected, kind


def test_cost_k8_q4_parallel():
    c = lut_cost(LutArch(PARALLEL, 8, 2, 4))
    assert c.adders == 21
    assert c.muxes_2to1 == 14
    assert c.cpd_adders == 5.0       # q + log2(p) = 4 + 1
    assert c.cpd_adders_ceil == 5


def test_cost_cpd():
    sp = lut_cost(LutArch(SPLIT, 8, 2, 4))
    assert sp.cpd_adders == 4.0      # q/2 + 1 + log2 p
    assert sp.cpd_muxes == 1
    hy = lut_cost(LutArch(HYBRID, 8, 2, 4))
    assert hy.cpd_adders == 3.0      # 2 + log2 p
    assert hy.cpd_muxes == 2


def test_split_point_optimality():
    """The equal-halves split minimizes total adders for even K."""
    for k in (4, 6, 8, 10, 12):
        totals = {pnt: split_total_adders(k, pnt) for pnt in range(1, k)}
        assert min(totals, key=lambda pnt: (totals[pnt], abs(pnt - k / 2))) \
            == k // 2
        assert totals[k // 2] == min(totals.values())


def test_split_total_adders_bounds():
    with pytest.raises(ValueError):
        split_total_adders(4, 0)
    with pytest.raises(ValueError):
        split_total_adders(4, 4)


# -- validation -----------------------------------------------------------

def test_factorization_errors():
    with pytest.raises(FactorizationError):
        LutArch(PARALLEL, 8, 3, 4)        # 3*4 != 8
    with pytest.raises(FactorizationError):
        LutArch(SPLIT, 9, 3, 3)           # split needs even q
    with pytest.raises(FactorizationError):
        LutArch(HYBRID, 9, 3, 3)          # hybrid needs even q
    with pytest.raises(ValueError):
        LutArch("bogus", 4, 1, 4)


def test_prepared_lut_validation():
    with pytest.raises(FactorizationError):
        PreparedLut(PARALLEL, [1, 2, 3], q=2)   # q does not divide K
    with pytest.raises(FactorizationError):
        PreparedLut(HYBRID, [1, 2, 3], q=3)
    with pytest.raises(ValueError):
        PreparedLut(PARALLEL, [])
    lut = PreparedLut(PARALLEL, [1, 2])
    with pytest.raises(ValueError):
        lut.value(4)                             # address out of range
