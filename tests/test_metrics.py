"""Throughput, equivalent-slice, and efficiency metric arithmetic."""

import pytest
from hypothesis import given, strategies as st

from comet.metrics import (
    KL_PRODUCT,
    REFERENCE_DESIGNS,
    ResourceReport,
    aep,
    ens,
    ens_rounded,
    eps,
    reference_table,
    throughput_mac,
)


def test_throughput_examples():
    assert throughput_mac(16, 1, 8, 100e6) == pytest.approx(0.2e9, rel=5e-3)
    assert throughput_mac(16, 1, 4, 95e6) == pytest.approx(0.38e9, rel=5e-3)
    assert throughput_mac(4, 4, 8, 100e6) == pytest.approx(0.2e9, rel=5e-3)


def test_ens_example():
    r = ResourceReport(luts=16406, dsps=0, brams=0)
    assert abs(ens(r) - 4102) <= 0.5
    assert ens_rounded(r) == 4102


def test_ens_weights():
    assert ens(ResourceReport(luts=4)) == 1.0
    assert ens(ResourceReport(dsps=1)) == 102.4
    assert ens(ResourceReport(brams=1)) == 116.2
    assert ens(ResourceReport(luts=4, dsps=1, brams=2)) == \
        pytest.approx(1 + 102.4 + 232.4)


def test_ens_rounds_half_up():
    assert ens_rounded(ResourceReport(luts=16406)) == 4102  # 4101.5 -> 4102
    assert ens_rounded(ResourceReport(luts=2)) == 1          # 0.5 -> 1


def test_eps_example():
    assert eps(0.976, 0.38) == pytest.approx(2.568, abs=1e-3)
    assert eps(0.835, 0.2) == pytest.approx(4.175, abs=1e-3)


def test_aep_example():
    assert aep(0.2e9, 100e6, 4102) == pytest.approx(0.488, abs=1e-3)
    assert aep(0.38e9, 95e6, 5755) == pytest.approx(0.695, abs=1e-3)


def test_full_published_rows():
    table = reference_table()
    assert set(table) == set(REFERENCE_DESIGNS)
    for name, row in table.items():
        exp = row["expected"]
        assert round(row["t_mac_gops"], 2) == exp["t_mac_gops"], name
        assert row["ens"] == exp["ens"], name
        assert row["eps"] == pytest.approx(exp["eps"], abs=1e-3), name
        assert row["aep"] == pytest.approx(exp["aep"], abs=1e-3), name
    assert KL_PRODUCT == 16


@given(st.floats(1e5, 1e9), st.integers(1, 10 ** 5), st.integers(1, 64),
       st.integers(1, 64))
def test_aep_is_clock_invariant_in_shape(f, luts, k, b):
    """AEP = ops/cycle/kENS: the clock cancels out of T/f."""
    e = ens(ResourceReport(luts=luts))
    t = throughput_mac(k, 1, b, f)
    assert aep(t, f, e) == pytest.approx((k / b) / (e / 1000), rel=1e-9)


def test_ens_is_linear():
    a = ResourceReport(luts=100, dsps=2, brams=1)
    b = ResourceReport(luts=40, dsps=1, brams=3)
    both = ResourceReport(luts=140, dsps=3, brams=4)
    assert ens(both) == pytest.approx(ens(a) + ens(b))


def test_validation():
    with pytest.raises(ValueError):
        ResourceReport(luts=-1)
    with pytest.raises(ValueError):
        ResourceReport(power_w=-0.1)
    with pytest.raises(ValueError):
        throughput_mac(0, 1, 8, 1e8)
    with pytest.raises(ValueError):
        eps(1.0, 0)
    with pytest.raises(ValueError):
        aep(1e9, 0, 100)
