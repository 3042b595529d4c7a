"""Throughput, equivalent-slice, and efficiency metric arithmetic."""

import math

import pytest
from hypothesis import given, strategies as st

from comet.cnn_model import build_modified_lenet5, model_cycles
from comet.gemm_core import GemmConfig, gemm_cycles
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


def test_cycle_model_reaches_the_published_throughput():
    """On a layer with no tail at k_hw 16, L 1, the cycle model retires
    K*L/B MACs per cycle at the design's serial width B: the published
    peak, which `t_mac_gops` quotes."""
    n, m, patch_len = 3, 7, 2 * 16
    for name, d in REFERENCE_DESIGNS.items():
        b1, b2 = d["bitwidths"]
        cfg = GemmConfig(k_hw=16, l=1, scheme="A" if d["b"] == b1 else "B",
                         arch=name.split("_")[0], b1=b1, b2=b2)
        assert cfg.serial_bits == d["b"], name
        f = d["f_mhz"] * 1e6
        t = n * m * patch_len / gemm_cycles(n, m, patch_len, cfg) * f
        assert t == pytest.approx(throughput_mac(16, 1, d["b"], f)), name
        assert t == pytest.approx(d["t_mac_gops"] * 1e9), name


@pytest.mark.parametrize("l, use", [(1, 0.888), (10, 0.623)])
def test_lenet_use_of_the_peak(l, use):
    """LeNet-5m at (8, 8), Scheme A, k_hw 16: its 479,536 MACs over
    model_cycles x K*L/B; tile tails, and at L 10 idle lanes, lose the
    rest of the peak."""
    model = build_modified_lenet5(8, 8)
    macs = sum(math.prod(lay.out_shape) * lay.patch_len
               for lay in model.layers if lay.kind != "gap")
    assert macs == 479_536
    peak = model_cycles(model, GemmConfig(k_hw=16, l=l)) * 16 * l / 8
    assert macs / peak == pytest.approx(use, abs=5e-4)


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


@pytest.mark.parametrize("luts", ["many", True, None, float("nan"),
                                  float("inf")])
def test_resource_report_rejects_non_numbers(luts):
    with pytest.raises(ValueError, match="numbers"):
        ResourceReport(luts=luts)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("fn, args", [
    (throughput_mac, (16, 1, 8, NAN)), (throughput_mac, (16, 1, 8, INF)),
    (throughput_mac, (16, 1, 8, "1e8")), (throughput_mac, (16, 1, 8, True)),
    (throughput_mac, (2.5, 1, 8, 1e8)), (throughput_mac, (16, 1.0, 8, 1e8)),
    (throughput_mac, (16, 1, None, 1e8)), (throughput_mac, (True, 1, 8, 1e8)),
    (throughput_mac, (16, True, 8, 1e8)),
    (eps, (0.8, INF)), (eps, (NAN, 0.2)), (eps, ("0.8", 0.2)),
    (aep, (1e9, 1e8, NAN)), (aep, (INF, 1e8, 4102)), (aep, (1e9, None, 4102)),
    (eps, (-1, 0.2)), (aep, (-1e9, 1e8, 4102)),
], ids=lambda v: getattr(v, "__name__", repr(v)))
def test_metrics_reject_non_numbers(fn, args):
    """Each of these used to return a value: nan, 0.0, a throughput of
    K = 2.5 (throughput_mac(2.5, 1, 8, 1e8) gave 31250000.0) or of K =
    True (12500000.0), or a negative figure (eps(-1, 0.2) gave -5.0)."""
    with pytest.raises(ValueError, match="integer|finite numbers"):
        fn(*args)


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
