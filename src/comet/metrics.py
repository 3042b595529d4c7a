"""Hardware-efficiency metrics: throughput, ENS, EPS, AEP.

The simulator never estimates power; EPS needs user-supplied watts.
Built-in constants reproduce the six proposed-design columns of the
published comparison table for regression.
"""

import math
from dataclasses import dataclass
from numbers import Real

from .fxp import as_int


def is_number(value) -> bool:
    """True for a finite real number; a bool (JSON `true`) is not one."""
    return (isinstance(value, Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _require(what: str, nonnegative=(), positive=()) -> None:
    """ValueError unless every value `is_number`, each of `nonnegative`
    is >= 0 and each of `positive` is > 0; `what` states that rule."""
    values = (*nonnegative, *positive)
    if not (all(map(is_number, values)) and all(v >= 0 for v in nonnegative)
            and all(v > 0 for v in positive)):
        raise ValueError(f"need finite numbers with {what}, got {values}")


@dataclass(frozen=True)
class ResourceReport:
    luts: int = 0
    ffs: int = 0
    dsps: int = 0
    brams: float = 0
    power_w: float | None = None

    def __post_init__(self):
        _require("resource counts >= 0",
                 (self.luts, self.ffs, self.dsps, self.brams))
        if self.power_w is not None:
            _require("power >= 0", (self.power_w,))


def throughput_mac(k: int, l: int, b: int, f_clk: float) -> float:
    """MAC-equivalent throughput in ops/s: (K*L/B) * f_clk.

    Each inner product takes B clock cycles regardless of K, so the
    sample rate is f_clk/B and each sample retires K*L MACs.
    """
    k, l, b = as_int(k, "k"), as_int(l, "l"), as_int(b, "b")
    _require("k, l, b and f_clk > 0", positive=(k, l, b, f_clk))
    return (k * l / b) * f_clk


def ens(r: ResourceReport) -> float:
    """Equivalent number of slices: LUT/4 + DSP*102.4 + BRAM*116.2."""
    return r.luts / 4 + r.dsps * 102.4 + r.brams * 116.2


def ens_rounded(r: ResourceReport) -> int:
    """ENS rounded half-up to the integer the comparison table prints."""
    v = ens(r)
    return int(v + 0.5)


def eps(power_w: float, t_mac_gops: float) -> float:
    """Energy per sample in W per GOP/s."""
    _require("power >= 0 and throughput > 0", (power_w,), (t_mac_gops,))
    return power_w / t_mac_gops


def aep(t_mac_ops: float, f_clk: float, ens_slices: float) -> float:
    """Architectural efficiency per ENS, in ops/cycle/kENS."""
    _require("throughput >= 0 and f_clk, ENS > 0", (t_mac_ops,),
             (f_clk, ens_slices))
    return t_mac_ops / (f_clk * ens_slices / 1000)


# published columns for the six proposed designs; bitwidths are (B1, B2)
# and serial width B follows the scheme (B1 for A/AB, B2 for B)
REFERENCE_DESIGNS = {
    "hybrid_ab": dict(bitwidths=(8, 8), b=8, f_mhz=100, luts=16406, ffs=1177,
                      power_w=0.835, t_mac_gops=0.2, ens=4102, eps=4.175,
                      aep=0.488),
    "hybrid_a": dict(bitwidths=(8, 4), b=8, f_mhz=100, luts=14724, ffs=1044,
                     power_w=0.824, t_mac_gops=0.2, ens=3681, eps=4.120,
                     aep=0.543),
    "hybrid_b": dict(bitwidths=(8, 4), b=4, f_mhz=95, luts=23019, ffs=1043,
                     power_w=0.976, t_mac_gops=0.38, ens=5755, eps=2.568,
                     aep=0.695),
    "split_ab": dict(bitwidths=(8, 8), b=8, f_mhz=100, luts=16310, ffs=1170,
                     power_w=0.832, t_mac_gops=0.2, ens=4078, eps=4.160,
                     aep=0.490),
    "split_a": dict(bitwidths=(8, 4), b=8, f_mhz=100, luts=14741, ffs=1041,
                    power_w=0.826, t_mac_gops=0.2, ens=3685, eps=4.130,
                    aep=0.543),
    "split_b": dict(bitwidths=(8, 4), b=4, f_mhz=95, luts=23071, ffs=1041,
                    power_w=0.949, t_mac_gops=0.38, ens=5768, eps=2.497,
                    aep=0.694),
}

KL_PRODUCT = 16  # all published design points expose K*L = 16 MACs/sample


def reference_table() -> dict[str, dict]:
    """Recompute the derived columns of the comparison table."""
    out = {}
    for name, d in REFERENCE_DESIGNS.items():
        r = ResourceReport(luts=d["luts"], ffs=d["ffs"], power_w=d["power_w"])
        f = d["f_mhz"] * 1e6
        t = throughput_mac(KL_PRODUCT, 1, d["b"], f)
        e = ens_rounded(r)
        out[name] = {
            "t_mac_gops": t / 1e9,
            "ens": e,
            "eps": eps(d["power_w"], t / 1e9),
            "aep": aep(t, f, e),
            "expected": {k: d[k] for k in ("t_mac_gops", "ens", "eps", "aep")},
        }
    return out
