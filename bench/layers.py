"""Per-layer metrics, derived from a traced phase's spans and counters.

Every traced run reports the same set of names (BENCHMARK.json
`per_layer`).  A metric whose layer the workload never calls reads 0:
for example `gemm_core.im2col.ms.conv1` on `ipc-verify`.  README.md lists
the workload each metric is meant to be read on.
"""

from collections import defaultdict

import numpy as np

from comet.lut_arch import KINDS

from tracing import SpanTable
from workloads import layer_names


def shape_names(model):
    """Lookup tables naming the layer of a gemm_obc or im2col call.

    Returns ({(N, patch_len): name}, {(C, H, W): name}); both B1 variants
    of the model share these shapes.
    """
    gemm, conv = {}, {}
    for name, lay in layer_names(model):
        if lay.kind == "conv":
            c = lay.cfg
            gemm[(c.n, c.patch_len)] = name
            conv[(c.c, c.h, c.w)] = name
        else:
            gemm[(lay.out_features, lay.in_features)] = name
    return gemm, conv


def _rate(tally) -> float:
    total = sum(tally.item_ns)
    return len(tally.item_ns) / total * 1e9 if total else 0.0


def _median(vals) -> float:
    return float(np.median(vals)) if len(vals) else 0.0


def exact_counts(tally) -> dict:
    """Simulated counts that repeat exactly; only those this run produced."""
    out = {}
    if tally.call_ns:
        out["sim_cycles_per_call"] = tally.sim_cycles / len(tally.call_ns)
    c = tally.counts
    if c["cycles"]:
        out["im2col_addr.cycles"] = c["cycles"] / tally.rounds
        out["im2col_addr.events_per_cycle"] = c["events"] / c["cycles"]
    return out


def per_layer(rec, untraced, traced, setups) -> dict:
    """All per-layer metrics of one traced run.

    `untraced` and `traced` are the tallies of the two halves of the run;
    `setups` holds the timings of each repeated set-up, whose generator and
    bundle entries give the tensor_io metrics.  Host times come out at
    the nominal host speed, each scaled by the host-speed factor of the
    half it was measured in.
    """
    t = SpanTable(rec)
    s_u, s_t = untraced.host.scale(), traced.host.scale()
    ms = lambda ns: ns / 1e6 * s_t  # noqa: E731
    us = lambda ns: ns / 1e3 * s_t  # noqa: E731
    out = {}

    # cnn_model + gemm_core
    for name in ("conv1", "conv2", "conv3", "conv4", "fc1", "fc2"):
        out[f"gemm_core.gemm_obc.ms.{name}"] = ms(
            t.median_ns(f"gemm_core.gemm_obc.{name}"))
        if name.startswith("conv"):
            out[f"gemm_core.im2col.ms.{name}"] = ms(
                t.median_ns(f"gemm_core.im2col.{name}"))
    per_config = defaultdict(list)
    for (config, _), ns in t.per_request_ns("gemm_core.gemm_obc").items():
        per_config[config].append(ns)
    for config, vals in per_config.items():
        out[f"gemm_core.gemm_obc.ms.{config}"] = ms(_median(vals))
    cycles = rec.counts["gemm_core.gemm_obc.cycles"]
    if cycles:
        gemm_ns = t.dur[t.ids("gemm_core.gemm_obc")].sum()
        out["gemm_core.host_ns_per_sim_cycle"] = gemm_ns / cycles * s_t
    infers = len(t.ids("cnn_model.infer"))
    if infers:
        out["gemm_core.macs_per_image"] = rec.counts["gemm_core.macs"] / infers
        out["gemm_core.gemm_obc.calls_per_image"] = (
            rec.counts["gemm_core.gemm_obc.calls"] / infers)
    out["cnn_model.requantize.ms"] = ms(_median(
        t.per_parent_ns("cnn_model.requantize", "cnn_model.infer")))
    out["cnn_model.infer.self_ms"] = ms(
        t.median_ns("cnn_model.infer", self_time=True))
    out["cnn_model.infer_oracle.ms"] = ms(
        t.median_ns("cnn_model.infer_oracle"))
    out["cnn_model.conv_direct.ms"] = ms(_median(
        t.per_parent_ns("cnn_model.conv_direct", "cnn_model.infer_oracle")))

    # obc_ipc + lut_arch (scalar inner product)
    for tech in KINDS:
        out[f"lut_arch.PreparedLut.init_us.{tech}"] = us(
            t.median_ns(f"lut_arch.PreparedLut.init.{tech}"))
        out[f"lut_arch.PreparedLut.value_us.{tech}"] = us(
            t.median_ns(f"lut_arch.PreparedLut.value.{tech}"))
        out[f"obc_ipc.ipc_obc.us_p50.{tech}"] = us(
            t.median_ns(f"obc_ipc.ipc_obc.{tech}"))
    out["obc_ipc.sa_run.self_us"] = us(
        t.median_ns("obc_ipc.sa_run", self_time=True))
    out["obc_ipc.IpcProblem.from_vectors_us"] = us(
        t.median_ns("obc_ipc.IpcProblem.from_vectors"))
    out["obc_ipc.ipc_oracle_us"] = us(t.median_ns("obc_ipc.ipc_oracle"))
    ipc_calls = len(t.ids("obc_ipc.ipc_obc"))
    if ipc_calls:
        out["obc_ipc.lut_lookups_per_call"] = (
            len(t.ids("lut_arch.PreparedLut.value")) / ipc_calls)

    # im2col_addr: per-config rates from the untraced half, where no
    # wrapper sits on step() or read_addresses()
    for label, ns in untraced.group_ns.items():
        out[f"im2col_addr.kcycles_per_s.{label}"] = (
            untraced.group_cycles[label] / ns * 1e6 / s_u)
    out["im2col_addr.step.self_us"] = us(
        t.median_ns("im2col_addr.step", self_time=True))
    out["im2col_addr.read_addresses.us"] = us(
        t.median_ns("im2col_addr.read_addresses"))

    # tensor_io (set-up, timed across both halves) and the cost of tracing
    for key in ("gen_weights", "gen_input", "bundle_roundtrip"):
        out[f"tensor_io.{key}.ms"] = _median(
            [ns for s in setups for ns in s[key]]) / 1e6 * (s_u + s_t) / 2
    out["trace_overhead_frac"] = (_rate(untraced) / s_u
                                  / (_rate(traced) / s_t) - 1)
    return out
