"""Command-line front end: cost tables, verification sweeps, inference runs.

Exit-code contract: 0 = pass, 1 = verification failure, 2 = usage or I/O
error.  Every randomized command takes a --seed and echoes it, and JSON
and table renderings are produced from the same report dict.
"""

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import cnn_model, gemm_core, im2col_addr, metrics, tensor_io
from .fxp import FxpFormat
from .lut_arch import KINDS, FactorizationError, LutArch, lut_cost
from .obc_ipc import IpcProblem, Scheme, ipc_obc, ipc_oracle
from .tensor_io import SplitMix64

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


def _print_table(rows: list[dict], stream=None) -> None:
    stream = stream or sys.stdout
    if not rows:
        return
    keys = list(rows[0])
    widths = {k: max(len(k), *(len(str(r.get(k, ""))) for r in rows))
              for k in keys}
    print("  ".join(k.ljust(widths[k]) for k in keys), file=stream)
    for r in rows:
        print("  ".join(str(r.get(k, "")).ljust(widths[k]) for k in keys),
              file=stream)


def _emit(rows: list[dict], fmt: str, stream=None) -> None:
    stream = stream or sys.stdout
    if fmt == "json":
        json.dump(rows, stream, indent=2)
        stream.write("\n")
    elif fmt == "csv":
        w = csv.DictWriter(stream, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    else:
        _print_table(rows, stream)


# -- lut-cost -----------------------------------------------------------

def cmd_lut_cost(args) -> int:
    archs = KINDS if args.arch == "all" else (args.arch,)
    rows = []
    for kind in archs:
        for k in args.k:
            if args.q is not None:
                q = args.q
                p = args.p if args.p is not None else k // q
            else:
                q = min(4, k)
                p = k // q if q else 0
            try:
                arch = LutArch(kind, k, p, q)
            except (FactorizationError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_USAGE
            c = lut_cost(arch)
            rows.append({
                "arch": kind, "k": k, "p": p, "q": q,
                "adders": c.adders, "muxes_2to1": c.muxes_2to1,
                "cpd_adders": round(c.cpd_adders, 4),
                "cpd_adders_ceil": c.cpd_adders_ceil,
                "cpd_muxes": c.cpd_muxes,
                "and_gates": c.and_gates, "xor_gates": c.xor_gates,
            })
    _emit(rows, args.format)
    return EXIT_OK


# -- verify -------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    rng = SplitMix64(args.seed)
    fmt_in, fmt_wt = FxpFormat(args.b1), FxpFormat(args.b2)
    scheme = Scheme(args.scheme)
    arch = None if args.arch == "naive" else args.arch
    mismatches = 0
    first = None
    for trial in range(args.trials):
        weights = [rng.next_int(args.b2) for _ in range(args.k)]
        inputs = [rng.next_int(args.b1) for _ in range(args.k)]
        bias = rng.next_int(args.b2)
        prob = IpcProblem.from_vectors(weights, inputs, bias, scheme,
                                       fmt_in, fmt_wt)
        got, _ = ipc_obc(prob, arch, record=False)
        if args.inject_fault and trial == args.trials // 2:
            got += 1  # harness self-test: force one bogus result
        want = ipc_oracle(weights, inputs, bias)
        if got != want:
            mismatches += 1
            if first is None:
                first = {"trial": trial, "weights": weights, "inputs": inputs,
                         "bias": bias, "got": got, "want": want}
    report = {"seed": args.seed, "trials": args.trials,
              "scheme": scheme.value, "arch": args.arch, "k": args.k,
              "b1": args.b1, "b2": args.b2, "mismatches": mismatches}
    if mismatches:
        report["first_counterexample"] = first
        print(json.dumps(report, indent=2))
        print(f"FAIL: {mismatches} mismatch(es); reproduce with "
              f"--seed {args.seed}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    print(json.dumps(report, indent=2))
    return EXIT_OK


# -- infer --------------------------------------------------------------

def cmd_infer(args) -> int:
    model = cnn_model.build_modified_lenet5(args.b1, args.b2)
    try:
        if args.weights:
            weights = tensor_io.load_weight_bundle(args.weights)
        else:
            weights = tensor_io.gen_weights(args.gen_weights, model, args.b2)
        if args.input:
            x = tensor_io.read_cbt(args.input)
        else:
            x = tensor_io.gen_input(args.gen_input, (1, 32, 32), args.b1)
    except (OSError, tensor_io.CbtError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    cfg = gemm_core.GemmConfig(k_hw=args.k_hw, l=args.lanes,
                               scheme=Scheme(args.scheme), arch=args.arch,
                               b1=args.b1, b2=args.b2)
    record = args.dump_trace is not None
    try:
        result = cnn_model.infer(model, weights, x, cfg, record=record)
        oracle = cnn_model.infer_oracle(model, weights, x)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    verdict = "PASS" if result.logits == oracle else "FAIL"
    report = {
        "config": {"b1": args.b1, "b2": args.b2, "scheme": args.scheme,
                   "arch": args.arch, "k_hw": args.k_hw, "l": args.lanes},
        "logits": result.logits,
        "oracle_logits": oracle,
        "argmax": result.argmax,
        "cycles": result.total_cycles,
        "verdict": verdict,
    }
    if record:
        outdir = Path(args.dump_trace)
        outdir.mkdir(parents=True, exist_ok=True)
        for li, traces in enumerate(result.traces):
            with open(outdir / f"layer{li}.csv", "w", newline="") as f:
                w = csv.writer(f)
                w.writerow(["n", "m", "tile", "slice_r", "address",
                            "lut_output", "accumulator"])
                for (n, m, t), trace in sorted(traces.items()):
                    for s in trace.steps:
                        w.writerow([n, m, t, s.r, s.lut_address,
                                    s.lut_output, s.accumulator_after])
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"logits      {result.logits}")
        print(f"oracle      {oracle}")
        print(f"argmax      {result.argmax}")
        print(f"cycles      {result.total_cycles}")
        print(f"verdict     {verdict}")
    return EXIT_OK if verdict == "PASS" else EXIT_VERIFY_FAIL


# -- addrgen ------------------------------------------------------------

_PRESET_LAYERS = {"conv1": 0, "conv2": 1, "conv3": 2, "conv4": 3}


def cmd_addrgen(args) -> int:
    try:
        family, layer = args.preset.split(":")
        if family != "lenet5m":
            raise ValueError(f"unknown preset family {family!r}")
        idx = _PRESET_LAYERS[layer]
    except (ValueError, KeyError):
        print(f"error: unknown preset {args.preset!r}; expected "
              f"lenet5m:conv1..conv4", file=sys.stderr)
        return EXIT_USAGE
    model = cnn_model.build_modified_lenet5()
    cfg = model.layers[idx].cfg
    x = tensor_io.gen_input(args.seed, (cfg.c, cfg.h, cfg.w), cfg.b)
    xflat = x.reshape(-1)

    ref = gemm_core.im2col(x, cfg)
    rows = []
    stream = []
    per_pos = cfg.tiles(args.k_hw) * args.k_hw
    for cycle, events in im2col_addr.run_layer(cfg, args.k_hw):
        for ev in events:
            rows.append({"cycle": cycle, "kind": ev.kind,
                         "addr": ev.addr if ev.addr is not None else "",
                         "level": ev.level if ev.level is not None else "",
                         "group": ev.group or ""})
            if ev.kind == "read_x":
                stream.append(int(xflat[ev.addr]))
            elif ev.kind == "read_x_pad":
                stream.append(0)
    # one output channel covers every spatial position once
    m = cfg.h_out * cfg.w_out
    got = np.array(stream[:m * per_pos]).reshape(m, per_pos)
    ok = bool((got[:, :cfg.patch_len] == ref.T).all())
    if args.dump:
        with open(args.dump, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=["cycle", "kind", "addr",
                                              "level", "group"])
            w.writeheader()
            w.writerows(rows)
    print(f"preset {args.preset}: {len(rows)} events, "
          f"stream {'matches' if ok else 'DIVERGES from'} im2col reference")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


# -- metrics ------------------------------------------------------------

def cmd_metrics(args) -> int:
    if args.reference_table:
        rows = []
        ok = True
        for name, row in metrics.reference_table().items():
            exp = row["expected"]
            match = (round(row["t_mac_gops"], 2) == exp["t_mac_gops"]
                     and row["ens"] == exp["ens"]
                     and abs(row["eps"] - exp["eps"]) <= 0.001
                     and abs(row["aep"] - exp["aep"]) <= 0.001)
            ok &= match
            rows.append({"design": name,
                         "t_mac_gops": round(row["t_mac_gops"], 3),
                         "ens": row["ens"], "eps": round(row["eps"], 3),
                         "aep": round(row["aep"], 3),
                         "verdict": "PASS" if match else "FAIL"})
        _emit(rows, args.format)
        return EXIT_OK if ok else EXIT_VERIFY_FAIL
    if args.report:
        try:
            blob = json.loads(Path(args.report).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        r = metrics.ResourceReport(
            luts=blob.get("luts", 0), ffs=blob.get("ffs", 0),
            dsps=blob.get("dsps", 0), brams=blob.get("brams", 0),
            power_w=blob.get("power_w"))
        tmac = blob.get("t_mac_gops")
        fclk = blob.get("f_clk")
    else:
        r = metrics.ResourceReport(luts=args.lut, ffs=args.ff,
                                   dsps=args.dsp, brams=args.bram,
                                   power_w=args.power)
        tmac, fclk = args.tmac, args.fclk
    if not tmac or tmac <= 0 or not fclk or fclk <= 0:
        print("error: positive --tmac and --fclk are required",
              file=sys.stderr)
        return EXIT_USAGE
    e = metrics.ens_rounded(r)
    row = {"ens": e, "ens_exact": round(metrics.ens(r), 1),
           "aep": round(metrics.aep(tmac * 1e9, fclk, e), 3)}
    if r.power_w is not None:
        row["eps"] = round(metrics.eps(r.power_w, tmac), 3)
    _emit([row], args.format)
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _bit_width(text: str) -> int:
    value = int(text)
    if not 2 <= value <= 32:
        raise argparse.ArgumentTypeError(f"bit width must be in [2, 32], "
                                         f"got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="comet",
        description="Bit-exact OBC LUT/shift-accumulate accelerator simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lut-cost", help="closed-form LUT cost tables")
    p.add_argument("--arch", default="all", choices=KINDS + ("all",))
    p.add_argument("--k", type=int, nargs="+", default=[4])
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--format", default="table",
                   choices=("table", "csv", "json"))
    p.set_defaults(func=cmd_lut_cost)

    p = sub.add_parser("verify", help="randomized DA-vs-oracle sweep")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--scheme", default="A", choices=("A", "B"))
    p.add_argument("--arch", default="hybrid", choices=KINDS + ("naive",))
    p.add_argument("--k", type=_positive_int, default=8)
    p.add_argument("--b1", type=_bit_width, default=8)
    p.add_argument("--b2", type=_bit_width, default=8)
    p.add_argument("--inject-fault", action="store_true",
                   help=argparse.SUPPRESS)  # harness self-test only
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("infer", help="modified LeNet-5 inference + verdict")
    p.add_argument("--b1", type=_bit_width, default=8)
    p.add_argument("--b2", type=_bit_width, default=8)
    p.add_argument("--scheme", default="A", choices=("A", "B"))
    p.add_argument("--arch", default="hybrid", choices=KINDS + ("naive",))
    p.add_argument("--k-hw", type=_positive_int, default=16)
    p.add_argument("--l", dest="lanes", type=_positive_int, default=10)
    p.add_argument("--weights", help="weight bundle directory")
    p.add_argument("--gen-weights", type=int, default=42,
                   help="seed for generated weights")
    p.add_argument("--input", help="input tensor (CBT)")
    p.add_argument("--gen-input", type=int, default=0,
                   help="seed for a generated input")
    p.add_argument("--dump-trace", help="directory for per-layer CSV traces")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("addrgen", help="address-generator event stream")
    p.add_argument("--preset", required=True,
                   help="layer preset, e.g. lenet5m:conv1")
    p.add_argument("--k-hw", type=_positive_int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump", help="CSV output path")
    p.set_defaults(func=cmd_addrgen)

    p = sub.add_parser("metrics", help="ENS/EPS/AEP metric rows")
    p.add_argument("--lut", type=int, default=0)
    p.add_argument("--ff", type=int, default=0)
    p.add_argument("--dsp", type=int, default=0)
    p.add_argument("--bram", type=float, default=0)
    p.add_argument("--power", type=float)
    p.add_argument("--tmac", type=float, help="throughput in GOP/s")
    p.add_argument("--fclk", type=float, help="clock in Hz")
    p.add_argument("--report", help="JSON ResourceReport path")
    p.add_argument("--reference-table", action="store_true",
                   help="regress the built-in published design columns")
    p.add_argument("--format", default="table",
                   choices=("table", "csv", "json"))
    p.set_defaults(func=cmd_metrics)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
