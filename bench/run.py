"""comet-obc benchmark: one workload, timed in a closed loop, fully verified.

    python3 bench/run.py --workload lenet-infer --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from `src/` next
to this directory, never from an installed copy.  With `--trace 0` the
last line of standard output is the end-to-end result; with `--trace 1`
the run measures half its time untraced and half with spans around every
call into the package's modules, and reports the per-layer metrics.
Metric names and units come from BENCHMARK.json; `expected.json` holds
the exact simulated counts a run must reproduce.  See README.md.
"""

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

# one thread per process, pinned before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_MIN_NS = 1e9
SETUP_POINTS = 8
EXIT_FAIL = 1
EXIT_UNAVAILABLE = 2


def load_package():
    """Import comet from ROOT/src; None when the source tree is absent."""
    src = ROOT / "src"
    if not (src / "comet" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import comet
    if Path(comet.__file__).resolve().parent != src / "comet":
        return None
    return comet


def git_sha() -> str:
    """HEAD commit read from .git without starting git; 'unknown' if none."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class SetupClock:
    """Times the workload's set-up at points spread over the whole run.

    The host's speed drifts over seconds, so one burst of set-ups would
    measure one instant of it.  Set-up is timed in a burst before the
    first round (at least SETUP_REPEATS times and SETUP_MIN_NS in total)
    and once more after every round that ends past the next of
    SETUP_POINTS evenly spaced times; `setup_s` is the median over those
    points.  The workload built by the first burst is the one measured.
    """

    def __init__(self, name: str, seed: int, checks, seconds: float):
        import workloads as wl
        self._make = lambda: wl.WORKLOADS[name](
            wl.Setup(seed, OUT_DIR, checks), checks)
        self.timings = []   # the Setup.ns of every set-up
        self.points = []
        burst = []
        while len(burst) < SETUP_REPEATS or sum(burst) < SETUP_MIN_NS:
            self.workload, ns = self._timed()
            burst.append(ns)
        self.points.append(statistics.median(burst))
        self.interval = seconds / SETUP_POINTS
        self.next = perf_counter() + self.interval

    def _timed(self):
        t0 = perf_counter()
        workload = self._make()
        ns = (perf_counter() - t0) * 1e9
        self.timings.append(workload.s.ns)
        return workload, ns

    def between_rounds(self) -> None:
        if perf_counter() >= self.next:
            self.points.append(self._timed()[1])
            self.next = perf_counter() + self.interval


def measure(workload, seconds: float, rec, between, host):
    """Whole rounds in a closed loop until they have taken `seconds`."""
    import workloads as wl
    tally = wl.Tally(host)
    spent = 0.0
    while True:
        t0 = perf_counter()
        workload.round(tally, rec)
        spent += perf_counter() - t0
        tally.rounds += 1
        between()
        if spent >= seconds:
            return tally


def end_to_end(tally, setup_ns) -> dict:
    calls = np.frombuffer(tally.call_ns, dtype=np.int64)
    p50, p95 = np.percentile(calls, [50, 95])
    return {
        "setup_s": statistics.median(setup_ns) / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "items_per_s": len(tally.item_ns) / (sum(tally.item_ns) / 1e9),
        "sim_cycles_per_s": tally.sim_cycles / (calls.sum() / 1e9),
        "call_ms_p50": p50 / 1e6,
        "call_ms_p95": p95 / 1e6,
    }


TIME_UNITS = {"s", "ms"}
RATE_UNITS = {"1/s", "cycles/s"}


def at_nominal_speed(value: float, unit: str, scale: float) -> float:
    """A host time or rate as it would read at the nominal host speed."""
    if unit in TIME_UNITS:
        return value * scale
    if unit in RATE_UNITS:
        return value / scale
    return value


def exact_drift(workload: str, values: dict) -> list[str]:
    """Exact counts that differ from expected.json (absent ones skipped)."""
    expected = json.loads((HERE / "expected.json").read_text())[workload]
    return [f"{k}: got {values[k]!r}, expected {v!r}"
            for k, v in expected.items() if k in values and values[k] != v]


def run(name: str, seed: int, seconds: float, trace: bool,
        heldout_seed: int | None = None) -> dict:
    """Set up, measure and verify one workload.

    Returns the result object, whose host times are at the nominal host
    speed, and a record of the host-speed factors (with the end-to-end
    metrics as measured, before scaling).
    """
    import layers
    import workloads as wl
    from tracing import NullRecorder, SpanRecorder, instrument

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    checks = wl.Tally()
    clock = SetupClock(name, seed, checks, seconds)
    workload = clock.workload
    if not trace:
        tally = measure(workload, seconds, NullRecorder(),
                        clock.between_rounds, HostSpeed())
        scale = tally.host.scale()
        raw = end_to_end(tally, clock.points)
        values = {m["name"]: at_nominal_speed(raw[m["name"]], m["unit"], scale)
                  for m in spec["end_to_end"] if m["name"] in raw}
        host = {"host_scale": scale, "raw_metrics": raw}
        tallies = [tally]
        names = spec["end_to_end"]
    else:
        untraced = measure(workload, seconds / 2, NullRecorder(),
                           clock.between_rounds, HostSpeed())
        rec = SpanRecorder()
        model = workload.s.models[wl.B1S[0]][0]
        with instrument(rec, sys.modules["comet"], *layers.shape_names(model)):
            traced = measure(workload, seconds / 2, rec, clock.between_rounds,
                             HostSpeed())
        rec.save(OUT_DIR / f"spans-{name}.npz")
        values = layers.per_layer(rec, untraced, traced, clock.timings)
        host = {"host_scale_untraced": untraced.host.scale(),
                "host_scale_traced": traced.host.scale()}
        tallies = [untraced, traced]
        names = spec["per_layer"]
    values.update(layers.exact_counts(tallies[-1]))

    for t in tallies:
        checks.merge_ops(t)
    if heldout_seed is not None:
        held = wl.WORKLOADS[name](wl.Setup(heldout_seed, OUT_DIR, checks),
                                  checks)
        held_tally = wl.Tally()
        held.round(held_tally, NullRecorder())
        checks.merge_ops(held_tally)
    drift = exact_drift(name, values)
    for line in drift:
        print(f"exact-count drift: {line}", file=sys.stderr)
    wl.report_errors(checks)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in names}
    return {"correct": checks.failed == 0 and not drift,
            "attempted": checks.attempted, "failed": checks.failed,
            "metrics": metrics}, host


def provenance(args) -> dict:
    return {"git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "workload": args.workload, "seed": args.seed,
            "heldout_seed": args.heldout_seed, "seconds": args.seconds,
            "trace": args.trace,
            "threads_env": {v: os.environ[v] for v in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--heldout-seed", type=int, default=None,
                   help="also verify one untimed round on this seed's inputs")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if load_package() is None:
        print(f"error: no comet source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return EXIT_UNAVAILABLE
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(wl.WORKLOADS)}")
    result, host = run(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.heldout_seed)
    prov = provenance(args)
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, "host": host, "result": result},
                   indent=2))
    print("provenance " + json.dumps(prov))
    print("host " + json.dumps(host))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
