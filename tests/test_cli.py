"""Command-line interface: exit codes, output formats, subcommand behavior."""

import hashlib
import json

import numpy as np
import pytest

from comet import cli, im2col_addr
from comet.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, main
from comet.cnn_model import build_modified_lenet5
from comet.tensor_io import gen_weights, save_weight_bundle, write_cbt


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# -- lut-cost -------------------------------------------------------------

def test_lut_cost_table(capsys):
    code, out, _ = run(capsys, "lut-cost", "--arch", "parallel",
                       "--k", "8", "--p", "2", "--q", "4")
    assert code == EXIT_OK
    assert "21" in out and "14" in out


def test_lut_cost_json_matches_table(capsys):
    code, out, _ = run(capsys, "lut-cost", "--arch", "hybrid", "--k", "4",
                       "--q", "4", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert rows[0]["adders"] == 4
    assert rows[0]["muxes_2to1"] == 7
    code, out, _ = run(capsys, "lut-cost", "--arch", "hybrid", "--k", "4",
                       "--q", "4")
    assert str(rows[0]["adders"]) in out


def test_lut_cost_all_archs_multi_k(capsys):
    code, out, _ = run(capsys, "lut-cost", "--k", "4", "8", "--format", "csv")
    assert code == EXIT_OK
    assert out.count("\n") == 9  # header + 4 archs x 2 widths


def test_lut_cost_rejects_shared_below_q2(capsys):
    """Its printed closed form counts nothing at q = 1: it printed
    adders -0.5 and muxes_2to1 0.5 and exited 0."""
    code, out, err = run(capsys, "lut-cost", "--arch", "shared", "--k", "1")
    assert (code, out) == (EXIT_USAGE, "")
    assert "q >= 2" in err


def test_verify_has_no_fault_injection_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--inject-fault"])
    assert exc.value.code == EXIT_USAGE


def test_lut_cost_bad_factorization(capsys):
    code, _, err = run(capsys, "lut-cost", "--arch", "split", "--k", "9",
                       "--q", "3")
    assert code == EXIT_USAGE
    assert "error" in err


# -- verify ---------------------------------------------------------------

def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "200", "--seed", "3",
                       "--arch", "hybrid", "--k", "6")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["mismatches"] == 0
    assert report["seed"] == 3


@pytest.mark.parametrize("arch", ["parallel", "shared", "split", "hybrid",
                                  "naive"])
@pytest.mark.parametrize("scheme", ["A", "B"])
def test_verify_all_configs(capsys, arch, scheme):
    code, out, _ = run(capsys, "verify", "--trials", "50", "--arch", arch,
                       "--scheme", scheme, "--k", "4", "--b1", "6",
                       "--b2", "5")
    assert code == EXIT_OK
    assert json.loads(out)["mismatches"] == 0


def test_verify_detects_injected_fault(capsys, monkeypatch):
    """A datapath that is off by one at trial 50 fails the sweep there."""
    trials, real = iter(range(100)), cli.ipc_obc

    def faulty(problem, arch, record):
        got, trace = real(problem, arch, record=record)
        return got + (next(trials) == 50), trace

    monkeypatch.setattr(cli, "ipc_obc", faulty)
    code, out, _ = run(capsys, "verify", "--trials", "100", "--seed", "1")
    assert code == EXIT_VERIFY_FAIL
    report = json.loads(out)
    assert report["mismatches"] == 1
    ce = report["first_counterexample"]
    assert ce["trial"] == 50
    assert ce["got"] == ce["want"] + 1


@pytest.mark.parametrize("argv", [
    ["addrgen", "--preset", "lenet5m:conv1", "--k-hw", "0"],
    ["verify", "--k", "0"],
    ["verify", "--b1", "40"],
    ["infer", "--k-hw", "0"],
    ["infer", "--l", "0"],
    ["infer", "--b1", "40"],
    ["lut-cost", "--k", "0"],
    ["lut-cost", "--p", "0"],
    ["lut-cost", "--q", "0"],
])
def test_bad_numeric_arguments_exit_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_verify_naive_rejects_k_above_table_bound(capsys):
    code, _, err = run(capsys, "verify", "--arch", "naive", "--k", "25")
    assert code == EXIT_USAGE
    assert "error" in err and "24" in err


def test_verify_rejects_zero_trials(capsys):
    code, _, err = run(capsys, "verify", "--trials", "0")
    assert code == EXIT_USAGE
    assert "trials" in err


# -- infer ----------------------------------------------------------------

def test_infer_pass_json(capsys):
    code, out, _ = run(capsys, "infer", "--json", "--gen-weights", "42",
                       "--gen-input", "1")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["verdict"] == "PASS"
    assert report["logits"] == report["oracle_logits"]
    assert report["cycles"] > 0
    assert any(v != 0 for v in report["logits"])


def test_infer_scheme_b_split(capsys):
    code, out, _ = run(capsys, "infer", "--json", "--scheme", "B",
                       "--arch", "split", "--b1", "16")
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "PASS"


def test_infer_with_cbt_input(capsys, tmp_path):
    p = tmp_path / "x.cbt"
    write_cbt(np.zeros((1, 32, 32), dtype=np.int8), p)
    code, out, _ = run(capsys, "infer", "--json", "--input", str(p))
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "PASS"


def test_infer_missing_input_file(capsys, tmp_path):
    code, _, err = run(capsys, "infer", "--input",
                       str(tmp_path / "missing.cbt"))
    assert code == EXIT_USAGE
    assert "error" in err


@pytest.mark.parametrize("bad", ["outside", "not json", "shift 64",
                                 "shift 2.7", 'shift "3"', "shift true",
                                 "no layer 5", "extra layers 9 and 4",
                                 "alias 05", "repeated 5"])
def test_infer_rejects_bad_bundle(capsys, tmp_path, bad):
    model = build_modified_lenet5()
    save_weight_bundle(gen_weights(42, model, 8), model, tmp_path / "w")
    manifest = tmp_path / "w" / "manifest.json"
    if bad == "outside":
        # a working copy of the layer's weights, but outside the bundle
        (tmp_path / "w" / "layer0.weight.cbt").rename(tmp_path / "w0.cbt")
        text = manifest.read_text().replace('"layer0.weight.cbt"',
                                            '"../w0.cbt"')
    elif bad.startswith("shift"):
        doc = json.loads(manifest.read_text())
        doc["layers"]["0"]["shift"] = json.loads(bad.split()[1])
        text = json.dumps(doc)
    elif bad == "no layer 5":
        doc = json.loads(manifest.read_text())
        del doc["layers"]["5"]
        text = json.dumps(doc)
    elif bad == "extra layers 9 and 4":
        # 4 is the pooling layer; neither entry would ever be read
        doc = json.loads(manifest.read_text())
        doc["layers"]["9"] = doc["layers"]["4"] = doc["layers"]["6"]
        text = json.dumps(doc)
    elif bad == "alias 05":
        # read as layer 5, it would silently replace that layer's shift
        doc = json.loads(manifest.read_text())
        doc["layers"]["05"] = dict(doc["layers"]["5"], shift=0)
        text = json.dumps(doc)
    elif bad == "repeated 5":
        # plain json.loads would keep this second "5" entry's shift
        doc = json.loads(manifest.read_text())
        second = json.dumps(dict(doc["layers"]["5"], shift=0))
        text = manifest.read_text().replace('"6": {', f'"5": {second}, "6": {{',
                                            1)
    else:
        text = "{not json"
    manifest.write_text(text)
    code, _, err = run(capsys, "infer", "--weights", str(tmp_path / "w"))
    assert code == EXIT_USAGE
    assert err.startswith("error:")


def test_infer_trace_dump(capsys, tmp_path):
    out_dir = tmp_path / "traces"
    code, out, _ = run(capsys, "infer", "--json",
                       "--dump-trace", str(out_dir))
    assert code == EXIT_OK
    files = [out_dir / f"layer{i}.csv" for i in range(6)]
    assert sorted(out_dir.glob("layer*.csv")) == files  # 4 convs + 2 dense
    gemm_layers = [lay for lay in build_modified_lenet5().layers
                   if lay.kind != "gap"]
    for path, lay in zip(files, gemm_layers):
        lines = path.read_text().splitlines()
        assert lines[0] == "n,m,tile,slice_r,address,lut_output,accumulator"
        # one row per (n, m, tile, slice) at k_hw 16 and B1 = 8
        n, m = lay.out_shape[0], int(np.prod(lay.out_shape[1:]))
        assert len(lines) - 1 == n * m * -(-lay.patch_len // 16) * 8



# sha256 of layer0.csv .. layer5.csv for the default configuration
# (A-hybrid, B1 8) and B-split at B1 16: a change to the GEMM path keeps them
TRACE_DIGESTS = {
    (): ("b8df9aef58b90df8573edb6fac731fa24b6e10e62e38f56b7083647e97ee8caf",
         "843b6a9bc7eb6d6f78c8a7d20aee82442772a72f8bad0ffc8725439cdb9159df",
         "38a31414c8227286c62269fae5c65e82037d3a7d2a148288548b2214330f1e53",
         "4b8209762fff6a9a6b49fcab7744439f7d55b2ccd3cb8792124eb0e49422f259",
         "6c85119793ebd8f5ff37fc6c561b051b7ad168aba5b25f808ef08ab92aa13d0e",
         "30dee3151031c4d0de07f9185d0376e362e1c449fd25107a232a3614c513819b"),
    ("--scheme", "B", "--arch", "split", "--b1", "16"): (
        "794056057f3084657041f7f21ad5e4813a2345afa73bce6bb3599ad715cc1121",
        "317c4af4c3599b8758ae968fd8b8fa5a071988a3cc8a8b2fa5504a599ecbf619",
        "30d7ac9daddb1160d75b7f10c85cbcd042c1a521bc93d7a85191054f9cf6f0ef",
        "cd241362cc948ca8f3dcaf628fc7332d0cc0b57e052c331cd6f300e497e99357",
        "fbbed6a78de56286ff1ab48642ddc27c5ca26b544e7ed5174b54747436526234",
        "a24b9a8e9d4d8c4ad2d147bd3acfa5c1176578e8bb281ff12fb4fe4927c3a076"),
}


@pytest.mark.parametrize("argv", TRACE_DIGESTS,
                         ids=lambda argv: " ".join(argv) or "default")
def test_infer_trace_bytes_are_pinned(capsys, tmp_path, argv):
    code, _, _ = run(capsys, "infer", *argv, "--dump-trace", str(tmp_path))
    assert code == EXIT_OK
    assert tuple(hashlib.sha256((tmp_path / f"layer{i}.csv").read_bytes())
                 .hexdigest() for i in range(6)) == TRACE_DIGESTS[argv]

def test_infer_trace_rejects_addresses_past_int64(capsys, tmp_path):
    code, _, err = run(capsys, "infer", "--k-hw", "64",
                       "--dump-trace", str(tmp_path / "traces"))
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "63" in err


# -- one exit-code policy ---------------------------------------------------

_REPORTS = ['[1, 2]',
            '{"luts": "many", "t_mac_gops": 0.2, "f_clk": 1e8}',
            '{"luts": -1, "t_mac_gops": 0.2, "f_clk": 1e8}',
            '{"luts": 100, "t_mac_gops": "0.2", "f_clk": 1e8}',
            '{"luts": 100, "t_mac_gops": true, "f_clk": 1e8}']


@pytest.mark.parametrize("argv", [
    *(["metrics", "--report", f"R{i}"] for i in range(len(_REPORTS))),
    ["metrics", "--power", "-1", "--tmac", "0.2", "--fclk", "1e8"],
    ["metrics", "--tmac", "0.2", "--fclk", "1e8"],        # ENS 0
    ["addrgen", "--preset", "lenet5m:conv1", "--dump", "F/x.csv"],
    ["infer", "--dump-trace", "F/traces"],
    ["lut-cost", "--k", "16", "--p", "3"],               # q defaults to 4
    ["metrics", "--lut", "100", "--tmac", "inf", "--fclk", "1e8"],
    ["metrics", "--lut", "100", "--tmac", "0.2", "--fclk", "inf"],
], ids=lambda argv: " ".join(argv))
def test_rejected_input_exits_usage(capsys, tmp_path, argv):
    """Any rejected value or unusable path gives one `error:` line and exit
    2, never a traceback or a silently accepted value. F is a regular
    file, so a path below it cannot be created."""
    (tmp_path / "F").touch()
    for i, text in enumerate(_REPORTS):
        (tmp_path / f"R{i}").write_text(text)
    argv = [str(tmp_path / a) if a.startswith(("F/", "R")) else a
            for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1


# -- addrgen --------------------------------------------------------------

@pytest.mark.parametrize("layer", ["conv1", "conv2", "conv3", "conv4"])
def test_addrgen_presets(capsys, layer):
    code, out, _ = run(capsys, "addrgen", "--preset", f"lenet5m:{layer}")
    assert code == EXIT_OK
    assert "matches" in out


@pytest.mark.parametrize("where", ["last channel", "tile tail"])
def test_addrgen_checks_every_channel_and_tail(capsys, monkeypatch, where):
    """A stream that diverges only past channel 0, or only in a tile-tail
    pad, is a verification failure."""
    gather = im2col_addr.gather_stream

    def corrupt(cfg, x, k_hw):
        stream, cycles = gather(cfg, x, k_hw)
        stream[(-1, 0, 0) if where == "last channel" else (0, 0, -1)] += 1
        return stream, cycles

    monkeypatch.setattr(im2col_addr, "gather_stream", corrupt)
    code, out, _ = run(capsys, "addrgen", "--preset", "lenet5m:conv1")
    assert code == EXIT_VERIFY_FAIL
    assert "DIVERGES" in out


def test_addrgen_dump(capsys, tmp_path):
    p = tmp_path / "events.csv"
    code, _, _ = run(capsys, "addrgen", "--preset", "lenet5m:conv1",
                     "--dump", str(p))
    assert code == EXIT_OK
    lines = p.read_text().splitlines()
    assert lines[0] == "cycle,kind,addr,level,group"
    assert any("write_y" in ln for ln in lines)


def test_addrgen_unknown_preset(capsys):
    code, _, err = run(capsys, "addrgen", "--preset", "bogus:conv9")
    assert code == EXIT_USAGE
    assert "unknown preset" in err


# -- metrics --------------------------------------------------------------

def test_metrics_row(capsys):
    code, out, _ = run(capsys, "metrics", "--lut", "16406", "--power",
                       "0.835", "--tmac", "0.2", "--fclk", "100e6",
                       "--format", "json")
    assert code == EXIT_OK
    row = json.loads(out)[0]
    assert row["ens"] == 4102
    assert row["eps"] == pytest.approx(4.175, abs=1e-3)
    assert row["aep"] == pytest.approx(0.488, abs=1e-3)


def test_metrics_requires_throughput(capsys):
    code, _, err = run(capsys, "metrics", "--lut", "100")
    assert code == EXIT_USAGE
    assert "tmac" in err


def test_metrics_report_file(capsys, tmp_path):
    p = tmp_path / "report.json"
    p.write_text(json.dumps({"luts": 23019, "power_w": 0.976,
                             "t_mac_gops": 0.38, "f_clk": 95e6}))
    code, out, _ = run(capsys, "metrics", "--report", str(p),
                       "--format", "json")
    assert code == EXIT_OK
    row = json.loads(out)[0]
    assert row["ens"] == 5755
    assert row["eps"] == pytest.approx(2.568, abs=1e-3)


def test_metrics_bad_report_file(capsys, tmp_path):
    p = tmp_path / "report.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "metrics", "--report", str(p))
    assert code == EXIT_USAGE


def test_metrics_published_table(capsys):
    code, out, _ = run(capsys, "metrics", "--reference-table", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert len(rows) == 6
    assert all(r["verdict"] == "PASS" for r in rows)
