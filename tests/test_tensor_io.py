"""Tensor container format, seeded generators, and bundle digests."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from comet.cnn_model import build_modified_lenet5
from comet.tensor_io import (
    MAGIC,
    BundleError,
    CbtError,
    MagicMismatch,
    RangeViolation,
    SplitMix64,
    Truncated,
    gen_input,
    gen_weights,
    load_weight_bundle,
    read_cbt,
    save_weight_bundle,
    write_cbt,
)

GOLDEN_WEIGHT_DIGEST = \
    "56cc789ae00235e29ed55ee68f86097e1e29d629defa24025e03b7a8d519b508"


def test_round_trip_int8(tmp_path):
    t = np.array([[1, -1], [2, -2]], dtype=np.int8)
    p = tmp_path / "t.cbt"
    write_cbt(t, p)
    back = read_cbt(p)
    assert (back == t).all() and back.shape == t.shape


def test_known_byte_layout(tmp_path):
    p = tmp_path / "t.cbt"
    write_cbt(np.array([1, -1, 2, -2], dtype=np.int8), p)
    data = p.read_bytes()
    assert data[:4] == MAGIC == b"CBT1"
    assert data[4:6] == b"\x01\x00"          # version 1, little-endian
    assert data[6] == 0                       # dtype i8
    assert data[7] == 1                       # rank 1
    assert data[8:12] == b"\x04\x00\x00\x00"  # one dim = 4
    assert data[12:] == b"\x01\xff\x02\xfe"   # payload, two's complement


def test_round_trip_many_dtypes(tmp_path):
    for dtype, lim in ((np.int8, 127), (np.int16, 30000), (np.int32, 2 ** 30)):
        t = np.array([[-lim, 0], [lim, 1]], dtype=dtype)
        p = tmp_path / "x.cbt"
        write_cbt(t, p)
        assert (read_cbt(p) == t).all()


def test_write_picks_narrowest_container(tmp_path):
    p = tmp_path / "x.cbt"
    write_cbt(np.array([300, -300], dtype=np.int64), p)
    data = p.read_bytes()
    assert data[6] == 1  # i16 chosen
    assert (read_cbt(p) == [300, -300]).all()


def test_write_rejects_overwide_values(tmp_path):
    with pytest.raises(RangeViolation):
        write_cbt(np.array([2 ** 40]), tmp_path / "x.cbt")


def test_write_rejects_non_integers(tmp_path):
    """A float tensor used to be truncated: [0.5, 1.7] was written as [0, 1]."""
    for bad in ([0.5, 1.7], [np.nan], [2.0 ** 64]):
        with pytest.raises(ValueError, match="int64 integers"):
            write_cbt(np.array(bad), tmp_path / "x.cbt")
    assert not (tmp_path / "x.cbt").exists()
    write_cbt(np.array([2.0, -3.0]), tmp_path / "x.cbt")
    assert read_cbt(tmp_path / "x.cbt").tolist() == [2, -3]


def test_magic_mismatch(tmp_path):
    p = tmp_path / "bad.cbt"
    p.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(MagicMismatch) as exc:
        read_cbt(p)
    assert "offset 0" in str(exc.value)


def test_truncated_payload(tmp_path):
    p = tmp_path / "t.cbt"
    write_cbt(np.arange(10, dtype=np.int8), p)
    whole = p.read_bytes()
    p.write_bytes(whole[:-3])
    with pytest.raises(Truncated) as exc:
        read_cbt(p)
    assert "offset" in str(exc.value)


def test_truncated_header(tmp_path):
    p = tmp_path / "t.cbt"
    p.write_bytes(b"CBT1\x01")
    with pytest.raises(Truncated):
        read_cbt(p)


def test_unknown_version(tmp_path):
    p = tmp_path / "t.cbt"
    write_cbt(np.arange(4, dtype=np.int8), p)
    data = bytearray(p.read_bytes())
    data[4:6] = b"\x02\x00"
    p.write_bytes(bytes(data))
    with pytest.raises(CbtError) as exc:
        read_cbt(p)
    assert "version 2" in str(exc.value) and "offset 4" in str(exc.value)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-(2 ** 31), 2 ** 31 - 1), min_size=0,
                max_size=20))
def test_round_trip_property(values):
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        p = f"{d}/v.cbt"
        t = np.array(values, dtype=np.int64).reshape(-1)
        write_cbt(t, p)
        assert (read_cbt(p) == t).all()


# -- deterministic generators ----------------------------------------------

def test_splitmix_known_stream():
    rng = SplitMix64(0)
    first = rng.next_u64()
    assert first == 0xE220A8397B1DCDAF  # published reference value


def test_splitmix_int_range():
    rng = SplitMix64(123)
    vals = [rng.next_int(8) for _ in range(2000)]
    assert min(vals) >= -128 and max(vals) <= 127
    assert min(vals) < -100 and max(vals) > 100  # actually spreads


@pytest.mark.parametrize("bits", [2, 8, 32])
@pytest.mark.parametrize("shape", [(0,), (3, 0), (1,), (7,), (2, 3, 5)])
def test_fill_equals_next_int_loop(shape, bits):
    """`fill` draws in numpy uint64; a `next_int` loop is the reference,
    for the values and the state left afterwards."""
    for seed in (0, 42, 2 ** 64 - 1):
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        got = rng.fill(shape, bits)
        want = [ref.next_int(bits) for _ in range(int(np.prod(shape)))]
        assert got.dtype == np.int64 and got.shape == shape
        assert got.ravel().tolist() == want
        assert rng.state == ref.state
        assert rng.next_int(bits) == ref.next_int(bits)


def test_fill_rejects_bits_outside_1_64():
    for bits in (0, 65):
        with pytest.raises(ValueError):
            SplitMix64(0).fill((2,), bits)


def test_splitmix_takes_seeds_and_widths_through_as_int():
    """A numpy integer seed or width acts as the equal Python int (a seed
    is taken mod 2^64); bools, floats, strings and None are rejected."""
    want = SplitMix64(3).fill((5,), 8)
    assert SplitMix64(np.int64(3)).state == SplitMix64(3).state
    assert SplitMix64(np.uint64(2 ** 64 - 1)).state == SplitMix64(-1).state
    assert (gen_input(np.int64(3), (5,), 8) == want).all()
    assert (SplitMix64(3).fill((5,), np.int64(8)) == want).all()
    for seed in (0.5, "3", None, True):
        with pytest.raises(ValueError, match="seed"):
            SplitMix64(seed)
    for bits in (8.0, True, "8", None):
        with pytest.raises(ValueError, match="bits"):
            SplitMix64(0).fill((2,), bits)


def test_gen_input_deterministic():
    a = gen_input(5, (1, 4, 4), 8)
    b = gen_input(5, (1, 4, 4), 8)
    c = gen_input(6, (1, 4, 4), 8)
    assert (a == b).all()
    assert (a != c).any()
    assert a.shape == (1, 4, 4)


def test_gen_weights_shapes():
    model = build_modified_lenet5()
    bundle = gen_weights(0, model, 8)
    assert 4 not in bundle                    # pooling layer has no weights
    assert bundle[0].weight.shape == (6, 1, 5, 5)
    assert bundle[2].weight.shape == (16, 6, 5, 5)
    assert bundle[3].weight.shape == (16, 16, 3, 3)
    assert bundle[5].weight.shape == (32, 16)
    assert bundle[6].bias.shape == (10,)
    assert bundle[0].shift == model.layers[0].shift


def test_golden_weight_digest():
    model = build_modified_lenet5(8, 8)
    assert gen_weights(42, model, 8).digest() == GOLDEN_WEIGHT_DIGEST


def test_digest_sensitive_to_content():
    model = build_modified_lenet5()
    a = gen_weights(42, model, 8)
    b = gen_weights(43, model, 8)
    assert a.digest() != b.digest()
    a[0].weight[0, 0, 0, 0] += 1
    assert a.digest() != gen_weights(42, model, 8).digest()


def test_bundle_save_load_round_trip(tmp_path):
    model = build_modified_lenet5()
    bundle = gen_weights(17, model, 8)
    save_weight_bundle(bundle, model, tmp_path / "w")
    back = load_weight_bundle(tmp_path / "w")
    assert back.digest() == bundle.digest()
    assert (back[0].weight == bundle[0].weight).all()
    assert back[6].shift == bundle[6].shift


def _bundle_at_i32_edge(value):
    bundle = gen_weights(17, build_modified_lenet5(), 8)
    bundle[0].weight[0, 0, 0, 0] = value
    return bundle


def test_bundle_save_rejects_values_past_i32(tmp_path):
    """A weight of 2^31 used to be cast to int32 and load as -2^31."""
    model = build_modified_lenet5()
    for value in (1 << 31, -(1 << 31) - 1):
        with pytest.raises(RangeViolation):
            save_weight_bundle(_bundle_at_i32_edge(value), model,
                               tmp_path / "w")
    for value in ((1 << 31) - 1, -(1 << 31)):
        bundle = _bundle_at_i32_edge(value)
        save_weight_bundle(bundle, model, tmp_path / "w")
        back = load_weight_bundle(tmp_path / "w")
        assert back[0].weight[0, 0, 0, 0] == value
        assert back.digest() == bundle.digest()


def test_digest_rejects_values_past_i32():
    """2^31 and -2^31 used to give one digest, both hashed as -2^31."""
    for value in (1 << 31, -(1 << 31) - 1, 1 << 40):
        with pytest.raises(ValueError, match="32-bit format"):
            _bundle_at_i32_edge(value).digest()
    ends = {_bundle_at_i32_edge(v).digest() for v in ((1 << 31) - 1,
                                                      -(1 << 31))}
    assert len(ends) == 2


def _saved_manifest(tmp_path):
    """Save a bundle under tmp_path/w and return its manifest."""
    model = build_modified_lenet5()
    save_weight_bundle(gen_weights(17, model, 8), model, tmp_path / "w")
    return json.loads((tmp_path / "w" / "manifest.json").read_text())


def test_bundle_rejects_files_outside_it(tmp_path):
    manifest = _saved_manifest(tmp_path)
    outside = tmp_path / "outside.cbt"
    write_cbt(np.zeros((6, 1, 5, 5), dtype=np.int8), outside)
    for name in ("../outside.cbt", "sub/../../outside.cbt", str(outside)):
        manifest["layers"]["0"]["weight"] = name
        (tmp_path / "w" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleError) as exc:
            load_weight_bundle(tmp_path / "w")
        assert "outside the bundle" in str(exc.value)


@pytest.mark.parametrize("drop", [None, "layers", "weight", "bias", "shift"])
def test_bundle_rejects_malformed_manifest(tmp_path, drop):
    """Not JSON (drop None), or JSON that lacks a required key."""
    manifest = _saved_manifest(tmp_path)
    if drop == "layers":
        del manifest["layers"]
    elif drop:
        del manifest["layers"]["5"][drop]
    text = json.dumps(manifest) if drop else "{not json"
    (tmp_path / "w" / "manifest.json").write_text(text)
    with pytest.raises(BundleError):
        load_weight_bundle(tmp_path / "w")


@pytest.mark.parametrize("key", ["05", " 5", "5 ", "-1", "+5", "5_0"])
def test_bundle_rejects_non_canonical_layer_key(tmp_path, key):
    """int() reads "05", " 5" and "+5" as 5, so an alias would silently
    replace layer 5."""
    manifest = _saved_manifest(tmp_path)
    manifest["layers"][key] = manifest["layers"]["0"]
    (tmp_path / "w" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(BundleError, match="layer key"):
        load_weight_bundle(tmp_path / "w")


def test_bundle_rejects_repeated_key(tmp_path):
    """Plain json.loads keeps the last of two "5" entries without a word."""
    manifest = _saved_manifest(tmp_path)
    first = json.dumps(dict(manifest["layers"]["5"], shift=0))
    text = json.dumps(manifest).replace('"layers": {',
                                        f'"layers": {{"5": {first}, ', 1)
    assert json.loads(text)["layers"]["5"]["shift"] != 0
    (tmp_path / "w" / "manifest.json").write_text(text)
    with pytest.raises(BundleError, match="repeats a key"):
        load_weight_bundle(tmp_path / "w")


@pytest.mark.parametrize("shift", [-1, 64])
def test_bundle_rejects_shift_outside_0_63(tmp_path, shift):
    manifest = _saved_manifest(tmp_path)
    manifest["layers"]["0"]["shift"] = shift
    (tmp_path / "w" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(BundleError, match="shift"):
        load_weight_bundle(tmp_path / "w")


@pytest.mark.parametrize("shift", [2.7, 3.0, "3", True])
def test_bundle_rejects_non_integer_shift(tmp_path, shift):
    """int() would load these as 2, 3, 3 and 1 without a word."""
    manifest = _saved_manifest(tmp_path)
    manifest["layers"]["0"]["shift"] = shift
    (tmp_path / "w" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(BundleError, match="shift"):
        load_weight_bundle(tmp_path / "w")
