import dataclasses
import errno
import json
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stpnrca import persist
from stpnrca.association import MlpParams, _init_mlp
from stpnrca.config import RunConfig
from stpnrca.errors import DataError
from stpnrca.persist import BUNDLE_FILE, TrainedBundle, load_bundle, save_bundle
from stpnrca.rbm import RbmParams
from stpnrca.stpn import StpnModel
from stpnrca.symbolic import PartitionScheme

# two channels of two symbols: 4 patterns, an RBM of 4 x 2, a classifier 4 -> 3 -> 4
CONFIG = RunConfig(alphabet_size=2, window_length=10, rbm_hidden=2, a3_hidden=(3,))


def make_rbm():
    rng = np.random.default_rng(0)
    return RbmParams(rng.normal(size=4), rng.normal(size=2), rng.normal(size=(4, 2)))


def small_bundle(config=CONFIG):
    stpn = StpnModel(
        names=("a", "b"), partition=PartitionScheme(np.zeros((2, 1))),
        depth=1, lag=1, window_length=10, counts=np.zeros((2, 2, 2, 2), np.int64),
        thresholds=np.zeros((2, 2)),
    )
    return TrainedBundle(stpn, make_rbm(), -1.5, config, _init_mlp(4, 4, config))


def saved(path) -> bytes:
    """The bytes of small_bundle() saved at `path`, a bundle file."""
    save_bundle(small_bundle(), path.parent)
    return path.read_bytes()


def bundle_arrays(bundle) -> list:
    stpn, rbm, mlp = bundle.stpn, bundle.rbm, bundle.mlp
    layers = (*mlp.weights, *mlp.biases) if mlp else ()
    return [stpn.partition.edges, stpn.counts, stpn.thresholds, rbm.visible_bias,
            rbm.hidden_bias, rbm.weights, *layers]


def npy_header(text: str) -> bytes:
    """A version-1.0 .npy magic and header holding `text`, with no data."""
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text)) + text.encode("latin1")


def float64_header(shape) -> bytes:
    return npy_header(f"{{'descr': '<f8', 'fortran_order': False, 'shape': {shape!r}}}")


def replaced(**records):
    """Damage: small_bundle() saved, then `records` in place of some arrays."""

    def damage(path, rewrite_header):
        saved(path)
        rewrite_header(path, **records)

    return damage


DAMAGED = {
    "truncated in the last array": lambda path, _: path.write_bytes(saved(path)[:-3]),
    "truncated in the first .npy header": lambda path, _: path.write_bytes(
        saved(path)[: saved(path).index(b"\n") + 20]),
    "header only": lambda path, _: path.write_bytes(saved(path).partition(b"\n")[0] + b"\n"),
    "one trailing byte": lambda path, _: path.write_bytes(saved(path) + b"\0"),
    "object array": replaced(visible_bias=np.array([1.0, "x", None, 2.0], dtype=object)),
    "complex array": replaced(visible_bias=make_rbm().visible_bias + 0j),
    "int32 array": replaced(weights=np.ones((4, 2), np.int32)),
    "Fortran-order array": replaced(weights=np.asfortranarray(make_rbm().weights)),
    "declared shape (10**15,)": replaced(hidden_bias=float64_header((10**15,)) + bytes(16)),
    "declared shape (-1,)": replaced(hidden_bias=float64_header((-1,)) + bytes(16)),
    # numpy's header parser raises TypeError on the first, TokenError on the second
    "unhashable key in the .npy header": replaced(hidden_bias=npy_header("{[]: 1}") + bytes(16)),
    "unclosed bracket in the .npy header": replaced(
        hidden_bias=npy_header("{'descr': '<f8', (") + bytes(16)),
    "not a .npy record": replaced(hidden_bias=b"\x93NUMPZ" + bytes(90)),
    "version-1 file": lambda path, _: path.write_text(json.dumps({
        "format": persist.FORMAT_TAG, "version": 1, "kind": "rbm",
        "payload": {"energy_threshold": -1.5, "visible_bias": [0.0], "hidden_bias": [0.0],
                    "weights": [[0.0]]},
    }, sort_keys=True, separators=(",", ":"))),
}


@pytest.mark.parametrize("damage", list(DAMAGED))
def test_damaged_file_is_data_error_naming_it(tmp_path, damage, rewrite_header):
    path = tmp_path / BUNDLE_FILE
    DAMAGED[damage](path, rewrite_header)
    with pytest.raises(DataError, match=re.escape(str(path))):
        load_bundle(tmp_path)


def test_version_1_file_asks_for_version_3(tmp_path):
    path = tmp_path / BUNDLE_FILE
    DAMAGED["version-1 file"](path, None)
    with pytest.raises(DataError, match="container version 1, this toolkit reads version 3"):
        load_bundle(tmp_path)


@pytest.mark.parametrize("records, message", [
    (dict(visible_bias=np.zeros(3), hidden_bias=np.zeros(2), weights=np.zeros((2, 3))),
     "weights (2, 3) inconsistent with biases (3,) and (2,)"),
    (dict(w0=np.zeros((2, 2)), b0=np.zeros(3)),
     "layer 0: weights (2, 2) and biases (3,) do not chain"),
    (dict(counts=np.zeros((1, 1, 2, 2), np.int64)),
     "count grid shape (1, 1, 2, 2) != (2, 2, 2, 2) at depth 1"),
    (dict(visible_bias=make_rbm().visible_bias.reshape(4, 1)),
     "weights (4, 2) inconsistent with biases (4, 1) and (2,)"),
    (dict(edges=np.zeros((3, 1))), "partition has 3 channels, names 2"),
    # one edge per channel at alphabet size 2: no ordering refuses a NaN there
    (dict(edges=np.array([[0.0], [np.nan]])),
     "channel 1: bin edges are not finite and strictly increasing"),
], ids=["rbm", "mlp", "stpn", "rbm two-dimensional bias", "stpn partition of other width",
        "stpn NaN edge at alphabet size 2"])
def test_model_whose_parts_disagree_names_the_file(tmp_path, rewrite_header, records, message):
    path = tmp_path / BUNDLE_FILE
    saved(path)
    rewrite_header(path, **records)
    with pytest.raises(DataError) as info:
        load_bundle(tmp_path)
    assert str(info.value) == f"{path}: {message}"


def test_save_refuses_a_config_that_disagrees_with_the_models(tmp_path):
    """The config is the only stored copy of the lag, so a bundle whose
    config states another one would load as another model: it cannot be
    built, so there is nothing to save."""
    with pytest.raises(DataError, match="config has lag = 2, the models 1"):
        save_bundle(dataclasses.replace(small_bundle(), config=dataclasses.replace(CONFIG, lag=2)),
                    tmp_path / "b")
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("parts, message", [
    (dict(rbm=RbmParams(np.zeros(3), np.zeros(2), np.zeros((3, 2)))),
     "energy model width 3 != 4 patterns"),
    (dict(mlp=MlpParams((np.zeros((3, 3)), np.zeros((3, 4))), (np.zeros(3), np.zeros(4)))),
     "classifier input width 3 != 4 patterns"),
    (dict(mlp=MlpParams((np.zeros((4, 3)), np.zeros((3, 5))), (np.zeros(3), np.zeros(5)))),
     "classifier output width 5 != 4 patterns"),
    (dict(energy_threshold=math.nan), "energy threshold nan is not finite"),
    (dict(energy_threshold=math.inf), "energy threshold inf is not finite"),
    (dict(energy_threshold=-math.inf), "energy threshold -inf is not finite"),
    (dict(config=dataclasses.replace(CONFIG, rbm_hidden=3, alphabet_size=3)),
     "config has alphabet_size = 3, the models 2, rbm_hidden = 3, the models 2"),
], ids=["rbm width", "classifier input", "classifier output", "NaN threshold",
        "infinite threshold", "negative infinite threshold", "config"])
def test_bundle_whose_parts_disagree_cannot_be_built(tmp_path, monkeypatch, parts, message):
    """Building such a bundle raises the message that loading the same
    damage from a file gives after the file's path, so the toolkit never
    writes a bundle that it then refuses."""
    with pytest.raises(DataError) as built:
        dataclasses.replace(small_bundle(), **parts)
    assert str(built.value) == message
    monkeypatch.setattr(TrainedBundle, "__post_init__", lambda self: None)  # the damage
    save_bundle(dataclasses.replace(small_bundle(), **parts), tmp_path)
    monkeypatch.undo()
    with pytest.raises(DataError) as loaded:
        load_bundle(tmp_path)
    assert str(loaded.value) == f"{tmp_path / BUNDLE_FILE}: {message}"


def test_interrupted_save_keeps_the_previous_bundle(tmp_path, monkeypatch):
    """A retrain that fails part-way leaves the previous bundle, whole."""
    old = small_bundle()
    save_bundle(old, tmp_path)
    new = dataclasses.replace(
        old, energy_threshold=old.energy_threshold + 1.0,
        stpn=dataclasses.replace(old.stpn, thresholds=old.stpn.thresholds + 1.0),
        rbm=RbmParams(*(2.0 * a for a in (old.rbm.visible_bias, old.rbm.hidden_bias,
                                          old.rbm.weights))),
    )
    calls, save = [], np.save

    def fourth_save_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 4:
            raise OSError(errno.ENOSPC, "No space left on device")
        return save(*args, **kwargs)

    monkeypatch.setattr(np, "save", fourth_save_fails)
    with pytest.raises(OSError, match="No space left"):
        save_bundle(new, tmp_path)
    monkeypatch.undo()
    loaded = load_bundle(tmp_path)
    assert loaded.energy_threshold == old.energy_threshold
    assert all(same(a, b) for a, b in zip(bundle_arrays(loaded), bundle_arrays(old), strict=True))
    assert not list(tmp_path.glob("*.tmp"))


class TestContainerChecks:
    def test_version_mismatch_fails_loudly(self, tmp_path, rewrite_header):
        path = tmp_path / BUNDLE_FILE
        saved(path)
        rewrite_header(path, lambda doc: doc.update(version=99))
        with pytest.raises(DataError, match="version"):
            load_bundle(tmp_path)

    def test_wrong_kind(self, tmp_path, rewrite_header):
        path = tmp_path / BUNDLE_FILE
        saved(path)
        rewrite_header(path, lambda doc: doc.update(kind="rbm"))
        with pytest.raises(DataError, match="kind|contains"):
            load_bundle(tmp_path)

    def test_unknown_format_tag(self, tmp_path):
        path = tmp_path / BUNDLE_FILE
        path.write_text('{"format": "other", "version": 3, "kind": "bundle", "payload": {}}')
        with pytest.raises(DataError, match="format"):
            load_bundle(tmp_path)

    def test_not_json(self, tmp_path):
        (tmp_path / BUNDLE_FILE).write_text("definitely not json")
        with pytest.raises(DataError):
            load_bundle(tmp_path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_bundle(tmp_path / "absent")

    def test_not_utf8(self, tmp_path):
        (tmp_path / BUNDLE_FILE).write_bytes(b"\xff\xfe\x00")
        with pytest.raises(DataError):
            load_bundle(tmp_path)

    @pytest.mark.parametrize(
        "payload",
        [
            {}, [],
            # arrays are not in the payload; this damages the header's array
            # list instead: the fourth record named twice, the fifth not at all
            {"arrays": (4, 3)},
            {"energy_threshold": None}, {"energy_threshold": float("nan")},
            # JSON reads this as an int that no float holds
            {"energy_threshold": 10**400},
        ],
    )
    def test_malformed_payload(self, tmp_path, rewrite_header, payload):
        path = tmp_path / BUNDLE_FILE
        saved(path)

        def damage(doc):
            if "arrays" in payload:
                at, source = payload["arrays"]
                doc["arrays"][at] = doc["arrays"][source]
            elif "energy_threshold" in payload:
                doc["payload"].update(payload)
            else:
                doc["payload"] = payload

        rewrite_header(path, damage)
        with pytest.raises(DataError) as info:
            load_bundle(tmp_path)
        threshold = payload["energy_threshold"] if "energy_threshold" in payload else None
        if threshold != threshold:  # NaN parses as a float, which the bundle refuses
            assert str(info.value) == f"{path}: energy threshold nan is not finite"
        else:
            assert str(info.value).startswith(f"{path}: malformed bundle payload")

    def test_rbm_without_threshold_rejected(self, tmp_path, rewrite_header):
        path = tmp_path / BUNDLE_FILE
        saved(path)
        rewrite_header(path, lambda doc: doc["payload"].pop("energy_threshold"))
        with pytest.raises(DataError, match="energy_threshold"):
            load_bundle(tmp_path)


class TestMlpShapes:
    def test_layers_that_do_not_chain_rejected(self, tmp_path, rewrite_header):
        path = tmp_path / BUNDLE_FILE
        saved(path)
        rewrite_header(path, b0=np.append(small_bundle().mlp.biases[0], 0.0))
        with pytest.raises(DataError, match="chain"):
            load_bundle(tmp_path)


class TestMlpRoundtrip:
    def test_exact_roundtrip(self, tmp_path):
        config = dataclasses.replace(CONFIG, a3_hidden=(5,), a3_dropout=0.4, seed=3)
        params = small_bundle(config).mlp
        save_bundle(small_bundle(config), tmp_path)
        loaded = load_bundle(tmp_path).mlp
        for w1, w2 in zip(params.weights, loaded.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(params.biases, loaded.biases):
            assert np.array_equal(b1, b2)


# ---------------------------------------------------------------------------
# exact round trips of arbitrary valid bundles

ROUNDTRIP = settings(max_examples=40, deadline=None, derandomize=True, database=None)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def finite_arrays(*shape):
    return arrays(float, shape, elements=FINITE)


@st.composite
def bundles(draw, with_mlp):
    f = draw(st.integers(1, 3))
    n_symbols = draw(st.integers(2, 4))
    depth, lag = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    interior = st.lists(FINITE, min_size=n_symbols - 1, max_size=n_symbols - 1, unique=True)
    stpn = StpnModel(
        names=tuple(draw(st.lists(st.text(min_size=1, max_size=6), min_size=f, max_size=f,
                                  unique=True))),
        partition=PartitionScheme(np.array([sorted(draw(interior)) for _ in range(f)])),
        depth=depth,
        lag=lag,
        window_length=draw(st.integers(max(depth + lag, n_symbols), 10**6)),
        counts=draw(arrays(np.int64, (f, f, n_symbols**depth, n_symbols),
                           elements=st.integers(0, 10**12))),
        thresholds=draw(finite_arrays(f, f)),
    )
    n_v, n_h = f * f, draw(st.integers(1, 4))
    rbm = RbmParams(
        draw(finite_arrays(n_v)), draw(finite_arrays(n_h)), draw(finite_arrays(n_v, n_h))
    )
    hidden = tuple(draw(st.lists(st.integers(1, 5), max_size=2)))
    dropout = draw(st.floats(0.0, 1.0, exclude_max=True))
    mlp = None
    if with_mlp:
        sizes = [n_v, *hidden, n_v]
        mlp = MlpParams(
            tuple(draw(finite_arrays(a, b)) for a, b in zip(sizes, sizes[1:])),
            tuple(draw(finite_arrays(b)) for b in sizes[1:]),
        )
    config = RunConfig(alphabet_size=n_symbols, depth=depth, lag=lag,
                       window_length=stpn.window_length, rbm_hidden=n_h, a3_hidden=hidden,
                       a3_dropout=dropout, seed=draw(st.integers(0, 2**32)))
    return TrainedBundle(stpn, rbm, draw(FINITE), config, mlp)


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def round_trip(bundle):
    """Save, load, save again: the bundle as loaded, once the second file has
    been checked to equal the first byte for byte."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a", Path(tmp) / "b"
        save_bundle(bundle, first)
        loaded = load_bundle(first)
        save_bundle(loaded, second)
        assert (first / BUNDLE_FILE).read_bytes() == (second / BUNDLE_FILE).read_bytes()
    return loaded


@ROUNDTRIP
@given(bundle=bundles(with_mlp=False))
def test_stpn_file_round_trips_exactly(bundle):
    model, loaded = bundle.stpn, round_trip(bundle).stpn
    assert loaded.names == model.names
    assert (loaded.depth, loaded.lag, loaded.window_length) == (
        model.depth, model.lag, model.window_length
    )
    assert loaded.partition.alphabet_size == model.partition.alphabet_size
    assert same(loaded.partition.edges, model.partition.edges)
    assert same(loaded.counts, model.counts)
    assert same(loaded.thresholds, model.thresholds)


@ROUNDTRIP
@given(bundle=bundles(with_mlp=False))
def test_rbm_file_round_trips_exactly(bundle):
    params, loaded = bundle.rbm, round_trip(bundle)
    assert same(loaded.rbm.visible_bias, params.visible_bias)
    assert same(loaded.rbm.hidden_bias, params.hidden_bias)
    assert same(loaded.rbm.weights, params.weights)
    assert loaded.energy_threshold == bundle.energy_threshold
    assert type(loaded.energy_threshold) is float


@ROUNDTRIP
@pytest.mark.parametrize("with_mlp", [False, True], ids=["no classifier", "classifier"])
@given(data=st.data())
def test_bundle_file_round_trips_exactly(with_mlp, data):
    """The loaded bundle equals the saved one array for array, and its
    config and classifier come back as saved."""
    bundle = data.draw(bundles(with_mlp))
    loaded = round_trip(bundle)
    assert loaded.config == bundle.config
    assert (loaded.mlp is None) == (bundle.mlp is None)
    if bundle.mlp is not None:
        assert len(loaded.mlp.weights) == len(bundle.mlp.weights)
    assert all(same(a, b) for a, b in zip(bundle_arrays(loaded), bundle_arrays(bundle),
                                          strict=True))
