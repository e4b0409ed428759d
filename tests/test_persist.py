import dataclasses
import json
import re
import struct
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stpnrca import persist
from stpnrca.association import MlpParams, init_mlp
from stpnrca.config import RunConfig
from stpnrca.errors import DataError
from stpnrca.persist import (
    load_mlp,
    load_rbm,
    load_stpn,
    save_mlp,
    save_rbm,
    save_stpn,
)
from stpnrca.rbm import RbmParams
from stpnrca.stpn import StpnModel
from stpnrca.symbolic import PartitionScheme


def make_rbm():
    rng = np.random.default_rng(0)
    return RbmParams(rng.normal(size=4), rng.normal(size=2), rng.normal(size=(4, 2)))


def unchecked(model, **changes):
    """A stand-in for `model` with `changes` that skips the model's own
    checks, so a saver writes a file whose parts disagree."""
    fields = {f.name: getattr(model, f.name) for f in dataclasses.fields(model)}
    return SimpleNamespace(**{**fields, **changes})


def write_rbm_file(path, **records):
    """A version-2 rbm container of make_rbm()'s arrays, with `records` in
    place of some: arrays, written as np.save writes them (object arrays
    too), or raw bytes."""
    params = make_rbm()
    arrays = {"visible_bias": params.visible_bias, "hidden_bias": params.hidden_bias,
              "weights": params.weights, **records}
    header = {"format": persist.FORMAT_TAG, "version": persist.FORMAT_VERSION, "kind": "rbm",
              "payload": {"energy_threshold": -1.5}, "arrays": list(arrays)}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for a in arrays.values():
            fh.write(a) if isinstance(a, bytes) else np.save(fh, a, allow_pickle=True)


def npy_header(text: str) -> bytes:
    """A version-1.0 .npy magic and header holding `text`, with no data."""
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text)) + text.encode("latin1")


def float64_header(shape) -> bytes:
    return npy_header(f"{{'descr': '<f8', 'fortran_order': False, 'shape': {shape!r}}}")


def saved(path) -> bytes:
    """The bytes of make_rbm() saved at `path`."""
    save_rbm(make_rbm(), path, -1.5)
    return path.read_bytes()


DAMAGED = {
    "truncated in the last array": lambda path: path.write_bytes(saved(path)[:-3]),
    "truncated in the first .npy header": lambda path: path.write_bytes(
        saved(path)[: saved(path).index(b"\n") + 20]),
    "header only": lambda path: path.write_bytes(saved(path).partition(b"\n")[0] + b"\n"),
    "one trailing byte": lambda path: path.write_bytes(saved(path) + b"\0"),
    "object array": lambda path: write_rbm_file(
        path, visible_bias=np.array([1.0, "x", None, 2.0], dtype=object)),
    "complex array": lambda path: write_rbm_file(
        path, visible_bias=make_rbm().visible_bias + 0j),
    "int32 array": lambda path: write_rbm_file(path, weights=np.ones((4, 2), np.int32)),
    "Fortran-order array": lambda path: write_rbm_file(
        path, weights=np.asfortranarray(make_rbm().weights)),
    "declared shape (10**15,)": lambda path: write_rbm_file(
        path, hidden_bias=float64_header((10**15,)) + bytes(16)),
    "declared shape (-1,)": lambda path: write_rbm_file(
        path, hidden_bias=float64_header((-1,)) + bytes(16)),
    # numpy's header parser raises TypeError on the first, TokenError on the second
    "unhashable key in the .npy header": lambda path: write_rbm_file(
        path, hidden_bias=npy_header("{[]: 1}") + bytes(16)),
    "unclosed bracket in the .npy header": lambda path: write_rbm_file(
        path, hidden_bias=npy_header("{'descr': '<f8', (") + bytes(16)),
    "not a .npy record": lambda path: write_rbm_file(path, hidden_bias=b"\x93NUMPZ" + bytes(90)),
    "version-1 file": lambda path: path.write_text(json.dumps({
        "format": persist.FORMAT_TAG, "version": 1, "kind": "rbm",
        "payload": {"energy_threshold": -1.5, "visible_bias": [0.0], "hidden_bias": [0.0],
                    "weights": [[0.0]]},
    }, sort_keys=True, separators=(",", ":"))),
}


@pytest.mark.parametrize("damage", list(DAMAGED))
def test_damaged_file_is_data_error_naming_it(tmp_path, damage):
    path = tmp_path / "rbm.json"
    DAMAGED[damage](path)
    with pytest.raises(DataError, match=re.escape(str(path))):
        load_rbm(path)


def test_version_1_file_asks_for_version_2(tmp_path):
    path = tmp_path / "rbm.json"
    DAMAGED["version-1 file"](path)
    with pytest.raises(DataError, match="container version 1, this toolkit reads version 2"):
        load_rbm(path)


def small_stpn(**changes):
    model = StpnModel(
        names=("a", "b"), partition=PartitionScheme((np.zeros(1), np.zeros(1)), 2),
        depth=1, lag=1, window_length=10, counts=np.zeros((2, 2, 2, 2), np.int64),
        thresholds=np.zeros((2, 2)),
    )
    return unchecked(model, **changes)


@pytest.mark.parametrize("save, load, model, message", [
    (lambda m, path: save_rbm(m, path, -1.5), load_rbm,
     unchecked(make_rbm(), visible_bias=np.zeros(3), hidden_bias=np.zeros(2),
               weights=np.zeros((2, 3))),
     "weights (2, 3) inconsistent with biases (3,) and (2,)"),
    (save_mlp, load_mlp,
     unchecked(init_mlp(2, 2, RunConfig(a3_hidden=())), weights=(np.zeros((2, 2)),),
               biases=(np.zeros(3),)),
     "layer 0: weights (2, 2) and biases (3,) do not chain"),
    (save_stpn, load_stpn, small_stpn(counts=np.zeros((1, 1, 2, 2), np.int64)),
     "count grid shape (1, 1, 2, 2) != (2, 2, 2, 2)"),
    (lambda m, path: save_rbm(m, path, -1.5), load_rbm,
     unchecked(make_rbm(), visible_bias=make_rbm().visible_bias.reshape(4, 1)),
     "weights (4, 2) inconsistent with biases (4, 1) and (2,)"),
    (save_stpn, load_stpn,
     small_stpn(partition=PartitionScheme((np.zeros(1),) * 3, 2)),
     "partition has 3 channels, names 2"),
], ids=["rbm", "mlp", "stpn", "rbm two-dimensional bias", "stpn partition of other width"])
def test_model_whose_parts_disagree_names_the_file(tmp_path, save, load, model, message):
    path = tmp_path / "model.json"
    save(model, path)
    with pytest.raises(DataError) as info:
        load(path)
    assert str(info.value) == f"{path}: {message}"


class TestContainerChecks:
    def test_version_mismatch_fails_loudly(self, tmp_path, rewrite_header):
        path = tmp_path / "m.json"
        save_rbm(make_rbm(), path, -1.5)
        rewrite_header(path, lambda doc: doc.update(version=99))
        with pytest.raises(DataError, match="version"):
            load_rbm(path)

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "m.json"
        save_rbm(make_rbm(), path, -1.5)
        with pytest.raises(DataError, match="kind|contains"):
            load_stpn(path)

    def test_unknown_format_tag(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "other", "version": 1, "kind": "rbm", "payload": {}}')
        with pytest.raises(DataError, match="format"):
            load_rbm(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("definitely not json")
        with pytest.raises(DataError):
            load_rbm(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_mlp(tmp_path / "absent.json")

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(DataError):
            load_rbm(path)

    @pytest.mark.parametrize(
        "payload",
        [
            {}, [],
            # arrays are not in the payload; this damages the header's array
            # list instead: the first record named twice, the second not at all
            {"arrays": ["visible_bias", "visible_bias", "weights"]},
            {"energy_threshold": None}, {"energy_threshold": float("nan")},
        ],
    )
    def test_malformed_payload(self, tmp_path, rewrite_header, payload):
        path = tmp_path / "m.json"
        save_rbm(make_rbm(), path, -1.5)

        def damage(doc):
            if "arrays" in payload:
                doc.update(payload)
            else:
                doc["payload"] = payload

        rewrite_header(path, damage)
        with pytest.raises(DataError, match="malformed rbm payload"):
            load_rbm(path)

    def test_rbm_without_threshold_rejected(self, tmp_path, rewrite_header):
        path = tmp_path / "m.json"
        save_rbm(make_rbm(), path, -1.5)
        rewrite_header(path, lambda doc: doc["payload"].pop("energy_threshold"))
        with pytest.raises(DataError, match="energy_threshold"):
            load_rbm(path)


class TestMlpShapes:
    def test_layers_that_do_not_chain_rejected(self, tmp_path):
        path = tmp_path / "mlp.json"
        params = init_mlp(6, 6, RunConfig(a3_hidden=(5,)))
        biases = (np.append(params.biases[0], 0.0), *params.biases[1:])
        save_mlp(unchecked(params, biases=biases), path)
        with pytest.raises(DataError, match="chain"):
            load_mlp(path)

    def test_dropout_range(self):
        params = init_mlp(3, 3, RunConfig(a3_hidden=(2,)))
        with pytest.raises(DataError, match="dropout"):
            MlpParams(params.weights, params.biases, dropout=1.0)


class TestMlpRoundtrip:
    def test_exact_roundtrip(self, tmp_path):
        params = init_mlp(6, 6, RunConfig(a3_hidden=(5,), a3_dropout=0.4, seed=3))
        path = tmp_path / "mlp.json"
        save_mlp(params, path)
        loaded = load_mlp(path)
        assert loaded.dropout == params.dropout
        for w1, w2 in zip(params.weights, loaded.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(params.biases, loaded.biases):
            assert np.array_equal(b1, b2)


# ---------------------------------------------------------------------------
# exact round trips of arbitrary valid models

ROUNDTRIP = settings(max_examples=40, deadline=None, derandomize=True, database=None)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def finite_arrays(*shape):
    return arrays(float, shape, elements=FINITE)


@st.composite
def stpn_models(draw):
    f = draw(st.integers(1, 3))
    n_symbols = draw(st.integers(2, 4))
    depth, lag = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    interior = st.lists(FINITE, min_size=n_symbols - 1, max_size=n_symbols - 1, unique=True)
    return StpnModel(
        names=tuple(draw(st.lists(st.text(min_size=1, max_size=6), min_size=f, max_size=f,
                                  unique=True))),
        partition=PartitionScheme(
            tuple(np.array(sorted(draw(interior))) for _ in range(f)), n_symbols
        ),
        depth=depth,
        lag=lag,
        window_length=draw(st.integers(depth + lag, 10**6)),
        counts=draw(arrays(np.int64, (f, f, n_symbols**depth, n_symbols),
                           elements=st.integers(0, 10**12))),
        thresholds=draw(finite_arrays(f, f)),
    )


@st.composite
def rbm_params(draw):
    n_v, n_h = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    return RbmParams(
        draw(finite_arrays(n_v)), draw(finite_arrays(n_h)), draw(finite_arrays(n_v, n_h))
    )


@st.composite
def mlp_params(draw):
    sizes = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    return MlpParams(
        tuple(draw(finite_arrays(a, b)) for a, b in zip(sizes, sizes[1:])),
        tuple(draw(finite_arrays(b)) for b in sizes[1:]),
        dropout=draw(st.floats(0.0, 1.0, exclude_max=True)),
    )


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def round_trip(save, load, model, *extra):
    """Save, load, save again: the loaded model and the second file."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
        save(model, first, *extra)
        loaded = load(first)
        again, *again_extra = loaded if extra else (loaded,)
        save(again, second, *again_extra)
        assert first.read_bytes() == second.read_bytes()
    return loaded


@ROUNDTRIP
@given(model=stpn_models())
def test_stpn_file_round_trips_exactly(model):
    loaded = round_trip(save_stpn, load_stpn, model)
    assert loaded.names == model.names
    assert (loaded.depth, loaded.lag, loaded.window_length) == (
        model.depth, model.lag, model.window_length
    )
    assert loaded.partition.alphabet_size == model.partition.alphabet_size
    assert all(same(a, b) for a, b in zip(loaded.partition.edges, model.partition.edges))
    assert same(loaded.counts, model.counts)
    assert same(loaded.thresholds, model.thresholds)


@ROUNDTRIP
@given(params=rbm_params(), threshold=FINITE)
def test_rbm_file_round_trips_exactly(params, threshold):
    loaded, loaded_threshold = round_trip(save_rbm, load_rbm, params, threshold)
    assert same(loaded.visible_bias, params.visible_bias)
    assert same(loaded.hidden_bias, params.hidden_bias)
    assert same(loaded.weights, params.weights)
    assert loaded_threshold == threshold and type(loaded_threshold) is float


@ROUNDTRIP
@given(params=mlp_params())
def test_mlp_file_round_trips_exactly(params):
    loaded = round_trip(save_mlp, load_mlp, params)
    assert len(loaded.weights) == len(params.weights)
    assert all(same(a, b) for a, b in zip(loaded.weights, params.weights))
    assert all(same(a, b) for a, b in zip(loaded.biases, params.biases))
    assert loaded.dropout == params.dropout
