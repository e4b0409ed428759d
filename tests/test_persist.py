import json
import tempfile
from pathlib import Path

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


class TestContainerChecks:
    def test_version_mismatch_fails_loudly(self, tmp_path):
        path = tmp_path / "m.json"
        save_rbm(make_rbm(), path, -1.5)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
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
            {}, [], {"visible_bias": [1.0, [2.0]]},
            {"energy_threshold": None}, {"energy_threshold": float("nan")},
        ],
    )
    def test_malformed_payload(self, tmp_path, payload):
        path = tmp_path / "m.json"
        save_rbm(make_rbm(), path, -1.5)
        doc = json.loads(path.read_text())
        doc["payload"] = {**doc["payload"], **payload} if payload else payload
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="malformed rbm payload"):
            load_rbm(path)


    def test_rbm_without_threshold_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        save_rbm(make_rbm(), path, -1.5)
        doc = json.loads(path.read_text())
        del doc["payload"]["energy_threshold"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="energy_threshold"):
            load_rbm(path)


class TestMlpShapes:
    def test_layers_that_do_not_chain_rejected(self, tmp_path):
        path = tmp_path / "mlp.json"
        save_mlp(init_mlp(6, 6, RunConfig(a3_hidden=(5,))), path)
        doc = json.loads(path.read_text())
        doc["payload"]["biases"][0].append(0.0)
        path.write_text(json.dumps(doc))
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


def as_lists(value):
    if isinstance(value, dict):
        return {k: as_lists(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_lists(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


BLOCK = persist._BLOCK_ELEMENTS


@pytest.mark.parametrize("payload", [
    {"below": np.linspace(-1.0, 1.0, BLOCK), "at": np.arange(BLOCK, dtype=float) / 7.0},
    {"above": np.random.default_rng(0).normal(size=BLOCK + 1)},
    # 1,000 rows of 67: blocks of 489 rows, the last one short
    {"rows": np.random.default_rng(1).normal(size=(1000, 67)) * 1e-300},
    # a 4-D integer count grid, 52 x 52 x 5 x 5 as at f = 52
    {"counts": np.random.default_rng(2).integers(0, 10**12, size=(52, 52, 5, 5))},
    {"one row": np.ones((1, BLOCK + 3)), "one column": np.full((BLOCK + 5, 1), -0.0)},
    {"empty": np.zeros(0), "no rows": np.zeros((0, 4)), "no columns": np.zeros((3, 0)),
     "layers": (np.zeros((2, 0)), [np.arange(3)]), "scalar": 2.5, "name": "é"},
])
def test_dump_writes_json_dumps_bytes(tmp_path, payload):
    # blocks of rows, joined with commas, give the bytes of one json.dumps
    path = tmp_path / "m.json"
    persist._dump("kind", payload, str(path))
    doc = {"format": persist.FORMAT_TAG, "version": persist.FORMAT_VERSION,
           "kind": "kind", "payload": as_lists(payload)}
    assert path.read_bytes() == json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
