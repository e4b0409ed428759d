import json

import numpy as np
import pytest

from stpnrca.association import MlpParams, init_mlp
from stpnrca.config import RunConfig
from stpnrca.errors import DataError
from stpnrca.persist import (
    load_mlp,
    load_rbm,
    load_stpn,
    save_mlp,
    save_rbm,
)
from stpnrca.rbm import RbmParams


def make_rbm():
    rng = np.random.default_rng(0)
    return RbmParams(rng.normal(size=4), rng.normal(size=2), rng.normal(size=(4, 2)))


class TestContainerChecks:
    def test_version_mismatch_fails_loudly(self, tmp_path):
        path = tmp_path / "m.json"
        save_rbm(make_rbm(), path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="version"):
            load_rbm(path)

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "m.json"
        save_rbm(make_rbm(), path)
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

    @pytest.mark.parametrize("payload", [{}, [], {"visible_bias": [1.0, [2.0]]}])
    def test_malformed_payload(self, tmp_path, payload):
        path = tmp_path / "m.json"
        save_rbm(make_rbm(), path)
        doc = json.loads(path.read_text())
        doc["payload"] = {**doc["payload"], **payload} if payload else payload
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="malformed rbm payload"):
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
