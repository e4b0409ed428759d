"""Versioned JSON persistence for trained models.

Every file is a self-describing container with a format tag, a version, and
a kind; loading anything with an unexpected tag, version, or kind fails
loudly. JSON serializes floats via repr, so save/load round-trips are exact
and training with a fixed seed yields byte-identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .association import MlpParams
from .errors import DataError
from .rbm import RbmParams
from .stpn import StpnModel
from .symbolic import PartitionScheme
from .timeseries import atomic_open

FORMAT_TAG = "stpnrca-model"
FORMAT_VERSION = 1


def _dump(kind: str, payload: dict, path: str) -> None:
    doc = {"format": FORMAT_TAG, "version": FORMAT_VERSION, "kind": kind, "payload": payload}
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _load(kind: str, path: str, build):
    """Check the container at `path`, then build its model from the payload.

    A payload with missing fields or values of the wrong type is reported
    as a DataError naming the file, like a damaged container.
    """
    if not os.path.exists(path):
        raise DataError(f"no such model file: {path}")
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # also undecodable bytes
            raise DataError(f"{path}: not a model container ({exc})") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: not a model container")
    if doc.get("format") != FORMAT_TAG:
        raise DataError(f"{path}: unknown container format {doc.get('format')!r}")
    if doc.get("version") != FORMAT_VERSION:
        raise DataError(
            f"{path}: container version {doc.get('version')!r}, "
            f"this toolkit reads version {FORMAT_VERSION}"
        )
    if doc.get("kind") != kind:
        raise DataError(f"{path}: contains a {doc.get('kind')!r} model, expected {kind!r}")
    try:
        return build(doc["payload"])
    except (LookupError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed {kind} payload ({exc!r})") from None


def save_stpn(model: StpnModel, path: str | os.PathLike) -> None:
    payload = {
        "names": list(model.names),
        "alphabet_size": model.partition.alphabet_size,
        "edges": [e.tolist() for e in model.partition.edges],
        "depth": model.depth,
        "lag": model.lag,
        "window_length": model.window_length,
        "counts": model.counts.tolist(),
        "thresholds": model.thresholds.tolist(),
    }
    _dump("stpn", payload, os.fspath(path))


def load_stpn(path: str | os.PathLike) -> StpnModel:
    def build(p):
        partition = PartitionScheme(
            tuple(np.array(e, dtype=float) for e in p["edges"]), int(p["alphabet_size"])
        )
        return StpnModel(
            names=tuple(p["names"]),
            partition=partition,
            depth=int(p["depth"]),
            lag=int(p["lag"]),
            window_length=int(p["window_length"]),
            counts=np.array(p["counts"]),  # StpnModel rejects non-integer counts
            thresholds=np.array(p["thresholds"], dtype=float),
        )

    return _load("stpn", os.fspath(path), build)


def save_rbm(params: RbmParams, path: str | os.PathLike, threshold: float) -> None:
    payload = {
        "visible_bias": params.visible_bias.tolist(),
        "hidden_bias": params.hidden_bias.tolist(),
        "weights": params.weights.tolist(),
        "energy_threshold": threshold,
    }
    _dump("rbm", payload, os.fspath(path))


def load_rbm(path: str | os.PathLike) -> tuple[RbmParams, float]:
    """The energy model and its detection threshold; a file without a
    finite threshold is a DataError."""

    def build(p):
        params = RbmParams(
            visible_bias=np.array(p["visible_bias"], dtype=float),
            hidden_bias=np.array(p["hidden_bias"], dtype=float),
            weights=np.array(p["weights"], dtype=float),
        )
        threshold = float(p["energy_threshold"])
        if not np.isfinite(threshold):  # a NaN threshold would flag no window
            raise ValueError(f"energy threshold {threshold} is not finite")
        return params, threshold

    return _load("rbm", os.fspath(path), build)


def save_mlp(params: MlpParams, path: str | os.PathLike) -> None:
    payload = {
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
        "dropout": params.dropout,
    }
    _dump("mlp", payload, os.fspath(path))


def load_mlp(path: str | os.PathLike) -> MlpParams:
    def build(p):
        return MlpParams(
            tuple(np.array(w, dtype=float) for w in p["weights"]),
            tuple(np.array(b, dtype=float) for b in p["biases"]),
            dropout=float(p["dropout"]),
        )

    return _load("mlp", os.fspath(path), build)
