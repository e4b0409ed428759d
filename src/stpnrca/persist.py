"""Versioned persistence for trained models.

Every file is one line of compact JSON (format tag, version, kind, the
model's scalars and names as its payload, and the names of its arrays),
then those arrays as ``.npy`` records. Loading anything with an unexpected
tag, version, kind or array dtype fails loudly. Arrays keep their raw bytes,
so save/load round-trips are exact and a fixed seed gives byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import tokenize

import numpy as np

from .association import MlpParams
from .errors import DataError
from .rbm import RbmParams
from .stpn import StpnModel
from .symbolic import PartitionScheme
from .timeseries import atomic_open

FORMAT_TAG = "stpnrca-model"
FORMAT_VERSION = 2

_NPY = np.lib.format
_NPY_HEADERS = {(1, 0): _NPY.read_array_header_1_0, (2, 0): _NPY.read_array_header_2_0}


def _dump(kind: str, payload: dict, arrays: dict, path: str) -> None:
    header = {"format": FORMAT_TAG, "version": FORMAT_VERSION, "kind": kind,
              "payload": payload, "arrays": list(arrays)}
    with atomic_open(path) as fh:  # bytes go to the binary layer, untranslated
        fh.buffer.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        for a in arrays.values():
            np.save(fh.buffer, np.ascontiguousarray(a), allow_pickle=False)


def _read_array(fh, name) -> np.ndarray:
    """The next .npy record of `fh`: a ValueError unless it holds the C-order
    dtype the saver writes for `name`, in no more bytes than the file has left."""
    version = _NPY.read_magic(fh)
    if version not in _NPY_HEADERS:
        raise ValueError(f".npy format version {version}")
    shape, fortran_order, dtype = _NPY_HEADERS[version](fh)
    # the dtype the saver writes: counts are int64, every other array float64
    want, count = np.dtype(np.int64 if name == "counts" else np.float64), math.prod(shape)
    if dtype != want or fortran_order:
        numbers = "integers" if want.kind == "i" else "numbers"
        raise ValueError(f"holds {'Fortran' if fortran_order else 'C'}-order {dtype}, "
                         f"expected C-order {want} {numbers}")
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if min(shape, default=0) < 0 or count * want.itemsize > left:  # before allocating
        raise ValueError(f"shape {shape} does not fit in the {left} bytes left")
    return np.fromfile(fh, dtype=want, count=count).reshape(shape)


def _unpack(arrays: list, *names) -> list:
    """The arrays read from a file, if it lists exactly `names` in this order."""
    if [name for name, _ in arrays] != list(names):
        raise ValueError(f"arrays {[name for name, _ in arrays]}, expected {list(names)}")
    return [a for _, a in arrays]


def _load(kind: str, path: str, build):
    """Check the container at `path`, then build its model from the payload
    and the (name, array) pairs read after the header.

    A damaged array, a payload with missing fields or values of the wrong
    type, and a model whose parts disagree are each reported as a DataError
    naming the file, like a damaged container.
    """
    if not os.path.exists(path):
        raise DataError(f"no such model file: {path}")
    with open(path, "rb") as fh:
        try:
            doc = json.loads(fh.readline())
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
        if not isinstance(doc.get("arrays"), list):
            raise DataError(f"{path}: malformed {kind} container (no list of arrays)")
        arrays = []
        for name in doc["arrays"]:
            try:
                arrays.append((name, _read_array(fh, name)))
            # numpy's .npy header parser raises each of these on damaged bytes
            except (ValueError, TypeError, tokenize.TokenError) as exc:
                raise DataError(f"{path}: damaged {kind} array {name!r} ({exc})") from None
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after the last {kind} array")
    try:
        return build(doc["payload"], arrays)
    except DataError as exc:  # the model's own checks: its parts disagree
        raise type(exc)(f"{path}: {exc}") from None
    except (LookupError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed {kind} payload ({exc!r})") from None


def save_stpn(model: StpnModel, path: str | os.PathLike) -> None:
    n_symbols = model.partition.alphabet_size
    payload = dict(names=list(model.names), alphabet_size=n_symbols, depth=model.depth,
                   lag=model.lag, window_length=model.window_length)
    edges = np.array(model.partition.edges, dtype=float).reshape(-1, n_symbols - 1)
    arrays = dict(edges=edges, counts=model.counts, thresholds=model.thresholds)
    _dump("stpn", payload, arrays, os.fspath(path))


def load_stpn(path: str | os.PathLike) -> StpnModel:
    def build(p, arrays):
        edges, counts, thresholds = _unpack(arrays, "edges", "counts", "thresholds")
        partition = PartitionScheme(tuple(edges), int(p["alphabet_size"]))
        return StpnModel(tuple(p["names"]), partition, int(p["depth"]), int(p["lag"]),
                         int(p["window_length"]), counts, thresholds)

    return _load("stpn", os.fspath(path), build)


def save_rbm(params: RbmParams, path: str | os.PathLike, threshold: float) -> None:
    arrays = dict(visible_bias=params.visible_bias, hidden_bias=params.hidden_bias,
                  weights=params.weights)
    _dump("rbm", {"energy_threshold": threshold}, arrays, os.fspath(path))


def load_rbm(path: str | os.PathLike) -> tuple[RbmParams, float]:
    """The energy model and its detection threshold; a file without a
    finite threshold is a DataError."""

    def build(p, arrays):
        params = RbmParams(*_unpack(arrays, "visible_bias", "hidden_bias", "weights"))
        threshold = float(p["energy_threshold"])
        if not np.isfinite(threshold):  # a NaN threshold would flag no window
            raise ValueError(f"energy threshold {threshold} is not finite")
        return params, threshold

    return _load("rbm", os.fspath(path), build)


def save_mlp(params: MlpParams, path: str | os.PathLike) -> None:
    layers = enumerate(zip(params.weights, params.biases))
    arrays = {f"{x}{i}": a for i, layer in layers for x, a in zip("wb", layer)}
    _dump("mlp", {"dropout": params.dropout}, arrays, os.fspath(path))


def load_mlp(path: str | os.PathLike) -> MlpParams:
    def build(p, arrays):
        layers = range(len(arrays) // 2)
        unpacked = _unpack(arrays, *(f"{x}{i}" for i in layers for x in "wb"))
        return MlpParams(tuple(unpacked[0::2]), tuple(unpacked[1::2]), dropout=float(p["dropout"]))

    return _load("mlp", os.fspath(path), build)
