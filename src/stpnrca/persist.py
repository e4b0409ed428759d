"""Versioned persistence for trained bundles.

A bundle is one file, ``<directory>/bundle.stpnrca``, written with one
rename: one line of compact JSON (format tag, version, kind, a payload of
the run config, channel names and energy threshold, and the array names),
then the arrays as ``.npy`` records. The config is the only stored copy of
the models' structure. Loading anything with an unexpected tag, version,
kind or array dtype fails loudly. Arrays keep their raw bytes, so save/load
round-trips are exact and a fixed seed gives byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tokenize
from dataclasses import dataclass

import numpy as np

from .association import MlpParams
from .config import RunConfig, _config_from_values
from .errors import DataError, UsageError
from .rbm import RbmParams
from .stpn import StpnModel
from .symbolic import PartitionScheme
from .timeseries import atomic_open

FORMAT_TAG = "stpnrca-model"
FORMAT_VERSION = 3
BUNDLE_FILE = "bundle.stpnrca"
_KIND = "bundle"
_MODEL_ARRAYS = ("edges", "counts", "thresholds", "visible_bias", "hidden_bias", "weights")

_NPY = np.lib.format
_NPY_HEADERS = {(1, 0): _NPY.read_array_header_1_0, (2, 0): _NPY.read_array_header_2_0}


@dataclass(frozen=True, eq=False)
class TrainedBundle:
    """Trained pattern network, energy model, and optional classifier; a
    DataError unless the config states the models' structure (it is the only
    stored copy), the energy model and classifier are f*f wide, and the
    energy threshold is finite (a NaN one would flag no window)."""

    stpn: StpnModel
    rbm: RbmParams
    energy_threshold: float
    config: RunConfig
    mlp: MlpParams | None = None

    def __post_init__(self):
        stpn, rbm, mlp, config = self.stpn, self.rbm, self.mlp, self.config
        built = {"alphabet_size": stpn.partition.alphabet_size, "depth": stpn.depth,
                 "lag": stpn.lag, "window_length": stpn.window_length,
                 "rbm_hidden": rbm.n_hidden}
        widths = {"energy model": rbm.n_visible}
        if mlp is not None:
            built.update(a3_hidden=tuple(b.size for b in mlp.biases[:-1]))
            widths.update({"classifier input": mlp.n_inputs, "classifier output": mlp.n_outputs})
        wrong = [f"{key} = {getattr(config, key)!r}, the models {value!r}"
                 for key, value in built.items() if getattr(config, key) != value]
        if wrong:
            raise DataError(f"config has {', '.join(wrong)}")
        for part, width in widths.items():
            if width != stpn.n_patterns:
                raise DataError(f"{part} width {width} != {stpn.n_patterns} patterns")
        if not math.isfinite(self.energy_threshold):
            raise DataError(f"energy threshold {self.energy_threshold} is not finite")


def _dump(payload: dict, arrays: dict, path: str) -> None:
    header = {"format": FORMAT_TAG, "version": FORMAT_VERSION, "kind": _KIND,
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


def _read(path: str) -> tuple[dict, list]:
    """The header and the (name, array) pairs of the container at `path`;
    a damaged container is a DataError naming the file."""
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
        if doc.get("kind") != _KIND:
            raise DataError(f"{path}: contains a {doc.get('kind')!r} model, expected {_KIND!r}")
        if not isinstance(doc.get("arrays"), list):
            raise DataError(f"{path}: malformed {_KIND} container (no list of arrays)")
        arrays = []
        for name in doc["arrays"]:
            try:
                arrays.append((name, _read_array(fh, name)))
            # numpy's .npy header parser raises each of these on damaged bytes
            except (ValueError, TypeError, tokenize.TokenError) as exc:
                raise DataError(f"{path}: damaged {_KIND} array {name!r} ({exc})") from None
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after the last {_KIND} array")
    return doc, arrays


def save_bundle(bundle: TrainedBundle, directory: str | os.PathLike) -> None:
    """Write `bundle` as ``<directory>/bundle.stpnrca`` with one rename; the
    bundle checked its parts when it was built, so this only encodes them."""
    stpn, rbm, mlp = bundle.stpn, bundle.rbm, bundle.mlp
    model_arrays = (stpn.partition.edges, stpn.counts, stpn.thresholds, rbm.visible_bias,
                    rbm.hidden_bias, rbm.weights)
    arrays = dict(zip(_MODEL_ARRAYS, model_arrays))
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases) if mlp else ()):
        arrays.update({f"w{i}": w, f"b{i}": b})
    payload = {"config": dataclasses.asdict(bundle.config), "names": list(stpn.names),
               "energy_threshold": bundle.energy_threshold}
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    _dump(payload, arrays, os.path.join(directory, BUNDLE_FILE))


def _build(payload: dict, arrays: list) -> TrainedBundle:
    """The bundle a container holds: DataError when its parts disagree,
    UsageError when its config is out of range, and LookupError, TypeError,
    ValueError or OverflowError when the payload or the array list is malformed."""
    config = _config_from_values(payload["config"])
    layers = range((len(arrays) - len(_MODEL_ARRAYS)) // 2)
    names = [*_MODEL_ARRAYS, *(f"{x}{i}" for i in layers for x in "wb")]
    if [name for name, _ in arrays] != names:
        raise ValueError(f"arrays {[name for name, _ in arrays]}, expected {names}")
    got = dict(arrays)
    stpn = StpnModel(tuple(payload["names"]), PartitionScheme(got["edges"]), config.depth,
                     config.lag, config.window_length, got["counts"], got["thresholds"])
    rbm = RbmParams(got["visible_bias"], got["hidden_bias"], got["weights"])
    weights, biases = (tuple(got[f"{x}{i}"] for i in layers) for x in "wb")
    mlp = MlpParams(weights, biases) if layers else None
    return TrainedBundle(stpn, rbm, float(payload["energy_threshold"]), config, mlp)


def load_bundle(directory: str | os.PathLike) -> TrainedBundle:
    """Load a saved bundle; a missing, damaged or inconsistent one is a DataError."""
    directory = os.fspath(directory)
    path = os.path.join(directory, BUNDLE_FILE)
    if not os.path.isfile(path):
        raise DataError(f"{directory}: not a model bundle (no {BUNDLE_FILE}; bundles "
                        f"from container versions 1 and 2 must be retrained)")
    doc, arrays = _read(path)
    try:
        return _build(doc["payload"], arrays)
    except DataError as exc:  # the models' own checks: their parts disagree
        raise type(exc)(f"{path}: {exc}") from None
    except UsageError as exc:
        raise DataError(f"{path}: bad config ({exc})") from None
    except (AttributeError, LookupError, OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed {_KIND} payload ({exc!r})") from None
