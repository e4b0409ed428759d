"""Print digests of everything a fixed small command-line flow writes.

    python tools/output_digests.py [--src SRC]

Imports ``stpnrca`` from SRC (default: this repository's ``src``) and runs,
through ``stpnrca.cli.main`` in a temporary directory: ``simulate`` (the
builtin modes, two pattern-fault cases and a node delay), ``train --a3``
with a small config, ``detect``, ``rca`` four ways (s3 forced, s3 gated, a3
forced, var), three more ``train --a3`` runs (two hidden layers at dropout
0.3; dropout 0; flip orders 1 and 3 with a short last batch), each followed
by a forced a3 ``rca``, a ``train`` at alphabet
size 2 (one edge per channel), one at depth 2 and lag 2, one at alphabet
size 257 (past an 8-bit symbol count) and one at stride 150 (overlapping
windows), each followed by a forced s3 ``rca``,
and ``evaluate --out``; then ``simulate --nodes 12``, ``train`` and a forced s3
``rca`` on that 12-channel series, whose searches are long (82–97 flips each); last, a
``detect`` on a copy of ``case01.csv`` split on whitespace, behind a byte-order mark,
with CRLF line endings and blank rows, whose stdout must equal the comma file's. Prints one
line per command, with its exit code and the sha256 of its stdout, then one
line per written file, with its sha256 and its path relative to the
temporary directory. Then it loads the bundle of each ``train --out`` of
the flow and prints one line per model array (and energy threshold), with
the sha256 of its dtype, shape and bytes and a ``<bundle>:<part>.<array>``
name, such as ``model:rbm.weights``; the names do not depend on how a
bundle lays out its files. Run it once per source tree: two trees that
print the same lines wrote the same bytes; two that differ only in
model-file lines but print the same array lines stored the same models in
different file formats. Exits 1 when a command exits non-zero, or when the
two ``detect`` runs on ``case01`` print different lines.

    python tools/output_digests.py --pin tests/data/output_digests.txt

also writes the lines to that file, behind one ``#`` line naming the Python,
numpy and BLAS versions they were made with (see :func:`environment`);
``tests/test_output_digests.py`` compares every run with that file. A change
that moves an output regenerates it this way; a failed run writes no file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

SMALL = [
    "--set", "window_length=200", "--set", "rbm_hidden=16", "--set", "rbm_epochs=20",
    "--set", "a3_hidden=16", "--set", "a3_epochs=5", "--set", "a3_samples_per_order=2",
    "--set", "detector_kappa=0",  # so the gated rca run analyses a window of fault.csv
]
NOMINAL = [f"data/nominal_mode{i}.csv" for i in range(1, 7)]
DETECT = ["detect", "--model", "model", "--data", "data/case01.csv"]
# the same data as data/case01.csv in another layout the reader accepts
RESTYLED = "data/case01_restyled.txt"
FLOW = [
    ["simulate", "--out", "data", "--modes", "builtin", "--cases", "2",
     "--fault", "node-delay:1:5", "--samples", "4000"],
    ["train", "--nominal", *NOMINAL, "--out", "model", "--a3", *SMALL],
    DETECT,
    ["rca", "--model", "model", "--data", "data/case01.csv", "--force",
     "--out", "case01.s3.json"],
    ["rca", "--model", "model", "--data", "data/fault.csv", "--out", "fault.s3.json"],
    ["rca", "--model", "model", "--data", "data/case02.csv", "--method", "a3", "--force",
     "--out", "case02.a3.json"],
    # the model above has one hidden layer at dropout 0.5, whose keep scale is
    # exactly 2; these cover two layers at keep scale 1/0.7, and no dropout
    ["train", "--nominal", *NOMINAL, "--out", "model_deep", "--a3", *SMALL,
     "--set", "a3_hidden=16,16", "--set", "a3_dropout=0.3"],
    ["rca", "--model", "model_deep", "--data", "data/case02.csv", "--method", "a3", "--force",
     "--out", "case02.a3_deep.json"],
    ["train", "--nominal", *NOMINAL, "--out", "model_nodrop", "--a3", *SMALL,
     "--set", "a3_dropout=0"],
    ["rca", "--model", "model_nodrop", "--data", "data/case02.csv", "--method", "a3",
     "--force", "--out", "case02.a3_nodrop.json"],
    # flip orders 1 and 3 only: examples padded past their flips; 300
    # training examples in batches of 32 end in a short batch of 12
    ["train", "--nominal", *NOMINAL, "--out", "model_orders", "--a3", *SMALL,
     "--set", "a3_flip_orders=1,3", "--set", "a3_batch_size=32"],
    ["rca", "--model", "model_orders", "--data", "data/case02.csv", "--method", "a3",
     "--force", "--out", "case02.a3_orders.json"],
    # one interior edge per channel
    ["train", "--nominal", *NOMINAL, "--out", "model_binary", *SMALL,
     "--set", "alphabet_size=2"],
    ["rca", "--model", "model_binary", "--data", "data/case01.csv", "--force",
     "--out", "case01.s3_binary.json"],
    # states of two symbols, each predicting the symbol two samples on
    ["train", "--nominal", *NOMINAL, "--out", "model_deep_lag", *SMALL,
     "--set", "depth=2", "--set", "lag=2"],
    ["rca", "--model", "model_deep_lag", "--data", "data/case01.csv", "--force",
     "--out", "case01.s3_deep_lag.json"],
    # 257 symbols: one more than symbolize's 8-bit edge count holds
    ["train", "--nominal", *NOMINAL, "--out", "model_wide", *SMALL,
     "--set", "alphabet_size=257", "--set", "window_length=400"],
    ["rca", "--model", "model_wide", "--data", "data/case01.csv", "--force",
     "--out", "case01.s3_wide.json"],
    # overlapping calibration windows, across all six nominal series
    ["train", "--nominal", *NOMINAL, "--out", "model_stride", *SMALL,
     "--set", "stride=150"],
    ["rca", "--model", "model_stride", "--data", "data/case01.csv", "--force",
     "--out", "case01.s3_stride.json"],
    ["rca", "--data", "data/fault.csv", "--method", "var", "--nominal",
     "data/fault_nominal.csv", "--out", "fault.var.json"],
    ["evaluate",
     "--reports", "case01.s3.json", "fault.s3.json", "case02.a3.json", "fault.var.json",
     "--labels", "data/case01.labels.json", "data/fault.labels.json",
     "data/case02.labels.json", "data/fault.labels.json", "--out", "table.csv"],
    # a 12-channel plant: 144 pattern bits, so each forced s3 search runs
    # about 90 steps at the default rbm_hidden
    ["simulate", "--out", "plant", "--nodes", "12", "--fault", "node-delay:3:5",
     "--samples", "4000"],
    ["train", "--nominal", "plant/fault_nominal.csv", "--out", "plant_model",
     "--set", "window_length=400", "--set", "threshold_quantile=0.1"],
    ["rca", "--model", "plant_model", "--data", "plant/fault.csv", "--force",
     "--out", "plant.s3.json"],
    [*DETECT[:-1], RESTYLED],
]


def _restyle(src: str, dst: str) -> None:
    """Write the rows of the CSV `src` to `dst` split on tabs and spaces,
    behind a byte-order mark, with CRLF line endings and a blank or
    whitespace-only line after the header and after every 97th row."""
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(dst, "w", newline="", encoding="utf-8-sig") as out:
        for i, row in enumerate(rows):
            out.write(" \t".join(row) + "\r\n")
            if i % 97 == 0:
                out.write(" \t \r\n" if i % 2 else "\r\n")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_digest(a) -> str:
    a = np.ascontiguousarray(a)
    return _sha256(f"{a.dtype.str} {a.shape} ".encode() + a.tobytes())


def _model_arrays(bundle):
    """(model part, array name, array) for every array of a loaded bundle."""
    stpn, rbm = bundle.stpn, bundle.rbm
    yield "stpn", "edges", stpn.partition.edges
    yield "stpn", "counts", stpn.counts
    yield "stpn", "thresholds", stpn.thresholds
    yield "rbm", "visible_bias", rbm.visible_bias
    yield "rbm", "hidden_bias", rbm.hidden_bias
    yield "rbm", "weights", rbm.weights
    yield "rbm", "energy_threshold", np.float64(bundle.energy_threshold)
    for i, (w, b) in enumerate(zip(bundle.mlp.weights, bundle.mlp.biases) if bundle.mlp else ()):
        yield "mlp", f"w{i}", w
        yield "mlp", f"b{i}", b


def environment() -> str:
    """The Python, numpy and BLAS builds, on which float digests depend."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"Python {platform.python_version()}, numpy {np.__version__}, "
            f"BLAS {blas['name']} {blas.get('version', '?')}, {platform.machine()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the stpnrca package to run")
    parser.add_argument("--pin", type=Path, help="also write the lines to this file")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    from stpnrca.cli import main as cli_main
    from stpnrca.pipeline import load_bundle

    failed = False
    printed = {}
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for command in FLOW:
                if RESTYLED in command:
                    _restyle(DETECT[-1], RESTYLED)
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli_main(command)
                failed |= code != 0
                printed[tuple(command)] = digest = _sha256(stdout.getvalue().encode())
                lines.append(f"{command[0]}: exit {code}, stdout {digest}")
            failed |= printed[tuple(DETECT)] != printed[(*DETECT[:-1], RESTYLED)]
            for path in sorted(Path(".").rglob("*")):
                if path.is_file():
                    lines.append(f"{_sha256(path.read_bytes())}  {path.as_posix()}")
            for out in sorted(c[c.index("--out") + 1] for c in FLOW if c[0] == "train"):
                for part, name, a in _model_arrays(load_bundle(out)):
                    lines.append(f"{_array_digest(a)}  {out}:{part}.{name}")
        finally:
            os.chdir(cwd)
    print(*lines, sep="\n")
    if args.pin and not failed:
        args.pin.write_text("".join(f"{line}\n" for line in [f"# {environment()}", *lines]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
