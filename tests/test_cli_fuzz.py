"""Bounded fuzz of the command line.

Damaged input files, bad ``--set`` values and out-of-range ``--mode``
indices must end in exit code 1, 2 or 3 with a message on stderr, never in
an uncaught exception. Every generated input is malformed by construction,
so a clean exit (0) is a failure too. Examples are derandomized and bounded,
so the suite stays deterministic.
"""

import dataclasses
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stpnrca.cli import main
from stpnrca.persist import BUNDLE_FILE
from stpnrca.pipeline import RunConfig, save_bundle
from stpnrca.timeseries import write_csv

FUZZ = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# no strict prefix of one of these files is a valid file of its kind
WHOLE_FILES = (
    f"bundle/{BUNDLE_FILE}",
    "fault.report.json",
    "fault.labels.json",
)
# never part of a number, a channel name or a CSV separator
CSV_JUNK = "@#%&!?;"


@pytest.fixture(scope="module")
def pristine(tmp_path_factory, toy_bundle, toy_fault_case, toy_nominal):
    root = tmp_path_factory.mktemp("fuzz")
    fault_ts, labels = toy_fault_case
    save_bundle(toy_bundle, root / "bundle")
    write_csv(fault_ts, root / "fault.csv")
    write_csv(toy_nominal.window(0, 2000), root / "nominal.csv")
    argv = ["rca", "--model", root / "bundle", "--data", root / "fault.csv", "--force"]
    assert main([str(a) for a in argv + ["--out", root / "fault.report.json"]]) == 0
    (root / "fault.labels.json").write_text(json.dumps(labels))
    return root


def run_and_check(argv, capsys):
    capsys.readouterr()
    code = main([str(a) for a in argv])
    assert code in (1, 2, 3), argv
    assert capsys.readouterr().err.strip()


def command_reading(target: str, root: Path, variant: int):
    if target.startswith("fault.report") or target.startswith("fault.labels"):
        return [
            "evaluate", "--reports", root / "fault.report.json",
            "--labels", root / "fault.labels.json",
        ]
    model = ["--model", root / "bundle", "--data", root / "fault.csv"]
    return [
        ["detect", *model],
        ["rca", *model, "--method", "s3", "--force"],
        ["rca", *model, "--method", "a3", "--force"],
    ][variant]


@st.composite
def damaged_file(draw):
    """(relative path, damage, kind) for one file of the pristine set: a
    strict prefix of it ("cut"), junk inserted into the CSV ("insert"), or
    bytes that are not UTF-8 ("binary")."""
    target = draw(st.sampled_from((*WHOLE_FILES, "fault.csv")))
    # a strict prefix of a JSON object is never valid JSON, nor one of a
    # bundle a whole bundle, but a prefix of a CSV file can be a shorter
    # valid series
    kind = draw(st.sampled_from(("insert" if target == "fault.csv" else "cut", "binary")))
    if kind == "binary":  # never valid UTF-8
        return target, b"\xff" + draw(st.binary(max_size=64)), kind
    cut = draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    if kind == "cut":
        return target, cut, kind
    junk = draw(st.text(alphabet=CSV_JUNK, min_size=1, max_size=8))
    return target, (cut, junk.encode()), kind


@FUZZ
@given(damage=damaged_file(), variant=st.integers(min_value=0, max_value=2))
def test_damaged_input_file_exits_with_code(pristine, capsys, damage, variant):
    target, how, kind = damage
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "case"
        shutil.copytree(pristine, root)
        path = root / target
        data = path.read_bytes()
        if kind == "binary":
            data = how
        elif kind == "cut":
            body = data.rstrip()  # the closing brace, not a trailing newline
            data = body[: int(how * len(body))]
        else:
            cut, junk = how
            at = int(cut * (len(data) + 1))
            data = data[:at] + junk + data[at:]
        path.write_bytes(data)
        run_and_check(command_reading(target, root, variant), capsys)


def bad_setting():
    """--set items RunConfig must refuse: unknown keys, unparsable numbers,
    and values outside the validated ranges."""
    fields = {f.name: str(f.type) for f in dataclasses.fields(RunConfig)}
    int_keys = sorted(k for k, t in fields.items() if t == "int")

    def unparsable(text):
        try:
            int(text.strip())
        except ValueError:
            return True
        return False

    lows = {
        "alphabet_size": 2, "depth": 1, "lag": 1, "stride": 0, "rbm_hidden": 1,
        "rbm_epochs": 0, "rbm_batch_size": 1, "a3_batch_size": 1, "a3_epochs": 0,
        "a3_samples_per_order": 1, "var_lag": 1, "a3_patience": 1, "seed": 0,
        "window_length": RunConfig().alphabet_size,
    }
    unit = st.floats(allow_nan=True, allow_infinity=True)
    return st.one_of(
        st.text(min_size=1).filter(lambda k: "=" not in k and k.strip() not in fields).map(
            lambda k: f"{k}=1"
        ),
        st.builds(
            lambda k, v: f"{k}={v}", st.sampled_from(int_keys), st.text().filter(unparsable)
        ),
        st.sampled_from(sorted(lows)).flatmap(
            lambda k: st.integers(max_value=lows[k] - 1).map(lambda v: f"{k}={v}")
        ),
        unit.filter(lambda x: not 0.0 <= x < 1.0).map(lambda x: f"a3_dropout={x!r}"),
        unit.filter(lambda x: not 0.0 <= x < 1.0).map(lambda x: f"threshold_quantile={x!r}"),
        unit.filter(lambda x: not 0.0 < x < 1.0).map(lambda x: f"a3_cutoff={x!r}"),
        st.builds(
            lambda k, x: f"{k}={x!r}",
            st.sampled_from(["a3_momentum", "var_eta"]),
            unit.filter(lambda x: not 0.0 <= x < 1.0),
        ),
        st.builds(
            lambda k, x: f"{k}={x!r}",
            st.sampled_from(["rbm_learning_rate", "a3_learning_rate"]),
            unit.filter(lambda x: not 0.0 < x < math.inf),
        ),
        unit.filter(lambda x: not 0.0 <= x < math.inf).map(lambda x: f"detector_kappa={x!r}"),
        st.text().filter(lambda m: m.strip().lower() not in ("mep", "up")).map(
            lambda m: f"partition_method={m}"
        ),
        st.integers(max_value=0).map(lambda v: f"a3_hidden=64,{v}"),
        st.integers(max_value=0).map(lambda v: f"a3_flip_orders=1 {v}"),
        st.text().filter(lambda s: "=" not in s),
    )


@FUZZ
@given(item=bad_setting(), simulate=st.booleans())
def test_bad_set_value_exits_with_code(pristine, capsys, item, simulate):
    with tempfile.TemporaryDirectory() as tmp:
        if simulate:
            argv = ["simulate", "--out", tmp, "--modes", "builtin", "--samples", 50]
        else:
            argv = [
                "rca", "--method", "var", "--data", pristine / "fault.csv",
                "--nominal", pristine / "nominal.csv",
            ]
        run_and_check([*argv, "--set", item], capsys)
        assert not list(Path(tmp).iterdir())


@FUZZ
@given(mode=st.integers().filter(lambda m: not 0 <= m < 6))
def test_simulate_mode_out_of_range_exits_with_code(capsys, mode):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sim"
        argv = ["simulate", "--out", out, "--modes", "builtin", "--samples", 50]
        run_and_check([*argv, "--mode", mode], capsys)
        assert not out.exists()

