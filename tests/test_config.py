import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpnrca.config import RunConfig, _config_from_values
from stpnrca.errors import UsageError

SRC = Path(__file__).resolve().parents[1] / "src" / "stpnrca"


def ints(low):
    return st.integers(min_value=low, max_value=10**6)


def positive():
    return st.floats(0.0, exclude_min=True, allow_infinity=False)


def unit():
    return st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def valid_configs(draw):
    alphabet_size, depth, lag = draw(st.integers(2, 50)), draw(st.integers(1, 63)), draw(ints(1))
    return RunConfig(
        alphabet_size=alphabet_size,
        depth=depth,
        lag=lag,
        window_length=draw(st.integers(max(alphabet_size, depth + lag), 2 * 10**6)),
        stride=draw(ints(0)),
        threshold_quantile=draw(unit()),
        partition_method=draw(st.sampled_from(["mep", "up", "MEP", "Up"])),
        rbm_hidden=draw(ints(1)),
        rbm_epochs=draw(ints(0)),
        rbm_learning_rate=draw(positive()),
        rbm_batch_size=draw(ints(1)),
        detector_kappa=draw(st.floats(0.0, allow_infinity=False)),
        a3_hidden=tuple(draw(st.lists(ints(1), max_size=4))),
        a3_dropout=draw(unit()),
        a3_learning_rate=draw(positive()),
        a3_momentum=draw(unit()),
        a3_batch_size=draw(ints(1)),
        a3_epochs=draw(ints(0)),
        a3_patience=draw(ints(1)),
        a3_flip_orders=tuple(draw(st.lists(ints(1), min_size=1, max_size=6))),
        a3_samples_per_order=draw(ints(1)),
        a3_cutoff=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        var_lag=draw(ints(1)),
        var_eta=draw(unit()),
        seed=draw(st.integers(min_value=0, max_value=2**63)),
    )


INT_KEYS = [f.name for f in dataclasses.fields(RunConfig) if f.type == "int"]
FLOAT_KEYS = [f.name for f in dataclasses.fields(RunConfig) if f.type == "float"]
TUPLE_KEYS = [f.name for f in dataclasses.fields(RunConfig) if f.type.startswith("tuple")]


@st.composite
def mixed_values(draw, cfg):
    """The fields of `cfg`, each given as a library caller might: an integer
    for an integral float, numpy integers, text for a number, and a list, an
    array or text for a tuple."""
    def integers(n):
        return [n, *(t(n) for t, top in ((np.uint64, 2**64), (np.int32, 2**31)) if n < top)]

    values = dataclasses.asdict(cfg)
    for key in INT_KEYS:
        values[key] = draw(st.sampled_from([*integers(values[key]), str(values[key])]))
    for key in FLOAT_KEYS:
        x = values[key]
        values[key] = draw(st.sampled_from([x, *integers(int(x))] if x.is_integer() else [x]))
    for key in TUPLE_KEYS:
        items = values[key]
        values[key] = draw(st.sampled_from([
            items, list(items), np.array(items, dtype=np.int64), " ".join(map(str, items))]))
    return values


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cfg=valid_configs(), data=st.data())
def test_config_survives_run_json(cfg, data):
    """A valid config written the way a bundle header stores it reads back
    equal. So does one built from keyword values of mixed types, directly or
    through a header holding them: each field of the same type, with the
    same fingerprint."""
    values = data.draw(mixed_values(cfg))
    for loaded in (_config_from_values(json.loads(json.dumps(dataclasses.asdict(cfg)))),
                   RunConfig(**values),
                   _config_from_values(json.loads(json.dumps(values, default=lambda x: x.tolist())))):
        for f in dataclasses.fields(RunConfig):
            assert getattr(loaded, f.name) == getattr(cfg, f.name), f.name
            assert type(getattr(loaded, f.name)) is type(getattr(cfg, f.name)), f.name
        assert loaded.fingerprint() == cfg.fingerprint()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(alphabet_size=st.integers(2, 50), depth=st.integers(1, 80) | st.integers(1, 10**9),
       lag=st.integers(1, 80), window_length=st.integers(2, 200))
def test_depth_and_window_limits(alphabet_size, depth, lag, window_length):
    """depth <= 63 and window_length >= max(alphabet_size, depth + lag) hold
    for every config that exists; depth is checked first, so its message
    never prints a power of the alphabet size."""
    keys = dict(alphabet_size=alphabet_size, depth=depth, lag=lag, window_length=window_length)
    if depth <= 63 and window_length >= max(alphabet_size, depth + lag):
        assert RunConfig(**keys).depth == depth
    else:
        with pytest.raises(UsageError) as info:
            RunConfig(**keys)
        assert ("depth must be <= 63" in str(info.value)) == (depth > 63)


@pytest.mark.parametrize("key, value", [
    ("detector_kappa", 1), ("rbm_learning_rate", 2), ("a3_momentum", 0), ("threshold_quantile", 0),
])
def test_json_integer_for_a_float_key_reads_as_that_float(key, value):
    """A bundle header may hold 1 where the trained config held 1.0, and a
    library caller may pass 1; all read as one config with one fingerprint."""
    expected = RunConfig(**{key: float(value)})
    for loaded in (_config_from_values(json.loads(json.dumps({key: value}))),
                   RunConfig(**{key: value}), RunConfig(**{key: np.int64(value)})):
        assert loaded == expected and type(getattr(loaded, key)) is float
        assert loaded.fingerprint() == expected.fingerprint()


@pytest.mark.parametrize("key, value", [
    *((key, bad) for key in INT_KEYS for bad in (True, False, 200.0)),
    *((key, True) for key in FLOAT_KEYS),
    ("a3_hidden", [8.0]), ("a3_flip_orders", [True]), ("a3_hidden", 8),
    ("partition_method", 1),
])
def test_wrong_type_is_refused_from_either_path(key, value):
    """A bool, or a float for an int key, is refused with the same line
    whether it comes as a keyword or from a bundle header."""
    message = f"config key {key!r}: cannot parse "
    with pytest.raises(UsageError, match=message):
        RunConfig(**{key: value})
    with pytest.raises(UsageError, match=message):
        _config_from_values(json.loads(json.dumps({key: value})))


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_integer_past_float_range_is_refused(key):
    with pytest.raises(UsageError, match=f"config key {key!r}: cannot parse 1000"):
        _config_from_values(json.loads(json.dumps({key: 10**400})))


def test_every_config_key_is_read():
    """Each RunConfig field is read as an attribute outside config.py, so a
    key that no code reads cannot stay settable."""
    read = set()
    for path in SRC.glob("*.py"):
        if path.name != "config.py":
            tree = ast.parse(path.read_text())
            read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    unread = [f.name for f in dataclasses.fields(RunConfig) if f.name not in read]
    assert not unread
