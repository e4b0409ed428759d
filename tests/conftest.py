import io
import json

import numpy as np
import pytest

from stpnrca.pipeline import RunConfig, train_bundle
from stpnrca.synth import CausalGraph, FaultSpec, simulate_case, simulate_var

# Small 4-channel system: channel 0 drives the other three. Big enough for
# real detection margins, small enough to train in a couple of seconds.


@pytest.fixture(scope="session")
def toy_graph():
    coeffs = np.zeros((1, 4, 4))
    coeffs[0, np.arange(4), np.arange(4)] = 0.45
    for dst in (1, 2, 3):
        coeffs[0, dst, 0] = 0.35
    return CausalGraph(coeffs, np.full(4, 0.1))


@pytest.fixture(scope="session")
def toy_config():
    return RunConfig(
        alphabet_size=6,
        window_length=400,
        threshold_quantile=0.02,
        rbm_hidden=24,
        rbm_epochs=150,
        a3_samples_per_order=8,
        a3_hidden=(64,),
        a3_epochs=120,
        a3_patience=12,
        seed=0,
    )


@pytest.fixture(scope="session")
def toy_nominal(toy_graph, toy_config):
    return simulate_var(toy_graph, 80 * toy_config.window_length, seed=1)


@pytest.fixture(scope="session")
def toy_bundle(toy_nominal, toy_config):
    return train_bundle([toy_nominal], toy_config, with_a3=True)


@pytest.fixture(scope="session")
def toy_fault_case(toy_graph, toy_config):
    """Channel 0 delayed by 5 samples: the series and its label sidecar."""
    spec = FaultSpec(kind="node_delay", node=0, delay=5)
    return simulate_case(toy_graph, spec, 6 * toy_config.window_length, seed=3, case_id="fault")


@pytest.fixture(scope="session")
def toy_fault_ts(toy_fault_case):
    return toy_fault_case[0]


@pytest.fixture(scope="session")
def toy_fresh_nominal(toy_graph, toy_config):
    return simulate_var(toy_graph, 6 * toy_config.window_length, seed=2)


@pytest.fixture(scope="session")
def rewrite_header():
    """edit(path, change=None, **records): apply `change` to the JSON header
    line of a bundle file, in place, and keep the .npy array records after
    it, except those named in `records`: each is replaced by the given array,
    written as np.save writes it (object arrays too), or by raw bytes."""

    def edit(path, change=None, **records):
        header, _, rest = path.read_bytes().partition(b"\n")
        doc = json.loads(header)
        if records:
            stream, out = io.BytesIO(rest), io.BytesIO()
            arrays = {name: np.load(stream) for name in doc["arrays"]}
            for a in {**arrays, **records}.values():
                out.write(a) if isinstance(a, bytes) else np.save(out, a, allow_pickle=True)
            rest = out.getvalue()
        if change is not None:
            change(doc)
        path.write_bytes(json.dumps(doc).encode() + b"\n" + rest)

    return edit
