"""tools/output_digests.py, the byte-identity check: every command of its
flow succeeds, and every line equals the pinned tests/data/output_digests.txt.

A change that moves an output regenerates the pinned file with
``python tools/output_digests.py --pin tests/data/output_digests.txt``.
"""

import contextlib
import importlib.util
import io
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PINNED = REPO / "tests" / "data" / "output_digests.txt"


@pytest.fixture(scope="module")
def flow():
    """The tool module, its exit code and the lines it prints, from one run."""
    spec = importlib.util.spec_from_file_location(
        "output_digests", REPO / "tools" / "output_digests.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tool.main([])
    return tool, code, out.getvalue().splitlines()


def test_every_command_of_the_flow_exits_zero(flow):
    tool, code, lines = flow
    assert code == 0
    n = len(tool.FLOW)
    commands = [re.fullmatch(r"(\w+): exit (\d+), stdout [0-9a-f]{64}", l) for l in lines[:n]]
    assert [m and m.group(1) for m in commands] == [c[0] for c in tool.FLOW]
    assert all(m.group(2) == "0" for m in commands)
    # detect prints the same lines for case01 in comma and in whitespace layout
    assert tool.FLOW[-1] == [*tool.DETECT[:-1], tool.RESTYLED]
    assert lines[tool.FLOW.index(tool.DETECT)] == lines[n - 1]
    files = [re.fullmatch(r"[0-9a-f]{64}  (\S+)", l) for l in lines[n:]]
    assert all(files) and {
        "table.csv", "model/bundle.stpnrca", "fault.var.json", "data/case01_restyled.txt",  # files
        "model:rbm.weights", "model:mlp.b1", "plant_model:stpn.counts",  # arrays
    } <= {m.group(1) for m in files}


def test_every_line_equals_the_pinned_file(flow):
    """Float digests depend on the Python, numpy and BLAS builds, so a
    mismatch names the environment the file was pinned under and this one."""
    tool, _, lines = flow
    pinned_environment, *pinned = PINNED.read_text().splitlines()
    moved = [f"  {want}\n  -> {got}" for want, got in zip(pinned, lines) if want != got]
    assert lines == pinned, (
        f"{len(moved)} lines moved, and the run printed {len(lines)} lines where "
        f"{PINNED.name} pins {len(pinned)}; pinned under [{pinned_environment[2:]}], "
        f"run under [{tool.environment()}]:\n" + "\n".join(moved)
    )
