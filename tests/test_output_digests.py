"""Smoke test for tools/output_digests.py, the byte-identity check cited in CHANGES."""

import importlib.util
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_every_command_of_the_flow_exits_zero(capsys):
    spec = importlib.util.spec_from_file_location(
        "output_digests", REPO / "tools" / "output_digests.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
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
