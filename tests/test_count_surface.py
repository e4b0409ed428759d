"""Smoke test for tools/count_surface.py, the surface counter cited in CHANGES."""

import argparse
import importlib.util
import re
from pathlib import Path

from stpnrca.cli import build_parser

REPO = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "count_surface", REPO / "tools" / "count_surface.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_print_as_integers_and_flags_match_the_parser(capsys):
    assert _load_tool().main([str(REPO)]) == 0
    matches = [re.fullmatch(r"(.+): (\d+)", line) for line in capsys.readouterr().out.splitlines()]
    assert [m and m.group(1) for m in matches] == [
        "src/stpnrca lines", "src/stpnrca code lines", "settable parameters", "cli flags"
    ]
    counts = {m.group(1): int(m.group(2)) for m in matches}
    assert 0 < counts["src/stpnrca code lines"] < counts["src/stpnrca lines"]
    assert counts["settable parameters"] > 0

    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = [
        action.dest
        for command in sub.choices.values()
        for action in command._actions
        if action.option_strings and action.dest != "help"
    ]
    assert counts["cli flags"] == len(flags)


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = (
        '"""Module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "    def f(self):\n"
        '        """Function\n        docstring."""\n'
        "        text = \"\"\"a string\n        that is code\"\"\"  # trailing comment\n"
        "        return text\n"
    )
    assert _load_tool().code_lines(source) == 5
