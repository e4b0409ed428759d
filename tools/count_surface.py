"""Print the size of the stpnrca surface: source lines, code lines, settable
parameters and command-line flags.

    python tools/count_surface.py [REPO]

REPO defaults to the repository holding this script. Code lines are the
source lines that hold a token other than a comment and lie outside every
module, class and function docstring. Settable parameters
are the arguments of public functions and methods (without ``self``,
``cls`` and ``**kwargs``) plus the fields of public dataclasses, found with
``ast`` in ``src/stpnrca``. CLI flags are the options of every subcommand
of ``stpn-rca``, counted once per subcommand that accepts them.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path


def _public(name: str) -> bool:
    return not name.startswith("_")


def _arguments(func: ast.FunctionDef) -> int:
    args = func.args
    named = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    count = sum(a.arg not in ("self", "cls") for a in named)
    return count + (args.vararg is not None)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def settable_parameters(tree: ast.Module) -> int:
    count = 0
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and _public(node.name):
            count += _arguments(node)
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    count += _arguments(item)
                elif (isinstance(item, ast.AnnAssign) and _is_dataclass(node)
                      and isinstance(item.target, ast.Name) and _public(item.target.id)):
                    count += 1
    return count


def cli_flags(src: Path) -> int:
    sys.path.insert(0, str(src))
    from stpnrca.cli import build_parser

    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sum(
        1
        for command in sub.choices.values()
        for action in command._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("repo", nargs="?", default=Path(__file__).resolve().parent.parent,
                        type=Path)
    repo = parser.parse_args(argv).repo
    package = repo / "src" / "stpnrca"
    files = sorted(package.glob("*.py"))
    sources = [f.read_text() for f in files]
    lines = sum(len(source.splitlines()) for source in sources)
    code = sum(code_lines(source) for source in sources)
    params = sum(settable_parameters(ast.parse(source)) for source in sources)
    print(f"src/stpnrca lines: {lines}")
    print(f"src/stpnrca code lines: {code}")
    print(f"settable parameters: {params}")
    print(f"cli flags: {cli_flags(repo / 'src')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
