"""Command-line front end.

Subcommands: simulate, train, detect, rca, evaluate, bench. Exit codes:
0 success, 1 usage error, 2 data error or unwritable output, 3 numerical
failure; a library warning prints as one "warning: <message>" line on
stderr. Only train, simulate and rca --method var read --config, --set and
the STPNRCA_CONFIG default config file (explicit flags win); detect and rca
--method s3/a3 use the config stored in the bundle file, stride included.
All outputs are written atomically (temp file + rename), so failures leave
no partial files, and each output path is checked before any input is
read. bench runs one verification suite by name; `bench --help` lists
them, and only the tep suite takes --data.

Every series file is read by one reader that works out its layout: fields
split on commas or whitespace, after a header row of channel names unless
the first row is all numbers, when the 52 standard process variables are
expected and any other width is a data error.

Channel indices on the command line are 0-based column positions of the
input CSV; reports carry the channel names alongside.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import json
import os
import sys
import warnings

import numpy as np

from . import bench as bench_mod
from .config import RunConfig
from .errors import DataError, NumericalError, StpnRcaError, UsageError
from .persist import load_bundle, save_bundle
from .pipeline import (
    evaluate_case,
    run_detect,
    run_rca,
    run_var_rca,
    train_bundle,
)
from .synth import (
    FaultSpec,
    builtin_modes,
    pattern_fault_cases,
    random_graph,
    simulate_case,
    simulate_var,
)
from .timeseries import atomic_open, read_csv, write_csv


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_json(doc: dict, path: str | None) -> None:
    """Write `doc` to `path`, or to stdout when `path` is None, as one line
    of compact JSON with sorted keys, like the bundle header. json.dumps
    runs the C encoder only without indent, and json.dump never does."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    with (atomic_open(path) if path else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(text)


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise DataError(f"cannot read {path}: {exc}") from None


def _check_out_dir(path: str | None, directory: bool = False) -> None:
    """Fail before any input is read when `path` cannot take the output: a
    directory output's nearest existing ancestor (the path itself, when it
    exists) must be a directory, and a file output must not be an existing
    directory and needs an existing parent directory."""
    nearest = os.path.abspath(path or ".")
    while directory and not os.path.exists(nearest):  # the root exists, so this ends
        nearest = os.path.dirname(nearest)
    if path and directory != os.path.isdir(nearest if directory else path):
        code = errno.ENOTDIR if directory else errno.EISDIR
    elif path and not directory and not os.path.isdir(os.path.dirname(nearest)):
        code = errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), path)  # OSError picks the subclass for the code


def _parse_fault(text: str) -> FaultSpec:
    parts = text.split(":")
    kind = parts[0].replace("_", "-")
    try:
        if kind == "node-delay":
            if len(parts) != 3:
                raise ValueError
            return FaultSpec(kind="node_delay", node=int(parts[1]), delay=int(parts[2]))
        if kind == "pattern-break":
            if len(parts) != 2:
                raise ValueError
            edges = []
            for chunk in parts[1].split(","):
                src, dst = chunk.split("-")
                edges.append((int(src), int(dst)))
            return FaultSpec(kind="pattern_break", edges=tuple(edges))
    except (ValueError, DataError) as exc:
        raise UsageError(f"bad fault spec {text!r}: {exc}") from None
    raise UsageError(
        f"bad fault spec {text!r}; use node-delay:NODE:DELAY or "
        "pattern-break:SRC-DST[,SRC-DST...]"
    )


def _config_from_args(args) -> RunConfig:
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return RunConfig.from_sources(args.config, overrides)


def cmd_simulate(args) -> int:
    _check_out_dir(args.out, directory=True)
    config = _config_from_args(args)
    out = args.out
    spec = _parse_fault(args.fault) if args.fault else None
    cases = pattern_fault_cases()
    if args.nodes is not None:
        if args.modes or args.cases is not None or args.mode is not None:
            raise UsageError("--modes, --cases and --mode apply to builtin modes, not --nodes")
        if args.nodes < 2:
            raise UsageError(f"--nodes takes a graph of at least 2 nodes, got {args.nodes}")
    if args.cases is not None and not 0 < args.cases <= len(cases):
        raise UsageError(f"--cases takes 1 to {len(cases)} pattern-fault cases")
    if args.mode is not None and not (args.cases or spec):
        raise UsageError("--mode picks the builtin mode for --cases and --fault")
    if args.name is not None and spec is None:
        raise UsageError("--name is the basename of the --fault output")
    if not (args.modes or args.cases or spec):
        raise UsageError("nothing to simulate: pass --modes builtin, --cases, or --fault")
    mode_index, name = args.mode or 0, args.name or "fault"

    if args.nodes is not None:
        graph = random_graph(args.nodes, seed=config.seed)
    else:
        graph = builtin_modes()[mode_index]
    # simulate_var's burn-in rule, checked here so that the message names the flag
    graphs = [graph, *builtin_modes()] if args.modes else [graph]
    min_samples = 10 * max(g.n_lags for g in graphs)
    if args.samples < min_samples:
        raise UsageError(f"--samples takes at least {min_samples} samples, got {args.samples}")
    # every series is simulated before `out` is created, so a fault the graph
    # cannot take (a node or an edge it lacks) is a usage error that leaves
    # no directory behind
    labelled, nominal = [], None
    if args.modes == "builtin":
        for i, mode in enumerate(builtin_modes()):
            labelled.append(simulate_case(
                mode, None, args.samples, config.seed + i, f"nominal_mode{i + 1}", i))
    for ci, case_edges in enumerate(cases[: args.cases or 0]):
        case_spec = FaultSpec(kind="pattern_break", edges=case_edges)
        labelled.append(simulate_case(graph, case_spec, args.samples,
                                      config.seed + 9000 + ci, f"case{ci + 1:02d}",
                                      mode_index))
    if spec is not None:
        seed = config.seed + 777
        try:
            labelled.append(simulate_case(graph, spec, args.samples, seed, name, mode_index))
        except DataError as exc:
            raise UsageError(f"--fault {args.fault}: {exc}") from None
        # a nominal companion for baseline fitting
        nominal = simulate_var(graph, args.samples, seed=seed + 1)

    os.makedirs(out, exist_ok=True)
    for ts, labels in labelled:
        path = os.path.join(out, labels["case_id"] + ".csv")
        write_csv(ts, path)
        _write_json(labels, path[:-4] + ".labels.json")
        print(path)
    if nominal is not None:
        write_csv(nominal, os.path.join(out, name + "_nominal.csv"))
    return 0


def cmd_train(args) -> int:
    _check_out_dir(args.out, directory=True)
    config = _config_from_args(args)
    series = [read_csv(p) for p in args.nominal]
    bundle = train_bundle(series, config, with_a3=args.a3)
    save_bundle(bundle, args.out)
    print(f"trained on {len(series)} series; bundle written to {args.out}")
    print(f"energy threshold {bundle.energy_threshold:.4f}")
    return 0


def cmd_detect(args) -> int:
    bundle = load_bundle(args.model)
    ts = read_csv(args.data)
    starts, energies, flags = run_detect(bundle, ts)
    for start, f, anomalous in zip(starts, energies, flags):
        verdict = "anomalous" if anomalous else "nominal"
        print(f"start={int(start)} free_energy={f:.4f} verdict={verdict}")
    print(f"# {int(np.sum(flags))}/{len(flags)} windows anomalous")
    return 0


def _check_rca_flags(args) -> None:
    """Every rule on which rca flags go with which method. var fits its
    baseline to --nominal under the --config/--set config; s3 and a3 read
    the --model bundle, whose stored config is fixed."""
    if args.method == "var":
        required = {"--nominal": args.nominal}
        rejected = {"--model": args.model, "--force": args.force}
    else:
        required = {"--model": args.model}
        rejected = {"--nominal": args.nominal, "--config": args.config, "--set": args.set}
    for flag, value in required.items():
        if not value:
            raise UsageError(f"--method {args.method} needs {flag}")
    given = [flag for flag, value in rejected.items() if value not in (None, False)]
    if given:
        why = "" if args.method == "var" else "; the bundle stores its config"
        raise UsageError(f"{', '.join(given)} not accepted with --method {args.method}{why}")


def cmd_rca(args) -> int:
    _check_rca_flags(args)
    _check_out_dir(args.out)
    if args.method == "var":
        config = _config_from_args(args)
        nominal = read_csv(args.nominal)
        test = read_csv(args.data)
        report = run_var_rca(nominal, test, config, data_path=args.data)
    else:
        bundle = load_bundle(args.model)
        ts = read_csv(args.data)
        report = run_rca(bundle, ts, method=args.method, force=args.force, data_path=args.data)
        if report["n_analyzed"] == 0:
            print("no window flagged anomalous; re-run with --force to analyze anyway",
                  file=sys.stderr)
    _write_json(report, args.out)
    if args.out:
        print(f"report written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    _check_out_dir(args.out)
    if len(args.reports) != len(args.labels):
        raise DataError(
            f"{len(args.reports)} reports vs {len(args.labels)} label files"
        )
    rows = []
    for rpath, lpath in zip(args.reports, args.labels):
        report, labels = _read_json(rpath), _read_json(lpath)
        try:
            rows.append(evaluate_case(report, labels))
        except DataError as exc:
            raise DataError(f"report {rpath}, labels {lpath}: {exc}") from None
        except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as exc:
            raise DataError(f"report {rpath}, labels {lpath}: malformed ({exc!r})") from None

    columns = ["case_id", "method", "alpha1", "recall", "precision", "f_measure",
               "error_ratio", "diagnosis_cost", "false_alarm_fraction"]

    def cell(row, col):
        value = row.get(col)
        if value is None:
            return "NA"
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    table = [[cell(r, c) for c in columns] for r in rows]
    widths = [max(len(c), *(len(t[i]) for t in table)) for i, c in enumerate(columns)]
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    print(header)
    print("-" * len(header))
    for t in table:
        print("  ".join(v.ljust(w) for v, w in zip(t, widths)))

    if args.out:
        with atomic_open(args.out, newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([columns, *table])
        print(f"table written to {args.out}")
    return 0


def cmd_bench(args) -> int:
    if (args.suite == "tep") != (args.data is not None):
        raise UsageError("the tep suite needs --data, and no other suite reads it")
    result = bench_mod.run_suite(args.suite, *([] if args.data is None else [args.data]))
    print(result.report())
    return 0 if result.passed else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="stpn-rca", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="config file (key = value lines)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key")

    p = sub.add_parser("simulate", help="generate synthetic benchmark data")
    add_config(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--modes", choices=["builtin"], help="emit the six nominal modes")
    p.add_argument("--cases", type=int, help="emit the first N (1-30) pattern-fault cases")
    p.add_argument("--nodes", type=int,
                   help="break a seeded random graph of N >= 2 nodes (--fault only)")
    p.add_argument("--mode", type=int, choices=range(len(builtin_modes())),
                   help="builtin mode index for --cases and --fault (0-based, default 0)")
    p.add_argument("--fault", help="node-delay:NODE:DELAY or pattern-break:SRC-DST,...")
    p.add_argument("--samples", type=int, default=12000)
    p.add_argument("--name", help="basename for --fault output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train the pattern network and energy model")
    add_config(p)
    p.add_argument("--nominal", nargs="+", required=True, help="nominal CSV file(s)")
    p.add_argument("--out", required=True, help="bundle output directory")
    p.add_argument("--a3", action="store_true",
                   help="also train the anomaly-association classifier")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="window verdicts for a test series")
    p.add_argument("--model", required=True, help="bundle directory")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("rca", help="root-cause analysis of a test series")
    add_config(p)
    p.add_argument("--model", help="bundle directory (s3/a3)")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=["s3", "a3", "var"], default="s3")
    p.add_argument("--nominal", help="nominal CSV (var baseline only)")
    p.add_argument("--force", action="store_true",
                   help="analyze all windows, not just detected ones")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_rca)

    p = sub.add_parser("evaluate", help="score RCA reports against label sidecars")
    p.add_argument("--reports", nargs="+", required=True)
    p.add_argument("--labels", nargs="+", required=True)
    p.add_argument("--out", help="write a CSV table here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="run a verification suite")
    p.add_argument("suite", choices=list(bench_mod.SUITES), help="the suite to run")
    p.add_argument("--data", help="process CSV for the tep suite (tep only)")
    p.set_defaults(func=cmd_bench)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    with warnings.catch_warnings():  # restores the caller's warning display on return
        warnings.showwarning = _print_warning
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 1
        except DataError as exc:
            print(f"data error: {exc}", file=sys.stderr)
            return 2
        except NumericalError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 3
        except (StpnRcaError, OSError) as exc:  # OSError: e.g. an unwritable output path
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
