"""End-to-end orchestration: training bundles, detection, RCA.

Everything the command-line layer does is implemented here so library users
and the benchmark suites drive the exact same code paths.
"""

from __future__ import annotations

import os

import numpy as np

from .association import _checked_layers, generate_artificial_anomalies, infer_a3, train_a3
from .config import RunConfig
from .errors import DataError, UsageError
from .metrics import diagnosis_cost, error_ratio, false_alarm_pattern_fraction, prf_counts
from .nodes import infer_nodes
from .persist import TrainedBundle, load_bundle, save_bundle  # noqa: F401 (pipeline API)
from .rbm import _check_width, calibrate_threshold, free_energy, train_rbm
from .stpn import index_pattern, scan_windows, train_stpn
from .switching import s3_search
from .synth import var_fit, var_rca_baseline
from .timeseries import TimeSeries


def train_bundle(
    nominal: TimeSeries | list[TimeSeries],
    config: RunConfig = RunConfig(),
    with_a3: bool = False,
) -> TrainedBundle:
    """Train the pattern network, the energy model, and optionally the classifier.

    The energy model trains on the pattern vectors of the network's
    calibration windows, as :func:`train_stpn` returns them. An energy
    model or a3 width whose weights cannot be allocated, or an a3 flip order
    above the f*f pattern count, is refused before any training.
    """
    series = [nominal] if isinstance(nominal, TimeSeries) else list(nominal)
    if series:
        n_patterns = series[0].n_channels ** 2
        _check_width("rbm_hidden", n_patterns, config.rbm_hidden)
        if with_a3:
            _checked_layers(n_patterns, n_patterns, config)
            if max(config.a3_flip_orders) > n_patterns:
                raise UsageError(f"config key 'a3_flip_orders': flip orders must lie in "
                                 f"1..{n_patterns} for {series[0].n_channels} channels")
    model, vectors = train_stpn(series, config)
    vectors = vectors.astype(float)
    rbm = train_rbm(vectors, config)
    threshold = calibrate_threshold(rbm, vectors, kappa=config.detector_kappa)
    mlp = None
    if with_a3:
        data = generate_artificial_anomalies(
            vectors, config.a3_flip_orders, config.a3_samples_per_order, config.seed
        )
        mlp = train_a3(data, config)
    return TrainedBundle(stpn=model, rbm=rbm, energy_threshold=threshold, config=config, mlp=mlp)


def _window_analyser(bundle: TrainedBundle, method: str):
    """The per-window analysis for `method`, resolved before any scan.

    Returns a function from a pattern vector to (patterns, weights, trace);
    the trace is empty for the classifier method. An unknown method, or a3
    on a bundle without a classifier, is a UsageError.
    """
    if method == "s3":

        def analyse(vector):
            result = s3_search(bundle.rbm, vector)
            return list(result.anomalous_patterns), list(result.weights), list(result.trace)

        return analyse
    if method == "a3":
        if bundle.mlp is None:
            raise UsageError("bundle has no trained classifier (train with --a3)")

        def analyse(vector):
            indicator, probs = infer_a3(bundle.mlp, vector, cutoff=bundle.config.a3_cutoff)
            patterns = [int(i) for i in np.flatnonzero(indicator == 0)]
            return patterns, [float(1.0 - probs[i]) for i in patterns], []

        return analyse
    raise UsageError(
        f"unknown method {method!r}: run_rca takes s3 or a3; the var baseline is run_var_rca"
    )


def _scan_and_flag(bundle: TrainedBundle, ts: TimeSeries):
    """The detection rule: scan the windows at the bundle's stride, then flag
    those whose free energy exceeds the calibrated threshold. Returns (scan,
    energies, flags)."""
    scan = scan_windows(bundle.stpn, ts, bundle.config.stride)
    energies = free_energy(bundle.rbm, scan.vectors)
    return scan, energies, energies > bundle.energy_threshold


def run_detect(bundle: TrainedBundle, ts: TimeSeries):
    """Per-window verdict stream: (starts, free energies, anomalous flags)."""
    scan, energies, flags = _scan_and_flag(bundle, ts)
    return scan.starts, energies, flags


def _pattern_entry(p: int, f: int, weight: float) -> dict:
    source, target = index_pattern(p, f)
    return {"index": int(p), "source": source, "target": target, "weight": float(weight)}


def _report(head: dict, failed: list[tuple[int, float, float]]) -> dict:
    """`head` plus the case-level aggregate built from the failed patterns,
    given as (pattern, weight, window fraction): the patterns, the greedy
    node cover, and the ranking of every channel in head["channels"]."""
    names = head["channels"]
    f = len(names)
    inference = infer_nodes([(p, w) for p, w, _ in failed], f)

    def nodes(ids, scores):
        return [{"node": int(n), "name": names[n], "score": float(s)} for n, s in zip(ids, scores)]

    return {
        **head,
        "aggregate": {
            "failed_patterns": [
                {**_pattern_entry(p, f, w), "window_fraction": fraction}
                for p, w, fraction in failed
            ],
            "nodes": nodes(inference.nodes, inference.scores[: inference.n_cover]),
            "ranking": nodes(inference.ranking, inference.scores),
        },
    }


def run_rca(
    bundle: TrainedBundle,
    ts: TimeSeries,
    method: str = "s3",
    force: bool = False,
    data_path: str = "",
) -> dict:
    """Window-level root-cause analysis plus a case-level aggregate.

    Only windows flagged anomalous are analyzed unless `force`. A pattern
    counts as failed for the case when it is flagged in at least half of the
    analyzed windows; its case weight is the sum of its per-window weights.
    The node ranking covers the failed set first (greedy cover order), then
    the remaining channels by anomaly score. An unknown method, or a3 on a
    bundle without a classifier, is a UsageError raised before the scan.
    """
    analyse = _window_analyser(bundle, method)
    return _rca_report(bundle, _scan_and_flag(bundle, ts), method, analyse, force, data_path)


def _rca_report(bundle, scanned, method, analyse, force, data_path=""):
    """The report of `run_rca` from the (scan, energies, flags) of one
    `_scan_and_flag` and the analyser that `_window_analyser` resolved for
    `method`."""
    f = bundle.stpn.n_channels
    scan, energies, flags = scanned
    windows = []
    flagged_counts: dict[int, int] = {}
    weight_sums: dict[int, float] = {}
    n_analyzed = 0
    for i, start in enumerate(scan.starts):
        entry = {
            "start": int(start),
            "free_energy": float(energies[i]),
            "anomalous": bool(flags[i]),
            "analyzed": bool(flags[i] or force),
            "patterns": [],
        }
        if entry["analyzed"]:
            n_analyzed += 1
            patterns, weights, trace = analyse(scan.vectors[i])
            entry["patterns"] = [_pattern_entry(p, f, w) for p, w in zip(patterns, weights)]
            if trace:
                entry["trace"] = [float(x) for x in trace]
            for p, w in zip(patterns, weights):
                flagged_counts[p] = flagged_counts.get(p, 0) + 1
                weight_sums[p] = weight_sums.get(p, 0.0) + float(w)
        windows.append(entry)

    failed = sorted(p for p, c in flagged_counts.items() if c >= 0.5 * n_analyzed)
    head = {
        "method": method,
        "config_fingerprint": bundle.config.fingerprint(),
        "data": data_path,
        "channels": list(bundle.stpn.names),
        "window_length": bundle.stpn.window_length,
        "n_windows": int(len(scan.starts)),
        "n_analyzed": int(n_analyzed),
        "forced": bool(force),
        "energy_threshold": float(bundle.energy_threshold),
        "windows": windows,
    }
    return _report(
        head, [(p, weight_sums[p], flagged_counts[p] / max(n_analyzed, 1)) for p in failed]
    )


def evaluate_case(report: dict, labels: dict) -> dict:
    """Score one RCA report against its ground-truth sidecar.

    The report and the labels must describe the same system: the same
    channel names, and, when the labels give a case id and the report's
    `data` path a file stem, the same case; a mismatch is a DataError.
    Nominal and pattern-break cases get per-window accuracy; pattern breaks
    also get the TP/FN/FP counts pooled over the windows, the
    recall/precision/F-measure from them and the error ratio; labels whose
    fault is null are false-alarm cases. Node faults get the error ratio
    (patterns not incident to the injected node), the node-set TP/FN/FP
    counts, and the diagnosis cost. Labels without a `fault` key, or with a
    fault kind other than pattern_break or node_delay, are a DataError.
    """
    if report.get("channels") != labels.get("channels"):
        raise DataError(
            f"channel mismatch: report has {report.get('channels')}, "
            f"labels have {labels.get('channels')}"
        )
    case_id = labels.get("case_id", "")
    data_stem = os.path.splitext(os.path.basename(report.get("data", "")))[0]
    if case_id and data_stem and case_id != data_stem:
        raise DataError(f"case id mismatch: report is for {data_stem!r}, labels for {case_id!r}")
    if "fault" not in labels:
        raise DataError("labels have no 'fault' key; a label sidecar names its fault, or null")
    fault = labels["fault"]
    if fault is not None and fault.get("kind") not in ("pattern_break", "node_delay"):
        raise DataError(f"unknown fault kind {fault.get('kind')!r}: "
                        "expected 'pattern_break' or 'node_delay'")

    f = len(labels["channels"])
    total = f * f
    agg_patterns = {p["index"] for p in report["aggregate"]["failed_patterns"]}
    window_sets = [
        {p["index"] for p in w["patterns"]}
        for w in report.get("windows", [])
        if w.get("analyzed")
    ] or [agg_patterns]

    out: dict = {
        "case_id": case_id,
        "method": report["method"],
        "fault": fault,
        "n_windows_analyzed": report["n_analyzed"],
    }
    if fault is None or fault["kind"] == "pattern_break":
        truth = set(labels["failed_patterns"]) if fault else set()
        out["alpha1"] = float(np.mean([total - len(truth ^ s) for s in window_sets])) / total
        if fault is None:
            out["false_alarm_fraction"] = false_alarm_pattern_fraction(window_sets, f)
            return out
        out["tp"] = sum(len(truth & s) for s in window_sets)
        out["fn"] = sum(len(truth - s) for s in window_sets)
        out["fp"] = sum(len(s - truth) for s in window_sets)
        recall, precision, fmeasure = prf_counts(out["tp"], out["fn"], out["fp"])
        out.update(recall=recall, precision=precision, f_measure=fmeasure)
        out["error_ratio"] = error_ratio(sorted(agg_patterns), lambda i: i in truth)
        return out

    true_nodes = set(labels["failed_nodes"])

    def incident(i: int) -> bool:
        a, b = index_pattern(i, f)
        return a in true_nodes or b in true_nodes

    out["n_predicted"] = len(agg_patterns)
    out["n_incorrect"] = sum(1 for i in agg_patterns if not incident(i))
    out["error_ratio"] = out["n_incorrect"] / out["n_predicted"] if agg_patterns else None
    selected = {n["node"] for n in report["aggregate"]["nodes"]}
    out["predicted_nodes"] = sorted(selected)
    out["true_nodes"] = sorted(true_nodes)
    out["node_tp"] = len(selected & true_nodes)
    out["node_fn"] = len(true_nodes - selected)
    out["node_fp"] = len(selected - true_nodes)
    ranking = [n["node"] for n in report["aggregate"]["ranking"]]
    costs = [
        diagnosis_cost(ranking, node, max(report["n_analyzed"], 1))
        for node in sorted(true_nodes)
    ]
    out["diagnosis_cost"] = costs[0] if len(costs) == 1 else costs
    return out


def run_var_rca(
    nominal: TimeSeries, test: TimeSeries, config: RunConfig, data_path: str = ""
) -> dict:
    """Baseline report from differencing two least-squares fits."""
    if nominal.names != test.names:
        raise DataError("nominal and test series must share channels")
    a_nom = var_fit(nominal, config.var_lag)
    a_ano = var_fit(test, config.var_lag)
    failed = var_rca_baseline(a_nom, a_ano, eta=config.var_eta)
    head = {
        "method": "var",
        "config_fingerprint": config.fingerprint(),
        "data": data_path,
        "channels": list(test.names),
        "n_windows": 1,
        "n_analyzed": 1,
        "forced": True,
        "windows": [],
    }
    return _report(head, [(p, 1.0, 1.0) for p in failed])  # baseline weights fixed at 1
