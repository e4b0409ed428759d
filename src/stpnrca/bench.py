"""Benchmark suites: the toolkit's verifiable claims, runnable on demand.

Each suite regenerates its data from frozen seeds, checks its thresholds,
and reports one pass/fail line per check. The desk-scale suites mirror the
reference experiments at a size that runs on one core in minutes; where a
desk run cannot reproduce a full-scale published number, the suite reports
the reference value alongside its own. The root-cause suites run each case
through `run_rca` (or `run_var_rca`) and score its report with
`evaluate_case`, the path behind `stpn-rca rca` and `stpn-rca evaluate`.

`SUITES` names every suite that `stpn-rca bench` runs, `tep` among them.
`run_suite` times one and returns its `SuiteResult`, which passes when none
of its lines is a failed check.

Shared oracles live here too: the exact-arithmetic factorial evaluation of
the inference metric (big integers plus arbitrary-precision logs, fully
independent of the gamma-function implementation) and the two-state
anomaly construction used by the monotonicity suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from math import factorial

import numpy as np

from .config import RunConfig
from .errors import DataError
from .metrics import diagnosis_cost, prf_counts
from .pipeline import TrainedBundle, evaluate_case, run_rca, run_var_rca, train_bundle
from .rbm import free_energy, train_rbm
from .switching import exhaustive_switch_oracle, s3_search
from .symbolic import log_inference_metric
from .synth import (
    FaultSpec,
    builtin_modes,
    pattern_fault_cases,
    random_graph,
    simulate_case,
    simulate_var,
    var_fit,
)
from .timeseries import read_csv


@dataclass(frozen=True)
class SuiteResult:
    name: str
    lines: list[str]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not any(line.startswith("FAIL") for line in self.lines)

    def report(self) -> str:
        header = f"[{self.name}] {'PASS' if self.passed else 'FAIL'} ({self.elapsed:.1f}s)"
        return "\n".join([header, *("  " + l for l in self.lines)])


def _check(lines: list[str], ok: bool, text: str) -> None:
    lines.append(f"{'pass' if ok else 'FAIL'}: {text}")


# ---------------------------------------------------------------------------
# metric oracles


def exact_log_metric(model: np.ndarray, window: np.ndarray) -> float:
    """Exact-arithmetic evaluation of the log inference metric.

    Builds the metric's numerator and denominator as big integers from
    factorials and takes their logs at 60 significant digits; shares no code
    with the gamma-function path it certifies.
    """
    model = np.asarray(model, dtype=np.int64)
    window = np.asarray(window, dtype=np.int64)
    if model.shape != window.shape:
        raise DataError("shape mismatch")
    n_sym = model.shape[1]
    num, den = 1, 1
    for m in range(model.shape[0]):
        wrow = int(window[m].sum())
        mrow = int(model[m].sum())
        num *= factorial(wrow) * factorial(mrow + n_sym - 1)
        den *= factorial(wrow + mrow + n_sym - 1)
        for n in range(n_sym):
            w, c = int(window[m, n]), int(model[m, n])
            num *= factorial(w + c)
            den *= factorial(w) * factorial(c)
    import mpmath  # here, not at the top: only this oracle needs its 4 MB

    with mpmath.workdps(60):
        return float(mpmath.log(num) - mpmath.log(den))


def two_state_counts(n11: int, n21: int, k: int, eta: int):
    """Model/nominal/anomalous count triples for the two-state construction.

    The nominal window has row sums 2*n11 and 2*n21 over two symbols, split
    evenly; the model is k times the window; the anomaly moves eta
    first-column counts from the first state's row to the second's.
    """
    if eta > n11:
        raise DataError("eta cannot exceed the first-state count")
    window = np.array([[n11, n11], [n21, n21]], dtype=float)
    model = k * window
    anomalous = window.copy()
    anomalous[0, 0] -= eta
    anomalous[1, 0] += eta
    return model, window, anomalous


# ---------------------------------------------------------------------------
# suites

# Suite sizes and seeds: fixed, so every run checks the same instances.
METRIC_ORACLE_CASES, METRIC_ORACLE_SEED = 1000, 20240
GREEDY_ORACLE_CASES, GREEDY_ORACLE_SEED = 100, 7
VAR_RECOVERY_GRAPHS, VAR_RECOVERY_SAMPLES = 20, 10000
ENERGY_GAP_SEEDS = (0, 1, 2, 3, 4)
DATASET1_WINDOWS = 50
FALSE_ALARM_WINDOWS = 510


def _prop1(lines: list[str]) -> None:
    """Metric variation positive and strictly increasing in the change count."""
    n21 = 12
    for k in (10, 100):
        for ratio in (1, 2, 3):
            n11 = ratio * n21
            deltas = []
            for eta in range(1, 6):
                model, nom, ano = two_state_counts(n11, n21, k, eta)
                deltas.append(
                    log_inference_metric(model, nom) - log_inference_metric(model, ano)
                )
            positive = all(d > 0 for d in deltas)
            increasing = all(b > a for a, b in zip(deltas, deltas[1:]))
            _check(
                lines,
                positive and increasing,
                f"k={k} ratio={ratio}: delta>0 and increasing over eta=1..5 "
                f"(range {deltas[0]:.4f}..{deltas[-1]:.4f})",
            )


def _metric_oracle(lines: list[str]) -> None:
    """Gamma-function metric vs exact factorial arithmetic, 1e-9 relative."""
    rng = np.random.default_rng(METRIC_ORACLE_SEED)
    worst = 0.0
    for _ in range(METRIC_ORACLE_CASES):
        rows = int(rng.integers(2, 7))
        cols = int(rng.integers(2, 7))
        model = rng.integers(0, 101, size=(rows, cols))
        window = rng.integers(0, 101, size=(rows, cols))
        got = log_inference_metric(model, window)
        want = exact_log_metric(model, window)
        rel = abs(got - want) / max(abs(want), 1e-300)
        worst = max(worst, rel)
    _check(
        lines,
        worst <= 1e-9,
        f"{METRIC_ORACLE_CASES} random count matrices (entries <= 100): worst relative "
        f"error {worst:.2e} <= 1e-9",
    )


def _greedy_oracle(lines: list[str]) -> None:
    """Greedy switching vs the exhaustive 2^9-subset optimum on 9-bit RBMs.

    Each instance trains a small machine on noisy copies of a few prototype
    vectors (the landscape the search actually operates on) and starts the
    search from a randomly perturbed prototype.
    """
    n_v = 9
    within, below = 0, 0
    for case in range(GREEDY_ORACLE_CASES):
        seed = GREEDY_ORACLE_SEED + case
        rng = np.random.default_rng(seed)
        prototypes = (rng.random((2, n_v)) < 0.7).astype(float)
        train = prototypes[rng.integers(0, 2, size=40)]
        noise = rng.random(train.shape) < 0.05
        train = np.abs(train - noise)
        params = train_rbm(
            train,
            RunConfig(rbm_hidden=6, rbm_epochs=60, rbm_learning_rate=0.1,
                      rbm_batch_size=10, seed=seed),
        )
        v = prototypes[0].copy()
        flips = rng.choice(n_v, size=int(rng.integers(1, 4)), replace=False)
        v[flips] = 1.0 - v[flips]
        greedy = s3_search(params, v)
        _, f_opt = exhaustive_switch_oracle(params, v)
        f_greedy = greedy.final_energy
        if f_greedy < f_opt - 1e-9:
            below += 1
        if f_greedy - f_opt <= 0.01 * abs(f_opt):
            within += 1
    _check(lines, below == 0, f"greedy never beats the oracle ({below} violations)")
    _check(
        lines,
        within >= 90,
        f"greedy within 1% of the optimum on {within}/{GREEDY_ORACLE_CASES} instances "
        "(need >= 90)",
    )


def _var_recovery(lines: list[str]) -> None:
    """Least-squares fits recover simulated coefficients within 0.05."""
    worst = 0.0
    for i in range(VAR_RECOVERY_GRAPHS):
        n_nodes = 2 + i % 4
        g = random_graph(
            n_nodes,
            n_edges=n_nodes,
            seed=1000 + i,
            cross_coeff=0.25,
            self_coeff=0.45,
            noise_std=0.1,
        )
        ts = simulate_var(g, VAR_RECOVERY_SAMPLES, seed=2000 + i)
        fitted = var_fit(ts, p=1)
        worst = max(worst, float(np.max(np.abs(fitted - g.coeffs))))
    _check(
        lines,
        worst <= 0.05,
        f"{VAR_RECOVERY_GRAPHS} seeded 2-5 node graphs at T={VAR_RECOVERY_SAMPLES}: "
        f"worst coefficient error {worst:.4f} <= 0.05",
    )


# Desk-scale configuration shared by the dataset suites. The library default
# threshold quantile stays at 0.05; the desk suites run at 0.01 because with
# only ~500 calibration windows the per-pattern quantiles are noisy and a
# tighter cut keeps nominal vectors clean without hiding injected faults.
DESK_CONFIG = RunConfig(
    window_length=1200,
    threshold_quantile=0.01,
    rbm_hidden=64,
    a3_samples_per_order=12,
    seed=0,
)
DESK_TRAIN_WINDOWS = 80


def build_desk_context(with_a3: bool = True) -> TrainedBundle:
    """The six-mode desk bundle shared by the desk suites."""
    nominal = [
        simulate_var(m, DESK_TRAIN_WINDOWS * DESK_CONFIG.window_length, seed=100 + i)
        for i, m in enumerate(builtin_modes())
    ]
    return train_bundle(nominal, DESK_CONFIG, with_a3=with_a3)


def _pooled(rows: list[dict], key: str) -> float:
    """A per-window score pooled over cases: the window-weighted mean."""
    return float(
        np.average([r[key] for r in rows], weights=[r["n_windows_analyzed"] for r in rows])
    )


def _total(rows: list[dict], key: str) -> int:
    return sum(r[key] for r in rows)


def _energy_gap(lines: list[str], bundle: TrainedBundle | None = None) -> None:
    """Nominal vectors sit at lower mean free energy than 1-flip perturbations."""
    bundle = bundle or build_desk_context(with_a3=False)
    vectors = bundle.training_vectors
    for seed in ENERGY_GAP_SEEDS:
        rbm = train_rbm(vectors, replace(bundle.config, seed=seed))
        rng = np.random.default_rng(9000 + seed)
        flipped = vectors.copy()
        idx = rng.integers(0, vectors.shape[1], size=vectors.shape[0])
        flipped[np.arange(vectors.shape[0]), idx] = 1.0 - flipped[
            np.arange(vectors.shape[0]), idx
        ]
        margin = float(
            np.mean(free_energy(rbm, flipped)) - np.mean(free_energy(rbm, vectors))
        )
        _check(lines, margin > 0, f"seed {seed}: energy gap {margin:.3f} > 0")


def _dataset1(lines: list[str], bundle: TrainedBundle | None = None) -> None:
    """Desk-scale 30-case pattern-fault suite (reference: 97.04 / 98.66)."""
    bundle = bundle or build_desk_context(with_a3=True)
    mode = builtin_modes()[0]
    cases = pattern_fault_cases()
    rows: dict[str, list[dict]] = {"s3": [], "a3": []}
    n_detected = n_windows = 0
    n_samples = DATASET1_WINDOWS * bundle.stpn.window_length
    for ci, case_edges in enumerate(cases):
        spec = FaultSpec(kind="pattern_break", edges=case_edges)
        test, labels = simulate_case(mode, spec, n_samples, 9000 + ci, f"case{ci + 1:02d}")
        for method, method_rows in rows.items():
            report = run_rca(bundle, test, method=method, force=True)
            method_rows.append(evaluate_case(report, labels))
        # the detector's flags do not depend on the method: any report serves
        n_detected += sum(w["anomalous"] for w in report["windows"])
        n_windows += report["n_windows"]

    lines.append(
        f"{len(cases)} cases x {DATASET1_WINDOWS} windows; detector flagged "
        f"{n_detected}/{n_windows} (analysis forced on all windows)"
    )
    reference = {"s3": "97.04", "a3": "98.66"}
    for method, method_rows in rows.items():
        alpha = _pooled(method_rows, "alpha1")
        r, p, f1 = prf_counts(*(_total(method_rows, k) for k in ("tp", "fn", "fp")))
        _check(
            lines,
            alpha >= 0.90,
            f"{method} pattern accuracy {alpha:.4f} >= 0.90 "
            f"(full-scale reference {reference[method]}%); "
            f"recall/precision/F = {100*r:.2f}/{100*p:.2f}/{100*f1:.2f}",
        )


def _false_alarm(lines: list[str], bundle: TrainedBundle | None = None) -> None:
    """Forced RCA on nominal windows flags few patterns (reference 6.65/1.30%)."""
    bundle = bundle or build_desk_context(with_a3=True)
    modes = builtin_modes()
    n_samples = int(np.ceil(FALSE_ALARM_WINDOWS / len(modes))) * bundle.stpn.window_length
    rows: dict[str, list[dict]] = {"s3": [], "a3": []}
    for i, mode in enumerate(modes):
        ts, labels = simulate_case(mode, None, n_samples, 40000 + i, f"nominal_mode{i + 1}", i)
        for method, method_rows in rows.items():
            report = run_rca(bundle, ts, method=method, force=True)
            method_rows.append(evaluate_case(report, labels))
    n_total = _total(rows["s3"], "n_windows_analyzed")
    _check(lines, n_total >= 500, f"{n_total} nominal windows analyzed (need >= 500)")
    reference = {"s3": "6.65", "a3": "1.30"}
    for method, method_rows in rows.items():
        mean_frac = _pooled(method_rows, "false_alarm_fraction")
        _check(
            lines,
            mean_frac <= 0.10,
            f"{method} mean flagged fraction {mean_frac:.4f} <= 0.10 "
            f"(full-scale reference {reference[method]}%)",
        )


# Frozen dataset3-analogue: a 10-node graph with heterogeneous noise levels,
# which is what defeats the relative-threshold coefficient baseline at scale.
DATASET3_GRAPH = dict(
    n_nodes=10, n_edges=18, seed=42, cross_coeff=0.28, self_coeff=0.45,
    noise_std=(0.06, 0.25),
)
NODE_FAULT_DELAY = 5
NODE_FAULT_WINDOWS = 6


def _dataset23(lines: list[str]) -> None:
    """Node-delay localization vs the coefficient baseline (ref: 0% vs 21.7%)."""
    wl = DESK_CONFIG.window_length
    rows: dict[str, list[dict]] = {"s3": [], "var": []}
    graphs = ((builtin_modes()[0], "5-node"), (random_graph(**DATASET3_GRAPH), "10-node"))
    for graph, label in graphs:
        nominal = simulate_var(graph, DESK_TRAIN_WINDOWS * wl, seed=11)
        bundle = train_bundle([nominal], DESK_CONFIG, with_a3=False)
        s3_rows, var_rows = [], []
        for node in range(graph.n_channels):
            spec = FaultSpec(kind="node_delay", node=node, delay=NODE_FAULT_DELAY)
            test, labels = simulate_case(
                graph, spec, NODE_FAULT_WINDOWS * wl, 500 + node, f"node{node}"
            )
            s3_rows.append(evaluate_case(run_rca(bundle, test, method="s3", force=True), labels))
            var_rows.append(evaluate_case(run_var_rca(nominal, test, DESK_CONFIG), labels))
        lines.append(
            f"{label}: {graph.n_channels} delay cases; s3 patterns "
            f"{_total(s3_rows, 'n_incorrect')}/{_total(s3_rows, 'n_predicted')} off-node, "
            f"baseline {_total(var_rows, 'n_incorrect')}/{_total(var_rows, 'n_predicted')}"
        )
        rows["s3"] += s3_rows
        rows["var"] += var_rows
    recall, precision, f1 = prf_counts(
        *(_total(rows["s3"], k) for k in ("node_tp", "node_fn", "node_fp"))
    )
    eps_s3, eps_var = (
        _total(rows[m], "n_incorrect") / max(_total(rows[m], "n_predicted"), 1)
        for m in ("s3", "var")
    )
    _check(
        lines,
        f1 >= 0.9,
        f"node inference recall/precision/F = {100*recall:.1f}/{100*precision:.1f}/"
        f"{100*f1:.1f} (F >= 90; full-scale reference 100/100/100)",
    )
    _check(
        lines,
        eps_s3 < eps_var,
        f"error ratio: s3 {100*eps_s3:.2f}% < baseline {100*eps_var:.2f}% "
        f"(full-scale reference 0% vs 21.7%)",
    )


def _tep_pipeline(lines: list[str], csv_path: str) -> None:
    """Conditional suite: the pipeline must complete on a user-supplied file.

    Trains on the first half of the file (treated as nominal), analyzes the
    second half, and checks that a full node ranking and a diagnosis cost
    come out; no numeric accuracy is claimed.
    """
    ts = read_csv(csv_path)
    config = RunConfig(window_length=max(60, ts.n_samples // 8), threshold_quantile=0.01)
    half = ts.n_samples // 2
    nominal = ts.window(0, half)
    test = ts.window(half, ts.n_samples - half)
    bundle = train_bundle([nominal], config, with_a3=False)
    report = run_rca(bundle, test, method="s3", force=True, data_path=csv_path)
    ranking = [n["node"] for n in report["aggregate"]["ranking"]]
    _check(
        lines,
        len(ranking) == ts.n_channels,
        f"rca produced a full ranking of {len(ranking)} variables",
    )
    cost = diagnosis_cost(ranking, ranking[0], max(report["n_analyzed"], 1))
    _check(lines, cost >= 1, f"diagnosis cost computed ({cost})")


# The suites `stpn-rca bench` runs, by name. Each body appends its report
# lines, checks through `_check`; the desk suites take an optional prebuilt
# bundle, and tep the path of the process CSV it reads.
SUITES = {
    "prop1": _prop1,
    "metric-oracle": _metric_oracle,
    "greedy-oracle": _greedy_oracle,
    "var-recovery": _var_recovery,
    "energy-gap": _energy_gap,
    "dataset1-desk": _dataset1,
    "false-alarm": _false_alarm,
    "dataset23-desk": _dataset23,
    "tep": _tep_pipeline,
}


def run_suite(name: str, *args) -> SuiteResult:
    """Run the suite `name` on `args`, timed; it passes when no check fails."""
    lines: list[str] = []
    t0 = time.time()
    SUITES[name](lines, *args)
    return SuiteResult(name, lines, time.time() - t0)
