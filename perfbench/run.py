"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk-rca --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory. With ``--trace 0`` the run sets up several times,
repeats the workload's operation until ``--seconds`` have passed, and
prints the end-to-end metrics, timed at a reference speed (see
``measure.ReferenceClock``). With ``--trace 1`` it runs set-up plus the
operations once untraced and once under the span tracer, prints the
per-layer metrics and the tracing overhead, and checks that both runs
produced identical outputs. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "detect_windows_per_s": "1/s",
    "rca_windows_per_s": "1/s",
    "rca_call_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "fraction",
}


def import_program():
    """Import stpnrca from this checkout's src directory, or fail."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "stpnrca", "__init__.py")):
        raise SystemExit(f"perfbench: no program source at {src}/stpnrca")
    sys.path.insert(0, src)
    import stpnrca

    if os.path.dirname(os.path.dirname(os.path.abspath(stpnrca.__file__))) != src:
        raise SystemExit(f"perfbench: stpnrca imported from {stpnrca.__file__}, not {src}")


def layer_metrics(tracer, untraced_s: float, traced_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    from tracer import aggregate

    agg = aggregate(tracer.spans, tracer.counters)

    def get(key):
        return float(agg.get(key, 0.0))

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    out = {}
    for key in (
        "stpn.train_stpn.self_s", "stpn.scan_windows.self_s",
        "pipeline.run_rca.self_s", "pipeline.run_detect.self_s",
        "pipeline.train_bundle.self_s", "cli.main.self_s",
        "symbolic.symbolize.s", "symbolic.count_matrix.s",
        "symbolic.log_inference_metric.s", "rbm.train_rbm.s", "rbm.free_energy.s",
        "switching.s3_search.s", "association.generate_artificial_anomalies.s",
        "association.train_a3.s", "association.infer_a3.s", "nodes.infer_nodes.s",
        "nodes.rank_nodes.s", "timeseries.read_csv.s", "synth.simulate_var.s",
    ):
        out[key] = (get(key), "s")
    for key in (
        "stpn.scan_windows.windows", "symbolic.count_matrix.calls",
        "symbolic.log_inference_metric.calls", "rbm.free_energy.rows",
        "switching.s3_search.calls", "switching.s3_steps", "association.examples",
        "association.infer_a3.calls",
    ):
        out[key] = (get(key), "count")
    out["stpn.scan_ms_per_window"] = (
        ratio(get("stpn.scan_windows.s"), get("stpn.scan_windows.windows"), 1000.0), "ms")
    out["switching.s3_ms_per_step"] = (
        ratio(get("switching.s3_search.s"), get("switching.s3_steps"), 1000.0), "ms")
    for kind in ("save", "load"):
        out[f"persist.{kind}.s"] = (
            sum(get(f"persist.{kind}_{m}.s") for m in ("stpn", "rbm", "mlp")), "s")
    out["persist.bundle_bytes"] = (get("persist.bundle_bytes"), "bytes")
    out["timeseries.bytes_read"] = (get("timeseries.bytes_read"), "bytes")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out["trace.overhead_frac"] = (ratio(traced_s - untraced_s, untraced_s), "fraction")
    out["trace.spans"] = (float(len(tracer.spans)), "count")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Run one workload; returns (checks, metrics, figures, samples, tracer or None)."""
    from measure import Checks, clock, median, peak_rss_mb, timed
    from tracer import Tracer
    from workloads import WORKLOADS, Timings

    workdir = os.path.join(WORK_DIR, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, size, workdir)
        checks = Checks()

        def operate(state, rec):
            """Repeat the operation for `seconds` and at least `min_operations` times."""
            outputs, t0 = [], perf_counter()
            while len(outputs) < workload.min_operations or perf_counter() - t0 < seconds:
                outputs.append(workload.step(state, rec))
            return outputs

        def same(digests, what):
            checks.check(len(set(digests)) == 1, f"{what} ({len(digests)} outputs)")

        if not trace:
            setups = []
            with clock:
                for _ in range(workload.setup_repeats):
                    state, dt = timed(workload.setup)
                    setups.append(dt)
                rec = Timings()
                outputs = operate(state, rec)
            metrics, figures = workload.summarize(state, outputs, rec, checks)
            same([workload.fingerprint(o, i) for i, o in enumerate(outputs)],
                 "repeated operations give identical outputs")
            metrics = {"setup_s": median(setups), **metrics}
            figures["operations"] = (len(outputs), "count")
            metrics["peak_rss_mb"] = peak_rss_mb()
            metrics["success_rate"] = 1.0 - checks.failed / checks.attempted
            figures["reference_samples"] = (len(clock.speeds), "count")
            figures["reference_speed_p50"] = (median(clock.speeds), "x")
            samples = {"setup_s": setups, **vars(rec)}
            return checks, {k: (v, UNITS[k]) for k, v in metrics.items()}, figures, samples, None

        # One set-up and one operation each way: the per-layer figures are
        # totals, so they need no repeats. Set-up spans carry operation id 0,
        # the operation's spans id 1.
        t0 = perf_counter()
        plain = workload.step(workload.setup(), Timings())
        untraced_s = perf_counter() - t0
        tracer = Tracer()
        rec = Timings()
        with tracer:
            t0 = perf_counter()
            state = workload.setup()
            tracer.op = 1
            traced = workload.step(state, rec)
            traced_s = perf_counter() - t0
        workload.summarize(state, [traced], rec, checks)
        same([workload.fingerprint(o, i) for i, o in enumerate([plain, traced])],
             "traced and untraced runs give identical outputs")
        return checks, layer_metrics(tracer, untraced_s, traced_s), {}, {}, tracer
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["desk-train", "desk-rca", "plant-cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full",
                        help="smoke shrinks every input, for the benchmark's own tests")
    args = parser.parse_args(argv)

    import_program()
    from measure import environment

    env = environment(ROOT, args.seed, BLAS_THREADS)
    print("env " + json.dumps(env, sort_keys=True))
    checks, metrics, figures, samples, tracer = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size)

    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, (value, unit) in figures.items():
        print(f"figure {name} = {value:.6g} {unit}")
    for line in checks.lines:
        print(f"check {line}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(WORK_DIR, exist_ok=True)
    if tracer is not None:
        tracer.write(os.path.join(WORK_DIR, stem + ".spans.tsv.gz"))
    result = {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(WORK_DIR, stem + ".json"), "w") as fh:
        json.dump({**result, "env": env, "checks": checks.lines, "samples": samples,
                   "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()}},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
