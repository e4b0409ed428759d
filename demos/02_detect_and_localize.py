"""Full pattern-fault pipeline on the six built-in operating modes.

Trains the pattern network + energy model (+ the per-pattern classifier) on
all six nominal modes, breaks two causal edges of mode 1, and shows how the
greedy switching search and the classifier localize the broken patterns and
their endpoint channels. Takes a couple of minutes (most of it classifier
training).
"""

import numpy as np

from stpnrca import RunConfig, run_rca, train_bundle
from stpnrca.synth import FaultSpec, builtin_modes, simulate_case, simulate_var

WINDOW = 1200
config = RunConfig(
    window_length=WINDOW,
    threshold_quantile=0.01,
    rbm_hidden=64,
    a3_samples_per_order=12,
    seed=0,
)

print("simulating 40 nominal windows for each of the six modes ...")
modes = builtin_modes()
nominal = [simulate_var(m, 40 * WINDOW, seed=100 + i) for i, m in enumerate(modes)]

print("training pattern network, energy model, and classifier ...")
bundle = train_bundle(nominal, config, with_a3=True)
print(f"  {bundle.stpn.n_patterns} patterns, energy threshold {bundle.energy_threshold:.1f}")

# break two causal edges of mode 1: channel 1 -> 4 and channel 2 -> 3
broken_edges = ((1, 4), (2, 3))
fault, labels = simulate_case(
    modes[0], FaultSpec(kind="pattern_break", edges=broken_edges), 12 * WINDOW,
    seed=9, case_id="broken",
)
truth = labels["failed_patterns"]
print(f"\ninjected pattern breaks {broken_edges}; true failed patterns {truth}")

for method in ("s3", "a3"):
    report = run_rca(bundle, fault, method=method, force=True)
    found = [(p["index"], round(p["weight"], 3)) for p in report["aggregate"]["failed_patterns"]]
    nodes = [(n["name"], round(n["score"], 3)) for n in report["aggregate"]["nodes"]]
    per_window = np.mean([
        len({q["index"] for q in w["patterns"]} ^ set(truth)) for w in report["windows"]
    ])
    print(f"\n[{method}] failed patterns (index, weight): {found}")
    print(f"[{method}] implicated channels: {nodes}")
    print(f"[{method}] mean wrong cells per window: {per_window:.2f} of 25")
