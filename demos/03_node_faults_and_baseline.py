"""Node-fault localization and the coefficient-difference baseline.

Delays one channel's readings (severing its observed causality), then
compares the energy-based search against refitting autoregressive
coefficients and thresholding their changes. Also shows the diagnosis-cost
view: how far down the ranking the true channel sits.
"""

from stpnrca import RunConfig, diagnosis_cost, run_rca, train_bundle
from stpnrca.stpn import index_pattern
from stpnrca.synth import (
    FaultSpec,
    random_graph,
    simulate_case,
    simulate_var,
    var_fit,
    var_rca_baseline,
)

WINDOW = 1200
config = RunConfig(window_length=WINDOW, threshold_quantile=0.01, seed=0)

print("building a seeded 10-channel system with uneven noise levels ...")
graph = random_graph(
    10, n_edges=18, seed=42, cross_coeff=0.28, self_coeff=0.45, noise_std=(0.06, 0.25)
)
print(f"  spectral radius {graph.spectral_radius():.3f}, "
      f"noise levels {graph.noise_std.round(2)}")

nominal = simulate_var(graph, 80 * WINDOW, seed=11)
bundle = train_bundle([nominal], config, with_a3=False)
nominal_fit = var_fit(nominal, 1)

TRUE_NODE = 6
fault, _ = simulate_case(
    graph, FaultSpec(kind="node_delay", node=TRUE_NODE, delay=5), 6 * WINDOW,
    seed=500 + TRUE_NODE, case_id="delayed",
)
print(f"\ndelaying channel {TRUE_NODE} by 5 samples ...")

report = run_rca(bundle, fault, method="s3", force=True)
failed = [p["index"] for p in report["aggregate"]["failed_patterns"]]
off_node = [i for i in failed if TRUE_NODE not in index_pattern(i, 10)]
print(f"[s3] failed patterns: {failed}")
print(f"[s3] patterns not touching the true channel: {off_node}")
print(f"[s3] selected channels: {[n['node'] for n in report['aggregate']['nodes']]}")
ranking = [n["node"] for n in report["aggregate"]["ranking"]]
cost = diagnosis_cost(ranking, TRUE_NODE, n_measurements=report["n_analyzed"])
print(f"[s3] ranking {ranking}; diagnosis cost {cost}")

baseline = var_rca_baseline(nominal_fit, var_fit(fault, 1), eta=0.4)
off_node_var = [i for i in baseline if TRUE_NODE not in index_pattern(i, 10)]
print(f"\n[baseline] failed patterns: {baseline}")
print(f"[baseline] patterns not touching the true channel: {off_node_var}")
eps_s3 = len(off_node) / max(len(failed), 1)
eps_var = len(off_node_var) / max(len(baseline), 1)
print(f"\nerror ratios: search {eps_s3:.2%} vs baseline {eps_var:.2%}")
