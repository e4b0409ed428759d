"""Walk through the symbolic layer: bins, symbols, states, and the metric.

Run with `python demos/01_symbolize_and_score.py`. Everything prints; no
files are written.
"""

import numpy as np

from stpnrca import (
    TimeSeries,
    count_matrix,
    learn_partition,
    log_inference_metric,
    simulate_var,
    states_from_symbols,
    symbolize,
)
from stpnrca.bench import two_state_counts
from stpnrca.synth import builtin_modes

print("=" * 72)
print("1. Equal-frequency partitioning")
print("=" * 72)

rng = np.random.default_rng(0)
ts = TimeSeries(("sensor",), rng.gamma(2.0, 1.0, size=3000)[:, None])
scheme = learn_partition(ts, alphabet_size=9, method="mep")
print(f"nine bins on a skewed channel; interior edges:\n  {np.round(scheme.edges[0], 3)}")
symbols = symbolize(ts, scheme)
occupancy = np.bincount(symbols[:, 0], minlength=9)
print(f"bin occupancy (equal by construction): {occupancy}")

print()
print("=" * 72)
print("2. Symbols, states, and co-occurrence counts for a coupled pair")
print("=" * 72)

mode = builtin_modes()[0]
data = simulate_var(mode, 5000, seed=42)
scheme5 = learn_partition(data, alphabet_size=5)
sym = symbolize(data, scheme5)
states = states_from_symbols(sym, 5, depth=1)

# channel 1 drives channel 4 in this mode (edge 2->5 in display numbering)
coupled = count_matrix(states[:, 1], 5, sym[:, 4], 5, lag=1)
shuffled_target = sym[:, 4].copy()
rng.shuffle(shuffled_target)
decoupled = count_matrix(states[:, 1], 5, shuffled_target, 5, lag=1)
print("counts for the driven pair (rows: driver states, cols: target symbols):")
print(coupled)
print("same pair with the target shuffled in time - the ridge disappears:")
print(decoupled)

print()
print("=" * 72)
print("3. The log inference metric reacts to broken structure")
print("=" * 72)

model_counts = coupled
fresh = simulate_var(mode, 1200 + 1, seed=7)
fsym = symbolize(fresh, scheme5)
fstates = states_from_symbols(fsym, 5, depth=1)
window_nominal = count_matrix(fstates[:, 1], 5, fsym[:, 4], 5, lag=1)

shuffled = fsym[:, 4].copy()
rng.shuffle(shuffled)  # destroys the temporal relation, keeps the marginal
window_broken = count_matrix(fstates[:, 1], 5, shuffled, 5, lag=1)

lnl_nominal = log_inference_metric(model_counts, window_nominal)
lnl_broken = log_inference_metric(model_counts, window_broken)
print(f"ln-metric, nominal window : {lnl_nominal:10.2f}")
print(f"ln-metric, shuffled target: {lnl_broken:10.2f}")
print(f"drop caused by the break  : {lnl_nominal - lnl_broken:10.2f}")

print()
print("=" * 72)
print("4. Two-state anomaly construction: the drop grows with the change count")
print("=" * 72)

print("  eta   delta(ln metric)")
model, nominal, _ = two_state_counts(24, 12, k=10, eta=1)
lnl_nom = log_inference_metric(model, nominal)
for eta in range(1, 6):
    _, _, anomalous = two_state_counts(24, 12, k=10, eta=eta)
    delta = lnl_nom - log_inference_metric(model, anomalous)
    print(f"  {eta}     {delta:8.4f}")
print("positive and strictly increasing, as the monotonicity suite checks.")
