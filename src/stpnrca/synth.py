"""Synthetic benchmark: autoregressive simulation, faults, and a VAR baseline.

A causal graph is a lag-indexed coefficient tensor driving a vector
autoregression with Gaussian white noise. Six built-in 5-node graphs serve
as nominal operating modes; faults either break specific edges (re-simulate
with those coefficients zeroed) or delay one channel's readings, which
severs most observed causality to and from that channel. Ordinary least
squares fits recover coefficient tensors from data, and differencing the
nominal and anomalous fits yields the baseline root-cause method.

Simulation writes the autoregression in companion form, s_t = C s_{t-1} +
E_t, and runs it as a prefix scan over affine maps (Blelloch, *Prefix sums
and their applications*, 1990): doubling steps within blocks of samples,
then each block's last state carried into the next with the powers of C.
That is a few GEMMs per block instead of one Python step per sample; the
block length follows the state's size f*p (see `simulate_var`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import DataError, NumericalError
from .stpn import pattern_index
from .timeseries import TimeSeries

# Documented coefficient table for the built-in 5-node modes. Every channel
# keeps memory of itself at SELF_COEFF. The five BREAKABLE_EDGES (the fault
# suite's targets, forming the cycle 1->2->5->1 plus the chain 2->3->4) are
# present in every mode at BREAKABLE_COEFF, so their loss is abnormal in all
# modes. Each channel also has a persistent second input at SUPPORT_COEFF,
# except in one "lean" mode per channel, which keeps the post-break marginal
# of a channel inside the nominal envelope; one extra edge per mode (same
# coefficient) adds a "rich" variant. Modes therefore share the breakable
# backbone but differ in their support edges, which is what lets a broken
# pattern be localized without flagging its collateral.
SELF_COEFF = 0.45
BREAKABLE_COEFF = 0.2
SUPPORT_COEFF = 0.25
CROSS_COEFF = SUPPORT_COEFF  # default for random graphs
NOISE_STD = 0.1

BREAKABLE_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1), (1, 4), (4, 0), (1, 2), (2, 3),
)
SUPPORT_EDGES: tuple[tuple[int, int], ...] = (
    (3, 1), (3, 4), (2, 0), (4, 2), (0, 3),
)
# Per mode: the support edge it drops and the extra edge it adds. Mode 1 is
# the base graph; mode 3's extra 3->2 closes the 2-cycle 2->3->2, and the
# persistent 1->2->3->1 cycle comes from breakable (0,1), (1,2) plus support
# (2,0).
MODE_DROPPED: tuple[tuple[tuple[int, int], ...], ...] = (
    (), ((3, 1),), ((3, 4),), ((2, 0),), ((4, 2),), ((0, 3),),
)
MODE_EXTRAS: tuple[tuple[tuple[int, int], ...], ...] = (
    (), ((1, 3),), ((2, 1),), ((4, 3),), ((0, 4),), ((1, 0),),
)


@dataclass(frozen=True, eq=False)
class CausalGraph:
    """Lagged coefficient tensor (p, f, f) plus per-channel noise levels.

    ``coeffs[k, i, j]`` is the influence of channel j on channel i at lag
    k+1. The companion-matrix spectral radius must stay below 1.
    """

    coeffs: np.ndarray = field(repr=False)
    noise_std: np.ndarray = field(repr=False)

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 3 or coeffs.shape[1] != coeffs.shape[2]:
            raise DataError(f"coeffs must be (p, f, f), got {coeffs.shape}")
        noise = np.asarray(self.noise_std, dtype=float)
        if noise.shape != (coeffs.shape[1],):
            raise DataError("noise_std must have one entry per channel")
        if np.any(noise <= 0):
            raise DataError("noise_std must be positive")
        coeffs.setflags(write=False)
        noise.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "noise_std", noise)
        radius = self.spectral_radius()
        if radius >= 1.0:
            raise DataError(f"unstable graph: companion spectral radius {radius:.3f}")

    @property
    def n_channels(self) -> int:
        return self.coeffs.shape[1]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f"x{i + 1}" for i in range(self.n_channels))

    @property
    def n_lags(self) -> int:
        return self.coeffs.shape[0]

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(_companion(self.coeffs)))))

    def edges(self) -> tuple[tuple[int, int], ...]:
        """(source, target) pairs with a nonzero coefficient at any lag."""
        nonzero = np.any(self.coeffs != 0.0, axis=0)
        return tuple(
            (j, i) for i in range(self.n_channels) for j in range(self.n_channels)
            if nonzero[i, j]
        )


@dataclass(frozen=True)
class FaultSpec:
    """Either break listed edges or delay one channel's readings."""

    kind: str  # "pattern_break" or "node_delay"
    edges: tuple[tuple[int, int], ...] = ()
    node: int = -1
    delay: int = 0

    def __post_init__(self):
        if self.kind == "pattern_break":
            if not self.edges:
                raise DataError("pattern_break needs at least one edge")
        elif self.kind == "node_delay":
            if self.node < 0:
                raise DataError("node_delay needs a node index")
            if self.delay < 1:
                raise DataError("delay must be >= 1")
        else:
            raise DataError(f"unknown fault kind {self.kind!r}")


def _companion(coeffs: np.ndarray) -> np.ndarray:
    """The (p*f, p*f) matrix C of the state recursion s_t = C s_{t-1} + E_t.

    The state s_t stacks y_t, ..., y_{t-p+1}: C's first f rows hold the lag
    coefficients side by side, and the identity below them shifts each lag
    one slot down.
    """
    p, f, _ = coeffs.shape
    companion = np.zeros((p * f, p * f))
    companion[:f] = coeffs.transpose(1, 0, 2).reshape(f, p * f)
    if p > 1:
        companion[f:, : (p - 1) * f] = np.eye((p - 1) * f)
    return companion


# The scan's block length B is the largest power of two up to MAX_BLOCK
# with B * (f*p)**2 <= BLOCK_WORK; see simulate_var for the measurements.
# Blocks go through the scan in chunks whose carry product takes at most
# CHUNK_WORK multiply-adds. That bounds the scan's temporaries, and keeps
# each GEMM at or under the size above which OpenBLAS splits one across
# threads (m*n*k > 65536 * 4), so values do not depend on the BLAS thread
# count. Past f*p = 64 the powers of C are larger products (they agreed
# at 1 and 2 threads at f = 70, 100 and 140).
MAX_BLOCK = 64
BLOCK_WORK = 2**15
CHUNK_WORK = 2**18


def _block_length(n: int) -> int:
    """Samples per scan block for a state of n = f*p values."""
    block = MAX_BLOCK
    while block > 1 and block * n * n > BLOCK_WORK:
        block //= 2
    return block


def _simulate(coeffs: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """y_t = noise_t + sum_k coeffs[k] @ y_{t-k-1} from a zero state.

    Returns one row of y per row of `noise`, which is left as it is. The
    recursion runs as a blocked prefix scan of s_t = C s_{t-1} + E_t, with
    E_t the noise row padded with zeros to the state's length:

    1. Within every block of B samples, log2(B) doubling steps
       (z[j] += P z[j - s], then P = P @ P, for s = 1, 2, 4, ...) turn the
       noise into each block's states from a zero start.
    2. Each block's last state then takes the true state before the block,
       times C^B, one block after the other.
    3. The other states of the block take that incoming state times
       C^(j+1), in one product for all positions j.

    Steps 1 and 3 are GEMMs over many blocks at once; step 2 is one
    matrix-vector product per block. Chunks of blocks go through all three
    in turn, so no temporary is larger than a chunk.
    """
    total, f = noise.shape
    companion = _companion(coeffs)
    n = companion.shape[0]
    block = _block_length(n)
    doublings, span = [companion], 1
    while span < block:
        doublings.append(doublings[-1] @ doublings[-1])
        span *= 2
    top = doublings.pop()  # C^B
    powers = np.empty((block - 1, n, n))  # C^(j+1) for positions j = 0 .. B-2
    for j in range(block - 1):
        powers[j] = companion if j == 0 else powers[j - 1] @ companion
    lower = powers.transpose(2, 0, 1).reshape(n, (block - 1) * n)
    z = np.zeros((-(-total // block), block, n))
    z.reshape(-1, n)[:total, :f] = noise
    carry = np.zeros(n)
    # at B = 1 there is no carry product, and one chunk holds every block
    chunk_blocks = max(1, CHUNK_WORK // max(1, (block - 1) * n * n))
    for start in range(0, z.shape[0], chunk_blocks):
        chunk = z[start : start + chunk_blocks]
        span = 1
        for power in doublings:
            chunk[:, span:] += chunk[:, :-span] @ power.T
            span *= 2
        last = chunk[:, -1]
        last[0] += top @ carry
        for prev, row in zip(last[:-1], last[1:]):
            row += top @ prev
        incoming = np.vstack((carry, last[:-1]))
        chunk[:, :-1] += (incoming @ lower).reshape(len(chunk), block - 1, n)
        carry = last[-1]
    return z.reshape(-1, n)[:total, :f]


def simulate_var(g: CausalGraph, T: int, seed: int = 0) -> TimeSeries:
    """Draw T samples from the autoregression after a 10*p burn-in.

    Noise is zero-mean Gaussian per channel; the initial state is zero and
    the first 10*p samples are discarded. Deterministic per seed.

    The recursion runs as a blocked prefix scan over the companion matrix
    (`_simulate`), in blocks of B samples. The doubling steps cost log2(B)
    GEMM passes over the series, each growing with (f*p)**2, and the carry
    one Python step per block, so B falls as f*p grows: B = 64 up to
    f*p = 22, then B halves each time (f*p)**2 doubles, down to 1 from
    f*p = 129, where the scan is one matrix-vector product per sample, the
    work of a per-sample loop. Against that loop, with one BLAS thread on a
    2-core x86_64 box, it was about 9 times faster at f = 5 (T = 96,000,
    B = 64), 1.6 to 1.9 times at f = 52 (B = 8) and no slower at f = 200
    (B = 1). The noise stream is the one earlier releases drew, but the scan
    sums in another order, so values differ from theirs by about one unit in
    the last place.
    """
    p = g.n_lags
    if T < 10 * p:
        raise DataError(f"T={T} shorter than 10*p={10 * p}")
    rng = np.random.default_rng(seed)
    burn = 10 * p
    noise = rng.normal(0.0, 1.0, size=(T + burn, g.n_channels))
    noise *= g.noise_std
    values = _simulate(g.coeffs, noise)[burn:]
    return TimeSeries(g.names, np.ascontiguousarray(values))


def _stabilized(coeffs: np.ndarray, noise: np.ndarray) -> CausalGraph:
    """Uniformly scale coefficients down until the graph is stationary."""
    coeffs = np.asarray(coeffs, dtype=float)
    for _ in range(60):
        try:
            return CausalGraph(coeffs, noise)
        except DataError:
            coeffs = coeffs * 0.9
    raise NumericalError("could not stabilize the coefficient tensor")


def builtin_modes() -> tuple[CausalGraph, ...]:
    """The six 5-node nominal operating modes (documented constants above)."""
    modes = []
    for dropped, extras in zip(MODE_DROPPED, MODE_EXTRAS):
        coeffs = np.zeros((1, 5, 5))
        coeffs[0, np.arange(5), np.arange(5)] = SELF_COEFF
        for src, dst in BREAKABLE_EDGES:
            coeffs[0, dst, src] = BREAKABLE_COEFF
        for src, dst in SUPPORT_EDGES:
            if (src, dst) not in dropped:
                coeffs[0, dst, src] = SUPPORT_COEFF
        for src, dst in extras:
            coeffs[0, dst, src] = SUPPORT_COEFF
        modes.append(_stabilized(coeffs, np.full(5, NOISE_STD)))
    return tuple(modes)


def random_graph(
    n_nodes: int,
    n_edges: int | None = None,
    seed: int = 0,
    cross_coeff: float = CROSS_COEFF,
    self_coeff: float = SELF_COEFF,
    noise_std: float | tuple[float, float] = NOISE_STD,
) -> CausalGraph:
    """Seeded random stationary graph for scaled-up node-fault benchmarks.

    `noise_std` may be a (low, high) pair, in which case per-channel noise
    levels are drawn log-uniformly from that range — heterogeneous scales
    are what make larger systems hard for coefficient-difference baselines.
    """
    if n_nodes < 2:
        raise DataError("need at least 2 nodes")
    rng = np.random.default_rng(seed)
    n_edges = n_edges if n_edges is not None else n_nodes
    pairs = [(i, j) for i in range(n_nodes) for j in range(n_nodes) if i != j]
    chosen = rng.choice(len(pairs), size=min(n_edges, len(pairs)), replace=False)
    coeffs = np.zeros((1, n_nodes, n_nodes))
    coeffs[0, np.arange(n_nodes), np.arange(n_nodes)] = self_coeff
    for c in chosen:
        src, dst = pairs[c]
        coeffs[0, dst, src] = cross_coeff
    if isinstance(noise_std, tuple):
        lo, hi = noise_std
        noise = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n_nodes))
    else:
        noise = np.full(n_nodes, float(noise_std))
    return _stabilized(coeffs, noise)


def _broken_graph(g: CausalGraph, edges: tuple[tuple[int, int], ...]) -> CausalGraph:
    """`g` with the listed (source, target) edges zeroed at every lag."""
    existing = set(g.edges())
    for src, dst in edges:
        if (src, dst) not in existing:
            raise DataError(f"edge {src}->{dst} not present in the graph")
    coeffs = g.coeffs.copy()
    for src, dst in edges:
        coeffs[:, dst, src] = 0.0
    return CausalGraph(coeffs, g.noise_std)


def inject_fault(
    g: CausalGraph, ts: TimeSeries, spec: FaultSpec, seed: int = 0
) -> TimeSeries:
    """Produce an anomalous series according to the fault spec.

    Breaking patterns re-simulates the graph with the listed coefficients
    zeroed (same length as `ts`, fresh seed); delaying a node shifts that
    channel's readings by `delay` samples, holding the initial value over
    the first `delay` positions.
    """
    if spec.kind == "pattern_break":
        return simulate_var(_broken_graph(g, spec.edges), ts.n_samples, seed=seed)
    if spec.node >= ts.n_channels:
        raise DataError(f"node {spec.node} out of range for f={ts.n_channels}")
    if spec.delay >= ts.n_samples:
        raise DataError("delay longer than the series")
    values = ts.values.copy()
    col = values[:, spec.node].copy()
    values[spec.delay :, spec.node] = col[: -spec.delay]
    values[: spec.delay, spec.node] = col[0]
    return TimeSeries(ts.names, values)


def simulate_case(
    graph: CausalGraph,
    spec: FaultSpec | None,
    n_samples: int,
    seed: int,
    case_id: str,
    mode: int = 0,
) -> tuple[TimeSeries, dict]:
    """One labelled synthetic case: its series and its ground-truth sidecar.

    Every case is one simulation from `seed`: of `graph` for a nominal case
    (`spec` None), of the broken graph for a pattern break, and of `graph`
    before the channel's readings are delayed for a node delay.
    """
    if spec is not None and spec.kind == "pattern_break":
        ts = simulate_var(_broken_graph(graph, spec.edges), n_samples, seed=seed)
        fault = {"kind": "pattern_break", "edges": [list(e) for e in spec.edges]}
        patterns = [pattern_index(src, dst, ts.n_channels) for src, dst in spec.edges]
        nodes = sorted({n for e in spec.edges for n in e})
    else:
        ts = simulate_var(graph, n_samples, seed=seed)
        fault, patterns, nodes = None, [], []
        if spec is not None:
            ts = inject_fault(graph, ts, spec, seed=seed)
            fault = {"kind": "node_delay", "node": spec.node, "delay": spec.delay}
            nodes = [spec.node]
    labels = {"case_id": case_id, "mode": mode, "channels": list(ts.names), "seed": seed,
              "fault": fault, "failed_patterns": patterns, "failed_nodes": nodes}
    return ts, labels


def pattern_fault_cases() -> tuple[tuple[tuple[int, int], ...], ...]:
    """The 30-case suite: all 1..4-edge subsets of the five breakable edges."""
    return tuple(c for size in (1, 2, 3, 4) for c in combinations(BREAKABLE_EDGES, size))


def var_fit(ts: TimeSeries, p: int = 1) -> np.ndarray:
    """Least-squares coefficient recovery; returns a (p, f, f) tensor."""
    if p < 1:
        raise DataError("lag order must be >= 1")
    T, f = ts.values.shape
    if T < 10 * f * p:
        raise DataError(f"need T >= 10*f*p = {10 * f * p}, got {T}")
    y = ts.values
    Y = y[p:]
    X = np.hstack([y[p - k - 1 : T - k - 1] for k in range(p)])
    B, _, rank, _ = np.linalg.lstsq(X, Y, rcond=None)
    if rank < f * p:
        raise NumericalError(f"rank-deficient regressor matrix (rank {rank} < {f * p})")
    coeffs = np.empty((p, f, f))
    for k in range(p):
        coeffs[k] = B[k * f : (k + 1) * f].T
    return coeffs


def var_rca_baseline(
    a_nom: np.ndarray, a_ano: np.ndarray, eta: float = 0.4
) -> list[int]:
    """Failed patterns from coefficient differences between two fits.

    A pattern j->i fails when its coefficient change exceeds `eta` times the
    largest change (max over lags when p > 1). Both fits must be (p, f, f)
    tensors of one shape, as `var_fit` returns them. All-zero differences
    yield an empty list with a warning.
    """
    a_nom = np.asarray(a_nom, dtype=float)
    a_ano = np.asarray(a_ano, dtype=float)
    if a_nom.shape != a_ano.shape:
        raise DataError(f"coefficient tensors must share a shape: {a_nom.shape} != {a_ano.shape}")
    if a_nom.ndim != 3 or a_nom.shape[1] != a_nom.shape[2] or 0 in a_nom.shape:
        raise DataError(f"coefficient tensors must be (p, f, f), got {a_nom.shape}")
    delta = np.max(np.abs(a_ano - a_nom), axis=0)
    peak = float(delta.max())
    if peak == 0.0:
        warnings.warn("identical coefficient tensors: threshold undefined")
        return []
    f = delta.shape[0]
    failed = [
        pattern_index(j, i, f)
        for i in range(f)
        for j in range(f)
        if delta[i, j] > eta * peak
    ]
    return sorted(failed)
