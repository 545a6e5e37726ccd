"""Monte Carlo simulation of finite flip processes.

Graphs live as one adjacency bitmask per vertex.  Each step samples an
ordered tuple of distinct vertices, reads the induced drawn graph, samples
a replacement from the rule row, and rewrites exactly the tuple's pairs;
identity rows touch nothing.

Randomness is fully pinned: run r of master seed s derives its own 64-bit
seed by an additive splitmix-style mix, which then seeds CPython's Mersenne
Twister.  Uniform integers come from a bit-rejection sampler on
getrandbits, so the draw sequence is independent of library version
details.  Equal seeds give bit-identical results.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .codes import CapExceeded, pair_list
from .dynamics import StepKernel, integrate

_STEP_BUDGET = 10_000_000
_MAX_N = 5000
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(x):
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def run_seed(master, index):
    """The 64-bit seed of run `index` under `master`: output `index` of the
    splitmix stream started at the master seed."""
    return _mix64((master + (index + 1) * _GAMMA) & _MASK64)


def _randbelow(rng, n):
    """Uniform integer in [0, n) by rejection on getrandbits."""
    if n <= 0:
        raise ValueError(f"need a positive bound, got {n}")
    bits = (n - 1).bit_length()
    if bits == 0:
        return 0
    while True:
        r = rng.getrandbits(bits)
        if r < n:
            return r


def _sample_tuple(rng, idx, k):
    """Ordered sample of k distinct entries via partial Fisher-Yates on a
    persistent index array (which stays a permutation between calls)."""
    n = len(idx)
    out = []
    for i in range(k):
        j = i + _randbelow(rng, n - i)
        idx[i], idx[j] = idx[j], idx[i]
        out.append(idx[i])
    return out


# ------------------------------------------------------------- configuration

@dataclass(frozen=True)
class SimConfig:
    """rule: the replacement rule to run.
    n: number of vertices (at least the rule order).
    initial: StepKernel to sample the start from, or an explicit edge list.
    horizon: rescaled time T; the run takes floor(T * n^2) steps.
    seed: 64-bit master seed.  runs: independent repetitions.
    sample_points: evenly spaced measurement times over (0, horizon]."""

    rule: object
    n: int
    initial: object
    horizon: float
    seed: int
    runs: int = 1
    sample_points: int = 10


@dataclass
class SimResult:
    times: tuple
    part_sizes: tuple
    samples: list  # samples[run][time_index] = block density matrix
    n: int
    seed: int
    reference: object = None  # matrices aligned with times, or None
    deviations: list = field(default_factory=list)  # [run][time_index]


# ------------------------------------------------------------- graph sampling

def part_sizes(weights, n):
    """Split n vertices across parts by largest remainder: exact quotas,
    floors first, leftovers to the largest fractional parts (ties to the
    earlier part)."""
    quotas = [
        (w if isinstance(w, Fraction) else Fraction(float(w))) * n
        for w in weights
    ]
    sizes = [int(q) for q in quotas]  # Fraction.__int__ floors toward zero
    leftover = n - sum(sizes)
    order = sorted(
        range(len(quotas)),
        key=lambda i: (-(quotas[i] - sizes[i]), i),
    )
    for i in order[:leftover]:
        sizes[i] += 1
    return tuple(sizes)


def sample_graph(kernel, n, rng):
    """A graph on n vertices from the kernel: vertices split into contiguous
    parts, each pair an independent coin with its block's probability.
    Returns (adjacency rows, part index per vertex, part sizes)."""
    sizes = part_sizes(kernel.weights, n)
    part_of = []
    for i, s in enumerate(sizes):
        part_of.extend([i] * s)
    vals = [[float(v) for v in row] for row in kernel.values]
    adj = [0] * n
    for u in range(n):
        pu = part_of[u]
        row = vals[pu]
        for v in range(u + 1, n):
            if rng.random() < row[part_of[v]]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj, part_of, sizes


def _graph_from_edges(edges, n):
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad edge ({u}, {v}) on {n} vertices")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


# ------------------------------------------------------------------- stepping

def _compile_rows(rule):
    """Row f -> (cumulative probabilities, replacement codes), floats with
    the final cumulative pinned to 1."""
    compiled = {}
    for f, row in rule.rows().items():
        hs = sorted(row)
        cums = []
        acc = Fraction(0)
        for h in hs:
            acc += row[h]
            cums.append(float(acc))
        cums[-1] = max(cums[-1], 1.0)
        compiled[f] = (cums, hs)
    return compiled


def step(adj, rule, rng, compiled=None, idx=None):
    """One flip step, in place.  Samples the ordered tuple, reads the drawn
    graph off the adjacency rows, replaces it by a row sample, and toggles
    exactly the pairs that changed.  Returns the sampled tuple."""
    n = len(adj)
    k = rule.order
    if n < k:
        raise ValueError(f"need at least {k} vertices, got {n}")
    if compiled is None:
        compiled = _compile_rows(rule)
    if idx is None:
        idx = list(range(n))
    tup = _sample_tuple(rng, idx, k)
    pairs = pair_list(k)
    f_bits = 0
    for p_idx, (i, j) in enumerate(pairs):
        if adj[tup[i - 1]] >> tup[j - 1] & 1:
            f_bits |= 1 << p_idx
    row = compiled.get(f_bits)
    if row is None:
        return tup
    cums, hs = row
    h_bits = hs[bisect_right(cums, rng.random())]
    toggle = f_bits ^ h_bits
    while toggle:
        low = toggle & -toggle
        i, j = pairs[low.bit_length() - 1]
        u, v = tup[i - 1], tup[j - 1]
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        toggle ^= low
    return tup


# ----------------------------------------------------------------- densities

def block_densities(adj, sizes):
    """Within- and cross-part edge densities as a symmetric matrix."""
    n = len(adj)
    masks = []
    start = 0
    bounds = []
    for s in sizes:
        mask = ((1 << s) - 1) << start
        masks.append(mask)
        bounds.append((start, start + s))
        start += s
    m = len(sizes)
    out = [[0.0] * m for _ in range(m)]
    for i in range(m):
        lo, hi = bounds[i]
        for j in range(i, m):
            count = sum((adj[u] & masks[j]).bit_count() for u in range(lo, hi))
            if i == j:
                count //= 2
                denom = sizes[i] * (sizes[i] - 1) // 2
            else:
                denom = sizes[i] * sizes[j]
            d = count / denom if denom else 0.0
            out[i][j] = d
            out[j][i] = d
    return tuple(tuple(row) for row in out)


# ----------------------------------------------------------------------- runs

def _sample_times(horizon, points):
    if horizon == 0:
        return (0.0,)
    return tuple(horizon * q / points for q in range(1, points + 1))


def run(config, reference=None):
    """Simulate config.runs independent processes and record block densities
    at the sample times.  reference, when given, must map each sample time
    to a kernel on the same parts; per-run absolute deviations are filled in.
    Beyond 5,000 vertices or 10,000,000 steps over all runs, CapExceeded
    before the first step.
    """
    rule = config.rule
    n = config.n
    if n < rule.order:
        raise ValueError(
            f"n = {n} is below the rule order {rule.order}; a step cannot "
            f"sample enough distinct vertices"
        )
    if n > _MAX_N:
        raise CapExceeded(
            f"n = {n} exceeds the maximum {_MAX_N} "
            f"(adjacency storage grows quadratically)"
        )
    if config.horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {config.horizon}")
    if config.runs < 1:
        raise ValueError(f"runs must be positive, got {config.runs}")
    times = _sample_times(config.horizon, config.sample_points)
    targets = [int(t * n * n + 1e-9) for t in times]
    total_steps = max(targets) if targets else 0
    if config.runs * total_steps > _STEP_BUDGET:
        raise CapExceeded(
            f"{config.runs} runs of {total_steps} steps exceed the step "
            f"budget of {_STEP_BUDGET}; shorten the horizon or run fewer"
        )

    from_kernel = isinstance(config.initial, StepKernel)
    if from_kernel:
        sizes = part_sizes(config.initial.weights, n)
    else:
        sizes = (n,)

    compiled = _compile_rows(rule)

    ref_mats = None
    if reference is not None:
        ref_mats = [
            tuple(tuple(float(v) for v in row) for row in reference(t).values)
            for t in times
        ]

    result = SimResult(
        times=times, part_sizes=sizes, samples=[], n=n, seed=config.seed,
        reference=ref_mats,
    )
    for r in range(config.runs):
        rng = Random(run_seed(config.seed, r))
        if from_kernel:
            adj, _, _ = sample_graph(config.initial, n, rng)
        else:
            adj = _graph_from_edges(config.initial, n)
        idx = list(range(n))
        snapshots = []
        done = 0
        for target in targets:
            for _ in range(target - done):
                step(adj, rule, rng, compiled, idx)
            done = target
            snapshots.append(block_densities(adj, sizes))
        result.samples.append(snapshots)
        if ref_mats is not None:
            result.deviations.append([
                max(
                    abs(snap[i][j] - ref[i][j])
                    for i in range(len(sizes))
                    for j in range(i, len(sizes))
                )
                for snap, ref in zip(snapshots, ref_mats)
            ])
    return result


def result_to_csv(result):
    """One row per (run, time, block): run,t,block_i,block_j,density,
    reference,abs_dev.  Reference columns are empty without a reference."""
    lines = ["run,t,block_i,block_j,density,reference,abs_dev"]
    m = len(result.part_sizes)
    for r, snapshots in enumerate(result.samples):
        for q, snap in enumerate(snapshots):
            t = result.times[q]
            for i in range(m):
                for j in range(i, m):
                    d = snap[i][j]
                    if result.reference is None:
                        ref = dev = ""
                    else:
                        rv = result.reference[q][i][j]
                        ref = repr(rv)
                        dev = repr(abs(d - rv))
                    lines.append(
                        f"{r},{repr(float(t))},{i + 1},{j + 1},{repr(d)},{ref},{dev}"
                    )
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- transference

def transference_check(rule, n, start, horizon, eps, seed, runs=5,
                       points=10, cap=None):
    """Desk-scale check that the finite process tracks the integrated
    trajectory: at `points` evenly spaced times, each run's maximum block
    deviation from the reference must stay within eps.  The overall verdict
    passes when at least 80% of runs pass every time (an empirical
    convention at these sizes; individual runs are reported).  The
    reference trajectory is held to the enumeration cap `cap`."""
    if points < 10:
        raise ValueError(f"need at least 10 sample times, got {points}")
    if not isinstance(start, StepKernel):
        raise ValueError("transference check needs a step-kernel start")
    if eps <= 0:
        raise ValueError(f"tolerance must be positive, got {eps}")
    trajectory = integrate(rule, start, horizon, cap=cap)
    config = SimConfig(
        rule=rule, n=n, initial=start, horizon=horizon, seed=seed,
        runs=runs, sample_points=points,
    )
    result = run(config, reference=trajectory.nearest_state)
    per_run = []
    passing = 0
    for r, devs in enumerate(result.deviations):
        ok = all(d <= eps for d in devs)
        passing += ok
        per_run.append({
            "run": r,
            "max_dev": max(devs),
            "pass": bool(ok),
            "deviations": list(devs),
        })
    report = {
        "rule_order": rule.order,
        "n": n,
        "horizon": horizon,
        "tolerance": eps,
        "seed": seed,
        "times": list(result.times),
        "runs": runs,
        "runs_passing": passing,
        "pass": bool(passing >= math.ceil(0.8 * runs)),
        "per_run": per_run,
        "note": (
            "pass requires at least 80% of runs within tolerance at every "
            "sample time; desk-scale empirical convention"
        ),
    }
    return report, result
