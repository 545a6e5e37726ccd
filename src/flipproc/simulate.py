"""Monte Carlo simulation of finite flip processes.

A run keeps its graph as one n x n uint8 matrix holding the upper triangle:
entry [u, v] with u < v is 1 for an edge.  Each step samples an ordered
tuple of distinct vertices, reads the induced drawn graph, samples a
replacement from the rule row, and rewrites exactly the tuple's pairs;
identity rows touch nothing.

Steps run in batches.  Every step of a batch reads its drawn graph from the
matrix as it stands, and the batch commits, with one XOR per toggled pair,
the longest prefix in which no step reads a pair that an earlier step of the
prefix toggles.  The committed steps toggle disjoint pairs that none of them
reads after it is toggled, so they commute, and the result is exactly that
of applying the same draws one step at a time.  The next round starts at the
first step left out, with its draws.  A batch holds at most _BATCH = 512
steps and ends at the next sample time.

Randomness is fully pinned: run r of master seed s derives its own 64-bit
seed by an additive splitmix-style mix, which then seeds CPython's Mersenne
Twister.  All draws are raw 32-bit outputs of that generator, taken in
order with getrandbits:
- the start graph takes two words per pair, in row-major order over the
  pairs u < v, and puts an edge where the 53-bit double they make, the
  value random() would return, is below the pair's block value;
- a batch of c steps then takes c integers below n, then c below n - 1, and
  so on for the k tuple positions, and then c uniforms of two words each,
  one per step, active or not.  An integer below m is the top
  b = bit_length(m - 1) bits of a word, when they are below m: a round that
  still needs r integers takes r * 2^b // m + 32 words and keeps the first r
  accepted ones;
- tuple position i takes the r-th smallest vertex not taken by the earlier
  positions, r being its integer below n - i.
Equal seeds give bit-identical results.
"""

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from random import Random

import numpy as np

from .codes import _check_budget, num_pairs, pair_list
from .dynamics import StepKernel, integrate
from .rules import entry_codes, entry_numerators, row_codes

_STEP_BUDGET = 10_000_000
_MAX_N = 5000
_BATCH = 512  # steps drawn at once; the draws depend on it
_BLOCK = 1 << 12  # pair entries per block of sampling and row conversion
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


# ------------------------------------------------------------------ word draws

def _words(rng, c):
    """The next c 32-bit outputs of rng's Mersenne Twister, in order."""
    return np.frombuffer(rng.getrandbits(32 * c).to_bytes(4 * c, "little"), "<u4")


def _uniforms(rng, c):
    """c doubles, each equal to what one rng.random() call would return."""
    w = _words(rng, 2 * c)
    a = (w[0::2] >> np.uint32(5)).astype(np.float64)
    b = (w[1::2] >> np.uint32(6)).astype(np.float64)
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)


def _below(rng, m, c):
    """c integers uniform in [0, m), by bit rejection on raw words.  A round
    that still needs r integers draws r * 2^bits // m + 32 words and keeps
    the first r accepted ones."""
    bits = (m - 1).bit_length()
    out = np.zeros(c, np.int64)
    if bits == 0:
        return out
    have = 0
    while have < c:
        need = c - have
        v = _words(rng, (need << bits) // m + 32) >> np.uint32(32 - bits)
        v = v[v < m][:need]
        out[have:have + len(v)] = v
        have += len(v)
    return out


def _draw(rng, n, k, c):
    """The draws of c steps: (c, k) ordered tuples of distinct vertices and
    c uniforms."""
    tup = np.empty((c, k), np.int64)
    for i in range(k):
        v = _below(rng, n - i, c)
        taken = np.sort(tup[:, :i], axis=1)
        for j in range(i):
            v += taken[:, j] <= v
        tup[:, i] = v
    return tup, _uniforms(rng, c)


# ------------------------------------------------------------- configuration

@dataclass(frozen=True)
class SimConfig:
    """rule: the replacement rule to run.
    n: number of vertices (at least the rule order).
    initial: StepKernel to sample the start from, or an explicit edge list.
    horizon: rescaled time T; the run takes floor(T * n^2) steps.
    seed: 64-bit master seed.  runs: independent repetitions.
    sample_points: evenly spaced measurement times over (0, horizon].
    runs and sample_points are positive integers."""

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


def _sample_matrix(kernel, sizes, rng):
    """The start graph from the kernel on parts of the given sizes, as an
    upper-triangle matrix, drawn block of rows by block of rows."""
    n = sum(sizes)
    vals = np.array([[float(v) for v in row] for row in kernel.values])
    part = np.repeat(np.arange(len(sizes)), sizes)
    cols = np.arange(n)
    adj = np.zeros((n, n), np.uint8)
    rows = max(1, _BLOCK // max(n, 1))
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        upper = cols > np.arange(lo, hi)[:, None]
        probs = vals[part[lo:hi, None], part][upper]
        adj[lo:hi][upper] = _uniforms(rng, len(probs)) < probs
    return adj


def sample_graph(kernel, n, rng):
    """A graph on n vertices from the kernel: vertices split into contiguous
    parts, each pair an independent coin with its block's probability.
    Returns (adjacency rows, part index per vertex, part sizes)."""
    sizes = part_sizes(kernel.weights, n)
    part_of = [i for i, s in enumerate(sizes) for _ in range(s)]
    return _rows(_sample_matrix(kernel, sizes, rng)), part_of, sizes


def _rows(adj):
    """Adjacency bitmask rows of an upper-triangle matrix."""
    n = len(adj)
    out = []
    rows = max(1, _BLOCK // max(n, 1))
    for lo in range(0, n, rows):
        full = adj[lo:lo + rows] | adj[:, lo:lo + rows].T
        packed = np.packbits(full, axis=1, bitorder="little")
        out.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return out


def _matrix(rows):
    """The upper-triangle matrix of adjacency bitmask rows; bits at or
    beyond the row count are ignored."""
    n = len(rows)
    width = (n + 7) // 8
    mask = (1 << n) - 1
    packed = np.frombuffer(
        b"".join((r & mask).to_bytes(width, "little") for r in rows), np.uint8
    ).reshape(n, width)
    return np.triu(np.unpackbits(packed, axis=1, count=n, bitorder="little"), 1)


def _graph_from_edges(edges, n):
    adj = np.zeros((n, n), np.uint8)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad edge ({u}, {v}) on {n} vertices")
        adj[min(u, v), max(u, v)] = 1
    return adj


# ------------------------------------------------------------------- stepping

class _Engine:
    """A rule compiled for batched steps: the tuple positions of each pair,
    and the explicit rows as sorted codes with their cumulatives and
    replacements laid end to end, read off the rule's own arrays.  A
    cumulative is the exact prefix sum of a row's numerators over the
    denominator, rounded once to a float; the last of each row is pinned
    to at least 1."""

    def __init__(self, rule):
        self.k = rule.order
        pairs = pair_list(self.k)
        self.first = np.array([i - 1 for i, _ in pairs], np.int64)
        self.second = np.array([j - 1 for _, j in pairs], np.int64)
        self.bits = np.arange(len(pairs), dtype=np.int64)
        self.weights = np.left_shift(1, self.bits)
        self.hs = entry_codes(rule)[1]  # ValueError for codes past int64
        self.codes = row_codes(rule)
        self.starts = rule._starts.astype(np.int64)
        self.widths = np.diff(self.starts, append=len(self.hs))
        denom, nums = entry_numerators(rule)
        nums = nums.tolist()
        bounds = self.starts.tolist() + [len(nums)]
        cums = []
        for lo, hi in zip(bounds, bounds[1:]):
            # int / int rounds the exact quotient once, as float(Fraction)
            cums.extend(acc / denom for acc in accumulate(nums[lo:hi]))
            cums[-1] = max(cums[-1], 1.0)
        self.cums = np.array(cums, np.float64)
        # halvings that narrow the widest row to one entry
        self.depth = (int(self.widths.max(initial=1)) - 1).bit_length()

    def replacements(self, f, u):
        """The replacement of drawn graph f at uniform u, step by step: f on
        identity rows, else the entry bisect_right(cums, u) of f's row."""
        h = f.copy()
        if not len(self.codes):
            return h
        r = np.searchsorted(self.codes, f)
        hit = self.codes[np.minimum(r, len(self.codes) - 1)] == f
        r = r[hit]
        # least entry of the row with cumulative > u; the last is 1.0 > u
        lo = self.starts[r]
        if self.depth:
            u = u[hit]
            hi = lo + self.widths[r] - 1
            for _ in range(self.depth):
                mid = (lo + hi) >> 1
                above = self.cums[mid] > u
                hi = np.where(above, mid, hi)
                lo = np.where(above, lo, mid + 1)
        h[hit] = self.hs[lo]
        return h

    def commit(self, adj, tup, unif):
        """Applies the steps of one batch to the upper-triangle matrix adj,
        exactly as one at a time, by rounds of conflict-free prefixes."""
        n = len(adj)
        flat = adj.reshape(-1)
        a, b = tup[:, self.first], tup[:, self.second]
        pids = np.minimum(a, b) * n + np.maximum(a, b)
        # sort keys (pair, step, write) with the write bit left clear
        span = 2 * len(tup)
        keys = pids * span + 2 * np.arange(len(tup))[:, None]
        s = 0
        while s < len(tup):
            pid = pids[s:]
            f = flat[pid] @ self.weights
            toggle = f ^ self.replacements(f, unif[s:])
            stop = len(pid)
            if toggle.any():
                writes = (toggle[:, None] >> self.bits) & 1
                # a step reads a pair toggled earlier in the round iff its
                # entry follows a write of the same pair in key order
                key = np.sort((keys[s:] | writes).ravel())
                pair = key // span
                late = (pair[1:] == pair[:-1]) & (key[:-1] & 1 == 1)
                if late.any():
                    stop = int((key[1:][late] % span).min()) // 2 - s
                flat[pid[:stop][writes[:stop] == 1]] ^= 1
            s += stop


def _advance(adj, engine, rng, count):
    """count steps on the upper-triangle matrix adj, in batches of at most
    _BATCH steps drawn from rng."""
    while count:
        c = min(_BATCH, count)
        engine.commit(adj, *_draw(rng, len(adj), engine.k, c))
        count -= c


# ----------------------------------------------------------------- densities

def _densities(adj, sizes):
    """Block edge densities of an upper-triangle matrix, Python floats."""
    bounds = [0, *accumulate(sizes)]
    m = len(sizes)
    out = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            count = int(np.count_nonzero(
                adj[bounds[i]:bounds[i + 1], bounds[j]:bounds[j + 1]]
            ))
            if i == j:
                denom = sizes[i] * (sizes[i] - 1) // 2
            else:
                denom = sizes[i] * sizes[j]
            d = count / denom if denom else 0.0
            out[i][j] = d
            out[j][i] = d
    return tuple(tuple(row) for row in out)


def block_densities(adj, sizes):
    """Within- and cross-part edge densities as a symmetric matrix."""
    return _densities(_matrix(adj), sizes)


# ----------------------------------------------------------------------- runs

def _sample_times(horizon, points):
    if horizon == 0:
        return (0.0,)
    return tuple(horizon * q / points for q in range(1, points + 1))


def _check_count(name, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")


def run(config, reference=None):
    """Simulate config.runs independent processes and record block densities
    at the sample times.  reference, when given, must map each sample time
    to a kernel on the same parts, else ValueError; per-run absolute
    deviations are filled in.  Beyond 5,000 vertices, 10,000,000 steps over
    all runs or rule order 11, CapExceeded before the first step.
    """
    rule = config.rule
    n = config.n
    if n < rule.order:
        raise ValueError(
            f"n = {n} is below the rule order {rule.order}; a step cannot "
            f"sample enough distinct vertices"
        )
    _check_budget(n, _MAX_N, "vertices")
    _check_budget(num_pairs(rule.order), 62,
                  f"pairs in the 62-bit code of a drawn order-{rule.order} graph")
    if not (math.isfinite(config.horizon) and config.horizon >= 0):
        raise ValueError(
            f"horizon must be finite and nonnegative, got {config.horizon}")
    _check_count("runs", config.runs)
    _check_count("sample_points", config.sample_points)
    times = _sample_times(config.horizon, config.sample_points)
    targets = [int(t * n * n + 1e-9) for t in times]
    _check_budget(config.runs * max(targets), _STEP_BUDGET,
                  f"steps of {config.runs} runs")

    from_kernel = isinstance(config.initial, StepKernel)
    if from_kernel:
        sizes = part_sizes(config.initial.weights, n)
    else:
        sizes = (n,)

    engine = _Engine(rule)

    ref_mats = None
    if reference is not None:
        ref_mats = [
            tuple(tuple(float(v) for v in row) for row in reference(t).values)
            for t in times
        ]
        if any(len(ref) != len(sizes) for ref in ref_mats):
            raise ValueError(f"reference kernels need the start's {len(sizes)} parts")

    result = SimResult(
        times=times, part_sizes=sizes, samples=[], n=n, seed=config.seed,
        reference=ref_mats,
    )
    for r in range(config.runs):
        rng = Random(run_seed(config.seed, r))
        if from_kernel:
            adj = _sample_matrix(config.initial, sizes, rng)
        else:
            adj = _graph_from_edges(config.initial, n)
        snapshots = []
        done = 0
        for target in targets:
            _advance(adj, engine, rng, target - done)
            done = target
            snapshots.append(_densities(adj, sizes))
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
