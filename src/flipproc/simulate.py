"""Monte Carlo simulation of finite flip processes.

A run keeps its graph as one n x n uint8 matrix holding the upper triangle:
entry [u, v] with u < v is 1 for an edge.  Each step samples an ordered
tuple of distinct vertices, reads the induced drawn graph, samples a
replacement from the rule row, and rewrites exactly the tuple's pairs;
identity rows touch nothing.

The runs of a configuration step in lockstep as one (R, n, n) stack, in
groups whose matrices and batch reads fit _STACK_BYTES (at n = 5000, one
run).  A batch takes at most _BATCH = 512 steps of each run, ends at the
next sample time, and sorts its pair reads once, so that each read knows
the previous read of its pair.  A step is owed when that previous reader
toggled the pair or is owed itself.  A round reads every pending step from
the stack as it stands and commits, with one XOR per toggled pair, every
step not owed: its reads are those of the one-step order, and no earlier
pending step reads a pair it toggles.  The owed steps are read again next
round, so the result is that of applying the same draws one at a time.

Randomness is fully pinned: run r of master seed s derives its own 64-bit
seed by an additive splitmix-style mix, which seeds CPython's Mersenne
Twister.  Its state is then loaded into numpy's MT19937, which continues
the same stream of 32-bit words (the same algorithm from the same state, so
a seed gives the same run on every numpy version), and every draw is taken
from that stream, in order.  A uniform is two words made into a 53-bit
double, the value random() would return; numpy's Generator.random() makes
the same double of the same two words.
- the start graph takes one uniform per pair, in row-major order over the
  pairs u < v, and puts an edge where it is below the pair's block value;
- a batch of c steps then takes c integers below n, then c below n - 1,
  and so on for the k tuple positions, and then c uniforms, one per step,
  active or not.  An integer below m is the top b = bit_length(m - 1) bits
  of a word, when they are below m: a round that still needs r integers
  takes r * 2^b // m + 32 words and keeps the first r accepted ones;
- tuple position i takes the r-th smallest vertex not taken by the earlier
  positions, r being its integer below n - i.
Equal seeds give bit-identical results, whatever the grouping of runs.
"""

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from random import Random

import numpy as np

from . import codes
from .codes import _check_budget, _is_int, _positive_int, pair_list
from .dynamics import _GRID_BUDGET, StepKernel, _kernel_arrays, integrate

_STEP_BUDGET = 10_000_000
_MAX_N = 5000
_BATCH = 512  # steps drawn at once; the draws depend on it
_STACK_BYTES = 1 << 23  # matrices and batch reads of the runs stepped at once
_READ_BYTES = 128  # working memory of one pair read in a batch, at most
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

def _twister(rng):
    """A numpy Generator on an MT19937 that continues rng's Mersenne
    Twister: the same words, and random() makes the same doubles."""
    # numpy.random costs about 10 ms and 6 MB to import; only runs pay it
    from numpy.random import MT19937, Generator

    internal = rng.getstate()[1]
    bits = MT19937(0)
    # a tuple key is copied in microseconds, an array in tens of them
    bits.state = {"bit_generator": "MT19937",
                  "state": {"key": internal[:-1], "pos": internal[-1]}}
    return Generator(bits)


def _below(gen, m, c):
    """c integers uniform in [0, m), by bit rejection on raw words.  A round
    that still needs r integers takes r * 2^bits // m + 32 words and keeps
    the first r accepted ones."""
    bits = (m - 1).bit_length()
    if bits == 0:
        return np.zeros(c, np.int64)
    parts = []
    while c:
        v = gen.bit_generator.random_raw((c << bits) // m + 32).astype(np.uint32)
        v >>= np.uint32(32 - bits)
        v = v[v < m][:c]
        parts.append(v)
        c -= len(v)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _draw(gens, n, k, c):
    """The draws of c steps of each run, run r's from the generator
    gens[r]: (runs * c, k) ordered tuples of distinct vertices and
    runs * c uniforms, run by run."""
    tup = np.empty((len(gens) * c, k), np.int64)
    taken = []  # the earlier positions' vertices, sorted step by step
    for i in range(k):
        v = np.concatenate([_below(gen, n - i, c) for gen in gens])
        for t in taken:
            v += t <= v
        tup[:, i] = v
        if i < k - 1:
            for j, t in enumerate(taken):
                taken[j], v = np.minimum(t, v), np.maximum(t, v)
            taken.append(v)
    return tup, np.concatenate([gen.random(c) for gen in gens])


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


def _sample_matrix(kernel, sizes, gen, adj):
    """Draws the start graph from the kernel on parts of the given sizes
    into the zeroed upper-triangle matrix adj, taking one uniform per pair
    from the generator gen in row-major order.  A block is
    codes.BLOCK_ELEMENTS // n whole rows of the n - 1 that hold pairs, at
    least one: row u meets part j in columns max(u + 1, start of j) to the
    end of j, so its probabilities are its part values repeated over those
    segment lengths."""
    n = sum(sizes)
    _, vals = _kernel_arrays(kernel)
    ends = np.cumsum(sizes)
    seg = ends - np.maximum(np.arange(1, n + 1)[:, None], ends - sizes)
    np.maximum(seg, 0, out=seg)
    row_vals = vals[np.repeat(np.arange(len(sizes)), sizes)]
    for rows in codes._blocks(n - 1, max(n, 1)):
        probs = np.repeat(row_vals[rows].ravel(), seg[rows].ravel())
        hits = (gen.random(len(probs)) < probs).view(np.uint8)
        at = 0
        for r in range(rows.start, rows.stop):
            adj[r, r + 1:] = hits[at:at + n - 1 - r]
            at += n - 1 - r
    return adj


def sample_graph(kernel, n, rng):
    """A graph on n vertices from the kernel: vertices split into contiguous
    parts, each pair an independent coin with its block's probability.
    Returns (adjacency rows, part index per vertex, part sizes); rng is
    left as if it had made the draws itself.  n is held to 5,000, as in run."""
    if not _is_int(n) or n < 0:
        raise ValueError(f"n must be an integer of at least 0, got {n!r}")
    n = int(n)
    _check_budget(n, _MAX_N, "vertices")
    sizes = part_sizes(kernel.weights, n)
    part_of = [i for i, s in enumerate(sizes) for _ in range(s)]
    gen = _twister(rng)
    adj = _sample_matrix(kernel, sizes, gen, np.zeros((n, n), np.uint8))
    state = gen.bit_generator.state["state"]
    version, _, gauss_next = rng.getstate()
    rng.setstate((version, (*state["key"].tolist(), state["pos"]), gauss_next))
    return _rows(adj), part_of, sizes


def _rows(adj):
    """Adjacency bitmask rows of an upper-triangle matrix."""
    n = len(adj)
    out = []
    for rows in codes._blocks(n, max(n, 1)):
        full = adj[rows] | adj[:, rows].T
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


def _graph_from_edges(edges, adj):
    """Marks the edge list in the zeroed upper-triangle matrix adj."""
    n = len(adj)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad edge ({u}, {v}) on {n} vertices")
        adj[min(u, v), max(u, v)] = 1


# ------------------------------------------------------------------- stepping

class _Engine:
    """A rule compiled for batched steps: the tuple positions of each pair,
    and the explicit rows as sorted codes with their cumulatives and
    replacements laid end to end, read off the rule's own arrays.  A
    cumulative is the exact prefix sum of a row's numerators over the
    denominator, rounded once to a float; the last of each row is
    denom / denom, exactly 1.0."""

    def __init__(self, rule):
        self.k = rule.order
        pairs = pair_list(self.k)
        self.first = np.array([i - 1 for i, _ in pairs], np.int64)
        self.second = np.array([j - 1 for _, j in pairs], np.int64)
        self.bits = np.arange(len(pairs), dtype=np.int64)
        self.weights = np.left_shift(1, self.bits)
        fs, self.hs = rule._f, rule._h
        self.codes = fs[rule._starts]
        self.starts = rule._starts.astype(np.int64)
        self.widths = np.diff(self.starts, append=len(self.hs))
        denom, nums = rule._denom, rule._nums.tolist()
        bounds = self.starts.tolist() + [len(nums)]
        cums = []
        for lo, hi in zip(bounds, bounds[1:]):
            # int / int rounds the exact quotient once, as float(Fraction)
            cums.extend(acc / denom for acc in accumulate(nums[lo:hi]))
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
        """Applies one batch to the stack adj, exactly as one step at a
        time; run r's steps are the r-th equal slice of the rows of tup."""
        runs, n = len(adj), adj.shape[-1]
        steps, p = len(tup), len(self.bits)
        flat = adj.reshape(-1)
        a, b = tup[:, self.first], tup[:, self.second]
        pids = np.minimum(a, b) * n + np.maximum(a, b)
        pids += np.arange(runs).repeat(steps // runs)[:, None] * (n * n)
        # reads by (pair, step, position): a read's previous reader of its
        # pair is the read just before it
        shift = (steps * p).bit_length()
        key = np.sort((pids << shift).ravel() | np.arange(steps * p))
        link = np.flatnonzero(np.diff(key >> shift) == 0)
        before, bit = np.divmod(key[link] & ((1 << shift) - 1), p)
        after = (key[link + 1] & ((1 << shift) - 1)) // p
        todo, toggles = np.arange(steps), np.zeros(steps, np.int64)
        while len(todo):
            rows = pids if len(todo) == steps else pids[todo]
            f = flat[rows] @ self.weights
            toggle = f ^ self.replacements(f, unif[todo])
            # owed: the previous reader of one of its pairs toggled it or
            # is owed itself; links from a committed reader are spent
            owed = np.zeros(steps, bool)
            if len(before):
                toggles[todo] = toggle
                grow = after[(toggles[before] >> bit) & 1 == 1]
                while len(grow):
                    owed[grow] = True
                    grow = after[owed[before] & ~owed[after]]
                keep = owed[before]
                after, before, bit = after[keep], before[keep], bit[keep]
            stay = owed[todo]
            go = np.flatnonzero(~stay & (toggle != 0))
            flat[rows[go][(toggle[go, None] >> self.bits) & 1 == 1]] ^= 1
            todo = todo[stay]


def _lockstep(adj, engine, gens, count):
    """count steps on every run of the stack adj, in batches of at most
    _BATCH steps per run, run r drawing from the generator gens[r]."""
    while count:
        c = min(_BATCH, count)
        engine.commit(adj, *_draw(gens, adj.shape[-1], engine.k, c))
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


def run(config, reference=None):
    """Simulate config.runs independent processes and record block densities
    at the sample times.  reference, when given, must map each sample time
    to a kernel on the start's parts (the same weights), else ValueError;
    per-run absolute deviations are filled in.  An n, runs or
    sample_points below 1 and a seed that is not an integer are
    ValueErrors.  Beyond 5,000 vertices, 10,000,000 steps over all runs or
    4,000,000 stored block densities (runs * sample points * parts^2),
    CapExceeded before the first step.
    """
    rule = config.rule
    n = _positive_int(config.n, "n")
    runs = _positive_int(config.runs, "runs")
    sample_points = _positive_int(config.sample_points, "sample_points")
    if not _is_int(config.seed):
        raise ValueError(f"seed must be an integer, got {config.seed!r}")
    seed = int(config.seed)
    if n < rule.order:
        raise ValueError(
            f"n = {n} is below the rule order {rule.order}; a step cannot "
            f"sample enough distinct vertices"
        )
    _check_budget(n, _MAX_N, "vertices")
    if not (math.isfinite(config.horizon) and config.horizon >= 0):
        raise ValueError(
            f"horizon must be finite and nonnegative, got {config.horizon}")
    from_kernel = isinstance(config.initial, StepKernel)
    weights = tuple(config.initial.weights) if from_kernel else (1,)
    # the block densities kept: a horizon of 0 samples the start only
    points = sample_points if config.horizon else 1
    _check_budget(runs * points * len(weights) ** 2, _GRID_BUDGET,
                  f"block densities stored by {runs} runs at {points} times")
    times = _sample_times(config.horizon, sample_points)
    ends = [t * n * n + 1e-9 for t in times]
    # int() refuses the infinite count of a huge horizon, so that is
    # checked as a float
    last = ends[-1] if math.isinf(ends[-1]) else int(ends[-1])
    _check_budget(runs * last, _STEP_BUDGET, f"steps of {runs} runs")
    targets = [int(e) for e in ends]

    # an edge list is read once: an iterator would leave later runs empty
    edges = None if from_kernel else tuple(config.initial)
    sizes = part_sizes(weights, n)

    engine = _Engine(rule)

    ref_mats = None
    if reference is not None:
        kernels = [reference(t) for t in times]
        if any(tuple(ref.weights) != weights for ref in kernels):
            raise ValueError(f"reference kernels need the start's parts, of weights {weights}")
        ref_mats = [tuple(tuple(map(float, row)) for row in ref.values) for ref in kernels]

    result = SimResult(
        times=times, part_sizes=sizes, samples=[], n=n, seed=seed,
        reference=ref_mats,
    )
    # runs step in lockstep, as many at a time as the stack budget holds
    group = max(1, _STACK_BYTES // (n * n + _READ_BYTES * _BATCH * len(engine.bits)))
    for first in range(0, runs, group):
        adj = np.zeros((min(group, runs - first), n, n), np.uint8)
        gens = [_twister(Random(run_seed(seed, first + r)))
                for r in range(len(adj))]
        for matrix, gen in zip(adj, gens):
            if from_kernel:
                _sample_matrix(config.initial, sizes, gen, matrix)
            else:
                _graph_from_edges(edges, matrix)
        samples = [[] for _ in adj]
        done = 0
        for target in targets:
            _lockstep(adj, engine, gens, target - done)
            done = target
            for snapshots, matrix in zip(samples, adj):
                snapshots.append(_densities(matrix, sizes))
        result.samples.extend(samples)
    if ref_mats is not None:
        blocks = [(i, j) for i in range(len(sizes)) for j in range(i, len(sizes))]
        result.deviations = [
            [max(abs(snap[i][j] - ref[i][j]) for i, j in blocks)
             for snap, ref in zip(snapshots, ref_mats)]
            for snapshots in result.samples
        ]
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

def transference_check(rule, n, start, horizon, eps, seed, runs=5, points=10):
    """Desk-scale check that the finite process tracks the integrated
    trajectory: at `points` evenly spaced times, each run's maximum block
    deviation from the reference must stay within eps.  The overall verdict
    passes when at least 80% of runs pass every time (an empirical
    convention at these sizes; individual runs are reported).  The
    reference trajectory is integrated only after run has made every
    check of the simulation."""
    if _positive_int(points, "points") < 10:
        raise ValueError(f"need at least 10 sample times, got {points}")
    if not isinstance(start, StepKernel):
        raise ValueError("transference check needs a step-kernel start")
    if not eps > 0:
        raise ValueError(f"tolerance must be positive, got {eps}")
    trajectory = functools.cache(lambda: integrate(rule, start, horizon))
    config = SimConfig(
        rule=rule, n=n, initial=start, horizon=horizon, seed=seed,
        runs=runs, sample_points=points,
    )
    result = run(config, reference=lambda t: trajectory().nearest_state(t))
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
