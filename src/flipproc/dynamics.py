"""Step-function kernels and the mean-field dynamics a rule induces on them.

A step kernel is a symmetric function on the unit square that is constant
on blocks of a finite partition; it is stored as part weights plus a block
value matrix.  The class of step kernels is closed under the velocity
operator of any rule, so trajectories of step-kernel starts stay exactly
representable and the integrator never discretizes space.

The velocity at a kernel is computed two independent ways: an aggregated
vectorized evaluation used everywhere (velocity), and a literal term by
term evaluation of the defining double sum kept as a consistency oracle
(velocity_direct).
"""

import json
import math
from fractions import Fraction

import numpy as np

from .codes import GraphCode, RootedPairGraph, num_pairs, pair_list
from .rooted import (
    RootedGraph,
    _label_key,
    blowup,
    count_rrr_maps,
    is_twinfree,
    rooted_version,
    vstar,
)

CLAMP_TOLERANCE = 1e-9


class IntegrationError(RuntimeError):
    """The integrator detected a state outside the valid region."""


def _exact(value):
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _finite(value):
    return _exact(value) or math.isfinite(value)


class StepKernel:
    """Symmetric block kernel: weights are part measures summing to 1,
    values[i][j] is the constant on block i x j.  Exact rational weights
    and values stay exact through every rational-path computation; float
    inputs flow as floats."""

    __slots__ = ("weights", "values")

    def __init__(self, weights, values):
        weights = tuple(weights)
        values = tuple(tuple(row) for row in values)
        if not weights:
            raise ValueError("a step kernel needs at least one part")
        for w in weights:
            if not _finite(w):
                raise ValueError(f"non-finite part weight {w}")
            if w < 0:
                raise ValueError(f"negative part weight {w}")
        total = sum(weights)
        if all(_exact(w) for w in weights):
            if total != 1:
                raise ValueError(f"part weights sum to {total}, expected 1")
        elif abs(total - 1) > 1e-12:
            raise ValueError(f"part weights sum to {total!r}, expected 1")
        m = len(weights)
        if len(values) != m or any(len(row) != m for row in values):
            raise ValueError(
                f"value matrix must be {m}x{m} to match the {m} parts"
            )
        for row in values:
            for v in row:
                if not _finite(v):
                    raise ValueError(f"non-finite block value {v}")
        for i in range(m):
            for j in range(i + 1, m):
                if values[i][j] != values[j][i]:
                    raise ValueError(
                        f"value matrix is not symmetric at block ({i}, {j})"
                    )
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "values", values)

    @property
    def num_parts(self):
        return len(self.weights)

    @property
    def is_graphon(self):
        return all(0 <= v <= 1 for row in self.values for v in row)

    def __eq__(self, other):
        if not isinstance(other, StepKernel):
            return NotImplemented
        return self.weights == other.weights and self.values == other.values

    def __hash__(self):
        return hash((self.weights, self.values))

    def __repr__(self):
        return f"StepKernel(parts={self.num_parts}, graphon={self.is_graphon})"


def constant_kernel(p):
    """The one-part kernel identically equal to p."""
    return StepKernel((Fraction(1),), ((p,),))


def max_block_dev(k1, k2):
    """Largest absolute block difference of two kernels on the same parts."""
    if len(k1.weights) != len(k2.weights) or any(
        float(a) != float(b) for a, b in zip(k1.weights, k2.weights)
    ):
        raise ValueError("kernels live on different partitions")
    return max(
        abs(float(a) - float(b))
        for ra, rb in zip(k1.values, k2.values)
        for a, b in zip(ra, rb)
    )


# -------------------------------------------------------------- serialization

def kernel_to_json_obj(kernel):
    return {
        "weights": [str(w if isinstance(w, Fraction) else Fraction(w))
                    for w in kernel.weights],
        "values": [[float(v) for v in row] for row in kernel.values],
    }


def kernel_to_json(kernel):
    return json.dumps(kernel_to_json_obj(kernel), indent=2) + "\n"


def kernel_from_json_obj(obj):
    if not isinstance(obj, dict):
        raise ValueError("kernel JSON must be an object")
    extra = set(obj) - {"weights", "values"}
    if extra:
        raise ValueError(f"unknown fields in kernel: {sorted(extra)}")
    if "weights" not in obj or "values" not in obj:
        raise ValueError("kernel JSON needs weights and values")
    weights = []
    for w in obj["weights"]:
        if isinstance(w, str):
            weights.append(Fraction(w))
        elif isinstance(w, int) and not isinstance(w, bool):
            weights.append(Fraction(w))
        else:
            raise ValueError(
                f"part weights must be exact strings such as \"1/2\", got {w!r}"
            )
    values = []
    for row in obj["values"]:
        out = []
        for v in row:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"block values must be numbers, got {v!r}")
            out.append(float(v))
        values.append(tuple(out))
    return StepKernel(weights, values)


def kernel_from_json(text):
    return kernel_from_json_obj(json.loads(text))


def load_kernel(path):
    with open(path, "r", encoding="utf-8") as fh:
        return kernel_from_json(fh.read())


# ------------------------------------------------------------ rooted densities

def rooted_density(element, kernel, x, y):
    """Probability that a random embedding of [k] into the kernel's parts,
    with the two roots pinned to parts x and y, induces exactly the rooted
    graph `element`: product of block values over edges and complements
    over non-edges, weighted by part measures of the free vertices.

    Exact when the kernel is exact; zero partial products are pruned, which
    makes 0/1-valued kernels cheap.
    """
    k = element.order
    m = kernel.num_parts
    if not (0 <= x < m and 0 <= y < m):
        raise ValueError(f"part indices ({x}, {y}) outside range({m})")
    a, b = element.a, element.b
    g = element.graph
    vals = kernel.values
    wts = kernel.weights
    free = [v for v in range(1, k + 1) if v != a and v != b]
    placed = [(a, x), (b, y)]

    w = vals[x][y]
    acc0 = w if g.has_edge(a, b) else 1 - w

    def extend(i, acc):
        if acc == 0:
            return acc
        if i == len(free):
            return acc
        v = free[i]
        total = 0
        for part in range(m):
            term = acc * wts[part]
            for u, pu in placed:
                if term == 0:
                    break
                w = vals[part][pu]
                term = term * (w if g.has_edge(v, u) else 1 - w)
            if term == 0:
                continue
            placed.append((v, part))
            total = total + extend(i + 1, term)
            placed.pop()
        return total

    return extend(0, acc0)


def density_formula_check(base, m, G, z, x, y, tolerance=1e-12):
    """Evaluate a rooted density against its combinatorial closed form.

    base: a twinfree rooted graph; m: positive multiplicities with total
    root multiplicity exactly 2; G: a twinfree unrooted graph whose
    vertices name the parts of the kernel; z: part weights keyed by the
    vertices of G; x, y: vertices of G naming the pinned parts.

    The numeric side evaluates the density of the blown-up base in the
    0/1-valued kernel of G; the combinatorial side is 0 when the base has
    more roots than the doubled version of G at (x, y), and otherwise sums
    the free-vertex weight monomials over the structure-preserving maps.
    Requires |roots(base)| >= |roots(doubled G)| or strictly more roots,
    and in the map case the reduced non-root counts must be ordered
    correspondingly; other shapes are outside the formula and rejected.
    Returns (numeric, combinatorial); raises on disagreement.
    """
    if not is_twinfree(base):
        raise ValueError("the rooted base graph must be twinfree")
    if G.roots:
        raise ValueError("G must be unrooted; its roots come from doubling")
    if not is_twinfree(G):
        raise ValueError("G must be twinfree")
    if set(m) != base.vertices:
        raise ValueError("multiplicities must be indexed by the base vertices")
    if any(cnt < 1 for cnt in m.values()):
        raise ValueError("multiplicities must be at least 1")
    root_mass = sum(m[r] for r in base.roots)
    if root_mass != 2:
        raise ValueError(f"total root multiplicity must be 2, got {root_mass}")
    if set(z) != G.vertices:
        raise ValueError("z must be keyed by the vertices of G")
    if x not in G.vertices or y not in G.vertices:
        raise ValueError("x and y must be vertices of G")

    parts = sorted(G.vertices, key=_label_key)
    index = {v: i for i, v in enumerate(parts)}
    kernel = StepKernel(
        tuple(z[v] for v in parts),
        tuple(
            tuple(1 if G.has_edge(u, v) else 0 for v in parts)
            for u in parts
        ),
    )

    blown = blowup(base, m)
    order = list(blown.roots) + [
        v for v in sorted(blown.vertices, key=_label_key)
        if v not in blown.roots
    ]
    pos = {v: i + 1 for i, v in enumerate(order)}
    bits = 0
    for e in blown.edges:
        u, v = tuple(e)
        i, j = pos[u], pos[v]
        if i > j:
            i, j = j, i
        bits |= 1 << ((j - 1) * (j - 2) // 2 + (i - 1))
    element = RootedPairGraph(GraphCode(len(order), bits), 1, 2)
    numeric = rooted_density(element, kernel, index[x], index[y])

    subset = (x,) if x == y else (x, y)
    doubled = rooted_version(G, subset)
    n_roots = len(base.roots)
    n_targets = len(doubled.roots)
    if n_roots > n_targets:
        combinatorial = 0
    else:
        if n_roots < n_targets:
            raise ValueError(
                "the base has fewer roots than the doubled target; this shape "
                "is outside the closed form"
            )
        if vstar(base) < vstar(doubled):
            raise ValueError(
                "reduced non-root count of the base is below the target's; "
                "this shape is outside the closed form"
            )
        combinatorial = 0
        for phi in count_rrr_maps(base, doubled):
            term = 1
            for v in base.vertices:
                if v in base.roots:
                    continue
                term = term * z[phi[v]] ** m[v]
            combinatorial = combinatorial + term

    exact_mode = all(_exact(w) for w in z.values())
    if exact_mode:
        agree = numeric == combinatorial
    else:
        agree = abs(float(numeric) - float(combinatorial)) <= tolerance
    if not agree:
        raise RuntimeError(
            f"density formula mismatch: numeric {numeric} vs combinatorial "
            f"{combinatorial}"
        )
    return numeric, combinatorial


# ------------------------------------------------------------------- velocity

_GRID_BUDGET = 4_000_000  # floats per row chunk in the vectorized evaluation


class _CompiledVelocity:
    """Row data of a rule laid out for vectorized velocity evaluation."""

    def __init__(self, rule):
        k = rule.order
        self.k = k
        self.pairs = pair_list(k)
        P = len(self.pairs)
        rows = sorted(rule.rows().items())
        fbits = []
        edge = []
        zmat = []
        for f, row in rows:
            zrow = []
            for idx in range(P):
                mass = sum(p for h, p in row.items() if h >> idx & 1)
                zrow.append(float(mass) - (1.0 if f >> idx & 1 else 0.0))
            if any(zrow):
                fbits.append(f)
                edge.append([bool(f >> idx & 1) for idx in range(P)])
                zmat.append(zrow)
        self.fbits = fbits
        self.edge = np.array(edge, dtype=bool).reshape(len(fbits), P)
        self.zmat = np.array(zmat, dtype=float).reshape(len(fbits), P)
        # one-part evaluation only needs the row totals and edge counts
        self.point_coeffs = [
            (2.0 * float(self.zmat[r].sum()), fbits[r].bit_count())
            for r in range(len(fbits))
        ]

    def values(self, weights, vals):
        """Velocity block values: weights (m,), vals (m, m) float arrays."""
        k, pairs = self.k, self.pairs
        m = vals.shape[0]
        P = len(pairs)
        R = len(self.fbits)
        out = np.zeros((m, m))
        if R == 0:
            return out
        if m == 1:
            p = float(vals[0, 0])
            total = 0.0
            for c, e in self.point_coeffs:
                total += c * p ** e * (1.0 - p) ** (P - e)
            out[0, 0] = total
            return out
        letters = "abcdefghij"[:k]
        chunk = max(1, _GRID_BUDGET // (m ** k))
        for lo in range(0, R, chunk):
            hi = min(R, lo + chunk)
            grid = np.ones((hi - lo,) + (m,) * k)
            sel = self.edge[lo:hi]
            for idx, (i, j) in enumerate(pairs):
                shape = [1] * (k + 1)
                shape[i] = m
                shape[j] = m
                wij = vals.reshape(shape)
                pick = sel[:, idx].reshape((hi - lo,) + (1,) * k)
                grid *= np.where(pick, wij, 1.0 - wij)
            for idx, (i, j) in enumerate(pairs):
                subs = "r" + letters
                operands = [grid]
                in_subs = [subs]
                for v in range(1, k + 1):
                    if v != i and v != j:
                        operands.append(weights)
                        in_subs.append(letters[v - 1])
                contracted = np.einsum(
                    ",".join(in_subs) + "->r" + letters[i - 1] + letters[j - 1],
                    *operands,
                )
                block = np.einsum("r,rxy->xy", self.zmat[lo:hi, idx], contracted)
                out += block + block.T
        return out


_compiled_cache = {}


def _compiled(rule):
    got = _compiled_cache.get(rule)
    if got is None:
        if len(_compiled_cache) > 64:
            _compiled_cache.clear()
        got = _compiled_cache[rule] = _CompiledVelocity(rule)
    return got


def velocity(rule, kernel):
    """The instantaneous drift the rule induces at a kernel, as a kernel on
    the same parts.  Vectorized; identity rows contribute nothing."""
    comp = _compiled(rule)
    weights = np.array([float(w) for w in kernel.weights])
    vals = np.array([[float(v) for v in row] for row in kernel.values])
    out = comp.values(weights, vals)
    out = (out + out.T) / 2.0  # exact symmetry against float jitter
    return StepKernel(kernel.weights, tuple(tuple(row) for row in out))


def velocity_direct(rule, kernel):
    """Literal evaluation of the velocity's defining double sum, one rooted
    term at a time, with expected-change factors read straight off the rule
    rows.  Quadratically slower than velocity(); kept as an oracle."""
    k = rule.order
    m = kernel.num_parts
    pairs = pair_list(k)
    out = [[0.0] * m for _ in range(m)]
    for f in range(1 << num_pairs(k)):
        row = rule.row(f)
        code = GraphCode(k, f)
        for idx, (i, j) in enumerate(pairs):
            has = f >> idx & 1
            if row is None:
                continue  # identity keeps the pair: zero expected change
            mass = sum(p for h, p in row.items() if h >> idx & 1)
            z = float(mass - has)
            if z == 0.0:
                continue
            for a, b in ((i, j), (j, i)):
                element = RootedPairGraph(code, a, b)
                for x in range(m):
                    for y in range(m):
                        out[x][y] += z * float(
                            rooted_density(element, kernel, x, y)
                        )
    return StepKernel(
        kernel.weights,
        tuple(
            tuple((out[x][y] + out[y][x]) / 2.0 for y in range(m))
            for x in range(m)
        ),
    )


def lipschitz_constant(k):
    """Supremum-norm Lipschitz bound of the velocity operator at order k."""
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    if k == 1:
        return 0.0
    return float((k * (k - 1)) ** 2 * 2 ** (num_pairs(k) - 1))


# ----------------------------------------------------------------- integration

class Trajectory:
    """A fixed-step integration record: states[i] is the kernel at times[i];
    all states share the starting partition."""

    __slots__ = ("times", "states", "order", "h")

    def __init__(self, times, states, order, h):
        self.times = tuple(times)
        self.states = tuple(states)
        self.order = order
        self.h = h

    @property
    def final(self):
        return self.states[-1]

    def nearest_state(self, t):
        idx = min(range(len(self.times)), key=lambda i: abs(self.times[i] - t))
        return self.states[idx]

    def to_csv(self):
        m = self.states[0].num_parts
        cols = [f"w_{i}_{j}" for i in range(1, m + 1) for j in range(i, m + 1)]
        lines = ["t," + ",".join(cols)]
        for t, state in zip(self.times, self.states):
            row = [repr(float(t))]
            for i in range(m):
                for j in range(i, m):
                    row.append(repr(float(state.values[i][j])))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def integrate(rule, start, t_max, h=1e-3, expert_nongraphon=False):
    """Integrate the rule's drift from a step kernel with classical
    fixed-step fourth-order steps, a short final step when h does not
    divide t_max, and a guard that keeps graphon starts inside [0, 1]:
    excursions up to 1e-9 are clamped, larger ones raise.

    Non-graphon starts are refused unless expert_nongraphon is set; with
    the flag the dynamics are integrated as-is with no domain guarantees.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    graphon_mode = start.is_graphon
    if not graphon_mode and not expert_nongraphon:
        raise ValueError(
            "starting kernel is not a graphon; pass expert_nongraphon=True "
            "to integrate it anyway (no domain guarantees)"
        )
    comp = _compiled(rule)
    weights = np.array([float(w) for w in start.weights])
    v = np.array([[float(x) for x in row] for row in start.values])

    n_full = int(t_max / h + 1e-9)
    rem = t_max - n_full * h
    steps = [h] * n_full + ([rem] if rem > h * 1e-9 else [])

    times = [0.0]
    states = [start]
    t = 0.0
    for dt in steps:
        s1 = comp.values(weights, v)
        s2 = comp.values(weights, v + (dt / 2.0) * s1)
        s3 = comp.values(weights, v + (dt / 2.0) * s2)
        s4 = comp.values(weights, v + dt * s3)
        v = v + (dt / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
        t += dt
        if not np.isfinite(v).all():
            raise IntegrationError(
                f"state is no longer finite at time {t:.6g}; "
                f"reduce the step size"
            )
        if graphon_mode:
            over = max(0.0, float(v.max()) - 1.0, float(-v.min()))
            if over > CLAMP_TOLERANCE:
                raise IntegrationError(
                    f"state left [0, 1] by {over:.3e} at time {t:.6g}; "
                    f"reduce the step size or check the starting kernel"
                )
            np.clip(v, 0.0, 1.0, out=v)
        v = (v + v.T) / 2.0
        times.append(t)
        states.append(StepKernel(start.weights, tuple(tuple(row) for row in v)))
    return Trajectory(times, states, rule.order, h)
