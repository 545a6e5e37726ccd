"""Step-function kernels and the mean-field dynamics a rule induces on them.

A step kernel is a symmetric function on the unit square that is constant
on blocks of a finite partition; it is stored as part weights plus a block
value matrix.  The class of step kernels is closed under the velocity
operator of any rule, so trajectories of step-kernel starts stay exactly
representable and the integrator never discretizes space.

The velocity is read off the rule's certificate: at parts (x, y) it is
sum_C coeff(C) t_C(x, y) over the orbit classes C with a nonzero
coefficient, where t_C is the rooted density of a representative of C with
its roots pinned to x and y.  Rules with equal certificates therefore get
equal velocities by construction.  Each class's representative is
relabelled so that its roots are vertices 1 and 2, and t_C, a sum over the
parts of the free vertices of a product of pair factors, is summed one
free vertex at a time, from vertex k down to 3 (bucket elimination):
classes that agree on vertices 1..j share the work below vertex j, and no
array over all m^k part assignments is ever built.  On one part t_C is
p^e (1 - p)^(P - e), so the coefficients only enter summed per edge
count e.
"""

import bisect
import functools
import json
import math
from fractions import Fraction

import numpy as np

from .codes import (
    _check_budget,
    _check_number,
    _exact,
    _positive_int,
    num_pairs,
    pair_list,
)
from .equivalence import coeff_vector
from .rules import _exact_value, _fraction, _json_object, _json_text

CLAMP_TOLERANCE = 1e-9


class IntegrationError(RuntimeError):
    """The integrator detected a state outside the valid region."""


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
            _check_number(w, "part weight", "part weights must be numbers")
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
                _check_number(v, "block value", "block values must be numbers")
        for i in range(m):
            for j in range(i + 1, m):
                if values[i][j] != values[j][i]:
                    raise ValueError(
                        f"value matrix is not symmetric at block ({i}, {j})"
                    )
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "values", values)

    @classmethod
    def _trusted(cls, weights, values):
        """A kernel from a validated weight tuple and finite, symmetric value
        rows, without the checks."""
        kernel = object.__new__(cls)
        object.__setattr__(kernel, "weights", weights)
        object.__setattr__(kernel, "values", values)
        return kernel

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
        "weights": [str(_fraction(w, "part weight", "part weights must be numbers"))
                    for w in kernel.weights],
        "values": [[float(v) for v in row] for row in kernel.values],
    }


def kernel_to_json(kernel):
    return _json_text(kernel_to_json_obj(kernel))


def kernel_from_json_obj(obj):
    _json_object(obj, "kernel", ("weights", "values"))
    if not isinstance(obj["weights"], list):
        raise ValueError("kernel weights must be a list")
    if not isinstance(obj["values"], list) or not all(
            isinstance(row, list) for row in obj["values"]):
        raise ValueError("kernel values must be a list of lists")
    weights = [_exact_value(w, "a part weight") for w in obj["weights"]]
    values = []
    for row in obj["values"]:
        out = []
        for v in row:
            _check_number(v, "block value", "block values must be numbers")
            try:
                out.append(float(v))
            except OverflowError:
                raise ValueError(f"block value {v} is too large for a float") from None
        values.append(tuple(out))
    return StepKernel(weights, values)


def kernel_from_json(text):
    return kernel_from_json_obj(json.loads(text))


def load_kernel(path):
    with open(path, "r", encoding="utf-8") as fh:
        return kernel_from_json(fh.read())


# ------------------------------------------------------------------- velocity

# the m^k part assignments of one velocity, the floats in any array of its
# evaluation (a chunk holds _GRID_BUDGET // m^k classes), and the block
# values in one stored trajectory
_GRID_BUDGET = 4_000_000


def _roots_first(canon):
    """The edge pattern of a pair-rooted graph relabelled so that its roots
    are vertices 1 and 2, the free vertices keeping their order, read as a
    binary number whose most significant bit is the first pair of
    pair_list."""
    k = canon.order
    old = [canon.a, canon.b]
    old += [v for v in range(1, k + 1) if v not in old]
    code = 0
    for i, j in pair_list(k):
        code = code << 1 | canon.graph.has_edge(old[i - 1], old[j - 1])
    return code


class _CompiledVelocity:
    """The nonzero coefficients of a rule with one representative per
    class, its roots relabelled to vertices 1 and 2 so that all classes
    share one elimination of the free vertices."""

    def __init__(self, rule):
        nonzero = coeff_vector(rule).nonzero()
        self.k = rule.order
        self.pairs = pair_list(self.k)
        terms = sorted((_roots_first(cls.canon), float(c))
                       for cls, c in nonzero)
        self.codes = np.array([code for code, _ in terms], dtype=np.int64)
        self.coeffs = np.array([c for _, c in terms])
        # on one part t_C = p^e (1 - p)^(P - e): only the exact coefficient
        # sum per edge count e matters
        by_edges = {}
        for cls, c in nonzero:
            e = cls.canon.graph.edge_count()
            by_edges[e] = by_edges.get(e, 0) + c
        P = len(self.pairs)
        self.point_terms = [(float(c), e, P - e) for e, c in sorted(by_edges.items()) if c]

    def point(self, p):
        """The velocity on one part at block value p, a Python float.  A
        power that overflows raises OverflowError instead of returning inf."""
        q = 1.0 - p
        total = 0.0
        for c, e, f in self.point_terms:
            total += c * p ** e * q ** f
        return total

    def values(self, weights, vals):
        """Velocity block values: weights (m,), vals (m, m) float arrays."""
        k = self.k
        m = vals.shape[0]
        if m == 1:
            return np.array([[self.point(float(vals[0, 0]))]])
        plan = _plan(self, m)  # refuses a grid beyond its budget
        if not len(self.coeffs):
            return np.zeros((m, m))
        if k == 2:
            # no free vertex: the coefficients of the root pair's patterns
            c0, c1 = plan
            return c0 + (c1 - c0) * vals
        # table[b] is the factor of a pair (i, j) with pattern b at
        # (x_i, x_j); table[2 + b] is its transpose weighted by the part of
        # j, which sums x_j out of a product over i by a matrix product
        table = np.empty((4, m, m))
        np.subtract(1.0, vals, out=table[0])
        table[1] = vals
        np.multiply(table[:2].transpose(0, 2, 1), weights[:, None],
                    out=table[2:])
        out = None
        for first, levels, roots in plan:
            part = _eliminate(table, weights, first, levels, roots)
            out = part if out is None else out + part
        return out


def _factor(table, nbrs, count):
    """The factors of the pairs (1, j), ..., (j - 1, j) gathered from table
    by each row of indices in nbrs, and the product of the first count of
    them as one array over (row, x_1, ..., x_count, x_j)."""
    picked = table[nbrs]
    out = picked[:, 0]
    for i in range(1, count):
        out = out[..., None, :] * picked[(slice(None), i) + (None,) * i]
    return out, picked


def _eliminate(table, weights, first, levels, roots):
    """The velocity block values of one chunk of classes (see _plan):
    vertices k, ..., 3 summed out one at a time, then the factor of the
    root pair."""
    m = weights.shape[0]
    nbrs, coeffs = first
    n, last = len(nbrs), nbrs.shape[1] - 1
    g, picked = _factor(table, nbrs, last)
    g = g.reshape(n, -1, m) @ picked[:, last]
    messages = coeffs @ g.reshape(n, -1)
    for nbrs, index, starts in levels:
        g, _ = _factor(table, nbrs, nbrs.shape[1])
        g = g.reshape(len(nbrs), -1, m)[index]
        sums = (messages.reshape(len(index), -1, m) * g) @ weights
        messages = np.add.reduceat(sums, starts)
    return (messages.reshape(-1, m, m) * table[roots]).sum(axis=0)


@functools.lru_cache(maxsize=64)
def _plan(comp, m):
    """How values() sums out the free vertices of a compiled rule on m
    parts, per chunk of _GRID_BUDGET // m^k classes: small patterns,
    indices and coefficient matrices only, never an array over m^j part
    assignments.  At order 2, the coefficients of the two patterns of the
    root pair.

    The pairs run in colex order, so a class's pattern on vertices 1..j is
    its first C(j, 2) pairs, the top bits of its code, and the neighbourhood
    of vertex j is the next j - 1 pairs; the codes are sorted, so patterns
    that share a prefix are contiguous.  Vertex k is summed out once per
    distinct neighbourhood, and the coefficients enter through a
    (prefixes x neighbourhoods) matrix.  Each vertex j below it is summed
    out once per distinct prefix on 1..j, whose message is the sum over
    its extensions, and the results are added up per prefix on 1..j - 1
    by np.add.reduceat.  The prefixes left on the root pair are its
    patterns, in table order.  The m^k grid is held to _GRID_BUDGET
    cells, for a rule with no classes too."""
    k = comp.k
    _check_budget(m ** k, _GRID_BUDGET,
                  f"cells of the velocity grid of {m} parts at order {k}")
    if k == 2:
        c = [0.0, 0.0]
        for code, coeff in zip(comp.codes.tolist(), comp.coeffs.tolist()):
            c[code] += coeff
        return tuple(c)
    chunk = _GRID_BUDGET // m ** k
    plans = []
    for lo in range(0, len(comp.codes), chunk):
        codes = comp.codes[lo:lo + chunk]
        levels = []
        for j in range(k, 2, -1):
            prefix = codes >> (j - 1)
            up, starts, up_index = np.unique(prefix, return_index=True,
                                             return_inverse=True)
            nbrs, index = np.unique(codes & ((1 << (j - 1)) - 1),
                                    return_inverse=True)
            # column i - 1: the pattern of the pair (i, j)
            nbrs = (nbrs[:, None] >> np.arange(j - 2, -1, -1)) & 1
            if j == k:
                nbrs[:, -1] += 2  # closed by a weighted transpose
                mat = np.zeros((len(up), len(nbrs)))
                mat[up_index, index] = comp.coeffs[lo:lo + chunk]
                first = (nbrs, mat)
            else:
                levels.append((nbrs, index, starts))
            codes = up
        plans.append((first, tuple(levels), codes))
    return tuple(plans)


_compiled = functools.lru_cache(maxsize=64)(_CompiledVelocity)


def _kernel_arrays(kernel):
    weights = np.array([float(w) for w in kernel.weights])
    vals = np.array([[float(v) for v in row] for row in kernel.values])
    return weights, vals


def velocity(rule, kernel):
    """The instantaneous drift the rule induces at a kernel, as a kernel on
    the same parts: sum_C coeff(C) t_C(x, y) over the nonzero classes of the
    rule's certificate.  The certificate is held to the census budget and
    the grid of part assignments (m^k cells for m parts at order k) to
    4,000,000 cells; beyond either, CapExceeded."""
    comp = _compiled(rule)
    out = comp.values(*_kernel_arrays(kernel))
    out = (out + out.T) / 2.0  # exact symmetry against float jitter
    return StepKernel(kernel.weights, tuple(map(tuple, out.tolist())))


def lipschitz_constant(k):
    """Supremum-norm Lipschitz bound of the velocity operator at order k."""
    k = _positive_int(k, "order")
    if k == 1:
        return 0.0
    return float((k * (k - 1)) ** 2 * 2 ** (num_pairs(k) - 1))


# ----------------------------------------------------------------- integration

class Trajectory:
    """A fixed-step integration record: states[i] is the kernel at times[i];
    all states share the starting partition.  The block values of every
    state are one read-only float array of shape (len(times), m, m); a
    state is built from it on first use and then kept, so every access
    to states[i] returns the same object."""

    __slots__ = ("times", "_values", "_states")

    def __init__(self, times, start, values):
        self.times = tuple(times)
        values.flags.writeable = False
        self._values = values
        self._states = [start] + [None] * (len(self.times) - 1)

    def __reduce__(self):
        return Trajectory, (self.times, self._states[0], self._values)

    def _state(self, i):
        state = self._states[i]
        if state is None:
            rows = tuple(map(tuple, self._values[i].tolist()))
            state = StepKernel._trusted(self._states[0].weights, rows)
            self._states[i] = state
        return state

    @property
    def states(self):
        return tuple(self._state(i) for i in range(len(self.times)))

    @property
    def final(self):
        return self._state(len(self.times) - 1)

    def nearest_state(self, t):
        """The state at the time closest to t, the earlier one on a tie."""
        times = self.times
        i = bisect.bisect_left(times, t)
        if i == len(times) or (i > 0 and t - times[i - 1] <= times[i] - t):
            i -= 1
        return self._state(i)

    def to_csv(self):
        m = self._values.shape[1]
        cols = [f"w_{i}_{j}" for i in range(1, m + 1) for j in range(i, m + 1)]
        iu, ju = np.triu_indices(m)
        upper = self._values[:, iu, ju].tolist()
        lines = ["t," + ",".join(cols)]
        for t, row in zip(self.times, upper):
            lines.append(",".join(map(repr, [t] + row)))
        return "\n".join(lines) + "\n"


def _settle(v, t, graphon_mode):
    """The state v reached at time t, settled: a graphon state is checked,
    clipped to [0, 1] and symmetrized, any other state symmetrized and then
    checked (the sum can overflow where v did not), and a one-part state, a
    Python float, is never symmetrized.  The check raises IntegrationError
    unless the block values are finite and, for a graphon start, within
    CLAMP_TOLERANCE of [0, 1].  An in-range state skips the clip, but an
    m x m state whose least value is 0, perhaps -0.0, is clipped."""
    if type(v) is float:
        if graphon_mode and 0.0 <= v <= 1.0:
            return v
        lo = hi = v
    else:
        if not graphon_mode:
            v = (v + v.T) / 2.0  # exactly symmetric
        lo, hi = float(v.min()), float(v.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise IntegrationError(
            f"state is no longer finite at time {t:.6g}; reduce the step size"
        )
    if not graphon_mode:
        return v
    # checked before the clip, which hides excursions
    over = max(0.0, hi - 1.0, -lo)
    if over > CLAMP_TOLERANCE:
        raise IntegrationError(
            f"state left [0, 1] by {over:.3e} at time {t:.6g}; "
            f"reduce the step size or check the starting kernel"
        )
    if type(v) is float:
        return min(max(v, 0.0), 1.0)  # np.clip, -0.0 included
    if lo <= 0.0 or hi > 1.0:
        np.clip(v, 0.0, 1.0, out=v)
    return (v + v.T) / 2.0  # exactly symmetric


def integrate(rule, start, t_max, h=1e-3, expert_nongraphon=False):
    """Integrate the rule's drift from a step kernel with classical
    fixed-step fourth-order steps, a short final step when h does not
    divide t_max, and a guard that keeps graphon starts inside [0, 1]:
    excursions up to 1e-9 are clamped, larger ones raise.

    Non-graphon starts are refused unless expert_nongraphon is set; with
    the flag the dynamics are integrated as-is with no domain guarantees.
    The drift is held to the same budgets as velocity(), and the trajectory
    to (steps + 1) * m^2 stored block values for m parts within the same
    budget of 4,000,000; beyond it, CapExceeded before the first step.
    """
    if not (math.isfinite(t_max) and t_max >= 0):
        raise ValueError(f"t_max must be finite and nonnegative, got {t_max}")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step size must be finite and positive, got {h}")
    graphon_mode = start.is_graphon
    if not graphon_mode and not expert_nongraphon:
        raise ValueError(
            "starting kernel is not a graphon; pass expert_nongraphon=True "
            "to integrate it anyway (no domain guarantees)"
        )
    # as a float first: int() refuses the infinite quotient of a tiny h,
    # and a quotient past the budget stores more values than it allows
    _check_budget(t_max / h, _GRID_BUDGET, f"steps of {h} to {t_max}")
    n_full = int(t_max / h + 1e-9)
    rem = t_max - n_full * h
    n_steps = n_full + (rem > h * 1e-9)
    _check_budget((n_steps + 1) * len(start.weights) ** 2, _GRID_BUDGET,
                  f"block values stored by {n_steps} steps")
    comp = _compiled(rule)
    weights, v = _kernel_arrays(start)
    out = np.empty((n_steps + 1,) + v.shape)
    out[0] = v

    store = out.reshape(-1) if v.shape == (1, 1) else out  # scalar stores
    if v.shape == (1, 1):
        # one part: the same steps on a Python float
        v = float(v[0, 0])
        drift = comp.point
    else:
        drift = functools.partial(comp.values, weights)
    times = [0.0]
    t = 0.0
    try:
        # a state that overflows or turns nan raises IntegrationError from
        # _settle; numpy's warnings on the way are noise
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(n_steps):
                dt = h if step < n_full else rem
                s1 = drift(v)
                s2 = drift(v + (dt / 2.0) * s1)
                s3 = drift(v + (dt / 2.0) * s2)
                s4 = drift(v + dt * s3)
                v = v + (dt / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
                t += dt
                v = _settle(v, t, graphon_mode)
                times.append(t)
                store[step + 1] = v
    except OverflowError as exc:
        # Python float powers on the one-part path overflow instead of
        # returning inf
        raise IntegrationError(
            f"state overflowed after time {t:.6g}; reduce the step size"
        ) from exc
    return Trajectory(times, start, out)
