"""Trajectory equivalence of replacement rules, decided exactly.

Each rule induces one rational coefficient per orbit class of pair-rooted
graphs: the class coefficient is the sum, over class members (F, a, b), of
the expected change the rule makes to the indicator of the root pair when
the drawn graph is F.  Two rules drive identical trajectories from every
starting kernel if and only if their coefficient vectors agree, with
lower-order rules lifted to the common order first.  Everything here stays
in exact rational arithmetic; no trajectory is ever integrated to decide
equivalence.

Also here: the uniqueness classification.  A rule is the only rule with its
trajectories exactly when its order is at most 2 or it is symmetric and
deterministic; otherwise a distinct coefficient-equal witness rule exists
and is constructed explicitly.  A row enters the coefficients only through
its pair marginals, the probability that the replacement holds each pair,
so any move of mass that keeps them, or trades them between rows of one
relabelling orbit, keeps the trajectories.  An asymmetric rule's witness is
its symmetrization.  A symmetric non-deterministic rule gets one of two
moves: an exchange inside a row between two support graphs A and B that
differ in at least two pairs (both toggle one pair s where they disagree,
and the result is symmetrized), or, when every non-deterministic row is
{L, L + e}, a trade of the toggle of e against a relabelled copy of the
row.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import codes, rules
from .codes import (
    enumerate_classes,
    num_pairs,
    perm_images,
    _blocks,
    _census,
    _check_budget,
    _positive_int,
)
from .rules import (
    Rule,
    is_deterministic,
    symmetrize,
    _SMALL,
    _common_denominator,
    _json_records,
    _lowest_terms,
    _per_numerator,
)


# a class record of OrbitClass.to_json_obj as json.dumps(..., indent=2)
# writes it, up to its size; CoeffVector.to_json_obj adds the coefficient
_CLASS_RECORD = '{\n  "class": {\n    "code": %d,\n    "a": %d,\n    "b": %d\n  },\n  "size": %d'


def _class_records(classes, depth, coeffs=None):
    """The JSON text, at `depth`, of the class records of `classes`, each
    with its coefficient text when `coeffs` gives them."""
    rows = [(cls.canon.graph.bits, cls.canon.a, cls.canon.b, cls.size) for cls in classes]
    if coeffs is None:
        return _json_records(_CLASS_RECORD + "\n}", rows, depth)
    rows = [row + (text,) for row, text in zip(rows, coeffs)]
    return _json_records(_CLASS_RECORD + ',\n  "coeff": "%s"\n}', rows, depth)


class CoeffVector:
    """The coefficients of every orbit class at one order, `classes` in
    census order: coefficient i is nums[i] / denom, integers in lowest
    terms (denom is the least common denominator).  `values`, the same
    coefficients as Fractions, is built on first use."""

    __slots__ = ("order", "classes", "denom", "nums", "_values")

    def __init__(self, order, classes, values):
        values = [v if type(v) is Fraction else Fraction(v) for v in values]
        self._store(order, classes, *_common_denominator(values))

    @classmethod
    def _from_numerators(cls, order, classes, nums, denom):
        """The vector nums[i] / denom, for a list or array of integers."""
        vector = cls.__new__(cls)
        vector._store(order, classes, nums, denom)
        return vector

    def _store(self, order, classes, nums, denom):
        nums, denom = _lowest_terms(nums, denom)
        self.order = order
        self.classes = tuple(classes)
        self.denom = denom
        self.nums = tuple(nums.tolist())
        self._values = None

    @property
    def values(self):
        if self._values is None:
            self._values = tuple(_per_numerator(self.nums, self.denom))
        return self._values

    def __getitem__(self, cls):
        if cls.order != self.order:
            raise KeyError(cls)
        pos = _census(self.order).position(cls.canon)
        return Fraction(self.nums[pos], self.denom)

    def __eq__(self, other):
        if not isinstance(other, CoeffVector):
            return NotImplemented
        # lowest terms make the integer form unique
        return (self.order == other.order and self.denom == other.denom
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.order, self.denom, self.nums))

    def items(self):
        return list(zip(self.classes, self.values))

    def nonzero(self):
        return [(cls, Fraction(n, self.denom))
                for cls, n in zip(self.classes, self.nums) if n]

    def is_zero(self):
        return not any(self.nums)

    def to_json_obj(self):
        return [dict(cls.to_json_obj(), coeff=text)
                for cls, text in zip(self.classes, _per_numerator(self.nums, self.denom, str))]

    def _json_records(self, depth):
        """The JSON text of to_json_obj() at `depth`."""
        return _class_records(self.classes, depth, _per_numerator(self.nums, self.denom, str))


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    order: int
    vectors: tuple
    differing_class: object  # OrbitClass or None

    def to_json_obj(self):
        return self._json_obj([v.to_json_obj() for v in self.vectors])

    def _json_obj(self, certificates):
        """to_json_obj() with `certificates` in place of the two lists."""
        v1, v2 = self.vectors
        cls = self.differing_class
        return {"equivalent": self.equivalent, "order": self.order,
                "certificates": certificates,
                "first_difference": None if cls is None else dict(
                    cls.to_json_obj(), coeff_1=str(v1[cls]), coeff_2=str(v2[cls]))}


@dataclass(frozen=True)
class UniquenessVerdict:
    unique: bool
    reason: str  # "order-2" | "symmetric-deterministic" | "witness"
    witness: object  # Rule or None

    def to_json_obj(self):
        return {"unique": self.unique, "reason": self.reason,
                "has_witness": self.witness is not None}


# ----------------------------------------------------------------- coefficients

def coeff_vector(rule):
    """Exact trajectory coefficients of a rule, one per orbit class.

    Only explicit rows contribute: an identity row keeps every pair
    indicator, so its expected change is zero everywhere.  Row f adds to
    the classes of (f, i, j) and (f, j, i) its expected change of the
    pair {i, j}: the mass of its replacements that hold the pair, less 1
    if f holds it.
    """
    k = rule.order
    classes = enumerate_classes(k)
    if not classes:
        return CoeffVector._from_numerators(k, classes, (), 1)
    census = _census(k)
    p = num_pairs(k)
    # integer numerators over the common denominator; denom stands for 1
    f, h = rule._f, rule._h
    denom, nums = rule._denom, rule._nums
    starts = rule._starts
    # each entry and each row's own pairs enter at most 2p class sums, and
    # numerators lie in [0, denom], so no sum passes 2p * denom per entry
    # and row; beyond int64, exact Python integers
    bound = 2 * p * (len(nums) + len(starts)) * denom
    dtype = np.int64 if bound < _SMALL else object
    nums = nums.astype(dtype, copy=False)
    bits = np.arange(p)
    acc = np.zeros(len(classes), dtype=dtype)
    for blk in _blocks(len(f), p):
        # runs of one row each: the rows that start in this block, led by
        # the tail of a row from an earlier block, which subtracted that
        # row's own pairs there
        lo, hi = np.searchsorted(starts, (blk.start, blk.stop))
        runs = starts[lo:hi] - blk.start
        tail = not len(runs) or runs[0] > 0
        if tail:
            runs = np.concatenate(([0], runs))
        z = np.add.reduceat(nums[blk, None] * (h[blk, None] >> bits & 1), runs, axis=0)
        graphs = f[blk][runs]
        own = (graphs[:, None] >> bits & 1).astype(dtype, copy=False)
        own *= denom
        if tail:
            own[0] = 0
        z -= own
        np.add.at(acc, census.class_of(graphs), z[:, None, :])
    return CoeffVector._from_numerators(k, classes, acc, denom)


def lift(rule, to):
    """Rewrite a rule so that it samples `to` vertices, applies the original
    rule to the subgraph induced on the first `rule.order` of them, and
    keeps every other pair unchanged.  Lifted rules drive the same
    trajectories as the original.  The lifted rule has
    2^(C(to, 2) - C(k, 2)) entries per entry of the order-k rule; beyond
    4,000,000 of them, or past order 11, whose graphs need more than 62
    bits, CapExceeded before any is built."""
    k1, to = rule.order, _positive_int(to, "the lift order")
    if to < k1:
        raise ValueError(f"cannot lift an order-{k1} rule down to order {to}")
    if to == k1:
        return rule
    low = num_pairs(k1)
    denom, nums = rule._denom, rule._nums
    if not len(nums):
        return Rule(to)
    rules._check_code_width(to)
    _check_budget(len(nums) << (num_pairs(to) - low), codes._ENTRY_BUDGET,
                  f"entries of a {len(nums)}-entry rule lifted to order {to}")
    # the top bits lie above every code of the rule, so the lifted codes
    # are sorted top by top
    tops = np.arange(1 << (num_pairs(to) - low), dtype=np.int64)[:, None] << low
    return Rule._from_numerators(
        to, (tops | rule._f).ravel(), (tops | rule._h).ravel(),
        np.broadcast_to(nums, (len(tops), len(nums))).ravel(), denom)


def compare(rule1, rule2):
    """Decide trajectory equivalence exactly.  Rules of different orders are
    compared after lifting the lower-order one."""
    to = max(rule1.order, rule2.order)
    rule1, rule2 = (lift(rule, to) if rule.order < to else rule
                    for rule in (rule1, rule2))
    v1 = coeff_vector(rule1)
    v2 = coeff_vector(rule2)
    differing = _first_difference(v1, v2)
    return EquivalenceVerdict(differing is None, to, (v1, v2), differing)


def _first_difference(v1, v2):
    """The first class where two certificates of one order differ, or
    None; the numerators are cross-multiplied, as the denominators of two
    unequal certificates may differ."""
    if v1 == v2:
        return None
    d1, d2 = v1.denom, v2.denom
    return next(cls for cls, a1, a2 in zip(v1.classes, v1.nums, v2.nums)
                if a1 * d2 != a2 * d1)


def _dilation(v1, v2):
    """The positive rational C with v1 = C * v2 for two certificates of one
    order; 1 for two zero vectors, None without positive proportionality."""
    ref = None  # the numerators at the first class where v2 is nonzero
    for a1, a2 in zip(v1.nums, v2.nums):
        if not a2:
            if a1:
                return None
        elif ref is None:
            ref = a1, a2
        elif a1 * ref[1] != ref[0] * a2:
            return None
    if ref is None:
        return Fraction(1)
    factor = Fraction(ref[0] * v2.denom, ref[1] * v1.denom)
    return factor if factor > 0 else None


def dilation_factor(rule1, rule2):
    """The positive rational C with coeffs(rule1) = C * coeffs(rule2)
    everywhere, meaning rule1 runs the shared trajectory C times faster.
    Two zero vectors give 1; no positive proportionality gives None."""
    return _dilation(*compare(rule1, rule2).vectors)


# ----------------------------------------------------------------- uniqueness

def classify_unique(rule):
    """Is this the only rule with its trajectories?

    Yes exactly when the order is at most 2, or the rule is symmetric and
    deterministic.  Otherwise a different rule with the same coefficient
    vector is produced: for an asymmetric rule its symmetrization.  For a
    symmetric non-deterministic rule, a move that keeps every row's pair
    marginals: within a row, ε = min(R(f, A), R(f, B)) goes from two
    support graphs A and B that differ in at least two pairs to A and B
    with one such pair toggled, and the result is symmetrized; if no row
    has such a pair, a row f = {L, L + e} moves ε from L + e to L while a
    relabelled row g = σf moves ε from σL to σ(L + e), and the witness is
    not symmetric.  Witnesses are verified (distinct, coefficient-equal)
    before being returned.
    """
    if rule.order <= 2:
        return UniquenessVerdict(True, "order-2", None)
    # a rule is symmetric when it equals its symmetrization, which is the
    # witness when it does not
    witness = symmetrize(rule)
    if witness == rule:
        if is_deterministic(rule):
            return UniquenessVerdict(True, "symmetric-deterministic", None)
        witness = _marginal_witness(rule)
    if witness == rule:
        raise RuntimeError(
            "internal error: uniqueness witness coincides with the input rule"
        )
    if not compare(rule, witness).equivalent:
        raise RuntimeError(
            "internal error: uniqueness witness is not coefficient-equal"
        )
    return UniquenessVerdict(False, "witness", witness)


def _shift(entries, f, source, target, amount):
    """Move `amount` of row f's mass from `source` to `target`."""
    entries[(f, source)] -= amount
    entries[(f, target)] = entries.get((f, target), 0) + amount


def _marginal_witness(rule):
    """Witness for a symmetric non-deterministic rule of order >= 3: a
    move of one row's mass that keeps every pair marginal of every row,
    hence every class coefficient."""
    k = rule.order
    rows = rule.rows()
    entries = dict(rule.entries)
    for f in sorted(rows):
        for a, b in itertools.combinations(sorted(rows[f]), 2):
            if (a ^ b).bit_count() < 2:
                continue
            # toggling one pair s where A and B disagree keeps them
            # disagreeing at s; s leaves the smaller graph if it can, so the
            # move spreads or narrows the row's edge counts and symmetrizing
            # cannot undo it
            if a.bit_count() > b.bit_count():
                a, b = b, a
            diff = a & ~b or b & ~a
            s = diff & -diff
            eps = min(rows[f][a], rows[f][b])
            _shift(entries, f, a, a ^ s, eps)
            _shift(entries, f, b, b ^ s, eps)
            return symmetrize(Rule(k, entries))
    # otherwise every non-deterministic row is {L, L + e}.  A row fixed by
    # every relabelling would need a support closed under relabelling, which
    # two graphs one pair apart are not at order >= 3, so some relabelling
    # sigma moves f to g; taking e off at f while sigma(e) goes on at g
    # keeps every class sum
    f = next(f for f in sorted(rows) if len(rows[f]) > 1)
    lo, hi = sorted(rows[f])
    images = perm_images(k, [f, lo, hi])
    g, g_lo, g_hi = images[:, np.flatnonzero(images[0] != f)[0]].tolist()
    eps = min(rows[f][lo], rows[f][hi])
    _shift(entries, f, hi, lo, eps)
    _shift(entries, g, g_lo, g_hi, eps)
    return Rule(k, entries)


# ------------------------------------------------- orbit sums, finite process

K1_BANNER = (
    "Equal orbit sums give identically distributed finite processes on every "
    "n >= k vertices, unequal ones different processes on n = k and, by exact "
    "rank, on n <= 6 for k <= 4. CONJECTURE: on every larger n too; unproven."
)


def check_k1(rule1, rule2):
    """Whether the rules put equal total entry mass on every relabelling
    orbit of index pairs (F, H), implicit identity rows counted as mass 1
    on their diagonal pair: whether their symmetrizations are equal.  A step
    draws a uniform ordered k-tuple, so the one-step kernel on n vertices
    reads the rule only through its symmetrization: equal sums give
    identically distributed finite processes for every n >= k, and on n = k,
    where the transition matrix is the symmetrization, unequal sums give
    different ones.  On n > k they do where the map from orbit masses to
    transition entries has full rank, as it has for k <= 4 and n <= 6 (the
    tests check k = 2, n <= 6 and k = 3, n <= 5); past that, a conjecture.
    """
    if rule1.order != rule2.order:
        raise ValueError("the orbit-sum check compares rules of equal order")
    return symmetrize(rule1) == symmetrize(rule2)
