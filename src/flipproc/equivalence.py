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
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import (
    CapExceeded,
    enumerate_classes,
    full_bits,
    num_pairs,
    orbit_members,
    pair_list,
    pair_orbits,
    perm_images,
    _blocks,
    _census,
    _check_cap,
)
from .rules import (
    Rule,
    entry_codes,
    entry_numerators,
    is_deterministic,
    is_symmetric,
    row_codes,
    validate,
    _SMALL,
    _codes_in_range,
    _common_denominator,
    _largest,
    _lowest_terms,
    _per_numerator,
)


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
        root = cls.canon
        pos = _census(self.order).index[root.graph.bits, root.a - 1, root.b - 1]
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
        out = []
        for cls, text in zip(self.classes, _per_numerator(self.nums, self.denom, str)):
            entry = cls.to_json_obj()
            entry["coeff"] = text
            out.append(entry)
        return out


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    order: int
    vectors: tuple
    differing_class: object  # OrbitClass or None

    def to_json_obj(self):
        v1, v2 = self.vectors
        obj = {
            "equivalent": self.equivalent,
            "order": self.order,
            "certificates": [v1.to_json_obj(), v2.to_json_obj()],
        }
        if self.differing_class is None:
            obj["first_difference"] = None
        else:
            cls = self.differing_class
            obj["first_difference"] = {
                **cls.to_json_obj(),
                "coeff_1": str(v1[cls]),
                "coeff_2": str(v2[cls]),
            }
        return obj


@dataclass(frozen=True)
class UniquenessVerdict:
    unique: bool
    reason: str  # "order-2" | "symmetric-deterministic" | "witness"
    witness: object  # Rule or None

    def to_json_obj(self):
        return {"unique": self.unique, "reason": self.reason,
                "has_witness": self.witness is not None}


# ----------------------------------------------------------------- coefficients

def coeff_vector(rule, cap=None):
    """Exact trajectory coefficients of a rule, one per orbit class.

    Only explicit rows contribute: an identity row keeps every pair
    indicator, so its expected change is zero everywhere.  Row f adds to
    the classes of (f, i, j) and (f, j, i) its expected change of the
    pair {i, j}: the mass of its replacements that hold the pair, less 1
    if f holds it.
    """
    k = rule.order
    classes = enumerate_classes(k, cap)
    if not classes:
        return CoeffVector._from_numerators(k, classes, (), 1)
    p = num_pairs(k)
    # integer numerators over the common denominator; each row also enters
    # as a diagonal term of numerator -denom, which subtracts f's own pairs
    f, h = entry_codes(rule)
    rows = row_codes(rule)
    denom, nums = entry_numerators(rule)
    if not _codes_in_range(f, h, p):
        raise ValueError(f"graph codes out of range for order {k}")
    # each term enters at most 2p class sums, so no sum can exceed 2p times
    # the total |numerator|; beyond int64, exact Python integers
    bound = 2 * p * (len(nums) + len(rows)) * _largest(nums, denom)
    dtype = np.int64 if bound < _SMALL else object
    # the entries, then the diagonal terms: each half is sorted by row, so
    # a run of equal f holds terms of one row, and both runs of a row add
    # into its classes
    f = np.concatenate([f, rows])
    h = np.concatenate([h, rows])
    nums = np.concatenate([nums.astype(dtype), np.full(len(rows), -denom, dtype=dtype)])
    index = _census(k).index
    first, second = np.array(pair_list(k)).T - 1
    acc = np.zeros(len(classes), dtype=dtype)
    for blk in _blocks(len(f), p):
        fb = f[blk]
        starts = np.flatnonzero(np.diff(fb, prepend=-1))
        held = h[blk, None] >> np.arange(p) & 1
        z = np.add.reduceat(nums[blk, None] * held, starts, axis=0)
        graphs = fb[starts, None]
        np.add.at(acc, index[graphs, first, second], z)
        np.add.at(acc, index[graphs, second, first], z)
    return CoeffVector._from_numerators(k, classes, acc, denom)


# Lifted entries are held to this many, the size of the velocity's grid
# budget: each entry is copied once per graph on the new pairs.
_LIFT_BUDGET = 4_000_000


def lift(rule, to, cap=None):
    """Rewrite a rule so that it samples `to` vertices, applies the original
    rule to the subgraph induced on the first `rule.order` of them, and
    keeps every other pair unchanged.  Lifted rules drive the same
    trajectories as the original.  The lifted rule has
    2^(C(to, 2) - C(k, 2)) entries per entry of the order-k rule; beyond
    4,000,000 of them, CapExceeded before any is built."""
    k1 = rule.order
    if to < k1:
        raise ValueError(f"cannot lift an order-{k1} rule down to order {to}")
    _check_cap(to, cap, "lifting")
    if to == k1:
        return rule
    low = num_pairs(k1)
    denom, nums = entry_numerators(rule)
    if not len(nums):
        return Rule(to)
    lifted = len(nums) << (num_pairs(to) - low)
    if lifted > _LIFT_BUDGET:
        raise CapExceeded(
            f"lifting {len(nums)} entries to order {to} makes {lifted} entries, "
            f"beyond the budget of {_LIFT_BUDGET}"
        )
    f, h = entry_codes(rule)
    if not _codes_in_range(f, h, low):
        raise ValueError(f"graph codes out of range for order {k1}")
    # the top bits lie above every code of the rule, so the lifted codes
    # are sorted top by top
    tops = np.arange(1 << (num_pairs(to) - low), dtype=np.int64)[:, None] << low
    return Rule._from_numerators(
        to, (tops | f).ravel(), (tops | h).ravel(),
        np.broadcast_to(nums, (len(tops), len(nums))).ravel(), denom)


def compare(rule1, rule2, cap=None):
    """Decide trajectory equivalence exactly.  Rules of different orders are
    compared after lifting the lower-order one."""
    to = max(rule1.order, rule2.order)
    rule1, rule2 = (lift(rule, to, cap) if rule.order < to else rule
                    for rule in (rule1, rule2))
    v1 = coeff_vector(rule1, cap)
    v2 = coeff_vector(rule2, cap)
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


def dilation_factor(rule1, rule2, cap=None):
    """The positive rational C with coeffs(rule1) = C * coeffs(rule2)
    everywhere, meaning rule1 runs the shared trajectory C times faster.
    Two zero vectors give 1; no positive proportionality gives None."""
    return _dilation(*compare(rule1, rule2, cap).vectors)


# -------------------------------------------------------------- symmetrization

def _orbit_sums(rule, cap=None):
    """(denom, keys, masses, sizes) for every relabelling orbit of index
    pairs that an explicit row touches, in increasing key order: keys from
    pair_orbits, masses the orbits' totals as numerators over denom, sizes
    their member counts.  Relabelled identity rows add mass 1 on their
    diagonal, and a touched row's diagonal orbit is listed even at mass 0.
    An orbit left out holds identity rows only: mass = size on the
    diagonal, 0 elsewhere."""
    k = rule.order
    _check_cap(k, cap, "relabelling sweep")
    f, h = entry_codes(rule)
    explicit = row_codes(rule)
    denom, nums = entry_numerators(rule)
    row_keys, _ = pair_orbits(k, explicit, explicit)
    # sorted in Python: np.unique without index outputs imports numpy.ma
    diag_keys = np.array(sorted(set(row_keys.tolist())), dtype=np.int64)
    diagonals, owners = orbit_members(k, diag_keys)
    diag_sizes = np.bincount(owners, minlength=len(diag_keys))
    # identity rows per diagonal orbit, each of numerator denom
    implicit = ~np.isin(diagonals & full_bits(k), explicit)
    identity = np.bincount(owners[implicit], minlength=len(diag_keys))
    entry_keys, entry_sizes = pair_orbits(k, f, h)
    keys, first, inverse = np.unique(np.concatenate([entry_keys, diag_keys]),
                                     return_index=True, return_inverse=True)
    sizes = np.concatenate([entry_sizes, diag_sizes])[first]
    # no mass can pass the total |numerator| of the entries and identities
    bound = (len(nums) + int(identity.sum())) * _largest(nums, denom)
    dtype = np.int64 if bound < _SMALL else object
    masses = np.zeros(len(keys), dtype=dtype)
    np.add.at(masses, inverse, np.concatenate(
        [nums.astype(dtype), identity.astype(dtype) * denom]))
    return denom, keys, masses, sizes


def symmetrize(rule, cap=None):
    """Average the rule over simultaneous relabellings of both indices.
    The result is symmetric, row-stochastic whenever the input is, and has
    the same coefficient vector, hence the same trajectories."""
    k = rule.order
    denom, keys, masses, sizes = _orbit_sums(rule, cap)
    held = masses != 0
    keys, masses, sizes = keys[held], masses[held], sizes[held]
    # every member of an orbit gets the orbit's mass over its size, which
    # is masses * (lcm / sizes) over denom * lcm for the lcm of the sizes
    lcm = math.lcm(*sizes.tolist())
    if masses.dtype != object and _largest(masses, 1) * lcm >= _SMALL:
        masses = masses.astype(object)
    shares = masses * (lcm // sizes)
    members, owners = orbit_members(k, keys)
    # member codes f << P | h sort as the pairs (f, h) do
    order = np.argsort(members)
    members = members[order]
    return Rule._from_numerators(
        k, members >> num_pairs(k), members & full_bits(k),
        shares[owners[order]], denom * lcm)


# ----------------------------------------------------------------- uniqueness

def classify_unique(rule, cap=None):
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
    not symmetric.  Witnesses are verified (valid, distinct,
    coefficient-equal) before being returned.
    """
    validate(rule)
    if rule.order <= 2:
        return UniquenessVerdict(True, "order-2", None)
    sym = is_symmetric(rule, cap)
    if sym and is_deterministic(rule):
        return UniquenessVerdict(True, "symmetric-deterministic", None)
    if not sym:
        witness = symmetrize(rule, cap)
        _check_witness(rule, witness, cap)
        return UniquenessVerdict(False, "witness", witness)
    witness = _marginal_witness(rule, cap)
    _check_witness(rule, witness, cap)
    return UniquenessVerdict(False, "witness", witness)


def _check_witness(rule, witness, cap=None):
    validate(witness)
    if witness == rule:
        raise RuntimeError(
            "internal error: uniqueness witness coincides with the input rule"
        )
    if not compare(rule, witness, cap).equivalent:
        raise RuntimeError(
            "internal error: uniqueness witness is not coefficient-equal"
        )


def _shift(entries, f, source, target, amount):
    """Move `amount` of row f's mass from `source` to `target`."""
    entries[(f, source)] -= amount
    entries[(f, target)] = entries.get((f, target), 0) + amount


def _marginal_witness(rule, cap=None):
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
            return symmetrize(Rule(k, entries), cap)
    # otherwise every non-deterministic row is {L, L + e}.  A row fixed by
    # every relabelling would need a support closed under relabelling, which
    # two graphs one pair apart are not at order >= 3, so some relabelling
    # sigma moves f to g; taking e off at f while sigma(e) goes on at g
    # keeps every class sum
    f = next(f for f in sorted(rows) if len(rows[f]) > 1)
    lo, hi = sorted(rows[f])
    images = perm_images(k, [f, lo, hi])
    g, g_lo, g_hi = images[np.flatnonzero(images[:, 0] != f)[0]].tolist()
    eps = min(rows[f][lo], rows[f][hi])
    _shift(entries, f, hi, lo, eps)
    _shift(entries, g, g_lo, g_hi, eps)
    return Rule(k, entries)


# -------------------------------------------------------- orbit-sum conjecture

K1_BANNER = (
    "CONJECTURE: equal orbit sums deciding distribution equality of the "
    "finite processes is unproven; this check is exploratory and its verdict "
    "must not be treated as established fact."
)


def check_k1(rule1, rule2, cap=None):
    """Conjectured test: the two rules induce identically distributed finite
    processes iff, for every relabelling orbit of index pairs (F, H), the
    total entry mass over the orbit agrees.  Compares those orbit sums.

    Implicit identity rows carry mass 1 on their diagonal pair and are
    included.  See K1_BANNER: the equivalence is a conjecture.
    """
    if rule1.order != rule2.order:
        raise ValueError("the orbit-sum check compares rules of equal order")
    p, mask = num_pairs(rule1.order), full_bits(rule1.order)

    def listed(rule):
        # the sums that differ from an orbit of identity rows alone
        denom, keys, masses, sizes = _orbit_sums(rule, cap)
        out = {}
        for key, num, size in zip(keys.tolist(), masses.tolist(), sizes.tolist()):
            default = size if key >> p == key & mask else 0
            if num != default * denom:
                out[key] = Fraction(num, denom)
        return out

    return listed(rule1) == listed(rule2)
