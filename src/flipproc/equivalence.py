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
and is constructed explicitly (symmetrization for asymmetric rules, a
probability-mass perturbation along root-stabilizer pair orbits for
symmetric non-deterministic ones).
"""

from dataclasses import dataclass
from fractions import Fraction

from .codes import (
    CapExceeded,
    GraphCode,
    OrbitClass,
    RootedPairGraph,
    all_perms,
    apply_perm_bits,
    canonical_class,
    enumerate_classes,
    enumeration_cap,
    num_pairs,
    pair_index,
    pair_list,
    _pair_maps,
)
from .rules import Rule, is_deterministic, is_symmetric, rule_problems, validate


class CoeffVector:
    """The full map from orbit classes at one order to their coefficients."""

    __slots__ = ("order", "classes", "coeffs")

    def __init__(self, order, classes, coeffs):
        self.order = order
        self.classes = tuple(classes)
        self.coeffs = dict(coeffs)

    def __getitem__(self, cls):
        return self.coeffs[cls]

    def __eq__(self, other):
        if not isinstance(other, CoeffVector):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, tuple(sorted(self.coeffs.items()))))

    def items(self):
        return [(cls, self.coeffs[cls]) for cls in self.classes]

    def nonzero(self):
        return [(cls, c) for cls, c in self.items() if c != 0]

    def is_zero(self):
        return all(c == 0 for c in self.coeffs.values())

    def to_json_obj(self):
        out = []
        for cls, c in self.items():
            entry = cls.to_json_obj()
            entry["coeff"] = str(c)
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
    indicator, so its expected change is zero everywhere.
    """
    k = rule.order
    classes = enumerate_classes(k, cap)
    coeffs = {cls: Fraction(0) for cls in classes}
    pairs = pair_list(k)
    for f, row in rule.rows().items():
        code = GraphCode(k, f)
        for idx, (i, j) in enumerate(pairs):
            mass = sum(p for h, p in row.items() if h >> idx & 1)
            z = mass - (1 if f >> idx & 1 else 0)
            if z == 0:
                continue
            for a, b in ((i, j), (j, i)):
                cls = canonical_class(RootedPairGraph(code, a, b), cap)
                coeffs[cls] += z
    return CoeffVector(k, classes, coeffs)


def lift(rule, to, cap=None):
    """Rewrite a rule so that it samples `to` vertices, applies the original
    rule to the subgraph induced on the first `rule.order` of them, and
    keeps every other pair unchanged.  Lifted rules drive the same
    trajectories as the original."""
    k1 = rule.order
    if to < k1:
        raise ValueError(f"cannot lift an order-{k1} rule down to order {to}")
    if to > enumeration_cap(cap):
        raise CapExceeded(
            f"lifting to order {to} materializes rows over 2^{num_pairs(to)} "
            f"graphs, beyond the enumeration cap {enumeration_cap(cap)}"
        )
    if to == k1:
        return Rule(k1, dict(rule.entries))
    low = num_pairs(k1)
    hi_count = num_pairs(to) - low
    entries = {}
    for f, row in rule.rows().items():
        for hi in range(1 << hi_count):
            top = hi << low
            for h, p in row.items():
                entries[(top | f, top | h)] = p
    return Rule(to, entries)


def _common_order(rule1, rule2, cap=None):
    """The two rules at the larger of their orders, the lower one lifted."""
    to = max(rule1.order, rule2.order)
    return tuple(
        lift(rule, to, cap) if rule.order < to else rule
        for rule in (rule1, rule2)
    )


def compare(rule1, rule2, cap=None):
    """Decide trajectory equivalence exactly.  Rules of different orders are
    compared after lifting the lower-order one."""
    rule1, rule2 = _common_order(rule1, rule2, cap)
    v1 = coeff_vector(rule1, cap)
    v2 = coeff_vector(rule2, cap)
    differing = None
    for cls in v1.classes:
        if v1[cls] != v2[cls]:
            differing = cls
            break
    return EquivalenceVerdict(differing is None, rule1.order, (v1, v2), differing)


def dilation_factor(rule1, rule2, cap=None):
    """The positive rational C with coeffs(rule1) = C * coeffs(rule2)
    everywhere, meaning rule1 runs the shared trajectory C times faster.
    Two zero vectors give 1; no positive proportionality gives None."""
    rule1, rule2 = _common_order(rule1, rule2, cap)
    v1 = coeff_vector(rule1, cap)
    v2 = coeff_vector(rule2, cap)
    factor = None
    for cls in v1.classes:
        a1, a2 = v1[cls], v2[cls]
        if a2 == 0:
            if a1 != 0:
                return None
            continue
        c = a1 / a2
        if factor is None:
            factor = c
        elif factor != c:
            return None
    if factor is None:
        return Fraction(1)
    return factor if factor > 0 else None


# -------------------------------------------------------------- symmetrization

def symmetrize(rule, cap=None):
    """Average the rule over simultaneous relabellings of both indices.
    The result is symmetric, row-stochastic whenever the input is, and has
    the same coefficient vector, hence the same trajectories."""
    k = rule.order
    if k > enumeration_cap(cap):
        raise CapExceeded(
            f"symmetrizing at order {k} sweeps {k}! relabellings per entry, "
            f"beyond the enumeration cap {enumeration_cap(cap)}"
        )
    pmaps = _pair_maps(k)
    group = len(pmaps)
    acc = {}
    for (f, h), p in rule.entries.items():
        for pmap in pmaps:
            key = (apply_perm_bits(pmap, f), apply_perm_bits(pmap, h))
            acc[key] = acc.get(key, 0) + p
    explicit = rule.rows()
    touched = {f for f, _ in acc}
    for f in touched:
        # relabellings that land on an identity row contribute their whole
        # mass back to the diagonal
        implicit = sum(
            1 for pmap in pmaps if apply_perm_bits(pmap, f) not in explicit
        )
        if implicit:
            acc[(f, f)] = acc.get((f, f), 0) + implicit
    return Rule(k, {key: Fraction(v, group) for key, v in acc.items()})


# ------------------------------------------------------- symmetric-rule tools

def _stabilizer_pair_orbits(k, f):
    """Orbits of the pair indices under the stabilizer of the graph f,
    each as a sorted tuple of bit indices, ordered by smallest index."""
    pmaps = _pair_maps(k)
    stab = [pmap for pmap in pmaps if apply_perm_bits(pmap, f) == f]
    seen = set()
    orbits = []
    for idx in range(num_pairs(k)):
        if idx in seen:
            continue
        orb = {pmap[idx] for pmap in stab}
        seen |= orb
        orbits.append(tuple(sorted(orb)))
    return orbits, stab


def orbit_edge_histogram(rule, f, pair):
    """For a symmetric rule: the distribution of how many pairs of the
    root pair's stabilizer orbit are edges of the replacement, as
    {count: probability}.  f may be a GraphCode or raw bits."""
    bits = f.bits if isinstance(f, GraphCode) else int(f)
    k = rule.order
    if not is_symmetric(rule):
        raise ValueError("edge histograms are defined for symmetric rules")
    idx = _pair_index_of(k, pair)
    orbits, _ = _stabilizer_pair_orbits(k, bits)
    orbit = next(o for o in orbits if idx in o)
    mask = 0
    for b in orbit:
        mask |= 1 << b
    row = rule.row(bits)
    if row is None:
        row = {bits: Fraction(1)}
    hist = {count: Fraction(0) for count in range(len(orbit) + 1)}
    for h, p in row.items():
        hist[(h & mask).bit_count()] += p
    return hist


def _pair_index_of(k, pair):
    i, j = pair
    idx = pair_index(i, j)
    if idx >= num_pairs(k):
        raise ValueError(f"pair {pair} outside order {k}")
    return idx


# ----------------------------------------------------------------- uniqueness

def classify_unique(rule, cap=None):
    """Is this the only rule with its trajectories?

    Yes exactly when the order is at most 2, or the rule is symmetric and
    deterministic.  Otherwise a different rule with the same coefficient
    vector is produced: for an asymmetric rule its symmetrization, and for
    a symmetric non-deterministic rule a perturbation that moves mass along
    a stabilizer pair orbit while preserving every coefficient.  Witnesses
    are verified (valid, distinct, coefficient-equal) before being returned.
    """
    validate(rule)
    if rule.order <= 2:
        return UniquenessVerdict(True, "order-2", None)
    sym = is_symmetric(rule)
    if sym and is_deterministic(rule):
        return UniquenessVerdict(True, "symmetric-deterministic", None)
    if not sym:
        witness = symmetrize(rule, cap)
        _check_witness(rule, witness, cap)
        return UniquenessVerdict(False, "witness", witness)
    witness = _perturbation_witness(rule, cap)
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


def _pair_orbit(k, f, h):
    """The orbit of the index pair (f, h) under simultaneous relabelling."""
    return {
        (apply_perm_bits(pmap, f), apply_perm_bits(pmap, h))
        for pmap in _pair_maps(k)
    }


class _SymRow:
    """Cached per-row structure for the perturbation search."""

    def __init__(self, k, f, row):
        self.f = f
        self.row = row
        self.orbits, self.stab = _stabilizer_pair_orbits(k, f)
        self.masks = []
        for orb in self.orbits:
            mask = 0
            for b in orb:
                mask |= 1 << b
            self.masks.append(mask)

    def pvec(self, h):
        return tuple((h & mask).bit_count() for mask in self.masks)

    def pvec_without(self, h, skip):
        return tuple(
            (h & mask).bit_count()
            for pos, mask in enumerate(self.masks)
            if pos not in skip
        )


def _lowest_bit(x):
    return x & -x


def _apply_delta(entries, k, f, h, amount):
    """Add `amount` to every entry in the relabelling orbit of (f, h),
    splitting it equally; returns the orbit size used."""
    orbit = _pair_orbit(k, f, h)
    share = Fraction(amount, len(orbit))
    for key in orbit:
        entries[key] = entries.get(key, Fraction(0)) + share
    return len(orbit)


def _candidate(rule, deltas):
    """Build a perturbed rule: deltas are (f, h, signed_total_mass) triples,
    each spread over the whole relabelling orbit of (f, h)."""
    k = rule.order
    entries = dict(rule.entries)
    for f, h, amount in deltas:
        _apply_delta(entries, k, f, h, amount)
    return Rule(k, entries)


def _perturbation_witness(rule, cap=None):
    """Witness for a symmetric non-deterministic rule of order >= 3.

    Searches the four perturbation patterns in a fixed order over rows,
    stabilizer pair orbits, and support graphs; every candidate is verified
    before being returned.  If no pattern applies the search fails loudly:
    silently guessing a witness would corrupt the classification.
    """
    k = rule.order
    rows = [
        _SymRow(k, f, rule.rows()[f]) for f in sorted(rule.rows())
    ]

    for case in (_case_one, _case_two, _case_three, _case_four):
        for sr in rows:
            cand = case(rule, sr, cap)
            if cand is not None:
                return cand
    raise RuntimeError(
        "internal error: no perturbation pattern applies to this symmetric "
        "non-deterministic rule; the case analysis does not cover it and the "
        "witness cannot be constructed honestly"
    )


def _orbit_size(k, f, h):
    return len(_pair_orbit(k, f, h))


def _case_one(rule, sr, cap=None):
    """Some support graph meets a stabilizer pair orbit in strictly between
    0 and all of its pairs: split that graph's mass onto the two neighbours
    with one such pair fewer and one more."""
    k = rule.order
    f = sr.f
    for h in sorted(sr.row):
        counts = sr.pvec(h)
        for pos, orb in enumerate(sr.orbits):
            size = len(orb)
            c = counts[pos]
            if not 0 < c < size:
                continue
            mask = sr.masks[pos]
            h_minus = h ^ _lowest_bit(h & mask)
            h_plus = h | _lowest_bit(~h & mask)
            orbit_size = _orbit_size(k, f, h)
            eps = orbit_size * sr.row[h]
            cand = _candidate(rule, [
                (f, h, -eps),
                (f, h_minus, eps / 2),
                (f, h_plus, eps / 2),
            ])
            if _accept(rule, cand, cap):
                return cand
    return None


def _case_two(rule, sr, cap=None):
    """Two support graphs agree on every stabilizer pair orbit except one of
    size > 1, which one avoids and the other fills: drain both toward the
    interior."""
    k = rule.order
    f = sr.f
    for pos, orb in enumerate(sr.orbits):
        size = len(orb)
        if size < 2:
            continue
        mask = sr.masks[pos]
        groups = {}
        for h in sorted(sr.row):
            groups.setdefault(sr.pvec_without(h, {pos}), {}).setdefault(
                (h & mask).bit_count(), h
            )
        for levels in groups.values():
            if 0 not in levels or size not in levels:
                continue
            h0, h1 = levels[0], levels[size]
            eps = min(
                _orbit_size(k, f, h0) * sr.row[h0],
                _orbit_size(k, f, h1) * sr.row[h1],
            )
            if size >= 3:
                g_minus = h0 | _lowest_bit(mask)
                g_plus = h1 ^ _lowest_bit(h1 & mask)
                deltas = [
                    (f, h0, -eps),
                    (f, h1, -eps),
                    (f, g_minus, eps),
                    (f, g_plus, eps),
                ]
            else:
                g = h0 | _lowest_bit(mask)
                deltas = [
                    (f, h0, -eps),
                    (f, h1, -eps),
                    (f, g, 2 * eps),
                ]
            cand = _candidate(rule, deltas)
            if _accept(rule, cand, cap):
                return cand
    return None


def _case_three(rule, sr, cap=None):
    """Two fixed pairs of the stabilizer, all four on/off combinations in
    the support with the rest equal: shift mass along the diagonal of that
    2x2 block."""
    k = rule.order
    f = sr.f
    singles = [pos for pos, orb in enumerate(sr.orbits) if len(orb) == 1]
    for ia in range(len(singles)):
        for ib in range(ia + 1, len(singles)):
            pa, pb = singles[ia], singles[ib]
            mask_a, mask_b = sr.masks[pa], sr.masks[pb]
            groups = {}
            for h in sorted(sr.row):
                key = sr.pvec_without(h, {pa, pb})
                level = ((h & mask_a).bit_count(), (h & mask_b).bit_count())
                groups.setdefault(key, {}).setdefault(level, h)
            for levels in groups.values():
                if set(levels) != {(0, 0), (0, 1), (1, 0), (1, 1)}:
                    continue
                eps = None
                for (i, j), h in levels.items():
                    sign = 1 if (i + j) % 2 == 0 else -1
                    headroom = Fraction(1, 2) + sign * (
                        Fraction(1, 2) - _orbit_size(k, f, h) * sr.row[h]
                    )
                    eps = headroom if eps is None else min(eps, headroom)
                if eps <= 0:
                    continue
                deltas = [
                    (f, h, (1 if (i + j) % 2 == 0 else -1) * eps)
                    for (i, j), h in levels.items()
                ]
                cand = _candidate(rule, deltas)
                if _accept(rule, cand, cap):
                    return cand
    return None


def _case_four(rule, sr, cap=None):
    """A fixed pair of the stabilizer toggles between two support graphs that
    agree elsewhere: swap the toggle on this row against a relabelled copy
    of the row.  The witness is valid but no longer symmetric."""
    k = rule.order
    f = sr.f
    pmaps = _pair_maps(k)
    moved = next(
        (pmap for pmap in pmaps if apply_perm_bits(pmap, f) != f), None
    )
    if moved is None:
        return None
    g = apply_perm_bits(moved, f)
    for pos, orb in enumerate(sr.orbits):
        if len(orb) != 1:
            continue
        mask = sr.masks[pos]
        groups = {}
        for h in sorted(sr.row):
            groups.setdefault(sr.pvec_without(h, {pos}), {}).setdefault(
                (h & mask).bit_count(), h
            )
        for levels in groups.values():
            if 0 not in levels or 1 not in levels:
                continue
            h_minus, h_plus = levels[0], levels[1]
            sh_minus = apply_perm_bits(moved, h_minus)
            sh_plus = apply_perm_bits(moved, h_plus)
            eps = min(
                rule.probability(f, h_minus),
                rule.probability(g, sh_plus),
                1 - rule.probability(f, h_plus),
                1 - rule.probability(g, sh_minus),
            )
            if eps <= 0:
                continue
            entries = dict(rule.entries)
            for key, amount in (
                ((f, h_minus), -eps),
                ((g, sh_plus), -eps),
                ((f, h_plus), eps),
                ((g, sh_minus), eps),
            ):
                entries[key] = entries.get(key, Fraction(0)) + amount
            cand = Rule(k, entries)
            if _accept(rule, cand, cap):
                return cand
    return None


def _accept(rule, cand, cap=None):
    if rule_problems(cand):
        return False
    if cand == rule:
        return False
    return compare(rule, cand, cap).equivalent


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
    k = rule1.order
    if k > enumeration_cap(cap):
        raise CapExceeded(
            f"orbit sums at order {k} sweep all 2^{num_pairs(k)} rows, "
            f"beyond the enumeration cap {enumeration_cap(cap)}"
        )

    def orbit_sums(rule):
        sums = {}
        explicit = rule.rows()
        for (f, h), p in rule.entries.items():
            key = min(_pair_orbit(k, f, h))
            sums[key] = sums.get(key, Fraction(0)) + p
        for f in range(1 << num_pairs(k)):
            if f in explicit:
                continue
            key = min(_pair_orbit(k, f, f))
            sums[key] = sums.get(key, Fraction(0)) + 1
        return {key: v for key, v in sums.items() if v != 0}

    return orbit_sums(rule1) == orbit_sums(rule2)
