"""Replacement rules: sparse row-stochastic matrices over the labelled
graphs of a fixed order, with exact rational entries.

A rule maps each drawn graph F to a distribution over replacement graphs.
Rows without explicit entries are identity rows (keep F with probability 1),
so sparse rules stay sparse under every operation here.  Construction
normalizes: exact zeros are dropped and a row stored as the point mass on
its own index is dropped too, making structural equality semantic equality.

A rule holds its entries as integer numerators over one denominator, the
least common one, beside the sorted from and to codes.  The Fraction views
(`entries`, `rows()`) are built on first use.
"""

import functools
import json
import math
from fractions import Fraction

import numpy as np

from .codes import _check_cap, _orbit_sweep, full_bits, num_pairs


class RuleValidationError(ValueError):
    """Raised by validate(); .problems lists every violation found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid rule: " + "; ".join(self.problems))


# Exact integers below this bound in magnitude are held in int64 arrays, so
# that sums of a few of them, and their comparisons with the denominator,
# stay within int64; larger ones are held as Python integers.
_SMALL = 1 << 62


def _int_array(values):
    """Integers as an int64 array when every one fits, else as an object
    array of Python integers."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        out = np.empty(len(values), dtype=object)
        out[:] = list(values)
        return out


def _numerator_array(nums, denom):
    """Numerators as an int64 array when they and the denominator are
    below _SMALL in magnitude, else as an object array."""
    nums = _int_array(nums)
    if nums.dtype == object:
        small = denom < _SMALL and all(-_SMALL < n < _SMALL for n in nums.tolist())
        return nums.astype(np.int64) if small else nums
    if denom >= _SMALL or (nums.size and (nums.min() <= -_SMALL or nums.max() >= _SMALL)):
        return nums.astype(object)
    return nums


def _lowest_terms(nums, denom):
    """(nums, denom) with their common factor divided out, so that denom
    is the least common denominator of the fractions nums[i] / denom;
    nums as _numerator_array gives them."""
    nums = _numerator_array(nums, denom)
    if nums.dtype == object:
        g = math.gcd(denom, *nums.tolist())
    else:
        g = math.gcd(denom, int(np.gcd.reduce(nums)) if nums.size else 0)
    if g == 1:
        return nums, denom
    return _numerator_array(nums // g, denom // g), denom // g


def _common_denominator(fractions):
    """(nums, denom): the Fractions as integers over their least common
    denominator."""
    denom = math.lcm(*[p.denominator for p in fractions])
    return [p.numerator * (denom // p.denominator) for p in fractions], denom


def _per_numerator(nums, denom, form=None):
    """A list of Fraction(n, denom), or of form() of it, for each integer
    n of nums, made once per distinct numerator."""
    made = {}
    for n in set(nums):
        made[n] = Fraction(n, denom) if form is None else form(Fraction(n, denom))
    return list(map(made.__getitem__, nums))


def _largest(nums, denom):
    """The largest of denom and every |nums[i]|, a bound for sums."""
    return max(denom, int(abs(nums).max()) if nums.size else 0)


def _codes_in_range(f, h, p):
    """Whether every code in the int64 arrays f and h is in [0, 2^p)."""
    # f | h is negative, or holds a bit past p, exactly when f or h does
    either = f | h
    return not either.size or (either.min() >= 0 and (p >= 63 or not either.max() >> p))


def _row_starts(f):
    """Positions where a run of equal codes starts in the sorted array f."""
    if not len(f):
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(np.concatenate(([True], f[1:] != f[:-1])))


class Rule:
    """order: number of sampled vertices k.
    entries: mapping (from_bits, to_bits) -> probability, exact rationals."""

    __slots__ = ("order", "_f", "_h", "_nums", "_denom", "_starts",
                 "_entries", "_rows", "_hash")

    def __init__(self, order, entries=None):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        merged = {}
        for (f, h), p in (entries or {}).items():
            if type(p) is not Fraction:
                p = Fraction(p)
            if p:
                key = int(f), int(h)
                merged[key] = merged[key] + p if key in merged else p
        keys = sorted(merged)
        nums, denom = _common_denominator([merged[key] for key in keys])
        f = _int_array([f for f, _ in keys])
        h = _int_array([h for _, h in keys])
        self._store(order, f, h, nums, denom)

    @classmethod
    def _from_numerators(cls, order, f, h, nums, denom):
        """The rule with entries (f[i], h[i]) -> nums[i] / denom, for code
        arrays sorted by (from, to) without repeated pairs, as the library
        builds them.  Normalizes like the constructor."""
        rule = cls.__new__(cls)
        rule._store(order, f, h, nums, denom)
        return rule

    def _store(self, order, f, h, nums, denom):
        nums, denom = _lowest_terms(nums, denom)
        keep = nums != 0
        if not keep.all():
            f, h, nums = f[keep], h[keep], nums[keep]
        starts = _row_starts(f)
        # identity point rows: one entry, on the diagonal, of probability 1
        single = starts[np.diff(starts, append=len(f)) == 1]
        point = single[(f[single] == h[single]) & (nums[single] == denom)]
        if point.size:
            keep = np.ones(len(f), dtype=bool)
            keep[point] = False
            f, h, nums = f[keep], h[keep], nums[keep]
            starts = _row_starts(f)
        for array in (f, h, nums, starts):
            array.flags.writeable = False  # shared with callers, never copied
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_f", f)
        object.__setattr__(self, "_h", h)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_denom", denom)
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_entries", None)
        object.__setattr__(self, "_rows", None)
        object.__setattr__(self, "_hash", None)

    @property
    def entries(self):
        """{(from_bits, to_bits): probability} in (from, to) order."""
        if self._entries is None:
            object.__setattr__(self, "_entries", dict(zip(
                zip(self._f.tolist(), self._h.tolist()),
                _per_numerator(self._nums.tolist(), self._denom))))
        return self._entries

    def rows(self):
        """Explicit rows only, as {from_bits: {to_bits: probability}}."""
        if self._rows is None:
            rows = {}
            for (f, h), p in self.entries.items():
                row = rows.get(f)
                if row is None:
                    rows[f] = {h: p}
                else:
                    row[h] = p
            object.__setattr__(self, "_rows", rows)
        return self._rows

    def row(self, f):
        """The explicit row for f, or None when f is an identity row."""
        return self.rows().get(f)

    def probability(self, f, h):
        row = self.rows().get(f)
        if row is None:
            return Fraction(1) if f == h else Fraction(0)
        return row.get(h, Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, Rule):
            return NotImplemented
        return (self.order == other.order and self._denom == other._denom
                and np.array_equal(self._f, other._f)
                and np.array_equal(self._h, other._h)
                and np.array_equal(self._nums, other._nums))

    def __hash__(self):
        # computed once: a rule keys the compiled-velocity cache on every
        # velocity() call
        if self._hash is None:
            # the dtype follows the values, so int64 bytes are canonical
            parts = [a.tobytes() if a.dtype != object else tuple(a.tolist())
                     for a in (self._f, self._h, self._nums)]
            object.__setattr__(self, "_hash", hash((self.order, self._denom, *parts)))
        return self._hash

    def __reduce__(self):
        # the canonical arrays only: the views and the hash are rebuilt, as
        # bytes hash differently in every process
        return Rule._from_numerators, (
            self.order, self._f, self._h, self._nums, self._denom)

    def __repr__(self):
        return f"Rule(order={self.order}, entries={len(self._nums)})"


def entry_numerators(rule):
    """(denom, nums): the explicit entries over their least common
    denominator, nums[i] / denom == the i-th entry, as a read-only array:
    int64 when the numbers are small, else Python integers."""
    return rule._denom, rule._nums


def _exact_problems(rule):
    """rule_problems on Python integers, for any size of code or number."""
    problems = []
    limit = 1 << num_pairs(rule.order)
    denom = rule._denom
    fs, hs, nums = rule._f.tolist(), rule._h.tolist(), rule._nums.tolist()
    bounds = rule._starts.tolist() + [len(nums)]
    for lo, hi in zip(bounds, bounds[1:]):
        f = fs[lo]
        if not 0 <= f < limit:
            problems.append(f"row index {f} out of range for order {rule.order}")
        total = 0
        for h, num in zip(hs[lo:hi], nums[lo:hi]):
            if not 0 <= h < limit:
                problems.append(
                    f"replacement index {h} out of range for order {rule.order}"
                )
            if num < 0 or num > denom:
                problems.append(f"entry ({f} -> {h}) has probability "
                                f"{Fraction(num, denom)} outside [0, 1]")
            total += num
        if total != denom:
            problems.append(f"row {f} has row sum {Fraction(total, denom)}")
    return problems


def rule_problems(rule):
    """Every validation violation, as human-readable strings.  A rule whose
    codes fit int64 and whose row sums cannot pass 2^62 is checked in
    numpy; one found invalid there, or too large for it, is checked again
    on Python integers, which word the problems."""
    f, h, nums, denom = rule._f, rule._h, rule._nums, rule._denom
    if not len(nums):
        return []
    if f.dtype != object and nums.dtype != object and len(nums) * denom < _SMALL:
        if (_codes_in_range(f, h, num_pairs(rule.order))
                and nums.min() >= 0 and nums.max() <= denom
                and (np.add.reduceat(nums, rule._starts) == denom).all()):
            return []
    return _exact_problems(rule)


def validate(rule):
    """Raise RuleValidationError listing all problems; no-op when valid."""
    problems = rule_problems(rule)
    if problems:
        raise RuleValidationError(problems)


# --------------------------------------------------------------- named rules

# The last order whose complete graph, C(k, 2) bits, prints in at most
# 4,300 digits, CPython's limit for turning an int into text: order 170
# would need 4,325.
MAX_NAMED_ORDER = 169


def make_named(family, k, cap=None, **params):
    """Construct a named rule family at order k.  Families:
    identity, triangle-removal, triangle-edge-removal, complementing,
    extremist (threshold=...), clique-removal, ignorant (dist=...),
    component-completion (not implemented).  complementing, extremist and
    ignorant list all 2^C(k, 2) rows, so their order is held to the
    enumeration cap; every family stops at MAX_NAMED_ORDER."""
    family = family.replace("_", "-")
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    if family in ("complementing", "extremist", "ignorant"):
        _check_cap(k, cap, f"the {family} rule")
    if k > MAX_NAMED_ORDER:
        raise ValueError(
            f"named rules stop at order {MAX_NAMED_ORDER}, the last order whose "
            f"graph codes print in 4,300 digits; got order {k}"
        )
    P = num_pairs(k)

    if family == "identity":
        return Rule(k, {})

    if family == "triangle-removal":
        if k != 3:
            raise ValueError("triangle-removal is an order-3 rule")
        return Rule(3, {(7, 0): Fraction(1)})

    if family == "triangle-edge-removal":
        if k != 3:
            raise ValueError("triangle-edge-removal is an order-3 rule")
        third = Fraction(1, 3)
        return Rule(3, {(7, 7 ^ (1 << e)): third for e in range(3)})

    if family == "complementing":
        comp = full_bits(k)
        return Rule(k, {(f, f ^ comp): Fraction(1) for f in range(1 << P)})

    if family == "extremist":
        threshold = params.pop("threshold", Fraction(P, 2))
        _reject_params(family, params)
        threshold = threshold if isinstance(threshold, Fraction) else Fraction(threshold)
        entries = {}
        for f in range(1 << P):
            target = full_bits(k) if f.bit_count() >= threshold else 0
            entries[(f, target)] = Fraction(1)
        return Rule(k, entries)

    if family == "clique-removal":
        return Rule(k, {(full_bits(k), 0): Fraction(1)})

    if family == "ignorant":
        dist = params.pop("dist", None)
        _reject_params(family, params)
        if dist is None:
            raise ValueError("ignorant rule needs dist={to_bits: probability}")
        dist = {int(h): Fraction(p) for h, p in dist.items()}
        if sum(dist.values()) != 1 or any(p < 0 for p in dist.values()):
            raise ValueError("ignorant dist must be a probability distribution")
        entries = {}
        for f in range(1 << P):
            for h, p in dist.items():
                entries[(f, h)] = p
        return Rule(k, entries)

    if family == "component-completion":
        raise NotImplementedError(
            "component-completion is recognized but intentionally not implemented"
        )

    raise ValueError(f"unknown rule family {family!r}")


def _reject_params(family, params):
    if params:
        raise ValueError(f"unknown parameters for {family}: {sorted(params)}")


def entry_codes(rule):
    """The explicit entries' (from_bits, to_bits) as two read-only int64
    arrays, in entry order; a code past int64 is out of range at every
    order that the numpy tables reach."""
    if rule._f.dtype == object or rule._h.dtype == object:
        raise ValueError(f"graph codes out of range for order {rule.order}")
    return rule._f, rule._h


def row_codes(rule):
    """The explicit rows' from_bits as an int64 array, in row order."""
    return entry_codes(rule)[0][rule._starts]


# ----------------------------------------------------------------- predicates

def is_symmetric(rule, cap=None):
    """Invariance under simultaneous relabelling of both indices: the rule
    equals its symmetrization, the average over all relabellings.  The
    order is held to the enumeration cap, since the orbits come from a
    sweep over all k! relabellings.
    """
    _check_cap(rule.order, cap, "symmetry check")
    return symmetrize(rule, cap) == rule


def symmetrize(rule, cap=None):
    """Average the rule over simultaneous relabellings of both indices.
    The result is symmetric, row-stochastic whenever the input is, and has
    the same coefficient vector, hence the same trajectories.

    Each relabelling orbit of index pairs that an explicit row touches
    spreads its mass evenly over its members; relabelled identity rows
    add mass 1 on their diagonal.  An orbit left out holds identity rows
    only, which stay."""
    k = rule.order
    _check_cap(k, cap, "relabelling sweep")
    denom, nums = rule._denom, rule._nums
    orbits = _orbit_sweep(k, *entry_codes(rule), rule._starts)
    sizes, owners = orbits.sizes, orbits.owners
    # identity rows per diagonal orbit, each of numerator denom: its
    # members less the explicit rows among them
    explicit = np.bincount(orbits.row_orbit, minlength=len(sizes))
    identity = np.where(explicit > 0, sizes - explicit, 0)
    # no mass can pass the total |numerator| of the entries and identities
    bound = (len(nums) + int(identity.sum())) * _largest(nums, denom)
    dtype = np.int64 if bound < _SMALL else object
    masses = identity.astype(dtype) * denom
    np.add.at(masses, orbits.entry_orbit, nums.astype(dtype))
    # every member of an orbit gets the orbit's mass over its size, which
    # is masses * (lcm / sizes) over denom * lcm for the lcm of the sizes
    held = masses != 0
    lcm = math.lcm(*sizes[held].tolist())
    if dtype != object and _largest(masses, 1) * lcm >= _SMALL:
        masses = masses.astype(object)
    shares = masses * (lcm // sizes)
    # members come sorted, and member codes f << P | h sort as (f, h) do
    keep = held[owners]
    members = orbits.members[keep]
    return Rule._from_numerators(k, members >> num_pairs(k), members & full_bits(k),
                                 shares[owners[keep]], denom * lcm)


def is_deterministic(rule):
    """Every row is a point mass."""
    nums = rule._nums
    return len(rule._starts) == len(nums) and bool((nums == rule._denom).all())


def ignorant_edge_count(rule):
    """The common expected replacement edge count when the rule ignores its
    input (every row is the same distribution), else None."""
    k = rule.order
    shared = None
    for f in range(1 << num_pairs(k)):
        row = rule.row(f)
        if row is None:
            row = {f: Fraction(1)}
        if shared is None:
            shared = row
        elif row != shared:
            return None
    return sum(p * Fraction(h.bit_count()) for h, p in shared.items())


# -------------------------------------------------------------- serialization

def rule_to_json_obj(rule):
    texts = _per_numerator(rule._nums.tolist(), rule._denom, str)
    return {
        "order": rule.order,
        "entries": [
            {"from": f, "to": h, "p": p}
            for f, h, p in zip(rule._f.tolist(), rule._h.tolist(), texts)
        ],
        "default": "identity",
    }


def rule_to_json(rule):
    return _json_text(rule_to_json_obj(rule))


_encode_str = json.encoder.encode_basestring_ascii
_encode_scalar = json.JSONEncoder().encode


def _json_text(obj):
    """json.dumps(obj, indent=2) + "\n", byte for byte, for a tree of
    dicts with string keys, lists, tuples and JSON scalars.

    With an indent, CPython's json runs its pure-Python encoder.  Here
    the containers are laid out in Python and each leaf is encoded by
    json itself: strings by its C encode_basestring_ascii, ints by
    int.__repr__, and floats, booleans and None by a JSONEncoder."""
    chunks = []
    append = chunks.append
    # layouts[d]: the separators inside a container at depth d, shared by
    # every container at that depth
    layouts = []

    def put(value, depth):
        if isinstance(value, str):
            append(_encode_str(value))
        elif value is None or value is True or value is False or isinstance(value, float):
            append(_encode_scalar(value))
        elif isinstance(value, int):
            append(int.__repr__(value))
        elif isinstance(value, (list, tuple, dict)):
            is_dict = isinstance(value, dict)
            if not value:
                append("{}" if is_dict else "[]")
                return
            while len(layouts) <= depth:
                inner = "\n" + "  " * (len(layouts) + 1)
                layouts.append((inner, "," + inner, inner[:-2]))
            first, sep, close = layouts[depth]
            append("{" if is_dict else "[")
            start = len(chunks)
            for item in value:
                append(sep)
                if is_dict:
                    if not isinstance(item, str):
                        raise TypeError(f"keys must be str, not {item.__class__.__name__}")
                    append(_encode_str(item))
                    append(": ")
                    item = value[item]
                # the common leaves inline, the rest through put
                kind = type(item)
                if kind is str:
                    append(_encode_str(item))
                elif kind is int:
                    append(int.__repr__(item))
                else:
                    put(item, depth + 1)
            chunks[start] = first
            append(close)
            append("}" if is_dict else "]")
        else:
            raise TypeError(f"Object of type {value.__class__.__name__} "
                            f"is not JSON serializable")

    put(obj, 0)
    append("\n")
    return "".join(chunks)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


_ENTRY_FIELDS = frozenset(("from", "to", "p"))

# Input numbers are held to this many digits, counting a decimal exponent
# as its magnitude, so that every accepted number is cheap to build and
# prints within the 4,300 digits of CPython's integer-to-text limit.
MAX_NUMBER_DIGITS = 1000


@functools.lru_cache(maxsize=1024)
def exact_number(text):
    """The exact rational that a string such as "1/3", "0.25" or "1e-3"
    names, parsed once per distinct string.  A string with more than
    MAX_NUMBER_DIGITS characters before its exponent, or whose decimal
    exponent would take its digits past that, raises ValueError before
    any arithmetic: Fraction("1e-3000000") would build 10^3000000."""
    body, _, exponent = text.strip().lower().partition("e")
    magnitude = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if len(body) > MAX_NUMBER_DIGITS or (magnitude.isdecimal() and (
            len(magnitude) > 4 or len(body) + int(magnitude) > MAX_NUMBER_DIGITS)):
        shown = text if len(text) <= 40 else text[:37] + "..."
        raise ValueError(
            f"number {shown!r} exceeds the input budget of {MAX_NUMBER_DIGITS} "
            f"digits, counting a decimal exponent as its magnitude"
        )
    return Fraction(text)  # "p/q" and decimal strings, both exact


def rule_from_json_obj(obj):
    if not isinstance(obj, dict):
        raise ValueError("rule JSON must be an object")
    extra = set(obj) - {"order", "entries", "default"}
    if extra:
        raise ValueError(f"unknown fields in rule: {sorted(extra)}")
    if "order" not in obj:
        raise ValueError("rule JSON is missing the order")
    order = obj["order"]
    if not _is_int(order) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    default = obj.get("default", "identity")
    if default != "identity":
        raise ValueError(f"unsupported default {default!r}; only identity rows are implicit")
    items = obj.get("entries", [])
    if not isinstance(items, list) or not all(isinstance(i, dict) for i in items):
        raise ValueError("rule entries must be a list of objects")
    entries = {}
    for item in items:
        if not _ENTRY_FIELDS.issuperset(item):
            extra = sorted(set(item) - _ENTRY_FIELDS)
            raise ValueError(f"unknown fields in rule entry: {extra}")
        try:
            key = f, h = item["from"], item["to"]
        except KeyError as missing:
            raise ValueError(f"rule entry is missing {missing}")
        if not _is_int(f) or not _is_int(h):
            raise ValueError("entry graph codes must be integers")
        p = item.get("p")
        if isinstance(p, str):
            p = exact_number(p)
        elif _is_int(p):
            p = Fraction(p)
        else:
            raise ValueError(
                f"probability must be an exact string such as \"1/3\", got {p!r}"
            )
        entries[key] = entries[key] + p if key in entries else p
    return Rule(order, entries)


def parse_rule_json(text):
    return rule_from_json_obj(json.loads(text))


def load_rule(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_rule_json(fh.read())


def save_rule(rule, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(rule_to_json(rule))
