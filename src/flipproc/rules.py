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
import re
from fractions import Fraction

import numpy as np

from . import codes
from .codes import (_check_budget, _check_number, _is_int, _orbit_sweep, _positive_int,
                    full_bits, num_pairs)


class RuleValidationError(ValueError):
    """Raised by Rule() and validate(); .problems lists every violation."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid rule: " + "; ".join(self.problems))


# Exact integers below this bound in magnitude are held in int64 arrays, so
# that sums of a few of them, and their comparisons with the denominator,
# stay within int64; larger ones are held as Python integers.
_SMALL = 1 << 62


def _numerator_array(nums, denom):
    """Numerators as an int64 array when they and the denominator are
    below _SMALL in magnitude, else as an object array of Python integers."""
    try:
        nums = np.asarray(nums, dtype=np.int64)
    except OverflowError:  # a value past int64, so past _SMALL
        return np.array(list(nums), dtype=object)
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


def _row_starts(f):
    """Positions where a run of equal codes starts in the sorted array f."""
    if not len(f):
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(np.concatenate(([True], f[1:] != f[:-1])))


def _check_code_width(k):
    """CapExceeded past order 11, whose graphs need more than 62 bits."""
    _check_budget(num_pairs(k), 62, f"pairs in the 62-bit code of an order-{k} graph")


class Rule:
    """order: number of sampled vertices k.
    entries: mapping (from_bits, to_bits) -> probability, exact rationals.

    Past order 11, whose graphs need more than 62 bits, CapExceeded; an
    entry of nonzero probability with a code outside [0, 2^C(k, 2)) is a
    ValueError, and a probability outside [0, 1] or a row sum other than 1
    a RuleValidationError listing every problem: a rule is valid once built.

    The explicit entries are held sorted by (from, to) in read-only arrays:
    int64 codes _f and _h, and numerators _nums over their least common
    denominator _denom, so that _nums[i] / _denom is the i-th entry.  _nums
    is int64 when the numbers are small, else Python integers.  _starts
    indexes the first entry of each explicit row."""

    __slots__ = ("order", "_f", "_h", "_nums", "_denom", "_starts",
                 "_entries", "_rows", "_hash")

    def __init__(self, order, entries=None):
        order = _positive_int(order, "order")
        _check_code_width(order)
        merged = {}
        for (f, h), p in (entries or {}).items():
            # type() first: _is_int on every key adds ~1 ms to a 4,096-entry load
            if not ((type(f) is int or _is_int(f)) and (type(h) is int or _is_int(h))):
                raise ValueError(f"graph codes must be integers, got ({f!r}, {h!r})")
            if type(p) is not Fraction:
                p = _fraction(p, "probability", "probabilities must be numbers")
            key = int(f), int(h)
            merged[key] = merged[key] + p if key in merged else p
        keys = sorted(key for key, p in merged.items() if p)  # zeros dropped first
        P = num_pairs(order)
        try:
            f = np.array([f for f, _ in keys], dtype=np.int64)
            h = np.array([h for _, h in keys], dtype=np.int64)
            # f | h is negative, or holds a bit past P, exactly when f or h does
            either = f | h
            fits = not either.size or (either.min() >= 0 and not either.max() >> P)
        except OverflowError:  # a code past int64
            fits = False
        if not fits:
            code = next(c for key in keys for c in key if not 0 <= c < 1 << P)
            try:
                shown = f"graph code {code}"
            except ValueError:  # past CPython's integer-to-text limit
                shown = f"graph code of {code.bit_length()} bits"
            raise ValueError(f"{shown} is out of range for order {order}")
        nums, denom = _common_denominator([merged[key] for key in keys])
        self._store(order, f, h, nums, denom)
        validate(self)

    @classmethod
    def _from_numerators(cls, order, f, h, nums, denom):
        """The rule with entries (f[i], h[i]) -> nums[i] / denom, for int64
        code arrays in range, sorted by (from, to) without repeated pairs, of
        stochastic rows, as the library builds them from valid rules:
        unchecked.  Normalizes like the constructor."""
        rule = cls.__new__(cls)
        rule._store(order, f, h, nums, denom)
        return rule

    def _store(self, order, f, h, nums, denom):
        nums, denom = _lowest_terms(nums, denom)
        keep = nums != 0
        if not keep.all():
            f, h, nums = f[keep], h[keep], nums[keep]
        # identity point rows: one entry, on the diagonal, of probability 1,
        # so that the entries beside it belong to other rows
        point = np.flatnonzero((f == h) & (nums == denom))
        if point.size:
            last = len(f) - 1
            point = point[((point == 0) | (f[point - 1] != f[point]))
                          & ((point == last) | (f[np.minimum(point + 1, last)] != f[point]))]
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
            nums = self._nums.tobytes() if self._nums.dtype != object else tuple(self._nums)
            object.__setattr__(self, "_hash", hash((
                self.order, self._denom, self._f.tobytes(), self._h.tobytes(), nums)))
        return self._hash

    def __reduce__(self):
        # the canonical arrays only: the views and the hash are rebuilt, as
        # bytes hash differently in every process
        return Rule._from_numerators, (
            self.order, self._f, self._h, self._nums, self._denom)

    def __repr__(self):
        return f"Rule(order={self.order}, entries={len(self._nums)})"


def _exact_problems(rule):
    """rule_problems on Python integers, for any size of number."""
    problems = []
    denom = rule._denom
    fs, hs, nums = rule._f.tolist(), rule._h.tolist(), rule._nums.tolist()
    bounds = rule._starts.tolist() + [len(nums)]
    for lo, hi in zip(bounds, bounds[1:]):
        f = fs[lo]
        total = 0
        for h, num in zip(hs[lo:hi], nums[lo:hi]):
            if num < 0 or num > denom:
                problems.append(f"entry ({f} -> {h}) has probability "
                                f"{Fraction(num, denom)} outside [0, 1]")
            total += num
        if total != denom:
            problems.append(f"row {f} has row sum {Fraction(total, denom)}")
    return problems


def rule_problems(rule):
    """Every probability outside [0, 1] and every row sum other than 1, as
    human-readable strings: what Rule() refuses.  Row sums that cannot pass
    2^62 are checked in numpy; a rule found invalid there, or too large for
    it, is checked again on Python integers, which word the problems."""
    nums, denom = rule._nums, rule._denom
    if nums.dtype != object and len(nums) * denom < _SMALL:
        if (nums.min(initial=0) >= 0 and nums.max(initial=0) <= denom
                and (np.add.reduceat(nums, rule._starts) == denom).all()):
            return []
    return _exact_problems(rule)


def validate(rule):
    """Raise RuleValidationError listing every probability outside [0, 1]
    and every row sum other than 1, as Rule() does; no-op when valid."""
    problems = rule_problems(rule)
    if problems:
        raise RuleValidationError(problems)


# --------------------------------------------------------------- named rules

def make_named(family, k, **params):
    """Construct a named rule family at order k.  Families:
    identity, triangle-removal, triangle-edge-removal, complementing,
    extremist (threshold=...), clique-removal, ignorant (dist=...),
    component-completion (not implemented); a parameter that the family
    does not take is a ValueError, and so is an ignorant dist code of
    nonzero probability outside [0, 2^C(k, 2)), so that every named rule
    is valid when built.  complementing, extremist and ignorant list all
    2^C(k, 2) rows, so their entries are held to 4,000,000; past order 11,
    whose graphs need more than 62 bits, every family is CapExceeded."""
    family = family.replace("_", "-")
    k = _positive_int(k, "order")
    _check_code_width(k)
    param = params.pop({"extremist": "threshold", "ignorant": "dist"}.get(family), None)
    if params:
        raise ValueError(f"unknown parameters for {family}: {sorted(params)}")
    P = num_pairs(k)
    nums, denom = [1], 1  # the numerators of each row of a dense family
    if family == "ignorant":
        if param is None:
            raise ValueError("ignorant rule needs dist={to_bits: probability}")
        for h in param:
            if not _is_int(h):
                raise ValueError(f"ignorant dist codes must be integers, got {h!r}")
        dist = {int(h): _fraction(p, "dist probability", "dist probabilities must be numbers")
                for h, p in param.items()}
        if sum(dist.values()) != 1 or any(p < 0 for p in dist.values()):
            raise ValueError("ignorant dist must be a probability distribution")
        support = sorted(h for h, p in dist.items() if p)
        outside = [h for h in support if not 0 <= h < 1 << P]
        if outside:
            raise ValueError(f"ignorant dist code {outside[0]} is out of range for order {k}")
        nums, denom = _common_denominator([dist[h] for h in support])
    if family == "extremist" and param is not None:
        param = _fraction(param, "extremist threshold", "extremist threshold must be a number")
    if family in ("complementing", "extremist", "ignorant"):
        _check_budget(len(nums) << P, codes._ENTRY_BUDGET,
                      f"entries of the {family} rule at order {k}")
        # one explicit row per graph, as code and numerator arrays
        f = np.arange(1 << P, dtype=np.int64)
        if family == "ignorant":
            f, h = f.repeat(len(support)), np.tile(np.array(support, dtype=np.int64), len(f))
        elif family == "complementing":
            h = f ^ full_bits(k)
        else:
            threshold = Fraction(P, 2) if param is None else param
            edges = sum((f >> bit & 1 for bit in range(P)), np.zeros_like(f))
            # clamped to [0, P + 1], the threshold's ceiling compares in int64
            t = min(max(math.ceil(threshold), 0), P + 1)
            h = np.where(edges >= t, full_bits(k), 0)
        nums = np.tile(_numerator_array(nums, denom), 1 << P)
        return Rule._from_numerators(k, f, h, nums, denom)

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

    if family == "clique-removal":
        return Rule(k, {(full_bits(k), 0): Fraction(1)})

    if family == "component-completion":
        raise NotImplementedError(
            "component-completion is recognized but intentionally not implemented"
        )

    raise ValueError(f"unknown rule family {family!r}")


# ----------------------------------------------------------------- predicates

def is_symmetric(rule):
    """Invariance under simultaneous relabelling of both indices: the rule
    equals its symmetrization, within the same budgets."""
    return symmetrize(rule) == rule


def symmetrize(rule):
    """Average the rule over simultaneous relabellings of both indices.
    The result is symmetric, row-stochastic, and has the same coefficient
    vector, hence the same trajectories.

    Each relabelling orbit of index pairs that an explicit row touches
    spreads its mass evenly over its members; relabelled identity rows
    add mass 1 on their diagonal.  An orbit left out holds identity rows
    only, which stay.  The orbits come from a sweep over all k!
    relabellings: past order 8, past 2^33 images or past 4,000,000 orbit
    members, CapExceeded."""
    k = rule.order
    denom, nums = rule._denom, rule._nums
    orbits = _orbit_sweep(k, rule._f, rule._h, rule._starts)
    sizes, owners = orbits.sizes, orbits.owners
    # identity rows per diagonal orbit, each of numerator denom: its
    # members less the explicit rows among them
    explicit = np.bincount(orbits.row_orbit, minlength=len(sizes))
    identity = np.where(explicit > 0, sizes - explicit, 0)
    # numerators lie in [0, denom]: no mass passes denom per entry and identity
    bound = (len(nums) + int(identity.sum())) * denom
    dtype = np.int64 if bound < _SMALL else object
    masses = identity.astype(dtype) * denom
    np.add.at(masses, orbits.entry_orbit, nums.astype(dtype))
    # every member of an orbit gets the orbit's mass over its size, which
    # is masses * (lcm / sizes) over denom * lcm for the lcm of the sizes
    held = masses != 0
    lcm = math.lcm(*sizes[held].tolist())
    if dtype != object and int(masses.max(initial=0)) * lcm >= _SMALL:
        masses = masses.astype(object)
    shares = masses * (lcm // sizes)
    # members come sorted, and member codes f << P | h sort as (f, h) do
    keep = held[owners]
    members = orbits.members[keep]
    return Rule._from_numerators(k, members >> num_pairs(k), members & full_bits(k),
                                 shares[owners[keep]], denom * lcm)


def is_deterministic(rule):
    """Every row is a point mass: every explicit row has one entry, which
    holds the row's mass 1."""
    return len(rule._starts) == len(rule._nums)


def ignorant_edge_count(rule):
    """The common expected replacement edge count when the rule ignores its
    input, as make_named("ignorant") of its row 0 does, else None; past
    that family's budget of entries, CapExceeded."""
    if len(rule._starts) < (1 << num_pairs(rule.order)) - 1:
        return None  # two identity rows, which differ
    end = int(np.searchsorted(rule._f, 0, side="right"))  # row 0's entries
    probs = _per_numerator(rule._nums[:end].tolist(), rule._denom)
    row0 = dict(zip(rule._h[:end].tolist(), probs)) or {0: Fraction(1)}
    if make_named("ignorant", rule.order, dist=row0) != rule:
        return None
    return sum(p * h.bit_count() for h, p in row0.items())


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


# an entry of rule_to_json_obj as json.dumps(..., indent=2) writes it
_ENTRY = '{\n  "from": %d,\n  "to": %d,\n  "p": "%s"\n}'


def rule_to_json(rule):
    texts = _per_numerator(rule._nums.tolist(), rule._denom, str)
    rows = list(zip(rule._f.tolist(), rule._h.tolist(), texts))
    return _json_text({"order": rule.order, "entries": "\0", "default": "identity"},
                      _json_records(_ENTRY, rows, 1))


# a stand-in "\0" as json.dumps writes it: a value, neither a key (":"
# follows) nor the end of a string whose last quote is escaped
_STAND_IN = re.compile(r'(?<!\\)"\\u0000"(?!:)')


def _json_text(obj, *lists):
    """json.dumps(obj, indent=2) + "\n", in which the i-th string "\0"
    among the values of obj is replaced by the JSON text lists[i]."""
    texts = iter(lists)
    text, count = _STAND_IN.subn(lambda _: next(texts, ""), json.dumps(obj, indent=2))
    if count != len(lists):
        raise ValueError(f"{count} stand-ins for {len(lists)} lists")
    return text + "\n"


def _json_records(template, rows, depth):
    """The text json.dumps(..., indent=2) writes at `depth` for a list of
    records, record i the text template % rows[i] of its depth-0 text.

    Nothing is escaped: the slots take only ints and str(Fraction) texts,
    made by the writer itself, which hold digits, "-" and "/" alone."""
    if not rows:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    item = template.replace("\n", pad)
    return "[" + pad + ("," + pad).join([item % row for row in rows]) + pad[:-2] + "]"


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
    any arithmetic: Fraction("1e-3000000") would build 10^3000000.  A zero
    denominator raises ValueError too, naming the string."""
    shown = text if len(text) <= 40 else text[:37] + "..."
    body, _, exponent = text.strip().lower().partition("e")
    magnitude = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if len(body) > MAX_NUMBER_DIGITS or (magnitude.isdecimal() and (
            len(magnitude) > 4 or len(body) + int(magnitude) > MAX_NUMBER_DIGITS)):
        raise ValueError(
            f"number {shown!r} exceeds the input budget of {MAX_NUMBER_DIGITS} "
            f"digits, counting a decimal exponent as its magnitude"
        )
    try:
        return Fraction(text)  # "p/q" and decimal strings, both exact
    except ZeroDivisionError:
        raise ValueError(f"number {shown!r} has a zero denominator") from None


def _fraction(value, what, wrong):
    """The exact Fraction of a number that codes._check_number accepts."""
    _check_number(value, what, wrong)
    if isinstance(value, np.floating):  # Fraction reads float64, no other
        return Fraction(*value.as_integer_ratio())
    return Fraction(value)


def _exact_value(value, what):
    """The exact number that an input value names: a string through
    exact_number, an integer other than a bool as a Fraction; anything
    else is a ValueError naming `what`."""
    if isinstance(value, str):
        return exact_number(value)
    if _is_int(value):
        return Fraction(value)
    raise ValueError(
        f"{what} must be a string such as \"1/3\" or an integer, got {value!r}")


def _json_object(obj, what, required, optional=()):
    """A ValueError naming `what` unless obj is a JSON object with every
    field of `required` and none beyond `required` and `optional`."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    for name in required:
        if name not in obj:
            raise ValueError(f"{what} is missing {name!r}")
    if len(obj) > len(required):
        extra = obj.keys() - {*required, *optional}
        if extra:
            raise ValueError(f"unknown fields in {what}: {sorted(extra)}")


def rule_from_json_obj(obj):
    """The rule a JSON object describes, checked as Rule() checks it: a
    malformed object or an out-of-range code is a ValueError, an order past
    11 is CapExceeded, and a rule that breaks a row sum or a probability is
    a RuleValidationError."""
    _json_object(obj, "rule", ("order",), ("entries", "default"))
    order = _positive_int(obj["order"], "order")
    default = obj.get("default", "identity")
    if default != "identity":
        raise ValueError(f"unsupported default {default!r}; only identity rows are implicit")
    items = obj.get("entries", [])
    if not isinstance(items, list):
        raise ValueError("rule entries must be a list of objects")
    entries = {}
    for item in items:
        _json_object(item, "rule entry", ("from", "to", "p"))
        key = f, h = item["from"], item["to"]
        if not _is_int(f) or not _is_int(h):
            raise ValueError("entry graph codes must be integers")
        p = _exact_value(item["p"], "a probability")
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
