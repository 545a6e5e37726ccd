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

from .codes import (_check_budget, _check_cap, _check_number, _is_int, _orbit_sweep,
                    _positive_int, full_bits, num_pairs)


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
    nums = _int_array(nums)  # object only for a value past int64, so past _SMALL
    if nums.dtype != object and (denom >= _SMALL or (
            nums.size and (nums.min() <= -_SMALL or nums.max() >= _SMALL))):
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
    entries: mapping (from_bits, to_bits) -> probability, exact rationals.

    The explicit entries are held sorted by (from, to) in read-only arrays:
    codes _f and _h, and numerators _nums over their least common
    denominator _denom, so that _nums[i] / _denom is the i-th entry.  _nums
    is int64 when the numbers are small, else Python integers.  _starts
    indexes the first entry of each explicit row."""

    __slots__ = ("order", "_f", "_h", "_nums", "_denom", "_starts",
                 "_entries", "_rows", "_hash")

    def __init__(self, order, entries=None):
        order = _positive_int(order, "order")
        merged = {}
        for (f, h), p in (entries or {}).items():
            # type() first: _is_int on every key adds ~1 ms to a 4,096-entry load
            if not ((type(f) is int or _is_int(f)) and (type(h) is int or _is_int(h))):
                raise ValueError(f"graph codes must be integers, got ({f!r}, {h!r})")
            if type(p) is not Fraction:
                p = _fraction(p, "probability", "probabilities must be numbers")
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


def _exact_problems(rule):
    """rule_problems on Python integers, for any size of code or number."""
    problems = []
    p = num_pairs(rule.order)  # not 1 << p: an order has no bound before validation
    denom = rule._denom
    fs, hs, nums = rule._f.tolist(), rule._h.tolist(), rule._nums.tolist()
    bounds = rule._starts.tolist() + [len(nums)]
    for lo, hi in zip(bounds, bounds[1:]):
        f = fs[lo]
        if f < 0 or f >> p:
            problems.append(f"row index {f} out of range for order {rule.order}")
        total = 0
        for h, num in zip(hs[lo:hi], nums[lo:hi]):
            if h < 0 or h >> p:
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

# Entries of a rule that lift or a dense named family builds: order 7
# complementing has 2,097,152
_ENTRY_BUDGET = 4_000_000


def make_named(family, k, cap=None, **params):
    """Construct a named rule family at order k.  Families:
    identity, triangle-removal, triangle-edge-removal, complementing,
    extremist (threshold=...), clique-removal, ignorant (dist=...),
    component-completion (not implemented); a parameter that the family
    does not take is a ValueError, and so is an ignorant dist code of
    nonzero probability outside [0, 2^C(k, 2)), so that every named rule
    is valid when built.  complementing, extremist and ignorant list all
    2^C(k, 2) rows, so their order is held to the enumeration cap and their
    entries to 4,000,000; every family stops at MAX_NAMED_ORDER."""
    family = family.replace("_", "-")
    k = _positive_int(k, "order")
    param = params.pop({"extremist": "threshold", "ignorant": "dist"}.get(family), None)
    if params:
        raise ValueError(f"unknown parameters for {family}: {sorted(params)}")
    dense = family in ("complementing", "extremist", "ignorant")
    if dense:
        _check_cap(k, cap, f"the {family} rule")
    if k > MAX_NAMED_ORDER:
        raise ValueError(
            f"named rules stop at order {MAX_NAMED_ORDER}, the last order whose "
            f"graph codes print in 4,300 digits; got order {k}"
        )
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
        codes = sorted(h for h, p in dist.items() if p)
        outside = [h for h in codes if not 0 <= h < 1 << P]
        if outside:
            raise ValueError(f"ignorant dist code {outside[0]} is out of range for order {k}")
        nums, denom = _common_denominator([dist[h] for h in codes])
    if family == "extremist" and param is not None:
        param = _fraction(param, "extremist threshold", "extremist threshold must be a number")
    if dense:
        _check_budget(len(nums) << P, _ENTRY_BUDGET,
                      f"entries of the {family} rule at order {k}")
        # one explicit row per graph, as code and numerator arrays
        f = np.arange(1 << P, dtype=np.int64)
        if family == "ignorant":
            f, h = f.repeat(len(codes)), np.tile(_int_array(codes), len(f))
        elif family == "complementing":
            h = f ^ full_bits(k)
        else:
            threshold = Fraction(P, 2) if param is None else param
            edges = sum((f >> bit & 1 for bit in range(P)), np.zeros_like(f))
            # clamped to [0, P + 1], the threshold's ceiling compares in int64
            t = min(max(math.ceil(threshold), 0), P + 1)
            h = np.where(edges >= t, full_bits(k), 0)
        return Rule._from_numerators(k, f, h, np.tile(_int_array(nums), 1 << P), denom)

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


def _check_code_width(k):
    """CapExceeded past order 11, whose graphs need more than 62 bits."""
    _check_budget(num_pairs(k), 62, f"pairs in the 62-bit code of an order-{k} graph")


def entry_codes(rule):
    """The explicit entries' (from_bits, to_bits) as two read-only int64
    arrays, in entry order: the one check of the codes that leave a rule
    for the numpy tables.  Past order 11, whose graphs need more than 62
    bits, CapExceeded; a code outside [0, 2^C(k, 2)) is a ValueError."""
    _check_code_width(rule.order)
    f, h = rule._f, rule._h
    if (f.dtype == object or h.dtype == object
            or not _codes_in_range(f, h, num_pairs(rule.order))):
        raise ValueError(f"graph codes out of range for order {rule.order}")
    return f, h


# ----------------------------------------------------------------- predicates

def is_symmetric(rule, cap=None):
    """Invariance under simultaneous relabelling of both indices: the rule
    equals its symmetrization, the average over all relabellings.  The
    order is held to the enumeration cap, since the orbits come from a
    sweep over all k! relabellings.
    """
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
    """The rule a JSON object describes, validated as a named rule is when
    built: a malformed object is a ValueError, and a rule that breaks a
    row sum, a probability or a code range is a RuleValidationError."""
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
    rule = Rule(order, entries)
    validate(rule)
    return rule


def parse_rule_json(text):
    return rule_from_json_obj(json.loads(text))


def load_rule(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_rule_json(fh.read())


def save_rule(rule, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(rule_to_json(rule))
