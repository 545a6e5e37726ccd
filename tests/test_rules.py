"""Rule construction, validation, named families, symmetry and determinism
predicates, and the JSON wire format."""

import json
import math
import pickle
import random
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipproc import (
    CapExceeded,
    Rule,
    RuleValidationError,
    ignorant_edge_count,
    is_deterministic,
    check_k1,
    classify_unique,
    coeff_vector,
    is_symmetric,
    lift,
    load_rule,
    make_named,
    parse_rule_json,
    rule_from_json_obj,
    rule_to_json,
    rule_to_json_obj,
    rule_problems,
    symmetrize,
    validate,
)
from flipproc.rules import _ENTRY, MAX_NAMED_ORDER, _json_records, _json_text, exact_number

import oracles

F = Fraction

# values a library caller may pass as a probability or threshold that are
# no finite number, each with the words that name it in the ValueError
_NOT_NUMBERS = [(True, "got True"), ("1/2", "got '1/2'"), (None, "got None"),
                (Decimal("0.5"), "got Decimal('0.5')"), (math.nan, " nan"),
                (math.inf, " inf"), (-math.inf, " -inf")]


def test_normalization_drops_zeros_and_identity_rows():
    r = Rule(2, {(0, 0): 1, (1, 1): F(1), (1, 0): 0})
    assert r.entries == {}
    r2 = Rule(2, {(1, 0): F(1, 2), (1, 1): F(1, 2)})
    assert r2.row(1) == {0: F(1, 2), 1: F(1, 2)}
    assert r2.probability(0, 0) == 1  # implicit identity
    assert r2.probability(0, 1) == 0
    assert r2.row(0) is None
    # codes are integers, zero-probability keys too; numpy's become int
    for key in ((7.9, 0.2), ("7", 0), (True, 0), (1, 0.0)):
        with pytest.raises(ValueError, match="graph codes must be integers"):
            Rule(3, {key: 0})
    r3 = Rule(3, {(np.int64(7), np.uint8(0)): 1})
    assert r3 == Rule(3, {(7, 0): 1})
    assert [type(code) for code in next(iter(r3.entries))] == [int, int]
    # probabilities are finite numbers, read exactly, never coerced
    for p, shown in _NOT_NUMBERS:
        with pytest.raises(ValueError, match=re.escape(shown)):
            Rule(3, {(7, 0): p, (7, 7): F(1, 2)})
    for p in (0.1, np.float64(0.1), np.float32(0.1), np.float16(0.1)):
        assert Rule(3, {(7, 0): p}).entries == {(7, 0): F(*p.as_integer_ratio())}
    assert Rule(3, {(7, 0): np.int8(1)}).entries == {(7, 0): F(1)}


def test_only_lone_diagonal_entries_are_identity_rows():
    # (3, 3) -> 1 shares its (invalid) row with (3, 5) and (3, 1), so it is
    # kept; rows 0 and 6, first and last, are point rows and dropped
    r = Rule(3, {(0, 0): F(1), (3, 1): F(1, 2), (3, 3): F(1), (3, 5): F(1, 2),
                 (6, 6): F(1)})
    assert r.entries == {(3, 1): F(1, 2), (3, 3): F(1), (3, 5): F(1, 2)}
    assert r._starts.tolist() == [0]
    # a wider row whose last entry is the diagonal keeps it too
    r = Rule(3, {(3, 1): F(1, 2), (3, 3): F(1), (6, 6): F(1)})
    assert r.entries == {(3, 1): F(1, 2), (3, 3): F(1)}
    assert r._starts.tolist() == [0]
    assert Rule(3, {(6, 6): F(1)}).entries == {}
    assert Rule(3, {(5, 0): F(1), (6, 6): F(1)})._starts.tolist() == [0]


def test_structural_equality_is_semantic():
    a = Rule(2, {(1, 0): F(1, 2), (1, 1): F(1, 2)})
    b = Rule(2, {(1, 1): F(2, 4), (1, 0): F(1, 2), (0, 0): 1})
    assert a == b and hash(a) == hash(b)
    assert a != Rule(2, {(1, 0): F(1)})
    assert a != a.entries and a.__eq__("rule") is NotImplemented


def test_construction_defers_validation():
    # constructing a broken rule is allowed; validate() reports it
    bad = Rule(2, {(1, 0): F(1, 2)})
    with pytest.raises(RuleValidationError) as exc:
        validate(bad)
    assert "row 1 has row sum 1/2" in str(exc.value)
    assert exc.value.problems == ["row 1 has row sum 1/2"]


def test_validation_catches_out_of_range_and_bad_probabilities():
    with pytest.raises(RuleValidationError) as exc:
        validate(Rule(2, {(1, 2): F(1)}))
    assert any("out of range" in p for p in exc.value.problems)
    with pytest.raises(RuleValidationError) as exc:
        validate(Rule(2, {(1, 0): F(3, 2), (1, 1): F(-1, 2)}))
    assert any("outside [0, 1]" in p for p in exc.value.problems)
    with pytest.raises(ValueError):
        Rule(0, {})
    # codes beyond int64, as JSON can carry them
    huge = Rule(2, {(1 << 63, 0): F(1, 2), (1, 1 << 64): F(3, 2)})
    assert rule_problems(huge) == oracles.naive_rule_problems(huge) == [
        "replacement index 18446744073709551616 out of range for order 2",
        "entry (1 -> 18446744073709551616) has probability 3/2 outside [0, 1]",
        "row 1 has row sum 3/2",
        "row index 9223372036854775808 out of range for order 2",
        "row 9223372036854775808 has row sum 1/2",
    ]
    # the numpy paths reject them as out of range, like codes within int64
    for code in (1 << 62, 1 << 63, (1 << 64) + 5):
        for rule in (Rule(2, {(code, 0): F(1)}), Rule(2, {(0, code): F(1)})):
            for check in (coeff_vector, is_symmetric, symmetrize,
                          lambda r: check_k1(r, r), lambda r: lift(r, 3)):
                with pytest.raises(ValueError, match="out of range for order 2"):
                    check(rule)


def test_codes_past_62_bits_are_capped():
    # an order-12 graph has 66 pairs: its codes fit no int64, so every path
    # that reads them as one refuses the order instead of wrapping or
    # calling valid codes out of range
    rule11, rule12 = make_named("clique-removal", 11), make_named("clique-removal", 12)
    for call in (lambda: lift(rule11, 12, cap=12), lambda: lift(rule12, 13, cap=13),
                 lambda: symmetrize(rule12, cap=12), lambda: is_symmetric(rule12, cap=12),
                 lambda: classify_unique(rule12, cap=12),
                 lambda: check_k1(rule12, rule12, cap=12)):
        with pytest.raises(CapExceeded, match="62-bit"):
            call()


def test_validation_at_huge_orders_builds_no_code_bound():
    # an order has no bound before validation, so the range check must not
    # build 2^C(k, 2) (the Fraction oracle does, so it is not asked here)
    rule = Rule(10 ** 11, {(1, 0): F(1, 2), (2, -1): F(1)})
    assert rule_problems(rule) == [
        "row 1 has row sum 1/2",
        "replacement index -1 out of range for order 100000000000",
    ]
    rule = Rule(100_000, {(1, 0): F(1, 2)})
    tracemalloc.start()
    try:
        assert rule_problems(rule) == ["row 1 has row sum 1/2"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@st.composite
def _raw_entries(draw):
    """Order and raw entries with zeros, identity point rows and values
    outside [0, 1]."""
    k = draw(st.integers(min_value=2, max_value=5))
    codes = st.integers(min_value=0, max_value=(1 << (k * (k - 1) // 2)) - 1)
    values = st.sampled_from([F(0), F(1), F(1, 2), F(-1, 3), F(2), 1, 0])
    entries = draw(st.dictionaries(st.tuples(codes, codes), values, max_size=8))
    for f in draw(st.lists(codes, max_size=2)):
        entries[(f, f)] = F(1)
    return k, entries


@settings(max_examples=60, deadline=None)
@given(_raw_entries())
def test_normalization_is_idempotent(case):
    k, entries = case
    rule = Rule(k, entries)
    again = Rule(k, rule.entries)
    assert again == rule and hash(again) == hash(rule)
    assert again.entries == rule.entries and again.rows() == rule.rows()


# codes at the edges of int64, as JSON can carry them
_EDGE_CODES = [-1, 1 << 62, (1 << 63) - 1, 1 << 63, (1 << 64) + 5, -(1 << 63) - 1]
# denominators past int64, and past 2^62 / entries, where row sums leave int64
_WIDE_DENOMINATORS = [(1 << 61) + 1, 3 ** 40, (1 << 64) + 1]


@st.composite
def _wide_rules(draw):
    """Rules of order 2 to 4 that may be invalid: codes in range, just out
    of it or past int64; row sums exact or off; denominators small or past
    int64."""
    k = draw(st.integers(min_value=2, max_value=4))
    limit = 1 << (k * (k - 1) // 2)
    codes = st.one_of(st.integers(min_value=0, max_value=limit - 1),
                      st.sampled_from([limit] + _EDGE_CODES))
    denominator = draw(st.one_of(st.integers(min_value=1, max_value=12),
                                 st.sampled_from(_WIDE_DENOMINATORS)))
    entries = {}
    for f in draw(st.lists(codes, min_size=1, max_size=3, unique=True)):
        support = draw(st.lists(codes, min_size=1, max_size=3, unique=True))
        weights = draw(st.lists(st.integers(min_value=1, max_value=denominator),
                                min_size=len(support), max_size=len(support)))
        total = sum(weights)
        how = draw(st.sampled_from(["exact", "exact", "off", "negative"]))
        for h, w in zip(support, weights):
            p = F(w, total) if how == "exact" else F(w, denominator)
            entries[(f, h)] = -p if how == "negative" else p
    return Rule(k, entries)


@settings(max_examples=150, deadline=None)
@given(_wide_rules())
def test_rule_problems_match_the_fraction_oracle(rule):
    # the numpy check and its fallback on Python integers word every
    # problem as the exact sums do, in the same order
    assert rule_problems(rule) == oracles.naive_rule_problems(rule)


@settings(max_examples=100, deadline=None)
@given(_raw_entries(), st.integers(min_value=1, max_value=6),
       st.sampled_from([1, 1, (1 << 62) + 3, 3 ** 41]))
def test_numerator_constructor_matches_fraction_constructor(case, scale, wide):
    # the same entries as numerators over a common multiple of their
    # denominators, zeros and identity point rows left in
    k, entries = case
    rule = Rule(k, entries)
    keys = sorted((int(f), int(h)) for f, h in entries)
    values = {(int(f), int(h)): F(p) for (f, h), p in entries.items()}
    denom = math.lcm(*[values[key].denominator for key in keys]) * scale * wide
    nums = [values[key].numerator * (denom // values[key].denominator) for key in keys]
    built = Rule._from_numerators(
        k, np.array([f for f, _ in keys], dtype=np.int64),
        np.array([h for _, h in keys], dtype=np.int64), nums, denom)
    assert built == rule and hash(built) == hash(rule)
    assert built.entries == rule.entries and built.rows() == rule.rows()
    assert rule_to_json(built) == rule_to_json(rule)
    assert pickle.loads(pickle.dumps(built)) == rule


def test_named_triangle_removal():
    tr = make_named("triangle-removal", 3)
    assert tr.entries == {(7, 0): F(1)}
    with pytest.raises(ValueError):
        make_named("triangle-removal", 4)


def test_named_triangle_edge_removal():
    ter = make_named("triangle-edge-removal", 3)
    assert ter.row(7) == {3: F(1, 3), 5: F(1, 3), 6: F(1, 3)}
    assert set(ter.rows()) == {7}
    with pytest.raises(ValueError, match="order-3 rule"):
        make_named("triangle-edge-removal", 4)


def test_named_complementing():
    c2 = make_named("complementing", 2)
    assert c2.row(0) == {1: F(1)} and c2.row(1) == {0: F(1)}
    c3 = make_named("complementing", 3)
    assert all(c3.probability(f, 7 ^ f) == 1 for f in range(8))
    # the dense families list all 2^C(k, 2) rows, so the order is capped
    assert make_named("complementing", 3, cap=3) == c3
    with pytest.raises(CapExceeded):
        make_named("complementing", 3, cap=2)
    with pytest.raises(CapExceeded):
        make_named("ignorant", 7, dist={0: 1})


def test_named_extremist():
    e = make_named("extremist", 3)
    # default threshold P/2 = 3/2; at or above completes, below empties
    assert e.probability(7, 7) == 1
    assert e.probability(3, 7) == 1
    assert e.probability(1, 0) == 1
    assert e.probability(0, 0) == 1
    lax = make_named("extremist", 3, threshold=F(1))
    assert lax.probability(1, 7) == 1
    # a bool is not a threshold, though Fraction(True) is 1
    with pytest.raises(ValueError, match="threshold must be a number, got True"):
        make_named("extremist", 3, threshold=True)
    for threshold, shown in _NOT_NUMBERS:
        if threshold is not None:  # None is the default threshold
            with pytest.raises(ValueError, match=re.escape(shown)):
                make_named("extremist", 3, threshold=threshold)
    for threshold in (1, np.int64(1), 1.0, np.float32(1.0)):
        assert make_named("extremist", 3, threshold=threshold) == lax
    assert make_named("extremist", 3, threshold=np.float32(1.5)) == make_named("extremist", 3)
    with pytest.raises(ValueError):
        make_named("extremist", 3, threshold=F(1), cutoff=2)


def test_named_clique_removal():
    cr = make_named("clique-removal", 3)
    assert cr.entries == {(7, 0): F(1)}
    assert cr.probability(3, 3) == 1
    cr4 = make_named("clique-removal", 4)
    assert cr4.entries == {(63, 0): F(1)}


def test_named_ignorant():
    ig = make_named("ignorant", 2, dist={0: F(1, 3), 1: F(2, 3)})
    assert ig.probability(0, 1) == F(2, 3)
    assert ig.probability(1, 0) == F(1, 3)
    assert ig.probability(1, 1) == F(2, 3)
    with pytest.raises(ValueError):
        make_named("ignorant", 2, dist={0: F(1, 2)})
    # codes are integers, as in JSON: no float, bool or string is read as one
    for dist in ({0.9: 1}, {True: 1}, {"1": 1}, {1: 1, 0.0: 0}):
        with pytest.raises(ValueError, match="codes must be integers"):
            make_named("ignorant", 2, dist=dist)
    one = make_named("ignorant", 2, dist={np.int64(1): 1})
    assert one == make_named("ignorant", 2, dist={1: 1})
    for p, shown in _NOT_NUMBERS:
        with pytest.raises(ValueError, match=re.escape(shown)):
            make_named("ignorant", 2, dist={0: F(1, 2), 1: p})
    for p in (1.0, np.float32(1.0), np.int64(1), F(1)):
        assert make_named("ignorant", 2, dist={1: p}) == one
    assert make_named("ignorant", 2, dist={0: np.float16(0.25), 1: 0.75}) == \
        make_named("ignorant", 2, dist={0: F(1, 4), 1: F(3, 4)})
    assert all(type(f) is int and type(h) is int for f, h in one.entries)
    with pytest.raises(ValueError):
        make_named("ignorant", 2)
    # a code of nonzero probability is a graph of the order; zero entries
    # are dropped, as from the CLI's --dist
    for dist in ({8: 1}, {-1: 1}):
        with pytest.raises(ValueError, match="out of range for order 3"):
            make_named("ignorant", 3, dist=dist)
    assert make_named("ignorant", 3, dist={7: 1, 8: 0}) == \
        make_named("ignorant", 3, dist={7: 1})


def test_named_rules_are_valid_when_built():
    built = 0
    for k in (2, 3, 4):
        for family, params in (
            ("identity", {}), ("triangle-removal", {}),
            ("triangle-edge-removal", {}), ("complementing", {}),
            ("extremist", {}), ("extremist", {"threshold": 1}),
            ("clique-removal", {}),
            ("ignorant", {"dist": {0: F(1, 4), (1 << k * (k - 1) // 2) - 1: F(3, 4)}}),
        ):
            if family.startswith("triangle") and k != 3:
                continue
            assert rule_problems(make_named(family, k, **params)) == [], (family, k)
            built += 1
    assert built == 20


def test_named_identity_and_underscores():
    assert make_named("identity", 3).entries == {}
    assert make_named("triangle_removal", 3) == make_named("triangle-removal", 3)
    with pytest.raises(ValueError):
        make_named("no-such-family", 2)
    with pytest.raises(NotImplementedError):
        make_named("component-completion", 3)


@pytest.mark.parametrize("family", [
    "identity", "triangle-removal", "triangle-edge-removal", "complementing",
    "extremist", "clique-removal", "ignorant", "component-completion",
])
def test_named_families_reject_parameters_they_do_not_take(family):
    taken = {"extremist": "threshold", "ignorant": "dist"}.get(family)
    for param in {"threshold", "dist", "bogus"} - {taken}:
        with pytest.raises(ValueError, match="unknown parameters"):
            make_named(family, 3, **{param: 1})


def test_dense_named_families_are_held_to_the_entry_budget(monkeypatch):
    # 2^28 rows at order 8, refused before any is built, whatever the cap
    for family in ("complementing", "extremist"):
        with pytest.raises(CapExceeded, match="budget of 4000000"):
            make_named(family, 8, cap=8)
    # ignorant has a row entry per graph of its dist; a budget of exactly
    # the 2^6 rows of order 4 still builds one graph per row, not two
    monkeypatch.setattr("flipproc.rules._ENTRY_BUDGET", 2 ** 6)
    assert len(make_named("complementing", 4).entries) == 2 ** 6
    # row 0 of this ignorant rule is an identity row, which a rule omits
    assert len(make_named("ignorant", 4, dist={0: 1}).entries) == 2 ** 6 - 1
    with pytest.raises(CapExceeded, match="entries"):
        make_named("ignorant", 4, dist={0: F(1, 2), 1: F(1, 2)})
    with pytest.raises(CapExceeded, match="entries"):
        make_named("extremist", 5)


def test_is_symmetric():
    assert is_symmetric(make_named("triangle-removal", 3))
    assert is_symmetric(make_named("complementing", 3))
    assert is_symmetric(make_named("identity", 4))
    assert is_symmetric(make_named("extremist", 3))
    # deletes the 12-edge but leaves the 13- and 23-edges alone
    assert not is_symmetric(Rule(3, {(1, 0): F(1)}))
    ig = make_named("ignorant", 3, dist={0: F(1, 2), 7: F(1, 2)})
    assert is_symmetric(ig)
    skew = make_named("ignorant", 3, dist={1: F(1)})
    assert not is_symmetric(skew)


def test_is_deterministic():
    assert is_deterministic(make_named("triangle-removal", 3))
    assert is_deterministic(make_named("identity", 2))
    assert not is_deterministic(make_named("triangle-edge-removal", 3))
    assert not is_deterministic(Rule(2, {(0, 0): F(1, 2), (0, 1): F(1, 2)}))


def test_ignorant_edge_count():
    ig = make_named("ignorant", 2, dist={0: F(1, 2), 1: F(1, 2)})
    assert ignorant_edge_count(ig) == F(1, 2)
    point = make_named("ignorant", 3, dist={7: F(1)})
    assert ignorant_edge_count(point) == 3
    uniform = make_named("ignorant", 3, dist={h: F(1, 8) for h in range(8)})
    assert ignorant_edge_count(uniform) == F(3, 2)
    assert ignorant_edge_count(make_named("triangle-removal", 3)) is None
    # identity is not ignorant for k >= 2 (the kept graph depends on the draw)
    assert ignorant_edge_count(make_named("identity", 2)) is None
    assert ignorant_edge_count(make_named("identity", 1)) == 0


def test_json_round_trip_exact():
    r = Rule(3, {(7, 0): F(1, 3), (7, 6): F(2, 3), (5, 5): F(3, 4),
                 (5, 0): F(1, 4)})
    text = rule_to_json(r)
    again = parse_rule_json(text)
    assert again == r
    # serialization is canonical: one byte stream per rule
    assert rule_to_json(again) == text
    obj = rule_to_json_obj(r)
    assert obj["order"] == 3 and obj["default"] == "identity"
    assert all(isinstance(e["p"], str) for e in obj["entries"])


def test_json_probability_formats():
    obj = {"order": 2, "entries": [
        {"from": 1, "to": 0, "p": "1/4"},
        {"from": 1, "to": 1, "p": "0.75"},
    ]}
    r = rule_from_json_obj(obj)
    assert r.probability(1, 0) == F(1, 4)
    assert r.probability(1, 1) == F(3, 4)
    with pytest.raises(ValueError):
        rule_from_json_obj({"order": 2, "entries": [
            {"from": 1, "to": 0, "p": 0.25}]})
    # an integer probability is exact
    assert rule_from_json_obj({"order": 2, "entries": [
        {"from": 1, "to": 0, "p": 1}]}) == Rule(2, {(1, 0): F(1)})


def test_json_readers_validate(tmp_path):
    # a rule read from JSON is valid once read, as a named rule once built
    text = '{"order": 3, "entries": [{"from": 7, "to": 0, "p": "1/2"}]}'
    path = tmp_path / "half.json"
    path.write_text(text)
    for read in (lambda: parse_rule_json(text), lambda: load_rule(path)):
        with pytest.raises(RuleValidationError) as exc:
            read()
        assert exc.value.problems == ["row 7 has row sum 1/2"]


def test_json_duplicate_entries_accumulate():
    obj = {"order": 2, "entries": [
        {"from": 1, "to": 0, "p": "1/4"},
        {"from": 1, "to": 0, "p": "1/4"},
        {"from": 1, "to": 1, "p": "1/2"},
    ]}
    assert rule_from_json_obj(obj).probability(1, 0) == F(1, 2)


def test_json_rejects_unknown_fields():
    with pytest.raises(ValueError):
        rule_from_json_obj({"order": 2, "entries": [], "extra": 1})
    with pytest.raises(ValueError):
        rule_from_json_obj({"order": 2, "entries": [
            {"from": 0, "to": 1, "p": "1", "note": "x"}]})
    with pytest.raises(ValueError):
        rule_from_json_obj({"order": 2, "entries": [], "default": "zero"})
    with pytest.raises(ValueError):
        rule_from_json_obj({"entries": []})


def test_random_rules_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randint(1, 4)
        r = oracles.random_rule(rng, k)
        assert parse_rule_json(rule_to_json(r)) == r
        data = json.loads(rule_to_json(r))
        assert set(data) <= {"order", "entries", "default"}


# ------------------------------------------------------- indented JSON text

# every character, lone surrogates included, so that ASCII escaping is
# exercised in keys and values; and texts that end as a stand-in does, or
# are one as a key
_text = st.one_of(st.text(st.characters(exclude_categories=()), max_size=8),
                  st.sampled_from(['"\0', 'x\\"\0', "\0\"", "\0\0"]))
_huge_ints = st.one_of(st.integers(), st.integers(min_value=-(1 << 4000), max_value=1 << 4000))
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    _huge_ints,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1e16, 5e-324]),
    _text.filter(lambda text: text != "\0"),  # a value "\0" is a stand-in
)


class _Records:
    """A place in a tree for a list of rule entries, rows of (from, to, p)."""

    def __init__(self, rows):
        self.rows = rows


_records = st.lists(st.tuples(
    _huge_ints, _huge_ints,
    st.builds(F, _huge_ints, st.integers(min_value=1, max_value=1 << 200)).map(str),
), max_size=3).map(_Records)
_json_trees = st.recursive(
    st.one_of(_json_scalars, _records),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_text, children, max_size=4),
    ),
    max_leaves=24,
)


def _place(tree, depth=0):
    """The tree with a stand-in "\0" for each _Records, the tree with the
    records' entries in place, and the records' texts at their depths, in
    the order json writes them."""
    if isinstance(tree, _Records):
        entries = [{"from": f, "to": h, "p": p} for f, h, p in tree.rows]
        return "\0", entries, [_json_records(_ENTRY, tree.rows, depth)]
    if isinstance(tree, dict):
        placed = [(key, _place(value, depth + 1)) for key, value in tree.items()]
        return ({key: p[0] for key, p in placed}, {key: p[1] for key, p in placed},
                [text for _, p in placed for text in p[2]])
    if isinstance(tree, (list, tuple)):
        placed = [_place(item, depth + 1) for item in tree]
        return (type(tree)(p[0] for p in placed), [p[1] for p in placed],
                [text for p in placed for text in p[2]])
    return tree, tree, []


@settings(max_examples=400, deadline=None)
@given(st.one_of(_records, _json_trees))
def test_json_text_matches_json_dumps(tree):
    # stand-ins at any depth, the top included, take record lists written
    # by template: huge and negative ints, fraction texts, and no rows
    standing, expected, lists = _place(tree)
    assert _json_text(standing, *lists) == json.dumps(expected, indent=2) + "\n"


def test_json_text_edge_cases():
    for tree in ([], {}, [[]], {"": {}}, [[], {}, [[{}]]], "", "\u00e9\n\"\\",
                 -0.0, 10 ** 300, -(10 ** 300), [float("nan"), float("-inf")],
                 ({"a": (1, (2,))},)):
        assert _json_text(tree) == json.dumps(tree, indent=2) + "\n"


def test_json_text_counts_its_stand_ins():
    # one record list per stand-in; a key "\0" is no stand-in
    with pytest.raises(ValueError, match="2 stand-ins for 1 lists"):
        _json_text(["\0", "\0"], "[]")
    with pytest.raises(ValueError, match="0 stand-ins for 1 lists"):
        _json_text({"\0": 1}, "[]")


@pytest.mark.parametrize("tree", [{"a": object()}, [set()], b"x"])
def test_json_text_rejects_non_json_trees(tree):
    with pytest.raises(TypeError):
        _json_text(tree)


# ------------------------------------------------------ input number budget

def test_exact_number_reads_exact_strings():
    assert exact_number("1/3") == F(1, 3)
    assert exact_number(" 0.25 ") == F(1, 4)
    assert exact_number("2.5e-1") == F(1, 4)
    assert exact_number("1E+3") == 1000
    assert exact_number("1e-999") == F(1, 10 ** 999)
    with pytest.raises(ValueError, match="Invalid literal"):
        exact_number("abc")


@pytest.mark.parametrize("text", [
    "1e-3000000", "1e-10000000", "1e+1000", "1e-1000", "1" * 1001,
    "1/" + "3" * 1000, "1e" + "9" * 100000, "0.5e-99999999999999999999",
])
def test_exact_number_budget(text):
    # refused before any arithmetic: a power of ten with millions of digits
    # would take seconds to build
    with pytest.raises(ValueError, match="input budget"):
        exact_number(text)


def test_exact_number_zero_denominator():
    # Fraction's own ZeroDivisionError would print as "Fraction(1, 0)"
    for text in ("1/0", " -3/0 "):
        with pytest.raises(ValueError, match=f"number '{text}' has a zero denominator"):
            exact_number(text)


def test_named_order_bound():
    # the complete graph of order 169 prints in 4,274 digits, order 170 in
    # 4,325, past CPython's 4,300-digit limit
    assert MAX_NAMED_ORDER == 169
    for family in ("identity", "clique-removal", "triangle-removal"):
        with pytest.raises(ValueError, match="stop at order 169"):
            make_named(family, MAX_NAMED_ORDER + 1)
    rule = make_named("clique-removal", MAX_NAMED_ORDER)
    assert parse_rule_json(rule_to_json(rule)) == rule
