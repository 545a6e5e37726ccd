"""Coefficient vectors, cross-order comparison, dilation, symmetrization,
uniqueness classification, and the orbit-sum conjecture check."""

import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flipproc import (
    CapExceeded,
    CoeffVector,
    GraphCode,
    K1_BANNER,
    RootedPairGraph,
    Rule,
    StepKernel,
    canonical_class,
    check_k1,
    classify_unique,
    coeff_vector,
    compare,
    dilation_factor,
    enumerate_classes,
    is_deterministic,
    is_symmetric,
    lift,
    make_named,
    rooted_density,
    rule_problems,
    symmetrize,
)
from flipproc import equivalence
from flipproc.codes import BLOCK_ELEMENTS, _orbit_sweep, num_pairs
from flipproc.equivalence import _first_difference
from flipproc.rules import entry_codes

import oracles

F = Fraction

TR = make_named("triangle-removal", 3)
TER = make_named("triangle-edge-removal", 3)
IDENTITY3 = make_named("identity", 3)


def _cls_of(k, bits, a, b):
    return canonical_class(RootedPairGraph(GraphCode(k, bits), a, b))


def _as_triples(vec):
    return {
        (cls.canon.graph.bits, cls.canon.a, cls.canon.b): c
        for cls, c in vec.items()
    }


def test_triangle_removal_coefficients():
    v = coeff_vector(TR)
    target = _cls_of(3, 7, 1, 2)
    assert v[target] == -6
    assert v.nonzero() == [(target, F(-6))]
    assert not v.is_zero()
    # a class of another order has no coefficient here
    with pytest.raises(KeyError):
        v[_cls_of(4, 7, 1, 2)]
    assert v != v.values and v.__eq__(v.nums) is NotImplemented


def test_triangle_edge_removal_coefficients():
    v = coeff_vector(TER)
    assert v.nonzero() == [(_cls_of(3, 7, 1, 2), F(-2))]


def test_identity_coefficients_vanish():
    assert coeff_vector(IDENTITY3).is_zero()
    assert coeff_vector(make_named("identity", 2)).is_zero()


def test_coeff_vector_json_shape():
    obj = coeff_vector(TR).to_json_obj()
    assert all(set(e) == {"class", "size", "coeff"} for e in obj)
    assert sum(1 for e in obj if e["coeff"] != "0") == 1


def test_coefficients_match_elementwise_oracle():
    rng = random.Random(19)
    for k, n in ((2, 12), (3, 10), (4, 3)):
        for _ in range(n):
            r = oracles.random_rule(rng, k)
            want = (oracles.naive_coeff_sums(r) if k <= 3
                    else oracles.naive_coeff_sums_fast(r))
            assert _as_triples(coeff_vector(r)) == want


def test_coefficients_exact_beyond_int64():
    # a common denominator of 2^80 * 3^41 leaves int64 for Python integers
    a, b = F(1, 2**80), F(1, 3**41)
    r = Rule(4, {(63, 1): a, (63, 6): b, (63, 0): 1 - a - b,
                 (1, 3): b, (1, 1): 1 - b})
    assert _as_triples(coeff_vector(r)) == oracles.naive_coeff_sums(r)


def test_compare_triangle_removal_vs_identity():
    verdict = compare(TR, IDENTITY3)
    assert not verdict.equivalent
    assert verdict.order == 3
    cls = verdict.differing_class
    assert cls == _cls_of(3, 7, 1, 2) and cls.size == 6
    obj = verdict.to_json_obj()
    assert obj["first_difference"]["coeff_1"] == "-6"
    assert obj["first_difference"]["coeff_2"] == "0"
    assert obj["first_difference"]["class"] == {"code": 7, "a": 1, "b": 2}


def test_compare_is_reflexive_and_symmetric():
    rng = random.Random(29)
    for _ in range(25):
        k = rng.randint(2, 3)
        a, b = oracles.random_rule(rng, k), oracles.random_rule(rng, k)
        va = compare(a, a)
        assert va.equivalent and va.differing_class is None
        assert compare(a, b).equivalent == compare(b, a).equivalent


def test_ignorant_rules_compare_by_expected_edges():
    from flipproc import ignorant_edge_count

    rng = random.Random(5)
    agreements = 0
    for _ in range(100):
        k = rng.randint(2, 3)
        r1 = oracles.random_ignorant_rule(rng, k)
        r2 = oracles.random_ignorant_rule(rng, k)
        same_d = ignorant_edge_count(r1) == ignorant_edge_count(r2)
        assert compare(r1, r2).equivalent == same_d
        agreements += same_d
    assert 0 < agreements < 100  # both branches exercised


def test_ignorant_equivalence_fixed_example():
    # uniform over {complete, empty} and the point mass on a 3-edge star
    # both replace with 3 expected edges
    u = make_named("ignorant", 4, dist={63: F(1, 2), 0: F(1, 2)})
    star = make_named("ignorant", 4, dist={11: F(1)})
    verdict = compare(u, star)
    assert verdict.equivalent
    v1, v2 = verdict.vectors
    assert v1 == v2


def test_lift_rows():
    lifted = lift(Rule(2, {(1, 0): F(1)}), 3)
    assert lifted.entries == {(1, 0): F(1), (3, 2): F(1),
                              (5, 4): F(1), (7, 6): F(1)}
    tr4 = lift(TR, 4)
    assert len(tr4.rows()) == 8
    assert all(tr4.probability(hi << 3 | 7, hi << 3) == 1 for hi in range(8))
    assert lift(TR, 3) == TR
    assert lift(make_named("identity", 2), 4).entries == {}


def test_lift_errors():
    with pytest.raises(ValueError):
        lift(TR, 2)
    with pytest.raises(CapExceeded):
        lift(TR, 9)


def test_lift_holds_its_entries_to_the_budget(monkeypatch):
    # 2^(36 - 3) copies of the one entry, refused before any is built
    with pytest.raises(CapExceeded, match="budget of 4000000"):
        lift(TR, 9, cap=9)
    with pytest.raises(CapExceeded, match="budget"):
        compare(TR, make_named("identity", 9), cap=9)
    assert lift(make_named("identity", 3), 9, cap=9) == make_named("identity", 9)
    # reaching the budget exactly still lifts
    monkeypatch.setattr("flipproc.rules._ENTRY_BUDGET", 1 << 12)
    assert len(lift(TR, 6).rows()) == 1 << 12
    with pytest.raises(CapExceeded):
        lift(TER, 6)


def test_lifted_rules_stay_equivalent():
    rng = random.Random(31)
    assert compare(lift(TR, 4), TR).equivalent
    for _ in range(10):
        r = oracles.random_rule(rng, rng.randint(2, 3))
        assert compare(lift(r, r.order + 1), r).equivalent


def test_lifted_certificates_match_the_extension_oracle():
    # compare(lift(r, k + 1), r) lifts r itself, so it sees one rule twice;
    # this holds the lifted rule's certificate to one built from r's alone
    rng = random.Random(525)
    for k in range(2, 6):
        for _ in range(20):
            r = oracles.random_rule(rng, k)
            assert dict(coeff_vector(lift(r, k + 1)).nonzero()) == \
                oracles.lift_certificate(coeff_vector(r).nonzero(), k)
    cert = dict(coeff_vector(TR).nonzero())
    for k, count in ((3, 8), (4, 64), (5, 639)):
        cert = oracles.lift_certificate(cert.items(), k)
        assert len(cert) == count
        assert dict(coeff_vector(lift(TR, k + 1)).nonzero()) == cert


def _exact_kernel(rng, m):
    """A random rational step kernel on m parts."""
    vals = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            vals[i][j] = vals[j][i] = F(rng.randint(0, 10 ** 6), 10 ** 6)
    return StepKernel(oracles.random_fractions(rng, m), vals)


def _velocity_gap(r1, r2, kernel):
    """sum_C (c1(C) - c2(C)) t_C(x, y) at every block (x, y), exactly."""
    diff = dict(coeff_vector(r1).nonzero())
    for cls, c in coeff_vector(r2).nonzero():
        diff[cls] = diff.get(cls, 0) - c
    m = kernel.num_parts
    return [sum(c * rooted_density(cls.canon, kernel, x, y) for cls, c in diff.items())
            for x in range(m) for y in range(m)]


def _edge_count_sums(rule):
    sums = {}
    for cls, c in coeff_vector(rule).nonzero():
        e = cls.canon.graph.edge_count()
        sums[e] = sums.get(e, 0) + c
    return {e: c for e, c in sums.items() if c}


def test_inequivalent_rules_have_different_velocities():
    # the other half of the characterization: at orders 3 to 5 the rooted
    # densities on k - 1 parts are linearly independent, so a nonzero
    # certificate difference moves the velocity of a random rational
    # kernel there; a one-part kernel sees only the sums per edge count
    rng = random.Random(2025)
    pairs = []
    for k in (3, 4):
        for _ in range(8):
            r = oracles.random_rule(rng, k)
            pairs += [(r, oracles.random_rule(rng, k)), (r, symmetrize(r))]
    singles = [Rule(3, {(f, h): 1}) for f in range(8) for h in range(8) if f != h]
    hidden = [(r1, r2) for i, r1 in enumerate(singles) for r2 in singles[i + 1:]
              if _edge_count_sums(r1) == _edge_count_sums(r2)
              and coeff_vector(r1) != coeff_vector(r2)]
    assert len(hidden) == 72
    assert (Rule(3, {(1, 2): 1}), Rule(3, {(3, 5): 1})) in hidden
    verdicts = []
    for r1, r2 in pairs + hidden:
        gap = _velocity_gap(r1, r2, _exact_kernel(rng, r1.order - 1))
        verdicts.append(compare(r1, r2).equivalent)
        assert verdicts[-1] == (not any(gap))
    assert verdicts.count(True) >= 16 and verdicts.count(False) >= 72


def test_dilation_factor():
    assert dilation_factor(TR, TER) == 3
    assert dilation_factor(TER, TR) == F(1, 3)
    assert dilation_factor(TR, TR) == 1
    assert dilation_factor(IDENTITY3, make_named("identity", 3)) == 1
    half = Rule(3, {(7, 0): F(1, 2), (7, 7): F(1, 2)})
    assert dilation_factor(TR, half) == 2
    assert dilation_factor(TR, IDENTITY3) is None
    assert dilation_factor(IDENTITY3, TR) is None
    assert dilation_factor(TR, make_named("complementing", 3)) is None
    # lifts before comparing
    assert dilation_factor(lift(TR, 4), TER) == 3


def test_dilation_rejects_negative_proportionality():
    # within valid rules a class's coefficient sign is forced by whether the
    # root pair is an edge, so a negative ratio needs an unnormalized row
    deleter = Rule(2, {(1, 0): F(1)})
    doubled = Rule(2, {(1, 1): F(2)})
    assert dilation_factor(deleter, doubled) is None


def test_symmetrize_single_edge_rule():
    r = Rule(3, {(1, 0): F(1)})
    sym = symmetrize(r)
    assert sym == Rule(3, {(1, 0): F(1, 3), (1, 1): F(2, 3),
                           (2, 0): F(1, 3), (2, 2): F(2, 3),
                           (4, 0): F(1, 3), (4, 4): F(2, 3)})
    assert is_symmetric(sym)
    assert compare(r, sym).equivalent


def test_symmetrize_fixes_symmetric_rules():
    assert symmetrize(TR) == TR
    assert symmetrize(TER) == TER
    assert symmetrize(make_named("complementing", 3)) == \
        make_named("complementing", 3)


def test_symmetrize_random_soundness():
    rng = random.Random(37)
    for _ in range(40):
        k = rng.randint(2, 3)
        r = oracles.random_rule(rng, k)
        sym = symmetrize(r)
        assert is_symmetric(sym)
        assert symmetrize(sym) == sym
        assert compare(r, sym).equivalent


@st.composite
def _valid_rules(draw, min_order=2, max_order=4):
    """Valid sparse rules, some with the diagonal in a row's support."""
    k = draw(st.integers(min_value=min_order, max_value=max_order))
    codes = st.integers(min_value=0, max_value=(1 << num_pairs(k)) - 1)
    entries = {}
    for f in draw(st.lists(codes, min_size=1, max_size=3, unique=True)):
        support = draw(st.lists(codes, min_size=1, max_size=3, unique=True))
        if draw(st.booleans()) and f not in support:
            support.append(f)
        weights = draw(st.lists(st.integers(min_value=1, max_value=12),
                                min_size=len(support), max_size=len(support)))
        for h, w in zip(support, weights):
            entries[(f, h)] = F(w, sum(weights))
    return Rule(k, entries)


@st.composite
def _sparse_rules(draw):
    """Valid sparse rules of order 3 to 5, some symmetrized by the oracle
    and some of those with one entry dropped (left invalid) to break the
    symmetry."""
    rule = draw(_valid_rules(3, 5))
    shape = draw(st.sampled_from(["raw", "symmetric", "near-symmetric"]))
    if shape != "raw":
        rule = oracles.naive_symmetrize(rule)
    if shape == "near-symmetric" and rule.entries:
        drop = draw(st.sampled_from(sorted(rule.entries)))
        rule = Rule(rule.order,
                    {key: p for key, p in rule.entries.items() if key != drop})
    return rule


# the relabellings of row 1 include the identity rows 2 and 4
@example(Rule(3, {(1, 0): F(1)}))
# masses fit int64 but their shares over the orbit sizes do not
@example(Rule(3, {(1, 0): F(1, 2 ** 59 + 1), (1, 1): F(2 ** 59, 2 ** 59 + 1)}))
@settings(max_examples=30, deadline=None)
@given(_sparse_rules())
def test_symmetrize_matches_per_permutation_oracle(rule):
    sym = symmetrize(rule)
    assert sym == oracles.naive_symmetrize(rule)
    assert symmetrize(sym) == sym
    assert coeff_vector(sym) == coeff_vector(rule)


@example(Rule(3, {(1, 0): F(1)}))
@example(Rule(3, {(1, 1): F(1, 2), (1, 0): F(1, 2),
                  (2, 2): F(1, 2), (2, 0): F(1, 2)}))
@settings(max_examples=40, deadline=None)
@given(_sparse_rules())
def test_is_symmetric_matches_per_permutation_oracle(rule):
    assert is_symmetric(rule) == oracles.naive_is_symmetric(rule)


def test_symmetry_sweeps_are_capped():
    clique7 = make_named("clique-removal", 7)
    with pytest.raises(CapExceeded):
        is_symmetric(clique7)
    with pytest.raises(CapExceeded):
        classify_unique(clique7)
    with pytest.raises(CapExceeded):
        is_symmetric(TR, cap=2)
    assert is_symmetric(clique7, cap=7)
    # beyond order 8 the relabelling images outgrow the numpy tables
    with pytest.raises(CapExceeded):
        is_symmetric(Rule(9, {(1, 0): F(1)}), cap=9)


def test_unique_low_order():
    verdict = classify_unique(Rule(2, {(1, 0): F(1)}))
    assert verdict.unique and verdict.reason == "order-2"
    assert classify_unique(make_named("identity", 1)).unique
    assert classify_unique(make_named("complementing", 2)).reason == "order-2"


def test_unique_symmetric_deterministic():
    verdict = classify_unique(TR)
    assert verdict.unique and verdict.reason == "symmetric-deterministic"
    assert verdict.witness is None
    assert classify_unique(make_named("extremist", 3)).unique
    assert classify_unique(make_named("complementing", 3)).unique


def test_witness_for_asymmetric_rule_is_its_symmetrization():
    r = Rule(3, {(1, 0): F(1)})
    verdict = classify_unique(r)
    assert not verdict.unique and verdict.reason == "witness"
    assert verdict.witness == symmetrize(r)


def test_witness_for_symmetric_coin():
    coin = Rule(3, {(7, 0): F(1, 2), (7, 7): F(1, 2)})
    verdict = classify_unique(coin)
    assert not verdict.unique
    assert verdict.witness == Rule(3, {(7, h): F(1, 6) for h in range(1, 7)})


def _verified_witness(rule):
    verdict = classify_unique(rule)
    assert not verdict.unique and verdict.reason == "witness"
    witness = verdict.witness
    assert witness is not None and witness != rule
    assert rule_problems(witness) == []
    assert compare(rule, witness).equivalent
    return witness


def test_witness_partial_orbit_support():
    # keep one edge of the triangle uniformly: the support graphs differ in
    # two pairs, so mass moves within the row and is symmetrized
    keep = Rule(3, {(7, 1): F(1, 3), (7, 2): F(1, 3), (7, 4): F(1, 3)})
    assert is_symmetric(_verified_witness(keep))


def test_witness_checkerboard_case():
    # order 4, rows on the 3-path orbit with support on the two fixed pairs
    # of its stabilizer: the diagonal corners differ in two pairs
    base = Rule(4, {(5, 40): F(1, 4), (5, 42): F(1, 4),
                    (5, 56): F(1, 4), (5, 58): F(1, 4)})
    assert is_symmetric(_verified_witness(symmetrize(base)))


def test_witness_relabelled_row_case():
    # delete one edge with probability 1/2: each row's two support graphs
    # differ in one pair, so the witness trades mass against a relabelled
    # row, losing symmetry
    rule = symmetrize(Rule(3, {(1, 0): F(1, 2), (1, 1): F(1, 2)}))
    assert rule == Rule(3, {(e, 0): F(1, 6) for e in (1, 2, 4)}
                        | {(e, e): F(5, 6) for e in (1, 2, 4)})
    assert not is_symmetric(_verified_witness(rule))


def test_uniqueness_witness_for_single_edge_jumps():
    # single-edge rows jumping between the empty and complete graphs, which
    # the earlier pattern search missed although a witness exists
    gap = Rule(3, {(e, 0): F(1, 3) for e in (1, 2, 4)}
               | {(e, 7): F(2, 3) for e in (1, 2, 4)})
    assert is_symmetric(gap)
    assert is_symmetric(_verified_witness(gap))


def test_marginal_witness_toggles_a_pair_of_the_smaller_graph():
    # the first row, 1 = {12}, holds A = {12} and B = {13, 23}: they differ
    # in every pair and by one edge in size.  Toggling 12, the pair A holds,
    # sends A to the empty graph and B to the triangle, so the row's mass
    # spreads to 0 and 3 edges; toggling a pair of B would only trade the
    # edge counts of A and B
    rule = Rule(3, {(f, h): F(1, 2) for f in (1, 2, 4) for h in (f, 7 ^ f)})
    assert is_symmetric(rule) and not is_deterministic(rule)
    witness = _verified_witness(rule)
    assert witness.row(1) == {0: F(1, 6), 1: F(1, 3), 6: F(1, 3), 7: F(1, 6)}


@st.composite
def _symmetric_rules(draw):
    """symmetrize of a sparse random rule of order 3 to 5."""
    k = draw(st.integers(min_value=3, max_value=5))
    codes = st.integers(min_value=0, max_value=(1 << num_pairs(k)) - 1)
    entries = {}
    for f in draw(st.lists(codes, min_size=1, max_size=2, unique=True)):
        support = draw(st.lists(codes, min_size=1, max_size=3, unique=True))
        weights = draw(st.lists(st.integers(min_value=1, max_value=6),
                                min_size=len(support), max_size=len(support)))
        for h, w in zip(support, weights):
            entries[(f, h)] = F(w, sum(weights))
    return symmetrize(Rule(k, entries))


# rows of 2/3 stay and 1/3 to a graph three pairs away
@example(symmetrize(Rule(3, {(2, 5): F(1)})))
# one pair toggled: only the relabelled-row trade applies
@example(symmetrize(Rule(3, {(1, 0): F(1, 2), (1, 1): F(1, 2)})))
# row 3 is {3: 5/6, 4: 1/6}: the lower code holds more edges, so the
# marginal trade swaps the pair before it moves mass
@example(symmetrize(Rule(3, {(3, 3): F(1, 2), (3, 4): F(1, 2)})))
@settings(max_examples=40, deadline=None)
@given(_symmetric_rules())
def test_symmetric_nondeterministic_rules_get_witnesses(rule):
    assert is_symmetric(rule)
    if is_deterministic(rule):
        assert classify_unique(rule).unique
    else:
        _verified_witness(rule)


def test_random_witnesses_verify():
    rng = random.Random(41)
    seen_witness = 0
    for _ in range(30):
        r = oracles.random_rule(rng, 3)
        if is_symmetric(r):
            continue
        verdict = classify_unique(r)
        assert not verdict.unique
        assert verdict.witness != r
        assert compare(r, verdict.witness).equivalent
        seen_witness += 1
    assert seen_witness >= 20


def test_orbit_edge_histograms():
    def nonzero(hist):
        return {c: p for c, p in hist.items() if p}

    assert nonzero(oracles.orbit_edge_histogram(TR, 7, (1, 2))) == {0: F(1)}
    assert nonzero(oracles.orbit_edge_histogram(TER, 7, (1, 2))) == {2: F(1)}
    assert nonzero(oracles.orbit_edge_histogram(IDENTITY3, 7, (1, 2))) == {3: F(1)}
    assert nonzero(oracles.orbit_edge_histogram(IDENTITY3, 1, (1, 3))) == {0: F(1)}
    with pytest.raises(ValueError):
        oracles.orbit_edge_histogram(Rule(3, {(1, 0): F(1)}), 7, (1, 2))
    with pytest.raises(ValueError):
        oracles.orbit_edge_histogram(TR, 7, (1, 4))


def test_histogram_reconstructs_symmetric_coefficients():
    # for a symmetric rule the class coefficient is class size times the
    # per-element change, and the latter is readable off the histogram
    rng = random.Random(43)
    rules = [TR, TER, make_named("complementing", 3)]
    rules += [symmetrize(oracles.random_rule(rng, 3)) for _ in range(6)]
    rules += [symmetrize(oracles.random_rule(rng, 4, max_rows=2))]
    for rule in rules:
        k = rule.order
        vec = coeff_vector(rule)
        for cls, coeff in vec.items():
            bits = cls.canon.graph.bits
            a, b = cls.canon.a, cls.canon.b
            hist = oracles.orbit_edge_histogram(rule, bits, (a, b))
            orbit_len = sum(1 for _ in hist) - 1
            mean = sum(c * p for c, p in hist.items())
            idx_is_edge = GraphCode(k, bits).has_edge(a, b)
            z = mean / orbit_len - (1 if idx_is_edge else 0)
            assert coeff == cls.size * z


def test_check_k1_banner_and_examples():
    assert "CONJECTURE" in K1_BANNER
    assert not check_k1(TR, TER)
    assert check_k1(TR, TR)
    assert check_k1(make_named("identity", 1), make_named("identity", 1))
    with pytest.raises(ValueError):
        check_k1(TR, make_named("identity", 4))
    with pytest.raises(CapExceeded):
        check_k1(make_named("identity", 9), make_named("identity", 9))


def test_check_k1_invariant_under_symmetrization():
    rng = random.Random(47)
    for _ in range(30):
        r = oracles.random_rule(rng, rng.randint(2, 3))
        assert check_k1(r, symmetrize(r))


@st.composite
def _altered(draw, rule):
    """The rule as it is, or made invalid: one entry halved, negated or
    zeroed, or an extra (f, f) entry on an explicit row."""
    how = draw(st.sampled_from(["as-is", "halved", "negated", "zeroed", "diagonal"]))
    if how == "as-is" or not rule.entries:
        return rule
    entries = dict(rule.entries)
    f, h = draw(st.sampled_from(sorted(entries)))
    if how == "diagonal":
        entries[(f, f)] = entries.get((f, f), 0) + 1
    else:
        entries[(f, h)] *= {"halved": F(1, 2), "negated": -1, "zeroed": 0}[how]
    return Rule(rule.order, entries)


@st.composite
def _partner(draw, rule):
    """An independent valid rule of the same order, a relabelled copy or
    the symmetrization."""
    k = rule.order
    how = draw(st.sampled_from(["independent", "relabelled", "symmetrized"]))
    if how == "independent":
        return draw(_valid_rules(k, k))
    if how == "relabelled":
        sigma = draw(st.permutations(range(1, k + 1)))
        return Rule(k, {
            (oracles.apply_sigma_bits(sigma, k, f),
             oracles.apply_sigma_bits(sigma, k, h)): p
            for (f, h), p in rule.entries.items()
        })
    return symmetrize(rule)


# the first and second rule of one example share this base rule
_k1_base = st.shared(_valid_rules(), key="k1-base")


# row 1 holds no diagonal mass in the first rule and 1 in the second: the
# touched diagonal orbit must count as 0, not as the identity default 1
@example(Rule(2, {(1, 0): F(1)}), Rule(2, {(1, 0): F(1), (1, 1): F(1)}))
@settings(max_examples=60, deadline=None)
@given(_k1_base.flatmap(_altered),
       _k1_base.flatmap(_partner).flatmap(_altered))
def test_orbit_sums_and_problems_match_oracles(rule1, rule2):
    assert check_k1(rule1, rule2) == (
        oracles.naive_orbit_sums(rule1) == oracles.naive_orbit_sums(rule2)
    )
    assert rule_problems(rule1) == oracles.naive_rule_problems(rule1)
    assert rule_problems(rule2) == oracles.naive_rule_problems(rule2)


_transition_base = st.shared(_valid_rules(2, 3), key="transition-base")


@settings(max_examples=40, deadline=None)
@given(_transition_base, _transition_base.flatmap(_partner))
def test_transition_matrices_decide_check_k1(rule, partner):
    # on n = k vertices a step's tuple is a uniform relabelling, so the
    # transition matrix is the symmetrization, entry for entry; equal
    # symmetrizations give equal matrices on n = k + 1 vertices too
    k = rule.order
    at_k = oracles.transition_matrix(rule, k)
    sym = symmetrize(rule)
    codes = range(1 << num_pairs(k))
    assert at_k == {(g, g2): sym.probability(g, g2) for g in codes for g2 in codes
                    if sym.probability(g, g2)}
    above = oracles.transition_matrix(rule, k + 1)
    rows = {}
    for (g, _), p in above.items():
        rows[g] = rows.get(g, 0) + p
    assert rows == dict.fromkeys(range(1 << num_pairs(k + 1)), 1)
    same = (at_k == oracles.transition_matrix(partner, k)
            and above == oracles.transition_matrix(partner, k + 1))
    assert check_k1(rule, partner) == same


def _mixture(rule1, rule2, lam):
    """lam * R1 + (1 - lam) * R2 over full matrices, identity rows
    included."""
    entries = {}
    for f in set(rule1.rows()) | set(rule2.rows()):
        for rule, weight in ((rule1, lam), (rule2, 1 - lam)):
            for h, p in (rule.row(f) or {f: F(1)}).items():
                entries[(f, h)] = entries.get((f, h), 0) + weight * p
    return Rule(rule1.order, entries)


_mix_base = st.shared(_valid_rules(2, 5), key="mix-base")


@settings(max_examples=30, deadline=None)
@given(_mix_base, _mix_base.flatmap(lambda r: _valid_rules(r.order, r.order)),
       st.fractions(min_value=0, max_value=1, max_denominator=12))
def test_certificates_linear_under_mixing(rule1, rule2, lam):
    mixed = _mixture(rule1, rule2, lam)
    assert rule_problems(mixed) == []
    v1, v2 = coeff_vector(rule1), coeff_vector(rule2)
    assert coeff_vector(mixed).values == tuple(
        lam * a + (1 - lam) * b for a, b in zip(v1.values, v2.values)
    )


@settings(max_examples=30, deadline=None)
@given(_k1_base, _k1_base.flatmap(_partner), st.integers(min_value=1, max_value=3))
def test_lift_preserves_certificates(rule1, rule2, extra):
    to = min(rule1.order + extra, 5)
    lifted1, lifted2 = lift(rule1, to), lift(rule2, to)
    assert compare(lifted1, rule1).equivalent
    assert (coeff_vector(lifted1) == coeff_vector(lifted2)) == (
        coeff_vector(rule1) == coeff_vector(rule2)
    )


# ------------------------------------------------------ integer certificates

_CLASSES4 = enumerate_classes(4)
# small rationals, with equal ones written two ways, and a few past int64
_coefficients = st.one_of(
    st.sampled_from([0, F(0), 1, F(2, 2), F(-1, 3), F(1, 2), F(-5, 6), 2]),
    st.sampled_from([F(1, 2 ** 70), F(-7, 3 ** 41), F(2 ** 65, 3)]),
)


@st.composite
def _coefficient_pairs(draw):
    """Two coefficient lists over the 40 classes of order 4, the second the
    first with a few positions redrawn (possibly to an equal value)."""
    first = draw(st.lists(_coefficients, min_size=40, max_size=40))
    second = list(first)
    for i in draw(st.lists(st.integers(min_value=0, max_value=39), max_size=3)):
        second[i] = draw(_coefficients)
    return first, second


# equal first coefficients with unequal numerators over unequal denominators
@example(([F(1, 2)] + [0] * 39, [F(1, 2), F(1, 3)] + [0] * 38))
@settings(max_examples=100, deadline=None)
@given(_coefficient_pairs())
def test_coeff_vector_integers_agree_with_fractions(pair):
    v1, v2 = (CoeffVector(4, _CLASSES4, values) for values in pair)
    for v, values in zip((v1, v2), pair):
        assert v.values == tuple(F(x) for x in values)
        assert math.gcd(v.denom, *v.nums) == 1
        assert v.is_zero() == (not any(values))
        assert pickle.loads(pickle.dumps(v)) == v
    assert (v1 == v2) == (v1.values == v2.values)
    if v1 == v2:
        assert hash(v1) == hash(v2)
    first = next((i for i, (a, b) in enumerate(zip(*pair)) if a != b), None)
    assert _first_difference(v1, v2) == (None if first is None else _CLASSES4[first])


@st.composite
def _wide_denominator_rules(draw):
    """A valid rule of order 2 to 4, mixed with a second one at a weight
    whose denominator is past int64, or left as it is."""
    rule = draw(_valid_rules(2, 4))
    weight = draw(st.sampled_from([None, F(1, 2 ** 64 + 1), F(3 ** 40, 3 ** 41 + 2)]))
    if weight is None:
        return rule
    return _mixture(rule, draw(_valid_rules(rule.order, rule.order)), weight)


@settings(max_examples=60, deadline=None)
@given(_wide_denominator_rules(), _wide_denominator_rules())
def test_integer_core_matches_fraction_oracles(rule1, rule2):
    assert symmetrize(rule1) == oracles.naive_symmetrize(rule1)
    assert is_symmetric(rule1) == oracles.naive_is_symmetric(rule1)
    verdict = compare(rule1, rule2)
    v1, v2 = verdict.vectors
    first = next((cls for cls, a, b in zip(v1.classes, v1.values, v2.values) if a != b),
                 None)
    assert verdict.differing_class == first
    assert verdict.equivalent == (first is None) == (v1.values == v2.values)


# ------------------------------------------------------------ blocked sweeps

def _blocked_cases():
    rng = random.Random(53)
    wide = F(3 ** 40, 3 ** 41 + 2)
    return [
        make_named("complementing", 4),
        make_named("extremist", 4),
        lift(TR, 5),
        *(oracles.random_rule(rng, k, max_rows=6) for k in (3, 4, 4, 5)),
        # numerators past int64, held as Python integers
        _mixture(oracles.random_rule(rng, 4), oracles.random_rule(rng, 4), wide),
        # one row of 64 entries, split over many blocks
        Rule(4, {(5, h): F(1, 64) for h in range(64)}),
    ]


def _orbits(rule):
    return _orbit_sweep(rule.order, *entry_codes(rule), rule._starts)


def test_sweeps_agree_across_many_blocks(monkeypatch):
    rules = _blocked_cases()
    # the orbit-sum check pairs each rule with the first of its order
    partners = [next(p for p in rules if p.order == r.order) for r in rules]
    unblocked = [(_orbits(r), coeff_vector(r), check_k1(r, p))
                 for r, p in zip(rules, partners)]
    # blocks of 64 images: one or two entries per relabelling block, and a
    # handful per certificate block, so rows straddle blocks
    monkeypatch.setattr("flipproc.codes.BLOCK_ELEMENTS", 64)
    for rule, partner, (orbits, cv, k1) in zip(rules, partners, unblocked):
        blocked = _orbits(rule)
        for field in orbits._fields:
            assert np.array_equal(getattr(blocked, field), getattr(orbits, field)), field
        assert symmetrize(rule) == oracles.naive_symmetrize(rule)
        assert is_symmetric(rule) == oracles.naive_is_symmetric(rule)
        assert coeff_vector(rule) == cv
        assert check_k1(rule, partner) == k1
        if rule.order <= 4:
            assert _as_triples(cv) == oracles.naive_coeff_sums_fast(rule)
            assert k1 == (oracles.naive_orbit_sums(rule) == oracles.naive_orbit_sums(partner))
    # certificate blocks of s entries each, s = 1 to 11, so that the rows
    # of random rules end at every offset of a block, the first included
    rng = random.Random(3)
    for _ in range(40):
        rule = oracles.random_rule(rng, rng.choice((3, 4)), max_rows=8)
        want = oracles.naive_coeff_sums_fast(rule)
        for s in range(1, 12):
            monkeypatch.setattr("flipproc.codes.BLOCK_ELEMENTS", s * num_pairs(rule.order))
            assert _as_triples(coeff_vector(rule)) == want


@st.composite
def _swept_rules(draw):
    """Rules of order 2 to 5: valid, invalid (entries outside [0, 1], row
    sums off), empty, one row of many entries, or a symmetrization, whose
    many pairs fall in few orbits."""
    k = draw(st.integers(min_value=2, max_value=5))
    space = 1 << num_pairs(k)
    codes = st.integers(min_value=0, max_value=space - 1)
    kind = draw(st.sampled_from(["valid", "invalid", "empty", "wide", "symmetrized"]))
    if kind == "valid":
        return oracles.random_rule(draw(st.randoms(use_true_random=False)), k, max_rows=6)
    if kind == "symmetrized":
        rng = draw(st.randoms(use_true_random=False))
        return symmetrize(oracles.random_rule(rng, k, max_rows=3))
    if kind == "invalid":
        values = st.sampled_from([F(1, 2), F(-1, 3), F(2), F(1)])
        return Rule(k, draw(st.dictionaries(st.tuples(codes, codes), values,
                                            min_size=1, max_size=10)))
    if kind == "empty":
        return Rule(k, {})
    f = draw(codes)
    support = draw(st.lists(codes, min_size=min(space, 16), max_size=min(space, 64),
                            unique=True))
    return Rule(k, {(f, h): F(1, len(support)) for h in support})


# at order 5, blocks of 1 << 10 images hold 8 pairs: the first pass over a
# symmetrization spans several blocks while the second, one pair per orbit,
# may fit in one
@settings(max_examples=80, deadline=None)
@given(_swept_rules(), st.sampled_from([BLOCK_ELEMENTS, 1 << 10, 64]))
def test_orbit_sweep_matches_the_permutation_oracle(rule, block):
    naive = oracles.naive_orbits(rule)
    number = {m: j for j, key in enumerate(sorted(naive)) for m in naive[key]}
    members = sorted(number)
    p = num_pairs(rule.order)
    f, h = entry_codes(rule)
    want = {
        "sizes": [len(naive[key]) for key in sorted(naive)],
        "members": members,
        "owners": [number[m] for m in members],
        "entry_orbit": [number[m] for m in (f << p | h).tolist()],
        "row_orbit": [number[m] for m in (f[rule._starts] << p | f[rule._starts]).tolist()],
    }
    with mock.patch("flipproc.codes.BLOCK_ELEMENTS", block):
        orbits = _orbits(rule)
    assert list(want) == list(orbits._fields)
    for field, values in want.items():
        got = getattr(orbits, field)
        assert got.dtype == np.int64 and got.tolist() == values, field


def test_certificate_and_witness_leave_numpy_ma_unimported():
    # np.unique without index outputs imports numpy.ma, about 0.5 MB of
    # peak RSS that no certificate needs
    code = (
        "import sys\n"
        "from fractions import Fraction as F\n"
        "from flipproc import Rule, check_k1, classify_unique, coeff_vector, symmetrize\n"
        "rule = Rule(4, {(3, 0): F(1, 3), (3, 12): F(2, 3), (40, 1): F(1)})\n"
        "coeff_vector(rule); classify_unique(rule); symmetrize(rule)\n"
        "check_k1(rule, symmetrize(rule))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(equivalence.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
