"""Edge bitmask encoding, relabelling action, and the orbit census."""

import dataclasses
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipproc import (
    CapExceeded,
    GraphCode,
    OrbitClass,
    RootedGraph,
    RootedPairGraph,
    Rule,
    SimConfig,
    apply_perm,
    canonical_class,
    constant_kernel,
    density_formula_check,
    enumerate_classes,
    lift,
    lipschitz_constant,
    make_named,
    num_pairs,
    pair_index,
    pair_list,
    rule_from_json_obj,
    run,
    transference_check,
)
from flipproc import codes
from flipproc.codes import _census, perm_images

import oracles


def test_pair_index_colex_order():
    assert pair_index(1, 2) == 0
    assert pair_index(1, 3) == 1
    assert pair_index(2, 3) == 2
    assert pair_index(1, 4) == 3
    assert pair_index(3, 4) == 5
    # unordered
    assert pair_index(4, 1) == pair_index(1, 4)


def test_pair_index_rejects_loops_and_bad_labels():
    with pytest.raises(ValueError):
        pair_index(2, 2)
    with pytest.raises(ValueError):
        pair_index(0, 1)


def test_lower_order_pairs_are_a_prefix():
    # the same code denotes the same edges at any higher order
    for k in range(2, 7):
        assert pair_list(k) == pair_list(k + 1)[: num_pairs(k)]


def test_graph_code_validation():
    with pytest.raises(ValueError):
        GraphCode(2, 2)
    with pytest.raises(ValueError):
        GraphCode(0, 0)
    GraphCode(1, 0)  # no pairs, bits must be 0
    with pytest.raises(ValueError):
        GraphCode(1, 1)
    for bits in (1.5, 1.0, True, "1"):
        with pytest.raises(ValueError):
            GraphCode(3, bits)
    code = GraphCode(3, np.int64(5))
    assert type(code.bits) is int and code.edge_count() == 2


def test_graph_code_range_check_builds_no_code_bound():
    # C(100000, 2) bits: 1 << C(k, 2) would take about 600 MB
    tracemalloc.start()
    try:
        assert GraphCode(100_000, 1).bits == 1
        with pytest.raises(ValueError):
            GraphCode(100_000, -1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_graph_code_edges_and_complement():
    g = GraphCode(3, 0b101)
    assert g.edges() == ((1, 2), (2, 3))
    assert g.edge_count() == 2
    assert g.has_edge(2, 1) and not g.has_edge(1, 3)
    assert g.complement().bits == 0b010


def test_rooted_pair_validation():
    g = GraphCode(3, 7)
    with pytest.raises(ValueError):
        RootedPairGraph(g, 1, 1)
    with pytest.raises(ValueError):
        RootedPairGraph(g, 0, 2)
    with pytest.raises(ValueError):
        RootedPairGraph(g, 1, 4)
    # roots are integers, not floats, bools or strings
    for a, b in ((True, 2), (1, 2.0), (1.0, 2), (1, "2")):
        with pytest.raises(ValueError, match="must be integers"):
            RootedPairGraph(g, a, b)
    with pytest.raises(ValueError):
        canonical_class(RootedPairGraph(GraphCode(3, 1), 1.0, 2))
    # numpy integers are read as Python integers
    element = RootedPairGraph(GraphCode(3, 1), np.int64(2), np.int32(1))
    assert element == RootedPairGraph(GraphCode(3, 1), 2, 1)
    assert type(element.a) is int and type(element.b) is int
    assert canonical_class(element) == canonical_class(RootedPairGraph(GraphCode(3, 1), 2, 1))


def test_apply_perm_example():
    # swapping vertices 2 and 3 carries the edge {1,2} to {1,3}
    element = RootedPairGraph(GraphCode(3, 1), 1, 2)
    image = apply_perm((1, 3, 2), element)
    assert image == RootedPairGraph(GraphCode(3, 2), 1, 3)


def test_apply_perm_rejects_non_permutations():
    element = RootedPairGraph(GraphCode(3, 1), 1, 2)
    with pytest.raises(ValueError):
        apply_perm((1, 1, 2), element)
    with pytest.raises(ValueError):
        apply_perm((1, 2), element)


@pytest.mark.parametrize("k", [9, 10])
def test_apply_perm_beyond_the_relabelling_tables(k):
    # one relabelling needs no table of all k! images
    rng = random.Random(k)
    for _ in range(20):
        sigma = list(range(1, k + 1))
        rng.shuffle(sigma)
        bits = rng.getrandbits(num_pairs(k))
        a, b = rng.sample(range(1, k + 1), 2)
        image = apply_perm(sigma, RootedPairGraph(GraphCode(k, bits), a, b))
        assert image.graph.bits == oracles.apply_sigma_bits(sigma, k, bits)
        assert (image.a, image.b) == (sigma[a - 1], sigma[b - 1])


def _all_elements(k):
    return [
        RootedPairGraph(GraphCode(k, bits), a, b)
        for bits in range(1 << num_pairs(k))
        for a in range(1, k + 1)
        for b in range(1, k + 1)
        if a != b
    ]


def _perms(k):
    import itertools
    return list(itertools.permutations(range(1, k + 1)))


def _compose(sigma, tau):
    # apply tau first, then sigma
    return tuple(sigma[tau[i] - 1] for i in range(len(tau)))


def test_group_action_laws_exhaustive_order_3():
    identity = (1, 2, 3)
    perms = _perms(3)
    for element in _all_elements(3):
        assert apply_perm(identity, element) == element
        for sigma in perms:
            for tau in perms:
                assert apply_perm(sigma, apply_perm(tau, element)) == apply_perm(
                    _compose(sigma, tau), element
                )


def test_group_action_laws_sampled_higher_order():
    rng = random.Random(20260814)
    for k in (4, 5):
        perms = _perms(k)
        for _ in range(60):
            element = RootedPairGraph(
                GraphCode(k, rng.randrange(1 << num_pairs(k))),
                *rng.sample(range(1, k + 1), 2),
            )
            sigma, tau = rng.choice(perms), rng.choice(perms)
            assert apply_perm((1,) * 0 + tuple(range(1, k + 1)), element) == element
            assert apply_perm(sigma, apply_perm(tau, element)) == apply_perm(
                _compose(sigma, tau), element
            )


def test_canonical_class_invariant_under_action():
    for k in (2, 3):
        perms = _perms(k)
        for element in _all_elements(k):
            cls = canonical_class(element)
            for sigma in perms:
                assert canonical_class(apply_perm(sigma, element)) == cls


def test_canonical_class_invariant_sampled_order_4():
    rng = random.Random(99)
    perms = _perms(4)
    for _ in range(300):
        element = RootedPairGraph(
            GraphCode(4, rng.randrange(64)), *rng.sample(range(1, 5), 2)
        )
        cls = canonical_class(element)
        sigma = rng.choice(perms)
        assert canonical_class(apply_perm(sigma, element)) == cls


def test_canonical_class_triangle_example():
    cls = canonical_class(RootedPairGraph(GraphCode(3, 7), 2, 3))
    assert cls.canon == RootedPairGraph(GraphCode(3, 7), 1, 2)
    assert cls.size == 6


def test_census_counts_match_independent_count():
    expected_totals = {2: 4, 3: 48, 4: 768, 5: 20480, 6: 983040}
    expected_counts = {2: 2, 3: 8, 4: 40, 5: 240, 6: 1992}
    for k in (2, 3, 4, 5, 6):
        classes = enumerate_classes(k)
        assert len(classes) == oracles.burnside_class_count(k) == expected_counts[k]
        total = sum(cls.size for cls in classes)
        assert total == (1 << num_pairs(k)) * k * (k - 1) == expected_totals[k]
        fact = 1
        for i in range(1, k + 1):
            fact *= i
        for cls in classes:
            assert fact % cls.size == 0


def test_census_partitions_every_element():
    # each element canonicalizes into exactly one census class
    for k in (2, 3, 4, 5):
        classes = enumerate_classes(k)
        index = {cls.canon.key(): cls for cls in classes}
        counts = {cls.canon.key(): 0 for cls in classes}
        for element in _all_elements(k):
            counts[canonical_class(element).canon.key()] += 1
        for cls in classes:
            assert counts[cls.canon.key()] == cls.size
        assert len(index) == len(classes)


def test_census_graphs_are_least_images():
    # the census finds each canonical graph as the least code of its orbit
    # not seen yet; hold its lookup to the definition, the least image of
    # every code over all k! relabellings, a block of codes at a time
    for k in (2, 3, 4, 5, 6):
        census = _census(k)
        graph = np.array([cls.canon.graph.bits for cls in census.classes])
        assert (census.tables.reshape(-1, k * k)[:, ::k + 1] == -1).all()
        for lo in range(0, 1 << num_pairs(k), 1024):
            codes = np.arange(lo, min(lo + 1024, 1 << num_pairs(k)))
            least = perm_images(k, codes).min(axis=1)
            # every ordered root pair: each pair of pair_list both ways
            classes = census.class_of(codes)
            assert (classes >= 0).all()
            assert (graph[classes] == least[:, None, None]).all()


@st.composite
def _census_cell(draw):
    k = draw(st.integers(min_value=3, max_value=7))
    bits = draw(st.integers(min_value=0, max_value=(1 << num_pairs(k)) - 1))
    a, b = draw(st.permutations(range(1, k + 1)))[:2]
    return k, bits, a, b


@settings(max_examples=40, deadline=None)
@given(_census_cell())
def test_census_lookup_is_the_orbit_minimum(cell):
    # the class that the lookup names is the least relabelling of the cell
    # over all k! permutations, order 7 included
    k, bits, a, b = cell
    cls = canonical_class(RootedPairGraph(GraphCode(k, bits), a, b))
    assert cls.canon.key() == oracles.canon_triple(k, bits, a, b)


def test_census_sorted_by_canonical_representative():
    for k in (2, 3, 4):
        keys = [cls.canon.key() for cls in enumerate_classes(k)]
        assert keys == sorted(keys)
        assert all(
            canonical_class(cls.canon).canon == cls.canon
            for cls in enumerate_classes(k)
        )


def test_order_one_has_no_classes():
    assert enumerate_classes(1) == []


def test_enumeration_cap():
    # the census budget is checked on C(k, 2), so an absurd order is
    # refused at once, with a short message
    for k in (9, 10 ** 9):
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="census") as exc:
            enumerate_classes(k)
        with pytest.raises(CapExceeded, match="census"):
            canonical_class(RootedPairGraph(GraphCode(k, 0), 1, 2))
        assert time.perf_counter() - start < 0.1
        assert len(str(exc.value)) < 200
    with pytest.raises(ValueError):
        enumerate_classes(0)


def test_census_index_is_held_to_its_budget(monkeypatch):
    # order 8 would hold 2^28 codes: refused before any array is allocated
    with pytest.raises(CapExceeded, match="census"):
        enumerate_classes(8)
    with pytest.raises(CapExceeded, match="census"):
        canonical_class(RootedPairGraph(GraphCode(8, 0), 1, 2))
    # order 7, 21 pairs and 2^21 codes, is within the budget, and its
    # arrays stay far below a (code, a, b) index, 392 MiB of int32 at
    # order 7
    assert 21 <= codes._CENSUS_BUDGET < 28
    assert len(enumerate_classes(7)) == 24416
    census = _census(7)
    arrays = (census.offset, census.perm_of, census.tables, census.cells)
    assert sum(array.nbytes for array in arrays) < 32 << 20
    # a budget of exactly order 4's 6 pairs still builds order 4, and
    # refuses order 5
    monkeypatch.setattr(codes, "_CENSUS_BUDGET", 6)
    _census.cache_clear()
    try:
        assert len(enumerate_classes(4)) == 40
        with pytest.raises(CapExceeded, match="budget of 6$"):
            enumerate_classes(5)
    finally:
        _census.cache_clear()


def test_enumeration_cap_env(monkeypatch):
    # no process-wide variable bounds the census: FLIPPROC_CAP, valid or
    # not, neither lowers a budget nor makes it an error
    element = RootedPairGraph(GraphCode(4, 0), 1, 2)
    for env in ("3", "not-a-number", "0", "-2"):
        monkeypatch.setenv("FLIPPROC_CAP", env)
        assert len(enumerate_classes(4)) == 40
        assert canonical_class(element).size == 12


def _run_field(field):
    """run on a small identity configuration with one field set, and the
    value that field takes in the result."""
    read = {"n": lambda out: out.n, "runs": lambda out: len(out.samples),
            "sample_points": lambda out: len(out.times), "seed": lambda out: out.seed}

    def call(value):
        cfg = SimConfig(rule=make_named("identity", 2), n=4, initial=constant_kernel(0.5),
                        horizon=0.01, seed=0, runs=1, sample_points=1)
        return read[field](run(dataclasses.replace(cfg, **{field: value})))

    return call


def _multiplicity(value):
    base = RootedGraph([1, 2], [(1, 2)], roots=(1,))
    g = RootedGraph("ab", [("a", "b")])
    return density_formula_check(base, {1: 2, 2: value}, g,
                                 {"a": Fraction(1, 3), "b": Fraction(2, 3)}, "a", "a")


_ORDERS_AND_COUNTS = {
    "GraphCode": (lambda v: GraphCode(v, 0).order, 3),
    "enumerate_classes": (enumerate_classes, 3),
    "Rule": (lambda v: Rule(v).order, 3),
    "make_named": (lambda v: make_named("identity", v).order, 3),
    "rule-json-order": (lambda v: rule_from_json_obj({"order": v}).order, 3),
    "lipschitz_constant": (lipschitz_constant, 3),
    "density-multiplicity": (_multiplicity, 1),
    "lift-to": (lambda v: lift(Rule(2), v).order, 3),
    "run-n": (_run_field("n"), 4),
    "run-runs": (_run_field("runs"), 2),
    "run-sample-points": (_run_field("sample_points"), 2),
    "run-seed": (_run_field("seed"), 1),
    "transference-points": (lambda v: len(transference_check(
        make_named("identity", 2), n=4, start=constant_kernel(0.5), horizon=0.01,
        eps=0.5, seed=0, runs=1, points=v)[0]["times"]), 10),
}


@pytest.mark.parametrize("entry", sorted(_ORDERS_AND_COUNTS))
def test_orders_and_counts_are_integers(entry):
    # a float, bool or string is refused, never rounded; a numpy integer is
    # taken and read as the Python integer
    call, good = _ORDERS_AND_COUNTS[entry]
    for bad in (float(good), good + 0.5, True, str(good)):
        with pytest.raises(ValueError):
            call(bad)
    expect = call(good)
    got = call(np.int64(good))
    assert got == expect and type(got) is type(expect)


def test_orbit_class_json_shape():
    cls = enumerate_classes(3)[-1]
    obj = cls.to_json_obj()
    assert set(obj) == {"class", "size"}
    assert set(obj["class"]) == {"code", "a", "b"}


def test_canonical_matches_independent_canonicalizer():
    rng = random.Random(7)
    for k in (2, 3, 4):
        for _ in range(80):
            bits = rng.randrange(1 << num_pairs(k))
            a, b = rng.sample(range(1, k + 1), 2)
            cls = canonical_class(RootedPairGraph(GraphCode(k, bits), a, b))
            assert cls.canon.key() == oracles.canon_triple(k, bits, a, b)


@st.composite
def _element_and_permutation(draw):
    k = draw(st.integers(min_value=2, max_value=6))
    bits = draw(st.integers(min_value=0, max_value=(1 << num_pairs(k)) - 1))
    a, b = draw(st.permutations(range(1, k + 1)))[:2]
    sigma = tuple(draw(st.permutations(range(1, k + 1))))
    return RootedPairGraph(GraphCode(k, bits), a, b), sigma


@settings(max_examples=150, deadline=None)
@given(_element_and_permutation())
def test_canonical_class_property(case):
    element, sigma = case
    cls = canonical_class(element)
    assert canonical_class(apply_perm(sigma, element)) == cls
    k = element.order
    assert cls.canon.key() == oracles.canon_triple(
        k, element.graph.bits, element.a, element.b
    )
