"""Edge bitmask encoding, relabelling action, and the orbit census."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipproc import (
    CapExceeded,
    GraphCode,
    OrbitClass,
    RootedPairGraph,
    apply_perm,
    canonical_class,
    enumerate_classes,
    num_pairs,
    pair_index,
    pair_list,
)
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
    # not seen yet; hold it to the definition, the least image of every
    # code over all k! relabellings, a block of codes at a time
    for k in (2, 3, 4, 5, 6):
        census = _census(k)
        graph = np.array([cls.canon.graph.bits for cls in census.classes])
        diagonal = np.eye(k, dtype=bool)
        assert (census.index[:, diagonal] == -1).all()
        for lo in range(0, 1 << num_pairs(k), 1024):
            codes = np.arange(lo, min(lo + 1024, 1 << num_pairs(k)))
            least = perm_images(k, codes).min(axis=1)
            classes = census.index[codes][:, ~diagonal]
            assert (classes >= 0).all()
            assert (graph[classes] == least[:, None]).all()


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
    with pytest.raises(CapExceeded):
        enumerate_classes(9)
    with pytest.raises(CapExceeded):
        canonical_class(RootedPairGraph(GraphCode(7, 0), 1, 2))
    with pytest.raises(ValueError):
        enumerate_classes(0)


def test_enumeration_cap_env(monkeypatch):
    monkeypatch.setenv("FLIPPROC_CAP", "3")
    element = RootedPairGraph(GraphCode(4, 0), 1, 2)
    with pytest.raises(CapExceeded):
        enumerate_classes(4)
    with pytest.raises(CapExceeded):
        canonical_class(element)
    # explicit argument beats the environment
    assert len(enumerate_classes(4, cap=4)) == 40
    assert canonical_class(element, cap=4).size == 12
    monkeypatch.setenv("FLIPPROC_CAP", "not-a-number")
    with pytest.raises(ValueError):
        enumerate_classes(3)


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
