"""Twins, twinfree quotients, blowups, rooted versions, and the
structure-preserving maps."""

import itertools
import random

import pytest

from flipproc import (
    RootedGraph,
    are_twins,
    automorphisms,
    blowup,
    blowup_vectors_equivalent,
    class_sizes,
    count_rrr_maps,
    find_isomorphism,
    is_twinfree,
    isomorphic,
    rooted_graph_from_json_obj,
    rooted_version,
    twin_classes,
    twinfree_version,
    vstar,
)
from flipproc.rooted import _iso_maps

import oracles


def K(n, roots=()):
    vs = list(range(1, n + 1))
    return RootedGraph(vs, itertools.combinations(vs, 2), roots)


def test_rooted_graph_validation():
    with pytest.raises(ValueError):
        RootedGraph([1, 2], [(1, 1)])
    with pytest.raises(ValueError):
        RootedGraph([1, 2], [(1, 3)])
    with pytest.raises(ValueError):
        RootedGraph([1, 2], [], roots=(1, 1))
    with pytest.raises(ValueError):
        RootedGraph([1, 2], [], roots=(3,))


def test_twins_basics():
    g = RootedGraph([1, 2, 3], [(1, 2), (2, 3)])
    assert are_twins(g, 1, 3)
    assert not are_twins(g, 1, 2)
    # adjacent vertices are never twins
    assert not are_twins(K(3), 1, 2)
    assert is_twinfree(K(3))


def test_twinfree_version_star():
    star = RootedGraph([1, 2, 3], [(1, 2), (2, 3)])
    tf = twinfree_version(star)
    assert len(tf.vertices) == 2
    assert len(tf.edges) == 1
    assert tf.roots == ()


def test_twinfree_version_empty_graph_collapses():
    g = RootedGraph([1, 2, 3, 4], [])
    tf = twinfree_version(g)
    assert len(tf.vertices) == 1 and not tf.edges


def test_root_membership_blocks_merging():
    # twins with exactly one root stay separate
    g = RootedGraph([1, 2, 3], [], roots=(2,))
    assert not is_twinfree(g)  # 1 and 3 merge
    classes = twin_classes(g)
    assert sorted(len(c) for c in classes) == [1, 2]
    tf = twinfree_version(g)
    assert len(tf.vertices) == 2 and len(tf.roots) == 1
    g2 = RootedGraph([1, 2], [], roots=(2,))
    assert is_twinfree(g2)


def test_root_classes_keep_induced_order():
    # two root twin pairs; quotient root order follows earliest positions
    g = RootedGraph([1, 2, 3, 4, 5], [(1, 5), (2, 5), (3, 5), (4, 5)],
                    roots=(3, 1, 4, 2))
    tf = twinfree_version(g)
    assert len(tf.roots) == 1  # all four roots are mutual twins
    g2 = RootedGraph([1, 2, 3, 4], [(1, 3), (2, 3), (2, 4)], roots=(2, 1))
    assert twinfree_version(g2).roots == (2, 1)


def test_twinfree_idempotent_and_produces_twinfree():
    rng = random.Random(4)
    for _ in range(150):
        n = rng.randint(1, 7)
        g = oracles.random_rooted_graph(rng, n, roots=rng.randint(0, n), p=0.5)
        tf = twinfree_version(g)
        assert is_twinfree(tf)
        again = twinfree_version(tf)
        assert again == tf


def test_class_sizes_match_partition():
    g = RootedGraph([1, 2, 3, 4], [(1, 2), (3, 2), (4, 2)])
    sizes = class_sizes(g)
    assert sizes == {1: 3, 2: 1}


def test_blowup_examples():
    k2 = RootedGraph([1, 2], [(1, 2)])
    b = blowup(k2, {1: 2, 2: 1})
    assert isomorphic(b, RootedGraph("uvw", [("u", "w"), ("v", "w")]))
    ones = blowup(k2, {1: 1, 2: 1})
    assert isomorphic(ones, k2)
    dropped = blowup(k2, {1: 1, 2: 0})
    assert len(dropped.vertices) == 1 and not dropped.edges
    with pytest.raises(ValueError):
        blowup(k2, {1: 1})
    with pytest.raises(ValueError):
        blowup(k2, {1: 1, 2: 1, 3: 1})


def test_blowup_root_intervals():
    g = RootedGraph([1, 2, 3], [(1, 2), (2, 3)], roots=(3, 1))
    b = blowup(g, {1: 2, 2: 1, 3: 2})
    assert b.roots == ((3, 1), (3, 2), (1, 1), (1, 2))


def _contiguous_root_order(g):
    """Reorder roots so twin classes appear as consecutive runs (the shape
    the quotient/blowup round trip preserves root order for)."""
    classes = twin_classes(g)
    pos = {v: i for i, v in enumerate(g.roots)}
    new_roots = []
    for cls in classes:
        members = sorted((v for v in cls if v in pos), key=lambda v: pos[v])
        new_roots.extend(members)
    return RootedGraph(g.vertices, g.edges, new_roots)


def test_blowup_of_quotient_recovers_graph():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 8)
        g = oracles.random_rooted_graph(rng, n, roots=rng.randint(0, min(3, n)),
                                        p=rng.choice([0.25, 0.5, 0.8]))
        g = _contiguous_root_order(g)
        tf = twinfree_version(g)
        m = class_sizes(g)
        assert isomorphic(blowup(tf, m), g)


def test_rooted_version_single():
    g = RootedGraph([1, 2], [(1, 2)])
    rv = rooted_version(g, (1,))
    assert len(rv.vertices) == 3
    dup = (1, "dup")
    assert rv.roots == (dup,)
    assert rv.has_edge(1, 2) and rv.has_edge(dup, 2) and not rv.has_edge(dup, 1)
    assert are_twins(rv, dup, 1)


def test_rooted_version_both_endpoints():
    g = RootedGraph([1, 2], [(1, 2)])
    rv = rooted_version(g, (1, 2))
    d1, d2 = (1, "dup"), (2, "dup")
    assert rv.roots == (d1, d2)
    assert len(rv.vertices) == 4 and len(rv.edges) == 4
    # each duplicate: adjacent to the other original and the other duplicate
    assert rv.has_edge(d1, 2) and rv.has_edge(d2, 1) and rv.has_edge(d1, d2)
    assert not rv.has_edge(d1, 1) and not rv.has_edge(d2, 2)
    assert are_twins(rv, d1, 1) and are_twins(rv, d2, 2)


def test_rooted_version_of_nonedge():
    g = RootedGraph([1, 2], [])
    rv = rooted_version(g, (1, 2))
    assert len(rv.edges) == 0


def test_vstar():
    # doubled vertex: the duplicate twins with its root
    g = RootedGraph([1, 2, 3], [(1, 2), (2, 3)])
    rv = rooted_version(g, (2,))
    assert vstar(rv) == len(g.vertices) - 1
    base = RootedGraph([1, 2], [(1, 2)], roots=(1,))
    assert vstar(base) == 1


def test_count_rrr_examples():
    k2_rooted = RootedGraph([1, 2], [(1, 2)], roots=(1, 2))
    assert len(count_rrr_maps(k2_rooted, k2_rooted)) == 1
    k2 = RootedGraph([1, 2], [(1, 2)])
    assert len(count_rrr_maps(k2, K(3))) == 6
    one_root = rooted_version(K(3), (1,))
    assert count_rrr_maps(k2_rooted, one_root) == []


def test_rrr_maps_match_brute_force():
    rng = random.Random(23)
    for _ in range(120):
        ns, nd = rng.randint(1, 4), rng.randint(1, 5)
        src = oracles.random_rooted_graph(rng, ns,
                                          roots=rng.randint(0, min(2, ns)), p=0.5)
        dst = oracles.random_rooted_graph(rng, nd,
                                          roots=rng.randint(0, min(2, nd)), p=0.5)
        got = count_rrr_maps(src, dst)
        want = oracles.brute_rrr_maps(src, dst)
        key = lambda phi: sorted((repr(u), repr(v)) for u, v in phi.items())
        assert sorted(map(key, got)) == sorted(map(key, want))


def test_rrr_maps_from_twinfree_source_are_injective():
    rng = random.Random(31)
    checked = 0
    while checked < 500:
        src = oracles.random_rooted_graph(rng, rng.randint(2, 4),
                                          roots=rng.randint(0, 2), p=0.5)
        if not is_twinfree(src):
            continue
        dst = oracles.random_rooted_graph(rng, rng.randint(2, 5),
                                          roots=rng.randint(0, 2), p=0.5)
        for phi in count_rrr_maps(src, dst):
            checked += 1
            assert len(set(phi.values())) == len(phi)
        checked += 1


def test_collapsed_vertices_are_twins():
    # whenever a map identifies two vertices they must be twins with equal
    # root status in the source
    rng = random.Random(37)
    collisions = 0
    for _ in range(300):
        src = oracles.random_rooted_graph(rng, rng.randint(2, 4),
                                          roots=rng.randint(0, 1), p=0.4)
        dst = oracles.random_rooted_graph(rng, rng.randint(2, 4),
                                          roots=rng.randint(0, 1), p=0.6)
        for phi in count_rrr_maps(src, dst):
            for u, v in itertools.combinations(sorted(phi, key=repr), 2):
                if phi[u] == phi[v]:
                    collisions += 1
                    assert are_twins(src, u, v)
                    assert (u in src.roots) == (v in src.roots)
    assert collisions > 0


def test_isomorphic_matches_brute_force():
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(1, 6)
        g = oracles.random_rooted_graph(rng, n, roots=rng.randint(0, min(2, n)),
                                        p=0.5)
        h = oracles.random_relabelling(rng, g)
        assert isomorphic(g, h)
        assert oracles.brute_isomorphic(g, h)
        other = oracles.random_rooted_graph(rng, n, roots=len(g.roots), p=0.5)
        assert isomorphic(g, other) == oracles.brute_isomorphic(g, other)


def _map_set(maps):
    return {frozenset(phi.items()) for phi in maps}


def test_isomorphism_sets_match_permutation_sweep():
    rng = random.Random(59)
    graphs = []
    for _ in range(120):
        n = rng.randint(1, 6)
        graphs.append(oracles.random_rooted_graph(
            rng, n, roots=rng.randint(0, min(2, n)), p=rng.uniform(0.2, 0.8)))
    # blow-ups of non-roots: their twins multiply the automorphisms
    while len(graphs) < 160:
        n = rng.randint(1, 3)
        base = twinfree_version(oracles.random_rooted_graph(
            rng, n, roots=rng.randint(0, min(2, n)), p=0.5))
        graphs.append(blowup(base, {
            v: 1 if v in base.roots else rng.randint(1, 2)
            for v in base.vertices
        }))
    for g in graphs:
        assert _map_set(automorphisms(g)) == _map_set(
            oracles.brute_isomorphisms(g, g))
        other = oracles.random_rooted_graph(
            rng, len(g.vertices), roots=len(g.roots), p=0.5)
        for h in (oracles.random_relabelling(rng, g), other):
            want = _map_set(oracles.brute_isomorphisms(g, h))
            assert _map_set(_iso_maps(g, h)) == want
            phi = find_isomorphism(g, h)
            if want:
                assert frozenset(phi.items()) in want
            else:
                assert phi is None


def test_isomorphism_respects_root_order():
    g = RootedGraph([1, 2, 3], [(1, 2)], roots=(1, 3))
    h = RootedGraph([1, 2, 3], [(1, 2)], roots=(3, 1))
    assert not isomorphic(g, h)
    phi = find_isomorphism(g, RootedGraph("abc", [("a", "b")], roots=("a", "c")))
    assert phi == {1: "a", 2: "b", 3: "c"}


def test_blowup_vectors_example():
    path = RootedGraph([1, 2, 3], [(1, 2), (2, 3)], roots=(1,))
    assert not blowup_vectors_equivalent(path, {1: 1, 2: 1, 3: 2},
                                         {1: 2, 2: 1, 3: 1})
    # reversal of the 4-path carries one vector to the other
    p4 = RootedGraph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
    assert blowup_vectors_equivalent(p4, {1: 1, 2: 2, 3: 1, 4: 1},
                                     {1: 1, 2: 1, 3: 2, 4: 1})
    with pytest.raises(ValueError):
        blowup_vectors_equivalent(RootedGraph([1, 2, 3], [(1, 2), (2, 3)]),
                                  {1: 1, 2: 1, 3: 2}, {1: 2, 2: 1, 3: 1})


def test_blowup_vectors_equivalence_iff_isomorphic_blowups():
    rng = random.Random(43)
    done = 0
    while done < 200:
        n = rng.randint(1, 4)
        g = oracles.random_rooted_graph(rng, n, roots=rng.randint(0, min(2, n)),
                                        p=0.5)
        if not is_twinfree(g):
            continue
        vs = sorted(g.vertices)
        budget = 8 - n
        m = {v: rng.randint(1, 2) for v in vs}
        perm = vs[:]
        rng.shuffle(perm)
        if rng.random() < 0.5:
            nvec = {v: rng.randint(1, 2) for v in vs}
        else:
            nvec = {v: m[p] for v, p in zip(vs, perm)}
        if sum(m.values()) > 8 or sum(nvec.values()) > 8:
            continue
        equivalent = blowup_vectors_equivalent(g, m, nvec)
        assert equivalent == isomorphic(blowup(g, m), blowup(g, nvec))
        done += 1


def test_json_round_trip():
    g = RootedGraph([1, 2, (3, "dup")], [(1, 2), (2, (3, "dup"))],
                    roots=((3, "dup"), 1))
    obj = g.to_json_obj()
    assert obj["roots"] == [[3, "dup"], 1]
    back = rooted_graph_from_json_obj(obj)
    assert back == g
    with pytest.raises(ValueError):
        rooted_graph_from_json_obj({"vertices": [1], "edges": [], "roots": [],
                                    "color": "red"})
