"""Twins, blowups, rooted versions, and the structure-preserving maps."""

import itertools
import random

import pytest

from flipproc import (
    RootedGraph,
    blowup,
    count_rrr_maps,
    is_twinfree,
    rooted_version,
    twin_classes,
    vstar,
)

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


def test_rooted_graph_equality_hash_and_repr():
    g = RootedGraph([2, 1, 3], [(2, 1), (3, 2)], roots=(2,))
    same = RootedGraph([1, 2, 3], [(1, 2), (2, 3)], roots=[2])
    assert g == same and len({g, same}) == 1
    assert g != RootedGraph([1, 2, 3], [(1, 2), (2, 3)], roots=(1,))
    assert g != g.edges and g.__eq__(None) is NotImplemented
    assert repr(g) == "RootedGraph([1, 2, 3], [(1, 2), (2, 3)], roots=[2])"


def test_twins_basics():
    g = RootedGraph([1, 2, 3], [(1, 2), (2, 3)])
    assert g.neighbors(1) == g.neighbors(3)
    assert g.neighbors(1) != g.neighbors(2)
    # adjacent vertices are never twins
    assert K(3).neighbors(1) != K(3).neighbors(2)
    assert is_twinfree(K(3))


def test_root_membership_blocks_merging():
    # twins with exactly one root stay separate
    g = RootedGraph([1, 2, 3], [], roots=(2,))
    assert not is_twinfree(g)  # 1 and 3 merge
    assert twin_classes(g) == [frozenset({2}), frozenset({1, 3})]
    g2 = RootedGraph([1, 2], [], roots=(2,))
    assert is_twinfree(g2)


def test_root_classes_keep_induced_order():
    # root classes come first, ordered by their earliest member's position
    # in the root order; non-root classes follow in label order
    g = RootedGraph([1, 2, 3, 4, 5], [(1, 5), (2, 5), (3, 5), (4, 5)],
                    roots=(3, 1, 4, 2))
    assert twin_classes(g) == [frozenset({1, 2, 3, 4}), frozenset({5})]
    g2 = RootedGraph([1, 2, 3, 4, 5], [(1, 5), (3, 5), (2, 4)], roots=(4, 1, 3))
    assert twin_classes(g2) == [frozenset({4}), frozenset({1, 3}),
                                frozenset({2}), frozenset({5})]


def test_blowup_examples():
    k2 = RootedGraph([1, 2], [(1, 2)])
    b = blowup(k2, {1: 2, 2: 1})
    assert oracles.brute_isomorphic(b, RootedGraph("uvw", [("u", "w"), ("v", "w")]))
    ones = blowup(k2, {1: 1, 2: 1})
    assert oracles.brute_isomorphic(ones, k2)
    dropped = blowup(k2, {1: 1, 2: 0})
    assert len(dropped.vertices) == 1 and not dropped.edges
    with pytest.raises(ValueError):
        blowup(k2, {1: 1})
    with pytest.raises(ValueError):
        blowup(k2, {1: 1, 2: 1, 3: 1})
    with pytest.raises(ValueError, match="negative multiplicity"):
        blowup(k2, {1: 1, 2: -1})


def test_blowup_root_intervals():
    g = RootedGraph([1, 2, 3], [(1, 2), (2, 3)], roots=(3, 1))
    b = blowup(g, {1: 2, 2: 1, 3: 2})
    assert b.roots == ((3, 1), (3, 2), (1, 1), (1, 2))


def test_rooted_version_single():
    g = RootedGraph([1, 2], [(1, 2)])
    rv = rooted_version(g, (1,))
    assert len(rv.vertices) == 3
    dup = (1, "dup")
    assert rv.roots == (dup,)
    assert rv.has_edge(1, 2) and rv.has_edge(dup, 2) and not rv.has_edge(dup, 1)
    assert rv.neighbors(dup) == rv.neighbors(1)
    with pytest.raises(ValueError, match="repeated vertex"):
        rooted_version(g, (1, 1))
    with pytest.raises(ValueError, match="outside the graph"):
        rooted_version(g, (3,))


def test_rooted_version_both_endpoints():
    g = RootedGraph([1, 2], [(1, 2)])
    rv = rooted_version(g, (1, 2))
    d1, d2 = (1, "dup"), (2, "dup")
    assert rv.roots == (d1, d2)
    assert len(rv.vertices) == 4 and len(rv.edges) == 4
    # each duplicate: adjacent to the other original and the other duplicate
    assert rv.has_edge(d1, 2) and rv.has_edge(d2, 1) and rv.has_edge(d1, d2)
    assert not rv.has_edge(d1, 1) and not rv.has_edge(d2, 2)
    assert rv.neighbors(d1) == rv.neighbors(1)
    assert rv.neighbors(d2) == rv.neighbors(2)


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
                    assert src.neighbors(u) == src.neighbors(v)
                    assert (u in src.roots) == (v in src.roots)
    assert collisions > 0


def test_blowup_vectors_equivalence_iff_isomorphic_blowups():
    # for a twinfree base, two blowups are isomorphic exactly when some
    # automorphism phi of the base carries one multiplicity vector to the
    # other: m[v] = n[phi(v)]
    rng = random.Random(43)
    done = 0
    while done < 200:
        n = rng.randint(1, 4)
        g = oracles.random_rooted_graph(rng, n, roots=rng.randint(0, min(2, n)),
                                        p=0.5)
        if not is_twinfree(g):
            continue
        vs = sorted(g.vertices)
        m = {v: rng.randint(1, 2) for v in vs}
        perm = vs[:]
        rng.shuffle(perm)
        if rng.random() < 0.5:
            nvec = {v: rng.randint(1, 2) for v in vs}
        else:
            nvec = {v: m[p] for v, p in zip(vs, perm)}
        equivalent = any(all(m[v] == nvec[phi[v]] for v in vs)
                         for phi in oracles.brute_isomorphisms(g, g))
        assert equivalent == oracles.brute_isomorphic(blowup(g, m),
                                                      blowup(g, nvec))
        done += 1
