"""Rooted graphs over arbitrary hashable vertex labels.

Covers the combinatorial side of the density formula: twins, blowups, the
rooted version of a graph, and the structure-preserving maps counted by the
formula.

A map phi between rooted graphs is counted when it
  * preserves the relation both ways: uv is an edge iff phi(u)phi(v) is
    (a collapsed pair phi(u) = phi(v) therefore forces uv to be a non-edge),
  * respects roots: phi(v) is a root iff v is, and
  * preserves the root order strictly, so it is injective on roots.
"""

import itertools


def _label_key(v):
    # deterministic ordering for mixed label types
    return (v.__class__.__name__, repr(v))


class RootedGraph:
    """A finite simple graph with a linearly ordered tuple of root vertices.

    The root order is the tuple order.  Vertices are arbitrary hashable
    labels; edges are unordered pairs of distinct vertices.
    """

    __slots__ = ("vertices", "edges", "roots", "_adj")

    def __init__(self, vertices, edges, roots=()):
        vs = frozenset(vertices)
        es = frozenset(frozenset(e) for e in edges)
        rt = tuple(roots)
        for e in es:
            if len(e) != 2:
                raise ValueError(f"edge {set(e)} is not a pair of distinct vertices")
            if not e <= vs:
                raise ValueError(f"edge {set(e)} uses a vertex outside the graph")
        if len(set(rt)) != len(rt):
            raise ValueError(f"repeated root in {rt}")
        if not set(rt) <= vs:
            raise ValueError("root outside the vertex set")
        adj = {v: set() for v in vs}
        for e in es:
            u, v = tuple(e)
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)
        object.__setattr__(self, "roots", rt)
        object.__setattr__(self, "_adj", {v: frozenset(n) for v, n in adj.items()})

    def neighbors(self, v):
        return self._adj[v]

    def has_edge(self, u, v):
        return v in self._adj[u]

    def nonroots(self):
        rs = set(self.roots)
        return [v for v in sorted(self.vertices, key=_label_key) if v not in rs]

    def __eq__(self, other):
        if not isinstance(other, RootedGraph):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.edges == other.edges
            and self.roots == other.roots
        )

    def __hash__(self):
        return hash((self.vertices, self.edges, self.roots))

    def __repr__(self):
        vs = sorted(self.vertices, key=_label_key)
        es = sorted((tuple(sorted(e, key=_label_key)) for e in self.edges),
                    key=lambda e: (_label_key(e[0]), _label_key(e[1])))
        return f"RootedGraph({vs}, {es}, roots={list(self.roots)})"


# --------------------------------------------------------------------- twins

def twin_classes(g):
    """Classes of the relation: u ~ v iff u = v, or u and v are twins (equal
    open neighbourhoods, so never adjacent) and the roots contain both or
    neither of them.  Root classes come first, ordered by the position of
    their earliest member in the root order; non-root classes follow in
    label order."""
    root_pos = {v: i for i, v in enumerate(g.roots)}
    buckets = {}
    for v in g.vertices:
        key = (g.neighbors(v), v in root_pos)
        buckets.setdefault(key, set()).add(v)
    classes = [frozenset(c) for c in buckets.values()]

    def order_key(cls):
        positions = [root_pos[v] for v in cls if v in root_pos]
        if positions:
            return (0, min(positions))
        return (1, min(_label_key(v) for v in cls))

    return sorted(classes, key=order_key)


def is_twinfree(g):
    """No two distinct vertices are twins unless exactly one is a root."""
    return all(len(c) == 1 for c in twin_classes(g))


# ------------------------------------------------------------------- blowups

def blowup(base, m):
    """Replace vertex v by m[v] copies labelled (v, 1..m[v]); copies of v
    and w are fully joined iff vw is an edge, never among themselves.
    Copies of the i-th root form the i-th consecutive interval of the
    root order.  A multiplicity of 0 deletes the vertex."""
    if set(m) != base.vertices:
        raise ValueError("multiplicity vector must be indexed exactly by the vertices")
    for v, cnt in m.items():
        if cnt < 0:
            raise ValueError(f"negative multiplicity {cnt} for {v!r}")
    verts = [(v, t) for v in base.vertices for t in range(1, m[v] + 1)]
    edges = [
        ((u, s), (v, t))
        for u, v in (tuple(e) for e in base.edges)
        for s in range(1, m[u] + 1)
        for t in range(1, m[v] + 1)
    ]
    roots = [(r, t) for r in base.roots for t in range(1, m[r] + 1)]
    return RootedGraph(verts, edges, roots)


def rooted_version(g, subset):
    """Duplicate every vertex x of the subset as (x, 'dup'), adjacent to
    exactly the neighbors of x and to the duplicates of x's neighbors in
    the subset.  The duplicates are the roots, in subset order; original
    vertices keep their labels and are unrooted."""
    subset = tuple(subset)
    if len(set(subset)) != len(subset):
        raise ValueError(f"repeated vertex in {subset}")
    if not set(subset) <= g.vertices:
        raise ValueError("subset vertex outside the graph")
    dup = {x: (x, "dup") for x in subset}
    verts = list(g.vertices) + list(dup.values())
    edges = [tuple(e) for e in g.edges]
    for x in subset:
        for w in g.neighbors(x):
            edges.append((dup[x], w))
    for x, y in itertools.combinations(subset, 2):
        if g.has_edge(x, y):
            edges.append((dup[x], dup[y]))
    return RootedGraph(verts, edges, [dup[x] for x in subset])


def root_twin_count(g):
    """Number of non-roots that are twins of some root."""
    roots = set(g.roots)
    root_nbhds = {g.neighbors(r) for r in roots}
    return sum(1 for v in g.vertices
               if v not in roots and g.neighbors(v) in root_nbhds)


def vstar(g):
    """Non-root count minus the number of non-roots twinned with a root."""
    return len(g.vertices) - len(g.roots) - root_twin_count(g)


# ------------------------------------------------------------------ rrr maps

def _maps(src, dst):
    """Generate the maps src -> dst of the module docstring, as
    dictionaries.  The roots of src go onto each choice of as many roots of
    dst, kept in root order; the non-roots follow by decreasing degree, each
    tried on the non-roots of dst in label order.  A non-root may go to c
    when c is adjacent to the images of its mapped neighbours and to none of
    the images of its mapped non-neighbours; dst has no loops, so two
    vertices share an image only if not adjacent."""
    dst_free = dst.nonroots()
    src_free = sorted(src.nonroots(), key=lambda v: -len(src.neighbors(v)))

    def extend(phi, i):
        if i == len(src_free):
            yield dict(phi)
            return
        v = src_free[i]
        near = src.neighbors(v)
        allowed = set(dst_free)
        for u, img in phi.items():
            if u in near:
                allowed &= dst.neighbors(img)
            else:
                allowed -= dst.neighbors(img)
        for c in dst_free:
            if c in allowed:
                phi[v] = c
                yield from extend(phi, i + 1)
                del phi[v]

    for chosen in itertools.combinations(dst.roots, len(src.roots)):
        phi = dict(zip(src.roots, chosen))
        if all(src.has_edge(u, v) == dst.has_edge(phi[u], phi[v])
               for u, v in itertools.combinations(src.roots, 2)):
            yield from extend(phi, 0)


def count_rrr_maps(src, dst):
    """All relation-preserving, root-respecting, root-order-preserving maps
    from src to dst, as dictionaries.  Maps need not be injective on
    non-roots, but strict order preservation makes them injective on roots;
    more roots in src than dst means there are none."""
    return list(_maps(src, dst))
