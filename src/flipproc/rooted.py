"""Rooted graphs over arbitrary hashable vertex labels, rooted densities
in step kernels, and their closed form.

A rule's velocity sums, per class, the rooted density of a pair-rooted
graph with its roots pinned to two parts.  In the 0/1 kernel of a
twinfree graph G, the density of a blowup of a twinfree base is a sum of
part-weight monomials over the maps from the base to the rooted version
of G at the pinned parts; density_formula_check evaluates both sides.

A map phi between rooted graphs is counted when it
  * preserves the relation both ways: uv is an edge iff phi(u)phi(v) is
    (a collapsed pair phi(u) = phi(v) therefore forces uv to be a non-edge),
  * respects roots: phi(v) is a root iff v is, and
  * preserves the root order strictly, so it is injective on roots.
"""

import itertools

from .codes import GraphCode, RootedPairGraph, _exact, _positive_int, pair_index
from .dynamics import StepKernel


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


def vstar(g):
    """Number of non-roots that are not twins of a root."""
    roots = set(g.roots)
    root_nbhds = {g.neighbors(r) for r in roots}
    return sum(1 for v in g.vertices
               if v not in roots and g.neighbors(v) not in root_nbhds)


# ------------------------------------------------------------------ rrr maps

def count_rrr_maps(src, dst):
    """All relation-preserving, root-respecting, root-order-preserving maps
    from src to dst, as dictionaries.  Maps need not be injective on
    non-roots, but strict order preservation makes them injective on roots;
    more roots in src than dst means there are none."""
    # the roots of src go onto each choice of as many roots of dst, in
    # root order, then each non-root, by decreasing degree, onto each
    # non-root of dst, in label order, that the images of its mapped
    # neighbours and non-neighbours allow (dst has no loops)
    dst_free = dst.nonroots()
    src_free = sorted(src.nonroots(), key=lambda v: -len(src.neighbors(v)))
    maps = []

    def extend(phi, i):
        if i == len(src_free):
            maps.append(dict(phi))
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
                extend(phi, i + 1)
                del phi[v]

    for chosen in itertools.combinations(dst.roots, len(src.roots)):
        phi = dict(zip(src.roots, chosen))
        if all(src.has_edge(u, v) == dst.has_edge(phi[u], phi[v])
               for u, v in itertools.combinations(src.roots, 2)):
            extend(phi, 0)
    return maps


# ------------------------------------------------------------ rooted densities

def rooted_density(element, kernel, x, y):
    """Probability that a random embedding of [k] into the kernel's parts,
    with the two roots pinned to parts x and y, induces exactly the rooted
    graph `element`: product of block values over edges and complements
    over non-edges, weighted by part measures of the free vertices.

    Exact when the kernel is exact; zero partial products are pruned, which
    makes 0/1-valued kernels cheap.
    """
    k = element.order
    m = kernel.num_parts
    if not (0 <= x < m and 0 <= y < m):
        raise ValueError(f"part indices ({x}, {y}) outside range({m})")
    a, b = element.a, element.b
    g = element.graph
    vals = kernel.values
    wts = kernel.weights
    free = [v for v in range(1, k + 1) if v != a and v != b]
    placed = [(a, x), (b, y)]

    w = vals[x][y]
    acc0 = w if g.has_edge(a, b) else 1 - w

    def extend(i, acc):
        if acc == 0:
            return acc
        if i == len(free):
            return acc
        v = free[i]
        total = 0
        for part in range(m):
            term = acc * wts[part]
            for u, pu in placed:
                if term == 0:
                    break
                w = vals[part][pu]
                term = term * (w if g.has_edge(v, u) else 1 - w)
            if term == 0:
                continue
            placed.append((v, part))
            total = total + extend(i + 1, term)
            placed.pop()
        return total

    return extend(0, acc0)


def density_formula_check(base, m, G, z, x, y, tolerance=1e-12):
    """Evaluate a rooted density against its combinatorial closed form.

    base: a twinfree rooted graph; m: positive multiplicities with total
    root multiplicity exactly 2; G: a twinfree unrooted graph whose
    vertices name the parts of the kernel; z: part weights keyed by the
    vertices of G; x, y: vertices of G naming the pinned parts.

    The numeric side evaluates the density of the blown-up base in the
    0/1-valued kernel of G; the combinatorial side is 0 when the base has
    more roots than the doubled version of G at (x, y), and otherwise sums
    the free-vertex weight monomials over the structure-preserving maps.
    Requires |roots(base)| >= |roots(doubled G)| or strictly more roots,
    and in the map case the reduced non-root counts must be ordered
    correspondingly; other shapes are outside the formula and rejected.
    Returns (numeric, combinatorial); raises on disagreement.
    """
    if not is_twinfree(base):
        raise ValueError("the rooted base graph must be twinfree")
    if G.roots:
        raise ValueError("G must be unrooted; its roots come from doubling")
    if not is_twinfree(G):
        raise ValueError("G must be twinfree")
    if set(m) != base.vertices:
        raise ValueError("multiplicities must be indexed by the base vertices")
    m = {v: _positive_int(cnt, "a multiplicity") for v, cnt in m.items()}
    root_mass = sum(m[r] for r in base.roots)
    if root_mass != 2:
        raise ValueError(f"total root multiplicity must be 2, got {root_mass}")
    if set(z) != G.vertices:
        raise ValueError("z must be keyed by the vertices of G")
    if x not in G.vertices or y not in G.vertices:
        raise ValueError("x and y must be vertices of G")

    parts = sorted(G.vertices, key=_label_key)
    index = {v: i for i, v in enumerate(parts)}
    kernel = StepKernel(
        tuple(z[v] for v in parts),
        tuple(
            tuple(1 if G.has_edge(u, v) else 0 for v in parts)
            for u in parts
        ),
    )

    blown = blowup(base, m)
    order = list(blown.roots) + blown.nonroots()
    pos = {v: i + 1 for i, v in enumerate(order)}
    bits = 0
    for e in blown.edges:
        u, v = tuple(e)
        bits |= 1 << pair_index(pos[u], pos[v])
    element = RootedPairGraph(GraphCode(len(order), bits), 1, 2)
    numeric = rooted_density(element, kernel, index[x], index[y])

    subset = (x,) if x == y else (x, y)
    doubled = rooted_version(G, subset)
    n_roots = len(base.roots)
    n_targets = len(doubled.roots)
    if n_roots > n_targets:
        combinatorial = 0
    else:
        if n_roots < n_targets:
            raise ValueError(
                "the base has fewer roots than the doubled target; this shape "
                "is outside the closed form"
            )
        if vstar(base) < vstar(doubled):
            raise ValueError(
                "reduced non-root count of the base is below the target's; "
                "this shape is outside the closed form"
            )
        combinatorial = 0
        for phi in count_rrr_maps(base, doubled):
            term = 1
            for v in base.vertices:
                if v in base.roots:
                    continue
                term = term * z[phi[v]] ** m[v]
            combinatorial = combinatorial + term

    exact_mode = all(_exact(w) for w in z.values())
    if exact_mode:
        agree = numeric == combinatorial
    else:
        agree = abs(float(numeric) - float(combinatorial)) <= tolerance
    if not agree:
        raise RuntimeError(
            f"density formula mismatch: numeric {numeric} vs combinatorial "
            f"{combinatorial}"
        )
    return numeric, combinatorial
