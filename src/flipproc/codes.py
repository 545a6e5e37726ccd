"""Labelled graphs on [k] as edge bitmasks, the vertex-relabelling action,
and orbit classes of pair-rooted graphs.

A graph on [k] = {1, ..., k} is an integer whose bit at index
(j-1)(j-2)/2 + (i-1) records the pair {i, j}, i < j.  Pairs are therefore
ordered colexicographically, and the pairs inside [k1] occupy exactly the
low k1(k1-1)/2 bits of any order k2 >= k1: a code keeps its meaning when
read at a higher order.  Rule lifting relies on this.

Orbit classes of (graph, ordered root pair) triples under simultaneous
relabelling are named by their lexicographically least member.  The census
of one order is built once, on first use, and cached: a sweep over the
codes takes one orbit of graphs at a time, relabelling its least member by
all k! permutations through numpy byte tables of the action, the
automorphisms of each such canonical graph then act on the root pairs
alone, and an int32 table of shape (2^P, k, k) maps every triple to its
class.  At order 6 the table takes 4.7 MB; canonical_class is a lookup in
it.

The orbits of a rule's index pairs (f, h), keyed by their least images
(f' << P) | h', come from _orbit_sweep: one sweep over all k!
relabellings, a block of entries at a time, relabels the row and
replacement codes once each and yields every touched orbit's size and
members, including the orbits of the rows' diagonals (f, f).
Symmetrization, the symmetry check and the orbit-sum check read it.
"""

import functools
import itertools
import os
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

DEFAULT_CAP = 6
CAP_ENV_VAR = "FLIPPROC_CAP"


class CapExceeded(Exception):
    """An operation would enumerate a graph space beyond the configured cap."""


def enumeration_cap(cap=None):
    """Resolve the enumeration cap: explicit argument, else the
    FLIPPROC_CAP environment variable, else the default of 6."""
    if cap is not None:
        return int(cap)
    env = os.environ.get(CAP_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}")
    return DEFAULT_CAP


def _check_cap(k, cap, what):
    limit = enumeration_cap(cap)
    if k > limit:
        raise CapExceeded(
            f"{what} at order {k} exceeds the enumeration cap {limit}; "
            f"raise it explicitly (--cap / {CAP_ENV_VAR}) if this is intended"
        )


def num_pairs(k):
    return k * (k - 1) // 2


def pair_index(i, j):
    """Bit index of the pair {i, j} of distinct vertices, 1-based labels."""
    if i == j:
        raise ValueError(f"pair requires distinct vertices, got {{{i}, {j}}}")
    if i > j:
        i, j = j, i
    if i < 1:
        raise ValueError(f"vertex labels start at 1, got {i}")
    return (j - 1) * (j - 2) // 2 + (i - 1)


@functools.lru_cache(maxsize=8)
def pair_list(k):
    """All pairs inside [k] in bit-index (colex) order."""
    return tuple((i, j) for j in range(2, k + 1) for i in range(1, j))


def full_bits(k):
    return (1 << num_pairs(k)) - 1


@dataclass(frozen=True, order=True)
class GraphCode:
    """A labelled graph on [order] encoded as an edge bitmask."""

    order: int
    bits: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if not 0 <= self.bits < (1 << num_pairs(self.order)):
            raise ValueError(
                f"bits {self.bits} out of range for order {self.order}"
            )

    def has_edge(self, i, j):
        return self.bits >> pair_index(i, j) & 1 == 1

    def edges(self):
        return tuple(
            p for idx, p in enumerate(pair_list(self.order))
            if self.bits >> idx & 1
        )

    def edge_count(self):
        return self.bits.bit_count()

    def complement(self):
        return GraphCode(self.order, self.bits ^ full_bits(self.order))


@dataclass(frozen=True, order=True)
class RootedPairGraph:
    """A labelled graph together with an ordered pair of distinct roots."""

    graph: GraphCode
    a: int
    b: int

    def __post_init__(self):
        k = self.graph.order
        if not (1 <= self.a <= k and 1 <= self.b <= k):
            raise ValueError(f"roots ({self.a}, {self.b}) outside [{k}]")
        if self.a == self.b:
            raise ValueError("root pair must be two distinct vertices")

    @property
    def order(self):
        return self.graph.order

    def key(self):
        return (self.graph.bits, self.a, self.b)


@dataclass(frozen=True, order=True)
class OrbitClass:
    """An orbit of pair-rooted graphs under simultaneous relabelling,
    named by its minimal element."""

    canon: RootedPairGraph
    size: int

    @property
    def order(self):
        return self.canon.order

    def to_json_obj(self):
        return {
            "class": {
                "code": self.canon.graph.bits,
                "a": self.canon.a,
                "b": self.canon.b,
            },
            "size": self.size,
        }


# ---------------------------------------------------------------- group action

@functools.lru_cache(maxsize=8)
def all_perms(k):
    """All permutations of [k]; sigma[i-1] is the image of vertex i."""
    return tuple(itertools.permutations(range(1, k + 1)))


def apply_perm(sigma, element):
    """Relabel a pair-rooted graph by the permutation sigma of [k]."""
    graph = apply_perm_graph(sigma, element.graph)
    return RootedPairGraph(graph, sigma[element.a - 1], sigma[element.b - 1])


def apply_perm_graph(sigma, code):
    """Relabel an unrooted graph code by the permutation sigma of [k]: the
    pair {i, j} goes to {sigma(i), sigma(j)}."""
    k = code.order
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, k + 1)):
        raise ValueError(f"{sigma} is not a permutation of [{k}]")
    bits = 0
    for idx, (i, j) in enumerate(pair_list(k)):
        if code.bits >> idx & 1:
            bits |= 1 << pair_index(sigma[i - 1], sigma[j - 1])
    return GraphCode(k, bits)


# ----------------------------------------------------------- action in numpy
# Every k!-sweep over a batch of codes reads the same byte tables of the
# action, a block of codes at a time, so that no temporary holds more than
# about BLOCK_ELEMENTS images whatever the batch size.

BLOCK_ELEMENTS = 1 << 14


@functools.lru_cache(maxsize=8)
def _byte_images(k):
    """table[j, v, s]: the image of the code v << 8j under all_perms(k)[s].
    Images fit int32 up to order 8, and pairs of them (f << P) | h int64;
    beyond that the k! sweep is out of reach anyway."""
    p = num_pairs(k)
    if p > 31:
        raise CapExceeded(f"relabelling tables stop at order 8, got order {k}")
    fact = len(all_perms(k))
    chunks = max(1, (p + 7) // 8)
    # pair_maps[idx, s]: the bit index that all_perms(k)[s] sends idx to
    lo, hi = np.array(pair_list(k), dtype=np.int64).reshape(p, 2).T - 1
    bit_of = np.zeros((k, k), dtype=np.int64)
    bit_of[lo, hi] = bit_of[hi, lo] = np.arange(p)
    perms = np.array(all_perms(k), dtype=np.int64).T - 1
    pair_maps = bit_of[perms[lo], perms[hi]]
    bit_images = np.zeros((chunks * 8, fact), dtype=np.int32)
    bit_images[:p] = np.left_shift(1, pair_maps)
    bit_images = bit_images.reshape(chunks, 8, fact)
    # the values with bit t set are those below 1 << t with that bit added
    table = np.zeros((chunks, 256, fact), dtype=np.int32)
    for t in range(8):
        np.bitwise_or(table[:, : 1 << t], bit_images[:, t, None],
                      out=table[:, 1 << t : 2 << t])
    table.flags.writeable = False
    return table


def perm_images(k, codes):
    """images[i, s], the image of codes[i] under all_perms(k)[s], as an
    int32 array of shape (len(codes), k!)."""
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size and (codes.min() < 0 or codes.max() >> num_pairs(k)):
        raise ValueError(f"graph codes out of range for order {k}")
    table = _byte_images(k)
    out = table[0][codes & 0xFF]
    for j in range(1, len(table)):
        out |= table[j][(codes >> 8 * j) & 0xFF]
    return out


def _blocks(n, width):
    """Slices of range(n) whose blocks of `width` images each stay within
    BLOCK_ELEMENTS."""
    step = max(1, BLOCK_ELEMENTS // width)
    return [slice(lo, min(n, lo + step)) for lo in range(0, n, step)]


# The relabelling orbits that a rule's explicit rows touch, from _orbit_sweep
_Orbits = namedtuple("_Orbits", "sizes members owners entry_orbit row_orbit")


def _orbit_sweep(k, f, h, starts):
    """The relabelling orbits of the entries (f[i], h[i]), sorted by f
    with the explicit rows starting at `starts`, and of each row's
    diagonal (f, f), from one sweep over all k! relabellings.  Orbits are
    numbered by their keys, their least members (f' << P) | h'.  Returns
    _Orbits: sizes[j] the member count of orbit j, all members in
    increasing order with owners[i] the orbit of members[i],
    entry_orbit[i] the orbit of entry i and row_orbit[r] that of row r's
    diagonal.

    A block of entries relabels the codes of the rows it spans and its
    replacement codes once: its entry images are a row gather of the
    former, and a row's diagonal (σf << P) | σf is least where σf is.  The
    members of an orbit first seen in a block are the distinct values of
    one row of its images."""
    p = num_pairs(k)
    n = len(f)
    rows = f[starts]
    row_of = np.searchsorted(rows, f)
    keys = np.empty(n + len(rows), dtype=np.int64)  # entries, then rows
    known = np.empty(0, dtype=np.int64)
    members, owned, counts = [known], [known], [known]
    for blk in _blocks(n, _byte_images(k).shape[2]):
        # rows r0 to r1 - 1 have entries here (a row that spans blocks is
        # met again in the next one, and its orbits are known there)
        r0, r1 = row_of[blk.start], row_of[blk.stop - 1] + 1
        relabelled = perm_images(k, rows[r0:r1])
        images = relabelled[row_of[blk] - r0].astype(np.int64)
        images <<= p
        images |= perm_images(k, h[blk])
        least = relabelled[: r1 - r0].min(axis=1).astype(np.int64)
        keys[blk] = images.min(axis=1)
        keys[n + r0 : n + r1] = least << p | least
        new, first = np.unique(np.concatenate([keys[blk], keys[n + r0 : n + r1]]),
                               return_index=True)
        if len(known):
            unseen = known[np.searchsorted(known, new).clip(max=len(known) - 1)] != new
            new, first = new[unseen], first[unseen]
        diagonal = first >= len(images)
        graphs = relabelled[first[diagonal] - len(images)].astype(np.int64)
        # stable argsorts only, the kernel that np.unique uses: numpy's sort
        # kernels would page in a few hundred KB more of its library
        orbits = np.concatenate([images[first[~diagonal]], graphs << p | graphs])
        orbits = np.take_along_axis(orbits, orbits.argsort(axis=1, kind="stable"), axis=1)
        distinct = np.ones(orbits.shape, dtype=bool)
        distinct[:, 1:] = orbits[:, 1:] != orbits[:, :-1]
        members.append(orbits[distinct])
        owned.append(np.concatenate([new[~diagonal], new[diagonal]]))
        counts.append(distinct.sum(axis=1))
        known = np.concatenate([known, new])
        known = known[known.argsort(kind="stable")]
    # distinct orbits share no member, so the members sort without ties
    members = np.concatenate(members)
    order = np.argsort(members, kind="stable")
    owners = np.searchsorted(known, np.concatenate(owned)).repeat(np.concatenate(counts))
    orbit = np.searchsorted(known, keys)
    return _Orbits(np.bincount(owners, minlength=len(known)), members[order],
                   owners[order], orbit[:n], orbit[n:])


# --------------------------------------------------------------- orbit classes

@dataclass(frozen=True)
class _Census:
    """The orbit census of one order: the classes sorted by canonical
    representative, index[bits, a - 1, b - 1], the position in `classes`
    of the class of (bits, a, b) (-1 on the diagonal a == b), and the
    0-based roots of each pair of pair_list in both orientations:
    index[bits, *roots] holds the classes of (bits, i, j) in row 0 and of
    (bits, j, i) in row 1, one column per pair."""

    classes: tuple
    index: np.ndarray
    roots: tuple


@functools.lru_cache(maxsize=None)  # one entry per order, and orders are capped
def _census(k):
    perms = np.array(all_perms(k), dtype=np.int8) - 1
    fact = len(perms)
    kk = k * k
    n = 1 << num_pairs(k)
    unseen = np.ones(n, dtype=bool)
    graph_of = np.empty(n, dtype=np.int32)
    perm_of = np.empty(n, dtype=np.int32)
    everyone = np.arange(fact, dtype=np.int32)

    # 1. one orbit of graphs at a time: the least code not yet seen is the
    #    least image of its orbit, its canonical graph g, so the graphs come
    #    in sorted order; all_perms(k)[s] carries g onto images[s]
    graphs = []
    auts = []
    g = 0
    while unseen[g]:
        images = perm_images(k, [g])[0]
        unseen[images] = False
        graph_of[images] = len(graphs)
        perm_of[images] = everyone
        graphs.append(g)
        auts.append(np.flatnonzero(images == g))
        g = int(unseen.argmax())

    # 2. the automorphisms of each graph act on its root pairs, coded
    #    a * k + b; the least image of a pair names its class, keyed
    #    graph * k^2 + a * k + b, so the classes come sorted by graph, then
    #    by root pair
    aut_counts = np.array([len(a) for a in auts])
    pair_codes = (perms[:, :, None] * np.int8(k) + perms[:, None, :]).reshape(fact, kk)
    least = np.minimum.reduceat(
        pair_codes[np.concatenate(auts)], np.cumsum(aut_counts) - aut_counts)
    least = least + (np.arange(len(graphs)) * kk)[:, None]
    offdiag = ~np.eye(k, dtype=bool).ravel()
    counts = np.bincount(least[:, offdiag].ravel(), minlength=len(graphs) * kk)
    roots = np.flatnonzero(counts)
    # orbit-stabilizer: k! / |Aut(g)| * |Aut(g)-orbit of (a, b)|
    sizes = fact // aut_counts[roots // kk] * counts[roots]
    codes = [GraphCode(k, g) for g in graphs]
    classes = tuple(
        OrbitClass(RootedPairGraph(codes[root // kk], root // k % k + 1, root % k + 1), size)
        for root, size in zip(roots.tolist(), sizes.tolist())
    )
    tables = np.cumsum(counts > 0, dtype=np.int32)[least] - 1
    tables[:, ~offdiag] = -1

    # 3. every (bits, a, b), relabelled onto its canonical graph by the
    #    inverse of the permutation that carried that graph onto bits
    inverse = np.argsort(perms, axis=1)
    inverse = (inverse[:, :, None] * k + inverse[:, None, :]).reshape(fact, kk)
    tables = tables.ravel()
    index = np.empty((n, kk), dtype=np.int32)
    for blk in _blocks(n, kk):
        cell = inverse[perm_of[blk]]
        cell += (graph_of[blk] * kk)[:, None]
        np.take(tables, cell, out=index[blk])
    index = index.reshape(n, k, k)
    index.flags.writeable = False
    i, j = np.array(pair_list(k)).reshape(-1, 2).T - 1
    return _Census(classes, index, (np.stack([i, j]), np.stack([j, i])))


def canonical_class(element, cap=None):
    """The orbit class of a pair-rooted graph: minimal orbit element
    (lexicographic on (bits, a, b)) plus the orbit size.  The order is
    held to the same cap as the census, which this reads."""
    k = element.order
    _check_cap(k, cap, "orbit census")
    census = _census(k)
    return census.classes[
        census.index[element.graph.bits, element.a - 1, element.b - 1]
    ]


def enumerate_classes(k, cap=None):
    """All orbit classes of pair-rooted graphs at order k, sorted by their
    canonical representatives.  Order 1 has no pairs, hence no classes.
    The census is built once per order; each call returns a fresh list."""
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    _check_cap(k, cap, "orbit census")
    if k == 1:
        return []
    return list(_census(k).classes)
