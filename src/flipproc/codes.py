"""Labelled graphs on [k] as edge bitmasks, the vertex-relabelling action,
and orbit classes of pair-rooted graphs.

A graph on [k] = {1, ..., k} is an integer whose bit at index
(j-1)(j-2)/2 + (i-1) records the pair {i, j}, i < j.  Pairs are therefore
ordered colexicographically, and the pairs inside [k1] occupy exactly the
low k1(k1-1)/2 bits of any order k2 >= k1: a code keeps its meaning when
read at a higher order.  Rule lifting relies on this.

Orbit classes of (graph, ordered root pair) triples under simultaneous
relabelling are named by their lexicographically least member.  The census
of one order is built once, on first use, and cached: numpy byte tables of
the relabelling action give every graph its least image, the automorphisms
of each such canonical graph then act on the root pairs alone, and an
int32 table of shape (2^P, k, k) maps every triple to its class.  At order
6 the table takes 4.7 MB; canonical_class is a lookup in it.
"""

import functools
import itertools
import os
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


def pair_list(k):
    """All pairs inside [k] in bit-index (colex) order."""
    return _pair_list(k)


def _pair_list_uncached(k):
    out = []
    for j in range(2, k + 1):
        for i in range(1, j):
            out.append((i, j))
    return tuple(out)


_pair_list_memo = {}


def _pair_list(k):
    got = _pair_list_memo.get(k)
    if got is None:
        got = _pair_list_memo[k] = _pair_list_uncached(k)
    return got


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
            p for idx, p in enumerate(_pair_list(self.order))
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

_perms_memo = {}


def all_perms(k):
    """All permutations of [k]; sigma[i-1] is the image of vertex i."""
    got = _perms_memo.get(k)
    if got is None:
        got = _perms_memo[k] = tuple(
            itertools.permutations(range(1, k + 1))
        )
    return got


_pair_maps_memo = {}


def _pair_maps(k):
    """For each permutation, the induced map on pair bit indices."""
    got = _pair_maps_memo.get(k)
    if got is None:
        pairs = _pair_list(k)
        maps = []
        for sigma in all_perms(k):
            maps.append(tuple(
                pair_index(sigma[i - 1], sigma[j - 1]) for i, j in pairs
            ))
        got = _pair_maps_memo[k] = tuple(maps)
    return got


def apply_perm_bits(pair_map, bits):
    out = 0
    w = bits
    while w:
        low = w & -w
        out |= 1 << pair_map[low.bit_length() - 1]
        w ^= low
    return out


def apply_perm(sigma, element):
    """Relabel a pair-rooted graph by the permutation sigma of [k]."""
    k = element.order
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, k + 1)):
        raise ValueError(f"{sigma} is not a permutation of [{k}]")
    idx = all_perms(k).index(sigma)
    pmap = _pair_maps(k)[idx]
    return RootedPairGraph(
        GraphCode(k, apply_perm_bits(pmap, element.graph.bits)),
        sigma[element.a - 1],
        sigma[element.b - 1],
    )


def apply_perm_graph(sigma, code):
    """Relabel an unrooted graph code by the permutation sigma."""
    k = code.order
    sigma = tuple(sigma)
    idx = all_perms(k).index(sigma)
    pmap = _pair_maps(k)[idx]
    return GraphCode(k, apply_perm_bits(pmap, code.bits))


# --------------------------------------------------------------- orbit classes

@dataclass(frozen=True)
class _Census:
    """The orbit census of one order: the classes sorted by canonical
    representative, and index[bits, a - 1, b - 1], the position in
    `classes` of the class of (bits, a, b) (-1 on the diagonal a == b)."""

    classes: tuple
    index: np.ndarray


def _image_keys(k, shift):
    """Byte tables of the relabelling action, tagged with the permutation.

    keys[s, j, v] is the image of the code v << 8j under all_perms(k)[s],
    shifted left by `shift`; the byte j = 0 also carries s in the low
    bits.  OR-ing one entry per byte of a code therefore gives
    (image << shift) | s, and the minimum of that over s names both the
    least image and a permutation that reaches it."""
    p = num_pairs(k)
    chunks = (p + 7) // 8
    fact = len(all_perms(k))
    bit_images = np.zeros((fact, chunks * 8), dtype=np.int64)
    bit_images[:, :p] = np.left_shift(1, np.array(_pair_maps(k)))
    byte_bits = (np.arange(256)[None, :] >> np.arange(8)[:, None]) & 1
    keys = (bit_images.reshape(fact, chunks, 8) @ byte_bits) << shift
    keys[:, 0, :] |= np.arange(fact)[:, None]
    return keys


def _all_codes_keys(keys_s, p):
    """Tagged images of all 2^p codes, in code order, under one
    permutation: the outer OR of its byte tables, high byte first."""
    top = len(keys_s) - 1
    out = keys_s[top, : 1 << (p - 8 * top)]
    for j in range(top - 1, -1, -1):
        out = (out[:, None] | keys_s[j]).ravel()
    return out


@functools.lru_cache(maxsize=None)  # one entry per order, and orders are capped
def _census(k):
    p = num_pairs(k)
    perms = np.array(all_perms(k)) - 1
    fact = len(perms)
    shift = (fact - 1).bit_length()
    keys = _image_keys(k, shift)

    # 1. the canonical unrooted graph of every code (its least image) and a
    #    permutation that carries the code onto it
    best = _all_codes_keys(keys[0], p)
    for s in range(1, fact):
        np.minimum(best, _all_codes_keys(keys[s], p), out=best)
    graphs, graph_of = np.unique(best >> shift, return_inverse=True)
    sigma = perms[best & ((1 << shift) - 1)]

    # 2. the automorphisms of each canonical graph act on the root pairs;
    #    the least image of a pair names its class, visited in sorted order
    #    because graphs are sorted and pairs run lexicographically
    images = keys[:, 0, graphs & 0xFF]
    for j in range(1, keys.shape[1]):
        images |= keys[:, j, (graphs >> 8 * j) & 0xFF]
    is_aut = (images >> shift) == graphs
    classes = []
    class_of = np.full((len(graphs), k, k), -1, dtype=np.int32)
    for g_idx, g in enumerate(graphs.tolist()):
        auts = perms[is_aut[:, g_idx]]
        least = (auts[:, :, None] * k + auts[:, None, :]).min(axis=0)
        for a, b in itertools.permutations(range(k), 2):
            root = int(least[a, b])
            if root == a * k + b:
                # orbit-stabilizer: k! / |Aut(g)| * |Aut(g)-orbit of (a, b)|
                size = fact // len(auts) * int(np.count_nonzero(least == root))
                class_of[g_idx, a, b] = len(classes)
                classes.append(OrbitClass(
                    RootedPairGraph(GraphCode(k, g), a + 1, b + 1), size
                ))
            else:
                class_of[g_idx, a, b] = class_of[g_idx, root // k, root % k]

    # 3. every (bits, a, b), relabelled onto its canonical graph
    index = class_of[graph_of[:, None, None], sigma[:, :, None], sigma[:, None, :]]
    index.flags.writeable = False
    return _Census(tuple(classes), index)


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
