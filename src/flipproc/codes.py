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
all k! permutations through numpy byte tables of the action, and the
automorphisms of each such canonical graph then act on the root pairs
alone.  A triple's class is one lookup, through the permutation that
carries its canonical graph onto it, into that graph's k x k class table;
at order 7 the census arrays take 14.5 MB.

The orbits of a rule's index pairs (f, h), keyed by their least images
(f' << P) | h', come from _orbit_sweep in two passes over all k!
relabellings, a block of pairs at a time: the first keys every entry and
every row's diagonal (f, f), the second lists the members of each orbit
once, from one of its pairs, reusing the first pass's images when one block
held every pair.  Symmetrization, the symmetry check and the orbit-sum
check read it.
"""

import functools
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DEFAULT_CAP = 6


class CapExceeded(Exception):
    """An operation would enumerate a graph space beyond the configured cap."""


def _is_int(value):
    """Whether value is an integer, Python's or numpy's, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _positive_int(value, what):
    """int(value) for an integer of at least 1; anything else, a float or a
    bool included, is a ValueError naming `what`.  Every order, count and
    cap that comes from outside the library is read here."""
    if not _is_int(value) or value < 1:
        raise ValueError(f"{what} must be an integer of at least 1, got {value!r}")
    return int(value)


def _exact(value):
    return _is_int(value) or isinstance(value, Fraction)


def _check_number(value, what, wrong):
    """Raise ValueError unless value is a finite number: a float, an integer
    other than a bool, or a Fraction; the message names a `what`, or follows
    the text `wrong`.  Numbers that library callers pass are read here."""
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"non-finite {what} {value}")
    elif not _exact(value):
        raise ValueError(f"{wrong}, got {value!r}")


def enumeration_cap(cap=None):
    """Resolve the enumeration cap: the explicit argument, else the default
    of 6.  A cap that is not an integer of at least 1 is a ValueError."""
    if cap is None:
        return DEFAULT_CAP
    return _positive_int(cap, "the enumeration cap (cap, --cap)")


def _check_cap(k, cap, what):
    limit = enumeration_cap(cap)
    if k > limit:
        raise CapExceeded(
            f"{what} at order {k} exceeds the enumeration cap {limit}; "
            "raise it explicitly (--cap or cap=) if this is intended"
        )


def _check_budget(need, budget, what):
    """CapExceeded when `need` units of a resource, named by `what`, pass
    its `budget`.  Every bound but the enumeration cap is checked here."""
    if need > budget:
        raise CapExceeded(f"{what}: {need}, beyond the budget of {budget}")


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
        order, bits = _positive_int(self.order, "order"), self.bits
        p = num_pairs(order)  # not 1 << p: a range check builds no code bound
        if not _is_int(bits) or bits < 0 or int(bits) >> p:
            raise ValueError(f"bits must be an integer in [0, 2^{p}) at order {order}, "
                             f"got {bits!r}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "bits", int(bits))

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
        k, a, b = self.graph.order, self.a, self.b
        if not (_is_int(a) and _is_int(b) and 1 <= a <= k and 1 <= b <= k):
            raise ValueError(f"roots ({a!r}, {b!r}) must be integers in [{k}]")
        if a == b:
            raise ValueError("root pair must be two distinct vertices")
        object.__setattr__(self, "a", int(a))
        object.__setattr__(self, "b", int(b))

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
    _check_budget(k, 8, "order of the relabelling tables")
    p = num_pairs(k)
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
    int32 array of shape (len(codes), k!).  The codes must lie in
    [0, 2^C(k, 2)): callers pass a census's own codes, a validated rule's
    or those that rules.entry_codes checked."""
    codes = np.asarray(codes, dtype=np.int64)
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


def _pair_images(k, f, h):
    """(σf << P) | σh, the pair (f[i], h[i]) relabelled by all_perms(k)[s],
    as an int64 array of shape (len(f), k!)."""
    images = perm_images(k, f).astype(np.int64)
    images <<= num_pairs(k)
    images |= perm_images(k, h)
    return images


# The relabelling orbits that a rule's explicit rows touch, from _orbit_sweep
_Orbits = namedtuple("_Orbits", "sizes members owners entry_orbit row_orbit")


def _orbit_sweep(k, f, h, starts):
    """The relabelling orbits of the entries (f[i], h[i]), sorted by f
    with the explicit rows starting at `starts`, and of each row's
    diagonal (f, f).  Orbits are numbered by their keys, their least
    members (f' << P) | h'.  Returns _Orbits: sizes[j] the member count of
    orbit j, all members in increasing order with owners[i] the orbit of
    members[i], entry_orbit[i] the orbit of entry i and row_orbit[r] that
    of row r's diagonal.

    Two passes over blocks of pairs: the first keys every pair by its
    least image, the second lists each orbit's members once, as the
    distinct images of the first pair with its key.  When one block held
    every pair, the second pass reads the first pass's images."""
    n = len(f)
    froms, tos = np.concatenate([f, f[starts]]), np.concatenate([h, f[starts]])
    width = _byte_images(k).shape[2]
    keys = np.empty(len(froms), dtype=np.int64)
    blocks = _blocks(len(keys), width)
    for blk in blocks:
        images = _pair_images(k, froms[blk], tos[blk])
        keys[blk] = images.min(axis=1)
    # a stable sort puts each orbit's earliest pair first
    by_key = keys.argsort(kind="stable")
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[by_key[1:]], keys[by_key[:-1]], out=new[1:])
    first = by_key[new]
    orbit = np.empty_like(by_key)
    orbit[by_key] = new.cumsum() - 1
    sizes = np.empty(len(first), dtype=np.int64)
    members = [keys[:0]]  # an empty rule has no blocks to list
    for blk in _blocks(len(first), width):
        if len(blocks) == 1:
            images = images[first]
        else:
            images = _pair_images(k, froms[first[blk]], tos[first[blk]])
        # the stable kernel of the argsorts here: on the 99 certify-k5
        # rules, peak RSS reads within 0.1 MB of an argsort and gather
        images.sort(axis=1, kind="stable")
        distinct = np.empty(images.shape, dtype=bool)
        distinct[:, 0] = True
        np.not_equal(images[:, 1:], images[:, :-1], out=distinct[:, 1:])
        members.append(images[distinct])
        sizes[blk] = distinct.sum(axis=1)
    # distinct orbits share no member, so the members sort without ties
    members = np.concatenate(members)
    order = members.argsort(kind="stable")
    owners = np.arange(len(sizes)).repeat(sizes)
    return _Orbits(sizes, members[order], owners[order], orbit[:n], orbit[n:])


# --------------------------------------------------------------- orbit classes

@dataclass(frozen=True)
class _Census:
    """The orbit census of one order: the classes sorted by canonical
    representative, and for each code, the number of its canonical graph g
    times k^2, offset[bits], and the permutation all_perms(k)[perm_of[bits]]
    that carries g onto bits.  tables[offset + a * k + b] is the position in
    `classes` of the class of (g, a + 1, b + 1), -1 on the diagonal, and
    cells[s, o, idx] the pair idx = {i, j} of pair_list, as (i, j) for o = 0
    and (j, i) for o = 1, carried back by the inverse of all_perms(k)[s]."""

    classes: tuple
    offset: np.ndarray
    perm_of: np.ndarray
    tables: np.ndarray
    cells: np.ndarray

    def class_of(self, bits):
        """Positions in `classes` of (bits, i, j) at [..., 0, idx] and of
        (bits, j, i) at [..., 1, idx], for a code or an array of codes."""
        return self.tables[self.offset[bits][..., None, None] + self.cells[self.perm_of[bits]]]

    def position(self, element):
        """The position in `classes` of the class of a pair-rooted graph."""
        a, b = element.a, element.b
        return self.class_of(element.graph.bits)[int(a > b), pair_index(a, b)]


# Codes of a census, 2^C(k, 2): order 7 has 2^21, order 8 would have 2^28
_CENSUS_BUDGET = 1 << 21


@functools.lru_cache(maxsize=None)  # one entry per order, and orders are capped
def _census(k):
    _check_budget(1 << num_pairs(k), _CENSUS_BUDGET, f"codes of the census at order {k}")
    perms = np.array(all_perms(k), dtype=np.int8) - 1
    fact = len(perms)
    kk = k * k
    n = 1 << num_pairs(k)
    unseen = np.ones(n, dtype=bool)
    offset = np.empty(n, dtype=np.int32)
    perm_of = np.empty(n, dtype=np.int16)  # k! fits up to order 7
    everyone = np.arange(fact, dtype=np.int16)

    # 1. one orbit of graphs at a time: the least code not yet seen is the
    #    least image of its orbit, its canonical graph g, so the graphs come
    #    in sorted order; all_perms(k)[s] carries g onto images[s]
    graphs = []
    auts = []
    g = 0
    while unseen[g]:
        images = perm_images(k, [g])[0]
        unseen[images] = False
        offset[images] = len(graphs) * kk
        perm_of[images] = everyone
        graphs.append(g)
        auts.append(np.flatnonzero(images == g))
        g += int(unseen[g:].argmax())

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
    tables = tables.ravel()

    # 3. the root pairs of pair_list in both orientations, carried back by
    #    each inverse permutation and coded a * k + b
    ij = np.array(pair_list(k), dtype=np.intp).reshape(-1, 2) - 1
    cells = np.argsort(perms, axis=1)[:, np.stack([ij, ij[:, ::-1]])] @ np.array([k, 1])
    for array in (offset, perm_of, tables, cells):
        array.flags.writeable = False
    return _Census(classes, offset, perm_of, tables, cells)


def canonical_class(element, cap=None):
    """The orbit class of a pair-rooted graph: minimal orbit element
    (lexicographic on (bits, a, b)) plus the orbit size.  The order is
    held to the same cap as the census, which this reads."""
    k = element.order
    _check_cap(k, cap, "orbit census")
    census = _census(k)
    return census.classes[census.position(element)]


def enumerate_classes(k, cap=None):
    """All orbit classes of pair-rooted graphs at order k, sorted by their
    canonical representatives.  Order 1 has no pairs, hence no classes.
    The census is built once per order; each call returns a fresh list."""
    k = _positive_int(k, "order")
    _check_cap(k, cap, "orbit census")
    return list(_census(k).classes)
