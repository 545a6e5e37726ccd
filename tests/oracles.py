"""Independent oracles and generators for the test suite.

Everything here that checks a package computation re-derives it from
definitions with separate code paths: the census count comes from the
orbit-counting lemma, coefficient sums from a term-by-term sweep over all
rooted elements with a local canonicalizer, a lifted certificate from the
extensions of each class's member by one vertex, isomorphism, symmetrization,
the symmetry check, relabelling orbits, edge histograms and orbit sums
from a full permutation sweep, validity from a Fraction sum of every row,
and the velocity from its defining sum over rows, pairs and rooted
densities or from one grid over all part assignments, the integrator's
post-step settle from its always-clamping form, the nearest trajectory
time from a linear scan, the simulator's start graph from one
random() call per pair, and its steps one at a time on bitmask rows, each
replacement found by bisection in Fraction-summed cumulatives; the exact
one-step transition matrix on n vertices sums the rule over every ordered
k-tuple, and so does the rank of the map from a rule's orbit masses to it.
Generators (random rules, kernels, graphs) may use package constructors
since they only build inputs.
"""

import bisect
import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from flipproc import Rule, RootedGraph


# ------------------------------------------------------- local pair indexing
# deliberately re-derived; shares no code with the package

def pair_index(i, j):
    if i > j:
        i, j = j, i
    return (j - 1) * (j - 2) // 2 + (i - 1)


def pairs_of(k):
    return [(i, j) for j in range(2, k + 1) for i in range(1, j)]


def apply_sigma_bits(sigma, k, bits):
    out = 0
    for idx, (i, j) in enumerate(pairs_of(k)):
        if bits >> idx & 1:
            out |= 1 << pair_index(sigma[i - 1], sigma[j - 1])
    return out


@functools.lru_cache(maxsize=None)
def canon_triple(k, bits, a, b):
    """Minimal relabelled (bits, a, b), by full permutation sweep, memoized
    per triple."""
    best = None
    for sigma in itertools.permutations(range(1, k + 1)):
        cand = (apply_sigma_bits(sigma, k, bits), sigma[a - 1], sigma[b - 1])
        if best is None or cand < best:
            best = cand
    return best


# ---------------------------------------------------------------- census math

def burnside_class_count(k):
    """Number of relabelling orbits of (graph, ordered root pair) triples,
    by averaging fixed-point counts over the group."""
    if k == 1:
        return 0
    total = 0
    plist = pairs_of(k)
    for sigma in itertools.permutations(range(1, k + 1)):
        fixed_pairs = sum(
            1
            for a in range(1, k + 1)
            for b in range(1, k + 1)
            if a != b and sigma[a - 1] == a and sigma[b - 1] == b
        )
        if fixed_pairs == 0:
            continue
        # cycles of the induced permutation on unordered pairs
        perm = [pair_index(sigma[i - 1], sigma[j - 1]) for i, j in plist]
        seen = [False] * len(plist)
        cycles = 0
        for start in range(len(plist)):
            if seen[start]:
                continue
            cycles += 1
            cur = start
            while not seen[cur]:
                seen[cur] = True
                cur = perm[cur]
        total += fixed_pairs * (1 << cycles)
    return total // math.factorial(k)


# ------------------------------------------------------- naive coefficient sum

def naive_coeff_sums(rule):
    """Coefficient of every class by summing the expected pair change over
    each rooted element individually, grouped by the local canonicalizer."""
    k = rule.order
    sums = {}
    plist = pairs_of(k)
    for f in range(1 << len(plist)):
        for idx, (i, j) in enumerate(plist):
            for a, b in ((i, j), (j, i)):
                mass = Fraction(0)
                for h in range(1 << len(plist)):
                    p = rule.probability(f, h)
                    if p and h >> idx & 1:
                        mass += p
                z = mass - (1 if f >> idx & 1 else 0)
                key = canon_triple(k, f, a, b)
                sums[key] = sums.get(key, Fraction(0)) + z
    return sums


def naive_coeff_sums_fast(rule):
    """Same sweep as naive_coeff_sums but reading only stored entries for
    the replacement mass; still element by element over all of G_k."""
    k = rule.order
    sums = {}
    plist = pairs_of(k)
    for f in range(1 << len(plist)):
        row = rule.rows().get(f)
        for idx, (i, j) in enumerate(plist):
            if row is None:
                z = Fraction(0)
            else:
                mass = sum((p for h, p in row.items() if h >> idx & 1),
                           Fraction(0))
                z = mass - (1 if f >> idx & 1 else 0)
            for a, b in ((i, j), (j, i)):
                key = canon_triple(k, f, a, b)
                sums[key] = sums.get(key, Fraction(0)) + z
    return sums


# ---------------------------------------------------------- certificate lift

def lift_certificate(nonzero, k):
    """The certificate at order k + 1 of a rule lifted from order k, from
    the order-k certificate's nonzero (class, coefficient) pairs, without
    building the lifted rule: c'(C') = sum_C N(C', C) c(C), where N(C', C)
    counts the 2^k edge patterns of vertex k + 1 that extend the canonical
    member (g, a, b) of C into C'.  The lifted rule acts on [k], so a member
    of C' rooted inside [k] takes its expected change from its restriction
    to [k], and one rooted at vertex k + 1 has none.  Returns the nonzero
    classes as {class: coefficient}."""
    from flipproc import GraphCode, RootedPairGraph, canonical_class
    shift = k * (k - 1) // 2
    out = {}
    for cls, c in nonzero:
        g, a, b = cls.canon.graph.bits, cls.canon.a, cls.canon.b
        for p in range(1 << k):
            ext = canonical_class(RootedPairGraph(GraphCode(k + 1, g | p << shift), a, b))
            out[ext] = out.get(ext, 0) + c
    return {cls: c for cls, c in out.items() if c}


# ------------------------------------------------- per-permutation symmetry

def naive_symmetrize(rule):
    """Average of the rule over all k! simultaneous relabellings, each entry
    moved by every permutation; a relabelling that lands on an identity
    row puts its mass back on the diagonal."""
    k = rule.order
    perms = list(itertools.permutations(range(1, k + 1)))
    acc = {}
    for (f, h), p in rule.entries.items():
        for sigma in perms:
            key = (apply_sigma_bits(sigma, k, f), apply_sigma_bits(sigma, k, h))
            acc[key] = acc.get(key, 0) + p
    explicit = rule.rows()
    for f in {f for f, _ in acc}:
        implicit = sum(
            1 for sigma in perms if apply_sigma_bits(sigma, k, f) not in explicit
        )
        if implicit:
            acc[(f, f)] = acc.get((f, f), 0) + implicit
    return Rule(k, {key: Fraction(v, len(perms)) for key, v in acc.items()})


def naive_is_symmetric(rule):
    """Every explicit entry equals the probability at each of its k!
    relabelled positions."""
    k = rule.order
    perms = list(itertools.permutations(range(1, k + 1)))
    return all(
        rule.probability(apply_sigma_bits(sigma, k, f),
                         apply_sigma_bits(sigma, k, h)) == p
        for (f, h), p in rule.entries.items()
        for sigma in perms
    )


def orbit_edge_histogram(rule, f, pair):
    """For a symmetric rule: the distribution of how many pairs of the
    root pair's orbit under the stabilizer of the graph f are edges of the
    replacement, as {count: probability}."""
    k = rule.order
    if not naive_is_symmetric(rule):
        raise ValueError("edge histograms are defined for symmetric rules")
    i, j = pair
    if i == j or not (1 <= i <= k and 1 <= j <= k):
        raise ValueError(f"pair {pair} outside order {k}")
    stabilizer = [sigma for sigma in itertools.permutations(range(1, k + 1))
                  if apply_sigma_bits(sigma, k, f) == f]
    orbit = {pair_index(sigma[i - 1], sigma[j - 1]) for sigma in stabilizer}
    mask = sum(1 << idx for idx in orbit)
    row = rule.row(f) or {f: Fraction(1)}
    hist = {count: Fraction(0) for count in range(len(orbit) + 1)}
    for h, p in row.items():
        hist[(h & mask).bit_count()] += p
    return hist


def naive_orbits(rule):
    """The relabelling orbits of the explicit entries (f, h) and of the
    explicit rows' diagonals (f, f), by a full permutation sweep: {key:
    members}, each orbit's members the sorted distinct codes
    (sigma f << P) | sigma h over all k! relabellings of one of its pairs,
    and its key the least member."""
    k = rule.order
    shift = len(pairs_of(k))
    perms = list(itertools.permutations(range(1, k + 1)))
    orbits, seen = {}, set()
    for f, h in [*rule.entries, *((f, f) for f in rule.rows())]:
        if f << shift | h in seen:
            continue
        members = sorted({apply_sigma_bits(sigma, k, f) << shift
                          | apply_sigma_bits(sigma, k, h) for sigma in perms})
        orbits[members[0]] = members
        seen.update(members)
    return orbits


# ------------------------------------------------------- orbit sums, validity

def naive_orbit_sums(rule):
    """Total mass of every relabelling orbit of index pairs (F, H), by a
    sweep over all 2^P rows with identity rows as mass 1 on the diagonal,
    each entry named by its least image over all k! permutations; zero
    sums are dropped.  Equal sums are the conjectured check_k1 verdict."""
    k = rule.order
    perms = list(itertools.permutations(range(1, k + 1)))
    sums = {}
    for f in range(1 << len(pairs_of(k))):
        for h, p in (rule.row(f) or {f: Fraction(1)}).items():
            key = min((apply_sigma_bits(sigma, k, f), apply_sigma_bits(sigma, k, h))
                      for sigma in perms)
            sums[key] = sums.get(key, Fraction(0)) + p
    return {key: v for key, v in sums.items() if v != 0}


def naive_rule_problems(order, entries):
    """The problems Rule(order, entries) reports, for codes in range, from
    exact Fraction sums: entries summed per row, a row of zeros dropped,
    every entry outside [0, 1] and then the row sum, row by row."""
    rows = {}
    for (f, h), p in entries.items():
        row = rows.setdefault(int(f), {})
        row[int(h)] = row.get(int(h), 0) + Fraction(p)
    problems = []
    for f, row in sorted(rows.items()):
        row = {h: p for h, p in row.items() if p}
        if not row:
            continue
        for h, p in sorted(row.items()):
            if p < 0 or p > 1:
                problems.append(f"entry ({f} -> {h}) has probability {p} outside [0, 1]")
        total = sum(row.values())
        if total != 1:
            problems.append(f"row {f} has row sum {total}")
    return problems


def naive_ignorant_edge_count(rule):
    """The common expected replacement edge count when every row of the
    rule, identity rows included, is the same distribution, else None:
    one row at a time."""
    shared = None
    for f in range(1 << len(pairs_of(rule.order))):
        row = rule.row(f)
        if row is None:
            row = {f: Fraction(1)}
        if shared is None:
            shared = row
        elif row != shared:
            return None
    return sum(p * Fraction(h.bit_count()) for h, p in shared.items())


# ------------------------------------------------------------------- velocity

def velocity_direct(rule, kernel):
    """Literal evaluation of the velocity's defining double sum, one rooted
    term at a time, with expected-change factors read straight off the rule
    rows (the package's rooted_density evaluates each term).  Quadratically
    slower than velocity(), and it never forms a certificate."""
    from flipproc import GraphCode, RootedPairGraph, StepKernel, rooted_density
    k = rule.order
    m = kernel.num_parts
    out = [[0.0] * m for _ in range(m)]
    for f in range(1 << (k * (k - 1) // 2)):
        row = rule.row(f)
        if row is None:
            continue  # identity keeps every pair: zero expected change
        code = GraphCode(k, f)
        for idx, (i, j) in enumerate(pairs_of(k)):
            mass = sum(p for h, p in row.items() if h >> idx & 1)
            z = float(mass - (f >> idx & 1))
            if z == 0.0:
                continue
            for a, b in ((i, j), (j, i)):
                element = RootedPairGraph(code, a, b)
                for x in range(m):
                    for y in range(m):
                        out[x][y] += z * float(
                            rooted_density(element, kernel, x, y)
                        )
    return StepKernel(
        kernel.weights,
        tuple(
            tuple((out[x][y] + out[y][x]) / 2.0 for y in range(m))
            for x in range(m)
        ),
    )


def grid_velocity(rule, kernel):
    """The velocity on one grid over all m^k assignments of the k vertices
    to parts, an (m, m) float array symmetrized as velocity() does: each
    nonzero class of the certificate, its representative relabelled so
    that the roots are vertices 1 and 2, adds coeff(C) times the product of
    its pair factors on the whole grid, and the free vertices k, ..., 3 are
    then placed by the part weights.  Memory m^k per class; orders 2 and
    up."""
    import numpy as np
    from flipproc import coeff_vector
    k = rule.order
    m = kernel.num_parts
    weights = np.array([float(w) for w in kernel.weights])
    vals = np.array([[float(v) for v in row] for row in kernel.values])
    density = np.zeros((m,) * k)
    for cls, c in coeff_vector(rule).nonzero():
        canon = cls.canon
        old = [canon.a, canon.b]
        old += [v for v in range(1, k + 1) if v not in old]
        term = np.full((m,) * k, float(c))
        for i, j in pairs_of(k):
            shape = [1] * k
            shape[i - 1] = shape[j - 1] = m
            wij = vals.reshape(shape)
            edge = canon.graph.has_edge(old[i - 1], old[j - 1])
            term = term * (wij if edge else 1.0 - wij)
        density += term
    for _ in range(k - 2):
        density = density @ weights
    return (density + density.T) / 2.0


def settle_always_clamped(v, t, graphon_mode):
    """The integrator's post-step settle as it was before in-range states
    skipped the clamp: a graphon state is checked, always clamped, then
    symmetrized; any other state symmetrized, then checked; a one-part
    state, a Python float, is never symmetrized.  An array is clipped in
    place."""
    import numpy as np
    from flipproc import IntegrationError, dynamics
    if type(v) is float:
        lo = hi = v
    else:
        if not graphon_mode:
            v = (v + v.T) / 2.0
        lo, hi = float(v.min()), float(v.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise IntegrationError(
            f"state is no longer finite at time {t:.6g}; reduce the step size"
        )
    if not graphon_mode:
        return v
    over = max(0.0, hi - 1.0, -lo)
    if over > dynamics.CLAMP_TOLERANCE:
        raise IntegrationError(
            f"state left [0, 1] by {over:.3e} at time {t:.6g}; "
            f"reduce the step size or check the starting kernel"
        )
    if type(v) is float:
        return min(max(v, 0.0), 1.0)
    np.clip(v, 0.0, 1.0, out=v)
    return (v + v.T) / 2.0


def nearest_index(times, t):
    """Index of the time closest to t, the first one on a tie: a linear
    scan over the whole record."""
    return min(range(len(times)), key=lambda i: abs(times[i] - t))


# ----------------------------------------------------------------- generators

def random_fractions(rng, count):
    """count positive rationals summing to exactly 1."""
    weights = [rng.randint(1, 12) for _ in range(count)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def random_rule(rng, k, max_rows=4, max_support=4):
    """A valid random sparse rule."""
    space = 1 << (k * (k - 1) // 2)
    n_rows = rng.randint(1, min(max_rows, space))
    rows = rng.sample(range(space), n_rows)
    entries = {}
    for f in rows:
        support = rng.sample(range(space), rng.randint(1, min(max_support, space)))
        for h, p in zip(support, random_fractions(rng, len(support))):
            entries[(f, h)] = p
    return Rule(k, entries)


def random_step_rule(rng, k, max_support=4):
    """A random rule for the simulator: explicit rows on a few or on all
    graphs, each with up to max_support replacements, and in about half of
    the rows the drawn graph itself among them."""
    space = 1 << (k * (k - 1) // 2)
    rows = range(space) if rng.random() < 0.5 else rng.sample(range(space), min(4, space))
    entries = {}
    for f in rows:
        support = rng.sample(range(space), rng.randint(1, min(max_support, space)))
        if f not in support and rng.random() < 0.5:
            support[0] = f
        for h, p in zip(support, random_fractions(rng, len(support))):
            entries[(f, h)] = p
    return Rule(k, entries)


def random_ignorant_rule(rng, k, max_support=4):
    space = 1 << (k * (k - 1) // 2)
    support = rng.sample(range(space), rng.randint(1, min(max_support, space)))
    probs = random_fractions(rng, len(support))
    dist = dict(zip(support, probs))
    return Rule(k, {(f, h): p for f in range(space) for h, p in dist.items()})


def random_full_support_symmetric_rule(rng, k, package_symmetrize):
    """Symmetric rule whose every row has full support, so that each row
    holds support graphs differing in two or more pairs."""
    space = 1 << (k * (k - 1) // 2)
    entries = {}
    for f in range(space):
        for h, p in zip(range(space), random_fractions(rng, space)):
            entries[(f, h)] = p
    return package_symmetrize(Rule(k, entries))


def random_kernel(rng, m, exact=False, lo=0.0, hi=1.0):
    """A random step-function graphon on m parts."""
    from flipproc import StepKernel
    weights = random_fractions(rng, m)
    if exact:
        flo, fhi = Fraction(lo), Fraction(hi)
        vals = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                v = Fraction(rng.randint(0, 16), 16)
                vals[i][j] = vals[j][i] = flo + (fhi - flo) * v
    else:
        vals = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                v = lo + (hi - lo) * rng.random()
                vals[i][j] = vals[j][i] = v
    return StepKernel(weights, tuple(tuple(row) for row in vals))


def random_rooted_graph(rng, n, roots=0, p=0.5):
    verts = list(range(1, n + 1))
    edges = [(i, j) for i, j in itertools.combinations(verts, 2)
             if rng.random() < p]
    root_list = rng.sample(verts, roots) if roots else []
    return RootedGraph(verts, edges, root_list)


# ------------------------------------------------------ brute-force matchers

def brute_isomorphisms(g1, g2):
    """Every isomorphism g1 -> g2 that sends the i-th root to the i-th
    root, as dictionaries, by full permutation sweep."""
    v1 = sorted(g1.vertices, key=repr)
    v2 = sorted(g2.vertices, key=repr)
    if len(v1) != len(v2) or len(g1.roots) != len(g2.roots):
        return []
    out = []
    for perm in itertools.permutations(v2):
        phi = dict(zip(v1, perm))
        if any(phi[r1] != r2 for r1, r2 in zip(g1.roots, g2.roots)):
            continue
        if all(
            g1.has_edge(u, v) == g2.has_edge(phi[u], phi[v])
            for u, v in itertools.combinations(v1, 2)
        ):
            out.append(phi)
    return out


def brute_isomorphic(g1, g2):
    """Isomorphism respecting root order, by full permutation sweep."""
    return bool(brute_isomorphisms(g1, g2))


def brute_rrr_maps(src, dst):
    """All structure-preserving maps by sweeping every function on the
    non-roots and every increasing root assignment."""
    out = []
    src_roots = list(src.roots)
    dst_roots = list(dst.roots)
    src_free = sorted((v for v in src.vertices if v not in src_roots), key=repr)
    dst_free = sorted((v for v in dst.vertices if v not in dst_roots), key=repr)
    src_all = src_roots + src_free
    for chosen in itertools.combinations(dst_roots, len(src_roots)):
        for images in itertools.product(dst_free, repeat=len(src_free)):
            phi = dict(zip(src_roots, chosen))
            phi.update(zip(src_free, images))
            ok = True
            for u, v in itertools.combinations(src_all, 2):
                has = src.has_edge(u, v)
                if phi[u] == phi[v]:
                    if has:
                        ok = False
                        break
                elif has != dst.has_edge(phi[u], phi[v]):
                    ok = False
                    break
            if ok:
                out.append(phi)
    return out


# --------------------------------------------------------------- simulation

def naive_sample_graph(kernel, n, rng):
    """The start graph one pair at a time: for u < v in row-major order, an
    edge when rng.random() falls below the pair's block value.  Returns
    (adjacency bitmask rows, part index per vertex, part sizes); the part
    sizes come from the package, since only the coins are checked here."""
    from flipproc import part_sizes
    sizes = part_sizes(kernel.weights, n)
    part_of = []
    for i, s in enumerate(sizes):
        part_of.extend([i] * s)
    vals = [[float(v) for v in row] for row in kernel.values]
    adj = [0] * n
    for u in range(n):
        row = vals[part_of[u]]
        for v in range(u + 1, n):
            if rng.random() < row[part_of[v]]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj, part_of, sizes


def randbelow(rng, n):
    """Uniform integer in [0, n) by rejection on getrandbits."""
    if n <= 0:
        raise ValueError(f"need a positive bound, got {n}")
    bits = (n - 1).bit_length()
    if bits == 0:
        return 0
    while True:
        r = rng.getrandbits(bits)
        if r < n:
            return r


def sample_tuple(rng, idx, k):
    """Ordered sample of k distinct entries via partial Fisher-Yates on a
    persistent index array (which stays a permutation between calls)."""
    n = len(idx)
    out = []
    for i in range(k):
        j = i + randbelow(rng, n - i)
        idx[i], idx[j] = idx[j], idx[i]
        out.append(idx[i])
    return out


def compile_rows(rule):
    """Row f -> (cumulative probabilities, replacement codes): each
    cumulative a Fraction sum turned into a float."""
    compiled = {}
    for f, row in rule.rows().items():
        hs = sorted(row)
        cums = []
        acc = Fraction(0)
        for h in hs:
            acc += row[h]
            cums.append(float(acc))
        compiled[f] = (cums, hs)
    return compiled


def apply_step(adj, compiled, k, tup, u):
    """One step on given draws, in place: reads the drawn graph of tuple
    `tup` off the adjacency bitmask rows, replaces it by the row sample at
    uniform u, and toggles exactly the pairs that changed."""
    pairs = pairs_of(k)
    f_bits = 0
    for p_idx, (i, j) in enumerate(pairs):
        if adj[tup[i - 1]] >> tup[j - 1] & 1:
            f_bits |= 1 << p_idx
    row = compiled.get(f_bits)
    if row is None:
        return
    cums, hs = row
    toggle = f_bits ^ hs[bisect.bisect_right(cums, u)]
    while toggle:
        low = toggle & -toggle
        i, j = pairs[low.bit_length() - 1]
        a, b = tup[i - 1], tup[j - 1]
        adj[a] ^= 1 << b
        adj[b] ^= 1 << a
        toggle ^= low


def step(adj, rule, rng):
    """One flip step one at a time, in place: the definition the batched
    engine is checked against.  Samples the ordered tuple and one uniform,
    reads the drawn graph off the adjacency rows, replaces it by a row
    sample, and toggles exactly the pairs that changed.  Returns the sampled
    tuple."""
    n = len(adj)
    k = rule.order
    if n < k:
        raise ValueError(f"need at least {k} vertices, got {n}")
    tup = sample_tuple(rng, list(range(n)), k)
    apply_step(adj, compile_rows(rule), k, tup, rng.random())
    return tup


def transition_matrix(rule, n):
    """The exact one-step transition matrix of the flip process on n >= k
    vertices, {(G, G'): probability} over all graphs G on [n] in the same
    pair encoding, zero entries left out.  A step draws one of the (n)_k
    ordered k-tuples of distinct vertices uniformly, reads the graph F that
    G induces on it (tuple position a as vertex a), draws H with
    probability R(F, H) (identity rows keep F) and writes H back onto the
    tuple's pairs: each entry is the sum of R(F, H) over the tuples that
    carry G to G', over (n)_k."""
    k = rule.order
    slots = []  # per tuple, the bit of G under each pair of [k], in pair order
    for tup in itertools.permutations(range(1, n + 1), k):
        slots.append([pair_index(tup[a - 1], tup[b - 1]) for a, b in pairs_of(k)])
    sums = {}
    for g in range(1 << len(pairs_of(n))):
        for bits in slots:
            f = sum(1 << i for i, s in enumerate(bits) if g >> s & 1)
            cleared = g & ~sum(1 << s for s in bits)
            for h, p in (rule.row(f) or {f: Fraction(1)}).items():
                key = g, cleared | sum(1 << s for i, s in enumerate(bits) if h >> i & 1)
                sums[key] = sums.get(key, 0) + p
    return {key: p / len(slots) for key, p in sums.items() if p}


# a prime near 2^20: products of two residues stay far inside int64
K1_PRIME = 1_048_573


def _rank_mod(matrix, p):
    """Rank of an integer matrix over the field of p elements, by Gaussian
    elimination."""
    a = np.asarray(matrix, dtype=np.int64) % p
    rank = 0
    for col in range(a.shape[1]):
        nonzero = rank + np.flatnonzero(a[rank:, col])
        if not len(nonzero):
            continue
        a[[rank, nonzero[0]]] = a[[nonzero[0], rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), -1, p) % p
        others = np.flatnonzero(a[:, col])
        others = others[others != rank]
        a[others] = (a[others] - a[others, col, None] * a[rank]) % p
        rank += 1
        if rank == len(a):
            break
    return rank


def k1_rank(k, n, graphs, raw=False, seed=0):
    """(rank, columns) of the linear map that sends the off-diagonal orbit
    masses of a symmetrized order-k rule to the off-diagonal entries of its
    n-vertex one-step transition matrix, rows (G, G') kept for the start
    graphs G in `graphs`.  There is one column per relabelling orbit of
    pairs (F, H) with F != H, or with raw=True one per such pair; entry
    ((G, G'), orbit) counts the ordered k-tuples t with (G|t, G'|t) in the
    orbit and G' = G off t.  The rank is taken mod K1_PRIME of a seeded
    random projection of the rows onto columns + 8 combinations, so it is
    a lower bound on the rank over the rationals: full column rank proves
    that unequal orbit sums give different transition matrices."""
    pairs = pairs_of(k)
    size = 1 << len(pairs)
    column = {}
    col_of = np.full((size, size), -1, dtype=np.int64)
    for f in range(size):
        for h in range(size):
            if f != h:
                key = (f, h) if raw else min(
                    (apply_sigma_bits(sigma, k, f), apply_sigma_bits(sigma, k, h))
                    for sigma in itertools.permutations(range(1, k + 1)))
                col_of[f, h] = column.setdefault(key, len(column))
    g = np.array(list(graphs), dtype=np.int64)
    width = len(pairs_of(n))
    keys, cols = [], []
    for tup in itertools.permutations(range(1, n + 1), k):
        slots = [pair_index(tup[a - 1], tup[b - 1]) for a, b in pairs]
        f = sum(((g >> s) & 1) << i for i, s in enumerate(slots))
        cleared = g & ~sum(1 << s for s in slots)
        for h in range(size):
            moved = f != h
            placed = sum(1 << s for i, s in enumerate(slots) if h >> i & 1)
            keys.append((g << width | cleared | placed)[moved])
            cols.append(col_of[f[moved], h])
    _, rows = np.unique(np.concatenate(keys), return_inverse=True)
    matrix = np.zeros((rows.max() + 1, len(column)), dtype=np.int64)
    np.add.at(matrix, (rows.ravel(), np.concatenate(cols)), 1)
    rng = np.random.default_rng(seed)
    projection = rng.integers(0, K1_PRIME, size=(len(column) + 8, len(matrix))) @ matrix
    return _rank_mod(projection, K1_PRIME), len(column)
