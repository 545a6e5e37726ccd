"""Seeding discipline, the one-step definition in the oracles and the
batched engine checked against it, block densities, full runs, and the
finite-process-to-trajectory transference check."""

import dataclasses
import hashlib
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flipproc import (
    CapExceeded,
    Rule,
    RuleValidationError,
    SimConfig,
    StepKernel,
    block_densities,
    constant_kernel,
    integrate,
    make_named,
    part_sizes,
    result_to_csv,
    run,
    run_seed,
    sample_graph,
    transference_check,
    validate,
)
from flipproc import simulate

import oracles

F = Fraction


def _reference_splitmix(x):
    """Independent port of the published 64-bit mixer, for cross-checking."""
    mask = (1 << 64) - 1

    def nxt():
        nonlocal x
        x = (x + 0x9E3779B97F4A7C15) & mask
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    return nxt


def test_run_seed_published_vectors():
    assert run_seed(0, 0) == 0xE220A8397B1DCDAF
    assert run_seed(0, 1) == 0x6E789E6AA1B965F4
    assert run_seed(0, 2) == 0x06C45D188009454F
    assert run_seed(0, 3) == 0xF88BB8A8724C81EC
    assert run_seed(1234567, 0) == 6457827717110365317


def test_run_seed_matches_reference_stream():
    for master in (0, 42, 2 ** 63 + 11):
        nxt = _reference_splitmix(master)
        for i in range(20):
            assert run_seed(master, i) == nxt()


def test_randbelow_range_and_determinism():
    rng = random.Random(5)
    vals = [oracles.randbelow(rng, 7) for _ in range(2000)]
    assert set(vals) == set(range(7))
    replay = random.Random(5)
    assert [oracles.randbelow(replay, 7) for _ in range(5)] == vals[:5]
    assert oracles.randbelow(rng, 1) == 0
    with pytest.raises(ValueError):
        oracles.randbelow(rng, 0)


def test_sample_tuple():
    rng = random.Random(11)
    idx = list(range(10))
    for _ in range(200):
        tup = oracles.sample_tuple(rng, idx, 3)
        assert len(set(tup)) == 3
        assert all(0 <= v < 10 for v in tup)
    assert sorted(idx) == list(range(10))  # permutation persists intact


# takes of words ("w") and uniforms ("u"): an odd word count, then a
# uniform whose two words straddle the 624-word twist, and more of both
# across the next twists
_TAKES = [("w", 1), ("w", 622), ("u", 1), ("u", 400), ("w", 1001), ("u", 3),
          ("w", 0), ("u", 0), ("w", 5)]
_SEEDS = (0, 21, 2 ** 63 + 11)


def test_words_and_uniforms_follow_the_generator():
    for seed in _SEEDS:
        gen, slow = simulate._twister(random.Random(seed)), random.Random(seed)
        for kind, c in _TAKES:
            if kind == "w":
                got = gen.bit_generator.random_raw(c).astype(np.uint32).tolist()
                assert got == [slow.getrandbits(32) for _ in range(c)]
            else:
                assert gen.random(c).tolist() == [slow.random() for _ in range(c)]


def test_sample_graph_writes_the_state_back():
    # 35 vertices: 595 pairs, 1,190 words from word 315 on, across a
    # twist; gauss() leaves a cached second normal that must survive the
    # write-back
    for seed in _SEEDS:
        fast, slow = random.Random(seed), random.Random(seed)
        fast.getrandbits(32 * 311)
        slow.getrandbits(32 * 311)
        assert fast.gauss(0, 1) == slow.gauss(0, 1)
        sample_graph(constant_kernel(0.5), 35, fast)
        for _ in range(595):
            slow.random()
        assert fast.getstate() == slow.getstate()
        assert fast.gauss(0, 1) == slow.gauss(0, 1)
        assert fast.getrandbits(32) == slow.getrandbits(32)


def test_drawn_tuples_are_distinct_and_uniform():
    # all 5 * 4 * 3 ordered triples of 5 vertices, 200 expected each
    tup, unif = simulate._draw([simulate._twister(random.Random(8))], 5, 3, 12000)
    counts = {}
    for t in map(tuple, tup.tolist()):
        assert len(set(t)) == 3 and all(0 <= v < 5 for v in t)
        counts[t] = counts.get(t, 0) + 1
    assert len(counts) == 60
    chi2 = sum((c - 200) ** 2 / 200 for c in counts.values())
    assert chi2 < 120  # 59 degrees of freedom; the 0.9999 quantile is ~105
    assert ((0 <= unif) & (unif < 1)).all()


def _replay_below(rng, m, c):
    """c integers below m as the step protocol takes them from rng's words:
    rounds of r * 2^bits // m + 32 words, the first r accepted kept."""
    bits = (m - 1).bit_length()
    out = []
    while len(out) < c:
        r = c - len(out)
        words = [rng.getrandbits(32) >> (32 - bits) for _ in range((r << bits) // m + 32)]
        out += [w for w in words if w < m][:r]
    return out


def test_drawn_tuples_follow_the_one_step_protocol():
    # position i is the r-th smallest vertex not yet taken, r its integer
    # below n - i, each integer the top bits of a word when below the
    # bound; then one uniform per step; each run from its own words,
    # replayed here from CPython's generator itself
    seeds = (30, 31)
    tup, unif = simulate._draw(
        [simulate._twister(random.Random(s)) for s in seeds], 9, 5, 300)
    for run, seed in enumerate(seeds):
        replay = random.Random(seed)
        ranks = [_replay_below(replay, 9 - i, 300) for i in range(5)]
        mine = slice(300 * run, 300 * (run + 1))
        for t, r in zip(tup[mine].tolist(), zip(*ranks)):
            free = list(range(9))
            assert t == [free.pop(i) for i in r]
        assert unif[mine].tolist() == [replay.random() for _ in range(300)]


def test_step_triangle_removal_absorbs():
    adj = [0b110, 0b101, 0b011]  # triangle on 3 vertices
    tup = oracles.step(adj, make_named("triangle-removal", 3), random.Random(1))
    assert sorted(tup) == [0, 1, 2]
    assert adj == [0, 0, 0]


def test_step_identity_never_changes():
    rng = random.Random(3)
    adj, _, _ = sample_graph(constant_kernel(0.5), 12, rng)
    before = list(adj)
    for _ in range(50):
        oracles.step(adj, make_named("identity", 3), rng)
    assert adj == before


def test_step_touches_only_tuple_pairs():
    rng = random.Random(7)
    comp = make_named("complementing", 2)
    adj, _, _ = sample_graph(constant_kernel(0.5), 20, rng)
    for _ in range(100):
        before = list(adj)
        u, v = oracles.step(adj, comp, rng)
        bit_u, bit_v = 1 << u, 1 << v
        assert adj[u] == before[u] ^ bit_v
        assert adj[v] == before[v] ^ bit_u
        for w in range(20):
            if w not in (u, v):
                assert adj[w] == before[w]


def test_step_requires_enough_vertices():
    with pytest.raises(ValueError):
        oracles.step([0, 0], make_named("triangle-removal", 3), random.Random(0))


def test_part_sizes_largest_remainder():
    assert part_sizes((F(1, 3), F(2, 3)), 10) == (3, 7)
    assert part_sizes((F(1, 2), F(1, 2)), 5) == (3, 2)  # tie goes left
    assert part_sizes((F(1, 4),) * 4, 6) == (2, 2, 1, 1)
    assert sum(part_sizes((0.21, 0.33, 0.46), 17)) == 17
    assert part_sizes((F(1),), 9) == (9,)


@pytest.mark.parametrize("n", [3.5, True, -1, "4", None])
def test_sample_graph_rejects_bad_vertex_counts(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        sample_graph(constant_kernel(0.5), n, random.Random(0))


def test_sample_graph_is_held_to_the_vertex_budget():
    # refused before the n x n matrix is allocated
    with pytest.raises(CapExceeded, match="vertices"):
        sample_graph(constant_kernel(0.5), simulate._MAX_N + 1, random.Random(0))
    adj, part_of, sizes = sample_graph(constant_kernel(0.5), np.int64(0), random.Random(0))
    assert adj == [] and part_of == [] and sizes == (0,)


def test_sample_graph_respects_blocks():
    kern = StepKernel((F(1, 2), F(1, 2)), ((1, 0), (0, 1)))
    adj, part_of, sizes = sample_graph(kern, 10, random.Random(2))
    assert sizes == (5, 5) and part_of == [0] * 5 + [1] * 5
    dens = block_densities(adj, sizes)
    assert dens[0][0] == 1.0 and dens[1][1] == 1.0 and dens[0][1] == 0.0


@pytest.mark.parametrize("n,kern", [
    (1, constant_kernel(0.5)),
    (2, constant_kernel(0.5)),
    (37, constant_kernel(0)),
    (37, constant_kernel(1)),
    (37, StepKernel((F(1, 2), F(1, 2)), ((1, 0), (0, 1)))),
    (37, StepKernel((F(1, 6), F(1, 3), F(1, 2)),
                    ((0.9, 0.2, 0.5), (0.2, 0.1, 0.6), (0.5, 0.6, 0.35)))),
    (1000, StepKernel((F(1, 5), F(3, 10), F(1, 2)),
                      ((0.9, 0.2, 0.5), (0.2, 0.1, 0.6), (0.5, 0.6, 0.35)))),
])
def test_sample_graph_matches_pairwise_coins(n, kern):
    fast, slow = random.Random(n), random.Random(n)
    assert sample_graph(kern, n, fast) == oracles.naive_sample_graph(kern, n, slow)
    assert fast.getstate() == slow.getstate()


@st.composite
def _kernels(draw):
    """Step kernels of 1 to 6 parts, zero-weight parts among them, with
    block values that include 0 and 1."""
    m = draw(st.integers(min_value=1, max_value=6))
    weights = draw(st.lists(st.integers(min_value=0, max_value=3),
                            min_size=m, max_size=m).filter(any))
    value = st.one_of(st.sampled_from([0.0, 1.0]),
                      st.floats(min_value=0, max_value=1))
    vals = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            vals[i][j] = vals[j][i] = draw(value)
    return StepKernel(tuple(F(w, sum(weights)) for w in weights),
                      tuple(map(tuple, vals)))


@settings(max_examples=60, deadline=None)
@given(_kernels(), st.integers(min_value=0, max_value=80),
       st.integers(min_value=0, max_value=2 ** 32))
@example(kern=constant_kernel(0.5), n=0, seed=1)
@example(kern=constant_kernel(0.5), n=1, seed=1)
@example(kern=StepKernel((F(1, 2), F(1, 2)), ((0.3, 0.6), (0.6, 0.9))), n=2, seed=1)
@pytest.mark.parametrize("block", [1, 7, 64])
def test_sample_graph_matches_pairwise_coins_in_any_block(block, kern, n, seed):
    # blocks of one row, of many rows, and rows longer than a block
    fast, slow = random.Random(seed), random.Random(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("flipproc.codes.BLOCK_ELEMENTS", block)
        got = sample_graph(kern, n, fast)
    assert got == oracles.naive_sample_graph(kern, n, slow)
    assert fast.getstate() == slow.getstate()


def test_sample_block_size_is_read_at_call_time(monkeypatch):
    # 45 pairs fit one default block; a block of one pair holds one row
    # (the last row, with no pairs, joins the one before it)
    gen = simulate._twister(random.Random(3))
    calls = []

    class Counting:
        def random(self, count):
            calls.append(count)
            return gen.random(count)

    for block, expected in ((1 << 14, [45]), (1, list(range(9, 0, -1)))):
        monkeypatch.setattr("flipproc.codes.BLOCK_ELEMENTS", block)
        calls.clear()
        simulate._sample_matrix(constant_kernel(0.5), (10,), Counting(),
                                np.zeros((10, 10), np.uint8))
        assert calls == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=5).flatmap(
           lambda k: st.tuples(st.just(k), st.integers(min_value=k, max_value=3 * k))),
       st.integers(min_value=1, max_value=700), st.integers(min_value=0, max_value=2 ** 32))
@pytest.mark.parametrize("batch", [1, simulate._BATCH])
def test_engine_matches_one_step_path(batch, order_and_n, steps, seed):
    # at n <= 3k most batches hold steps that read pairs toggled earlier,
    # so rounds of every length are committed; stacks of 1 and 3 runs
    k, n = order_and_n
    rng = random.Random(seed)
    rule = oracles.random_step_rule(rng, k)
    compiled = oracles.compile_rows(rule)
    for runs in (1, 3):
        adj = np.zeros((runs, n, n), np.uint8)
        starts = simulate._twister(rng)
        for matrix in adj:
            simulate._sample_matrix(constant_kernel(rng.random()), (n,), starts, matrix)
        rows = [simulate._rows(matrix) for matrix in adj]
        gens = [simulate._twister(random.Random(rng.getrandbits(64))) for _ in adj]
        draws = []
        draw = simulate._draw

        def recorded(*args):
            draws.append(draw(*args))
            return draws[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_BATCH", batch)
            mp.setattr(simulate, "_draw", recorded)
            simulate._lockstep(adj, simulate._Engine(rule), gens, steps)
        assert sum(len(t) for t, _ in draws) == runs * steps
        assert all(len(t) <= runs * batch for t, _ in draws)
        # a batch holds the steps of run 0, 1, ... in turn
        for tup, unif in draws:
            c = len(tup) // runs
            for i, (t, u) in enumerate(zip(tup.tolist(), unif.tolist())):
                oracles.apply_step(rows[i // c], compiled, k, t, u)
        assert [simulate._rows(matrix) for matrix in adj] == rows


def _chi2_sf(x, df):
    """Pr[X >= x] for X chi-squared with df degrees of freedom, by the
    closed forms for integer df: a Poisson tail for even df, erfc and a
    half-integer series for odd df."""
    half = x / 2
    if df % 2 == 0:
        return math.exp(-half) * sum(half ** i / math.factorial(i) for i in range(df // 2))
    return math.erfc(math.sqrt(half)) + math.exp(-half) * sum(
        half ** (i + 0.5) / math.gamma(i + 1.5) for i in range(df // 2))


# (rule, start graph G on k + 1 vertices): every row explicit, and most
# rows move in several ways, not invariant under relabelling
_KERNEL_CASES = {
    2: (Rule(2, {(0, 1): F(1, 3), (0, 0): F(2, 3), (1, 0): F(1, 4), (1, 1): F(3, 4)}), 1),
    # G is the path 1-2-3-4: pairs {1,2}, {2,3} and {3,4} are bits 0, 2 and 5
    3: (Rule(3, {(f, h): p for f in range(8) for h, p in (
        (f ^ 1 << f % 3, F(1, 2)), (f ^ 7, F(1, 3)), (f, F(1, 6)))}), 0b100101),
}


@pytest.mark.parametrize("k", sorted(_KERNEL_CASES))
def test_engine_one_step_kernel_matches_transition_matrix(k):
    # R runs, each one step from G on n = k + 1 vertices, tallied by
    # their graph codes against row G of the exact transition matrix
    rule, g = _KERNEL_CASES[k]
    validate(rule)
    n, runs = k + 1, 4000
    pairs = oracles.pairs_of(n)
    adj = np.zeros((runs, n, n), np.uint8)
    for idx, (i, j) in enumerate(pairs):
        adj[:, i - 1, j - 1] = g >> idx & 1
    gens = [simulate._twister(random.Random(run_seed(1, r))) for r in range(runs)]
    simulate._lockstep(adj, simulate._Engine(rule), gens, 1)
    weights = np.array([1 << idx for idx in range(len(pairs))])
    codes = (adj[:, [i - 1 for i, _ in pairs], [j - 1 for _, j in pairs]] * weights).sum(axis=1)
    seen = dict(zip(*np.unique(codes, return_counts=True)))
    row = {g2: p for (g1, g2), p in oracles.transition_matrix(rule, n).items() if g1 == g}
    assert set(seen) <= set(row)  # no outcome of probability 0
    expected = {g2: runs * float(p) for g2, p in row.items()}
    assert min(expected.values()) >= 5 and len(row) >= 3
    stat = sum((seen.get(g2, 0) - e) ** 2 / e for g2, e in expected.items())
    assert _chi2_sf(stat, len(row) - 1) > 1e-6


def test_engine_replacement_ties_go_right():
    # a uniform equal to a cumulative takes the next replacement, as
    # bisect_right does; random draws almost never hit a tie
    rule = Rule(3, {(0, 1): F(1, 4), (0, 2): F(1, 4), (0, 4): F(1, 4),
                    (0, 7): F(1, 4), (7, 7): F(1, 2), (7, 0): F(1, 2)})
    f = np.array([0, 0, 0, 0, 0, 7, 7, 7, 3])
    u = np.array([0.0, 0.25, 0.5, 0.75, 0.9, 0.0, 0.5, 0.25, 0.5])
    h = simulate._Engine(rule).replacements(f, u)
    assert h.tolist() == [1, 2, 4, 7, 7, 0, 7, 0, 3]


def _assert_engine_rows_match_oracle(rule):
    engine = simulate._Engine(rule)
    compiled = oracles.compile_rows(rule)
    rows = [compiled[f] for f in sorted(compiled)]
    assert engine.codes.tolist() == sorted(compiled)
    assert engine.hs.tolist() == [h for _, hs in rows for h in hs]
    assert [c.hex() for c in engine.cums.tolist()] == [
        c.hex() for cums, _ in rows for c in cums]
    return engine


def test_engine_cumulatives_match_fraction_sums():
    d53, d62 = 3 ** 34, 3 ** 45  # past 2^53, and past 2^62 (object numerators)
    third = d53 // 3
    _assert_engine_rows_match_oracle(Rule(3, {
        (7, 0): F(third, d53), (7, 1): F(third + 1, d53),
        (7, 7): F(d53 - 2 * third - 1, d53)}))
    _assert_engine_rows_match_oracle(Rule(3, {
        (7, 0): F(d62 // 7, d62), (7, 3): F(d62 - d62 // 7, d62),
        (1, 0): F(1, 3), (1, 2): F(2, 3)}))
    # rows that do not sum to 1: the last cumulative is at least 1.0
    short = _assert_engine_rows_match_oracle(
        Rule(3, {(7, 0): F(1, 3), (7, 1): F(1, 3), (0, 1): F(1, 2), (0, 7): F(3, 4)}))
    assert short.cums.tolist() == [0.5, 1.25, 1 / 3, 1.0]
    assert _assert_engine_rows_match_oracle(Rule(2)).cums.size == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.sampled_from([4, 50, 60, 90]),
       st.integers(min_value=0, max_value=2 ** 32))
def test_engine_cumulatives_match_fraction_sums_on_random_rows(k, bits, seed):
    # numerators of up to `bits` bits over per-row totals, some rows short
    rng = random.Random(seed)
    space = 1 << (k * (k - 1) // 2)
    entries = {}
    for f in rng.sample(range(space), min(4, space)):
        support = rng.sample(range(space), rng.randint(1, min(4, space)))
        weights = [rng.randint(1, 1 << bits) for _ in support]
        total = sum(weights) + rng.choice([0, rng.randint(1, 1 << bits)])
        for h, w in zip(support, weights):
            entries[(f, h)] = F(w, total)
    _assert_engine_rows_match_oracle(Rule(k, entries))


def test_block_densities_counts():
    # path 0-1-2 with parts {0,1} and {2}
    adj = [0b010, 0b101, 0b010]
    dens = block_densities(adj, (2, 1))
    assert dens[0][0] == 1.0  # the only within-pair edge is present
    assert dens[0][1] == pytest.approx(0.5)
    assert dens[1][1] == 0.0  # no pairs: density reported as zero


def test_run_same_seed_is_bit_identical():
    cfg = SimConfig(rule=make_named("triangle-removal", 3), n=30,
                    initial=constant_kernel(0.7), horizon=0.05, seed=99,
                    runs=2, sample_points=4)
    a = run(cfg)
    b = run(cfg)
    assert a.samples == b.samples
    assert a.samples[0] != a.samples[1]  # distinct run seeds actually differ


def test_run_reads_an_edge_iterator_once():
    # a generator of edges is read once, so every run starts from it
    cfg = SimConfig(rule=make_named("identity", 2), n=10,
                    initial=((u, (u + 1) % 10) for u in range(10)),
                    horizon=0.0, seed=1, runs=2)
    out = run(cfg)
    assert out.samples[0] == out.samples[1] == [((10 / 45,),)]


def test_run_horizon_zero_reports_start():
    edges = [(0, 1), (1, 2)]
    cfg = SimConfig(rule=make_named("identity", 2), n=4, initial=edges,
                    horizon=0.0, seed=1)
    out = run(cfg)
    assert out.times == (0.0,)
    assert out.samples[0][0][0][0] == pytest.approx(2 / 6)


def test_run_argument_guards():
    cfg = SimConfig(rule=make_named("triangle-removal", 3), n=2,
                    initial=constant_kernel(0.5), horizon=0.1, seed=0)
    with pytest.raises(ValueError):
        run(cfg)
    big = SimConfig(rule=make_named("identity", 2), n=9000,
                    initial=constant_kernel(0.5), horizon=0.1, seed=0)
    with pytest.raises(CapExceeded):
        run(big)
    # drawn graphs of order 12 have 66 pairs, beyond a 62-bit code
    wide = SimConfig(rule=Rule(12), n=12, initial=constant_kernel(0.5),
                     horizon=0.1, seed=0)
    with pytest.raises(CapExceeded, match="order"):
        run(wide)
    for edges in ([(0, 4)], [(-1, 2)], [(2, 2)]):
        start = dataclasses.replace(cfg, rule=make_named("identity", 2), n=4, initial=edges)
        with pytest.raises(ValueError, match="bad edge"):
            run(start)


@pytest.mark.parametrize("entries", [
    {(7, 8): F(1)}, {(7, 0): F(1, 2)}, {(7, 0): F(3, 2), (7, 7): F(-1, 2)},
], ids=["code-out-of-range", "row-sum-half", "negative-entry"])
def test_run_refuses_invalid_rules(entries, monkeypatch):
    # each of these once ran as triangle removal
    rule = Rule(3, entries)
    cfg = SimConfig(rule=rule, n=30, initial=constant_kernel(0.5), horizon=0.1, seed=1)
    with pytest.raises(RuleValidationError):
        run(cfg)
    # the rule is validated before the reference trajectory is integrated

    def unreached(*args, **kwargs):
        raise AssertionError("integrate ran on an invalid rule")

    monkeypatch.setattr(simulate, "integrate", unreached)
    with pytest.raises(RuleValidationError):
        transference_check(rule, n=30, start=constant_kernel(0.5), horizon=0.1,
                           eps=0.05, seed=1)


def test_transference_refuses_before_integrating(monkeypatch):
    # run makes every check of the simulation before the reference
    # trajectory is integrated

    def unreached(*args, **kwargs):
        raise AssertionError("integrate ran before run's checks")

    monkeypatch.setattr(simulate, "integrate", unreached)
    tr, start = make_named("triangle-removal", 3), constant_kernel(0.5)
    # 5 runs of floor(60 * 200^2) steps: 12,000,000
    with pytest.raises(CapExceeded, match="steps of 5 runs"):
        transference_check(tr, n=200, start=start, horizon=60.0, eps=0.05, seed=1)
    with pytest.raises(CapExceeded, match="vertices"):
        transference_check(tr, n=6000, start=start, horizon=1e-6, eps=0.05, seed=1)
    with pytest.raises(ValueError, match="below the rule order"):
        transference_check(tr, n=2, start=start, horizon=0.1, eps=0.05, seed=1)


@pytest.mark.parametrize("field,value", [
    ("sample_points", 0), ("sample_points", -3), ("sample_points", 2.0),
    ("sample_points", True), ("runs", 0), ("runs", 1.5), ("runs", True),
    ("runs", "2"),
])
def test_run_rejects_bad_counts(field, value):
    cfg = SimConfig(rule=make_named("identity", 2), n=4,
                    initial=constant_kernel(0.5), horizon=0.5, seed=0)
    with pytest.raises(ValueError, match=field):
        run(dataclasses.replace(cfg, **{field: value}))


def test_run_steps_are_capped(monkeypatch):
    tr = make_named("triangle-removal", 3)
    # 2 runs of floor(1 * 3000^2) steps exceed the budget before the start
    # graph is sampled, which would take seconds at this n
    big = SimConfig(rule=tr, n=3000, initial=constant_kernel(0.5),
                    horizon=1.0, seed=0, runs=2)
    with pytest.raises(CapExceeded, match="steps"):
        run(big)
    # the budget bounds runs * floor(T n^2): reaching it exactly still runs
    monkeypatch.setattr(simulate, "_STEP_BUDGET", 200)
    fits = SimConfig(rule=tr, n=10, initial=constant_kernel(0.5),
                     horizon=1.0, seed=0, runs=2)
    assert len(run(fits).samples) == 2
    with pytest.raises(CapExceeded):
        run(dataclasses.replace(fits, runs=3))
    with pytest.raises(CapExceeded):
        transference_check(tr, 10, constant_kernel(0.5), 1.0, 0.5, seed=0,
                           runs=3)


def test_run_stored_densities_are_capped(monkeypatch):
    # floor(T n^2) = 0 steps pass the step budget: the block densities a
    # run keeps are held to a budget before any sample time is built
    tr = make_named("triangle-removal", 3)
    tiny = SimConfig(rule=tr, n=3, initial=constant_kernel(0.5),
                     horizon=1e-9, seed=0, sample_points=10 ** 9)
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="block densities"):
        run(tiny)
    assert time.perf_counter() - start < 1
    # runs * sample points * parts^2, reached exactly, still runs; a
    # horizon of 0 keeps the start only
    monkeypatch.setattr(simulate, "_GRID_BUDGET", 2 * 3 * 4)
    two = StepKernel((F(1, 2), F(1, 2)), ((0.5, 0.2), (0.2, 0.5)))
    fits = SimConfig(rule=tr, n=6, initial=two, horizon=0.1, seed=0, runs=2,
                     sample_points=3)
    assert len(run(fits).samples) == 2
    with pytest.raises(CapExceeded, match="block densities"):
        run(dataclasses.replace(fits, runs=3))
    assert run(dataclasses.replace(fits, runs=6, horizon=0.0)).times == (0.0,)


def test_run_step_count_overflow_is_capped():
    # floor(T n^2) is infinite as a float: the budget refuses it before
    # int() would, and before the start graph is sampled
    cfg = SimConfig(rule=make_named("triangle-removal", 3), n=5000,
                    initial=constant_kernel(0.5), horizon=1e305, seed=0)
    with pytest.raises(CapExceeded, match="steps"):
        run(cfg)


def test_run_deviations_against_reference():
    rule = make_named("complementing", 2)
    cfg = SimConfig(rule=rule, n=150, initial=constant_kernel(0.0),
                    horizon=0.3, seed=7, runs=2, sample_points=5)
    reference = lambda t: constant_kernel((1 - math.exp(-4 * t)) / 2)
    out = run(cfg, reference=reference)
    assert len(out.deviations) == 2
    assert all(dev < 0.1 for per_run in out.deviations for dev in per_run)


@pytest.mark.parametrize("horizon", [math.inf, math.nan])
def test_run_refuses_non_finite_horizons(horizon):
    cfg = SimConfig(rule=make_named("identity", 2), n=4,
                    initial=constant_kernel(0.5), horizon=horizon, seed=0)
    with pytest.raises(ValueError, match="horizon"):
        run(cfg)


def test_run_reference_must_have_the_start_parts():
    # a 2-part reference on a 1-part start would compare block (0, 0)
    # only, a 1-part one on a 2-part start index past its values
    two = StepKernel((F(1, 2), F(1, 2)), ((0.5, 0.2), (0.2, 0.5)))
    one = constant_kernel(0.5)
    for start, ref in ((one, two), (two, one)):
        cfg = SimConfig(rule=make_named("triangle-removal", 3), n=10,
                        initial=start, horizon=0.1, seed=0)
        with pytest.raises(ValueError, match="parts"):
            run(cfg, reference=lambda t: ref)
    # the same part count on other weights: block values of a kernel on
    # other parts, which the start's blocks cannot be measured against
    half = StepKernel((F(1, 2), F(1, 2)), ((0.5, 0.2), (0.2, 0.5)))
    skew = StepKernel((F(1, 10), F(9, 10)), ((0.5, 0.2), (0.2, 0.5)))
    cfg = SimConfig(rule=make_named("triangle-removal", 3), n=20,
                    initial=half, horizon=0.1, seed=0)
    with pytest.raises(ValueError, match="parts"):
        run(cfg, reference=lambda t: skew)
    # equal weights in another number type are the same parts
    floats = StepKernel((0.5, 0.5), ((0.5, 0.2), (0.2, 0.5)))
    assert len(run(cfg, reference=lambda t: floats).deviations) == 1


def _pinned_configs():
    k2 = StepKernel((F(1, 3), F(2, 3)), ((0.8, 0.3), (0.3, 0.5)))
    edges = [(u, (3 * u + 7) % 50) for u in range(50) if (3 * u + 7) % 50 != u]
    return [
        SimConfig(rule=make_named("triangle-removal", 3), n=60, initial=k2,
                  horizon=0.5, seed=11, runs=5, sample_points=4),
        SimConfig(rule=make_named("complementing", 3), n=50, initial=edges,
                  horizon=0.3, seed=3, runs=1, sample_points=5),
        SimConfig(rule=oracles.random_step_rule(random.Random(4), 4), n=30,
                  initial=constant_kernel(0.4), horizon=0.6, seed=5, runs=3,
                  sample_points=3),
    ]


def test_run_csv_digests_are_pinned():
    # SHA-256 of result_to_csv as an engine that steps one run at a time
    # and cuts each batch at its first conflict computes it; a change to
    # the draws, the commit order or the CSV format shows here
    digests = [hashlib.sha256(result_to_csv(run(cfg)).encode()).hexdigest()
               for cfg in _pinned_configs()]
    assert digests == [
        "69a02e6ac3290e6d0287fdb8720f0d0f951e90d703cfc24cb054854f0625afc6",
        "baecd854e017edc03fbe9d9609c870d3063e9fa2eba977b99154698328f52a11",
        "e621098104cbe23d01895344c294e0d5be21d51f9724c9c44f6d9b0da2096ae5",
    ]


def test_run_groups_under_the_stack_budget_give_the_same_csv(monkeypatch):
    cfg = _pinned_configs()[0]
    stacks = []
    commit = simulate._Engine.commit

    def spy(self, adj, tup, unif):
        stacks.append(len(adj))
        return commit(self, adj, tup, unif)

    monkeypatch.setattr(simulate._Engine, "commit", spy)
    whole = result_to_csv(run(cfg))
    assert set(stacks) == {5}
    stacks.clear()
    per_run = cfg.n ** 2 + simulate._READ_BYTES * simulate._BATCH * 3
    monkeypatch.setattr(simulate, "_STACK_BYTES", 2 * per_run + 1)
    assert result_to_csv(run(cfg)) == whole
    assert sorted(set(stacks)) == [1, 2] and stacks[-1] == 1


def test_single_step_edge_drift_matches_expectation():
    # ignorant completion: expected edge change is 3 minus the expected
    # number of edges on the sampled triple
    rule = make_named("ignorant", 3, dist={7: F(1)})
    n = 40
    rng0 = random.Random(12345)
    adj0, _, _ = sample_graph(constant_kernel(0.4), n, rng0)
    e0 = sum(r.bit_count() for r in adj0) / 2
    expect = 3 - 6 * e0 / (n * (n - 1))
    trials = 20000
    total = 0
    for i in range(trials):
        adj = list(adj0)
        oracles.step(adj, rule, random.Random(run_seed(777, i)))
        total += sum(r.bit_count() for r in adj) / 2 - e0
    mean = total / trials
    sigma = 3 / math.sqrt(trials)  # generous per-step deviation bound
    assert abs(mean - expect) <= 3 * sigma


def test_transference_complementing():
    rule = make_named("complementing", 2)
    report, result = transference_check(
        rule, n=300, start=constant_kernel(0.0), horizon=0.4, eps=0.05,
        seed=424242, runs=3,
    )
    assert report["pass"] is True
    assert report["runs_passing"] == 3
    assert all(r["max_dev"] < 0.05 for r in report["per_run"])
    assert result.reference is not None


def test_transference_flags_excess_deviation():
    # at n = 60 the sampling noise alone dwarfs a 1e-4 tolerance
    rule = make_named("complementing", 2)
    report, _ = transference_check(
        rule, n=60, start=constant_kernel(0.0), horizon=0.4, eps=1e-4,
        seed=5, runs=3,
    )
    assert report["pass"] is False
    assert report["runs_passing"] < 3
    with pytest.raises(ValueError):
        transference_check(rule, n=60, start=constant_kernel(0.0),
                           horizon=0.4, eps=0.05, seed=5, points=5)
    with pytest.raises(ValueError, match="step-kernel start"):
        transference_check(rule, n=60, start=[(0, 1)], horizon=0.4, eps=0.05, seed=5)
    for eps in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tolerance"):
            transference_check(rule, n=60, start=constant_kernel(0.0),
                               horizon=0.4, eps=eps, seed=5)


def test_result_csv_shape():
    cfg = SimConfig(rule=make_named("identity", 2), n=10,
                    initial=constant_kernel(0.5), horizon=0.02, seed=3,
                    runs=2, sample_points=2)
    out = run(cfg, reference=lambda t: constant_kernel(0.5))
    lines = result_to_csv(out).splitlines()
    assert lines[0] == "run,t,block_i,block_j,density,reference,abs_dev"
    assert len(lines) == 1 + 2 * 2  # runs x times, one block row each
    cells = lines[1].split(",")
    assert cells[0] == "0" and cells[2] == "1" and cells[3] == "1"
    assert cells[5] == "0.5"
    bare = result_to_csv(run(cfg))
    assert bare.splitlines()[1].endswith(",,")
