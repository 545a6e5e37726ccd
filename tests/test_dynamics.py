"""Rooted densities, the aggregated velocity against its literal oracle,
integration against closed forms, stability bounds, and the density formula
cross-check."""

import hashlib
import itertools
import json
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flipproc import (
    CapExceeded,
    GraphCode,
    IntegrationError,
    RootedGraph,
    RootedPairGraph,
    Rule,
    StepKernel,
    coeff_vector,
    constant_kernel,
    density_formula_check,
    dynamics,
    integrate,
    is_twinfree,
    kernel_from_json,
    kernel_to_json,
    lift,
    lipschitz_constant,
    make_named,
    max_block_dev,
    rooted_density,
    symmetrize,
    transference_check,
    velocity,
    vstar,
)

import oracles

F = Fraction

TR = make_named("triangle-removal", 3)


def _flat(kernel):
    return [v for row in kernel.values for v in row]


def _dev(k1, k2):
    return max(abs(float(a) - float(b))
               for ra, rb in zip(k1.values, k2.values)
               for a, b in zip(ra, rb))


# ------------------------------------------------------------ rooted densities

def test_rooted_density_triangle():
    p = F(4, 5)
    tri = RootedPairGraph(GraphCode(3, 7), 1, 2)
    assert rooted_density(tri, constant_kernel(p), 0, 0) == p ** 3


def test_rooted_density_exact_on_exact_kernels():
    kern = StepKernel((F(1, 4), F(3, 4)),
                      ((F(1, 2), F(1, 3)), (F(1, 3), F(0))))
    elem = RootedPairGraph(GraphCode(3, 1), 1, 2)  # one edge at the roots
    d = rooted_density(elem, kern, 0, 1)
    # edge factor 1/3, free vertex avoids both: 1/4*1/2'... direct sum
    want = F(1, 3) * (F(1, 4) * (1 - F(1, 2)) * (1 - F(1, 3))
                      + F(3, 4) * (1 - F(1, 3)) * (1 - F(0)))
    assert d == want


def test_rooted_densities_sum_to_one():
    rng = random.Random(3)
    for _ in range(5):
        kern = oracles.random_kernel(rng, 3, exact=True)
        x, y = rng.randrange(3), rng.randrange(3)
        total = sum(
            rooted_density(RootedPairGraph(GraphCode(3, f), 1, 2), kern, x, y)
            for f in range(8)
        )
        assert total == 1


def test_rooted_density_orientation_swap():
    rng = random.Random(9)
    kern = oracles.random_kernel(rng, 2, exact=True)
    for f in range(8):
        code = GraphCode(3, f)
        for x in range(2):
            for y in range(2):
                assert rooted_density(RootedPairGraph(code, 1, 2), kern, x, y) \
                    == rooted_density(RootedPairGraph(code, 2, 1), kern, y, x)


def test_rooted_density_on_zero_one_kernels():
    # 0/1 values make many partial products zero, which rooted_density
    # prunes: every rooted graph of orders 3 and 4, on every 0/1 kernel of
    # one and of two parts, at every pair of root parts, against a sum over
    # the parts of the free vertices
    kernels = [constant_kernel(0), constant_kernel(1)] + [
        StepKernel((F(1, 3), F(2, 3)), ((u, v), (v, w)))
        for u, v, w in itertools.product((0, 1), repeat=3)]
    pinned = [(kernel, x, y) for kernel in kernels
              for x, y in itertools.product(range(kernel.num_parts), repeat=2)]
    for k in (3, 4):
        pairs = oracles.pairs_of(k)
        roots = itertools.permutations(range(1, k + 1), 2)
        for (a, b), (kernel, x, y) in itertools.product(roots, pinned):
            free = [v for v in range(1, k + 1) if v not in (a, b)]
            # each placement of the free vertices: its weight, and the block
            # value of each pair
            placements = []
            for parts in itertools.product(range(kernel.num_parts), repeat=len(free)):
                part = {a: x, b: y, **dict(zip(free, parts))}
                placements.append((math.prod(kernel.weights[p] for p in parts),
                                   [kernel.values[part[i]][part[j]] for i, j in pairs]))
            for f in range(1 << len(pairs)):
                want = sum(weight * math.prod(w if f >> idx & 1 else 1 - w
                                              for idx, w in enumerate(values))
                           for weight, values in placements)
                element = RootedPairGraph(GraphCode(k, f), a, b)
                assert rooted_density(element, kernel, x, y) == want


def test_rooted_density_rejects_bad_parts():
    with pytest.raises(ValueError):
        rooted_density(RootedPairGraph(GraphCode(2, 1), 1, 2),
                       constant_kernel(0.5), 0, 1)


# ------------------------------------------------------------------- velocity

def test_velocity_triangle_removal():
    out = velocity(TR, constant_kernel(0.8))
    assert out.values[0][0] == pytest.approx(-6 * 0.8 ** 3, abs=1e-12)


def test_velocity_complementing():
    c3 = make_named("complementing", 3)
    out = velocity(c3, constant_kernel(0.1))
    assert out.values[0][0] == pytest.approx(6 * (1 - 2 * 0.1), abs=1e-12)
    c2 = make_named("complementing", 2)
    assert velocity(c2, constant_kernel(0.0)).values[0][0] == \
        pytest.approx(2.0, abs=1e-12)


def test_velocity_identity_zero():
    two_parts = StepKernel((F(1, 2), F(1, 2)), ((0.3, 0.7), (0.7, 0.2)))
    for k in (1, 2, 3):
        out = velocity(make_named("identity", k), constant_kernel(0.37))
        assert out.values[0][0] == 0.0
        out = velocity(make_named("identity", k), two_parts)
        assert out.values == ((0.0, 0.0), (0.0, 0.0))


def test_velocity_constant_split_matches_one_part():
    rng = random.Random(13)
    for _ in range(8):
        r = oracles.random_rule(rng, 3)
        p = rng.random()
        whole = velocity(r, constant_kernel(p)).values[0][0]
        split = velocity(r, StepKernel((F(1, 3), F(2, 3)),
                                       ((p, p), (p, p))))
        assert all(v == pytest.approx(whole, abs=1e-10) for v in _flat(split))


def test_velocity_matches_literal_oracle():
    rng = random.Random(17)
    cases = [(2, 1), (2, 3), (3, 1), (3, 2), (3, 4), (4, 2)]
    cases = cases * 3 + [(4, 4), (4, 1)] + [(5, 2), (5, 3)] * 2
    rules = [(oracles.random_rule(rng, k), m) for k, m in cases]
    # an unnormalized row: the certificate path must give the literal drift
    # of invalid rules too
    rules += [(Rule(2, {(1, 1): F(2)}), m) for m in (1, 2)]
    for r, m in rules:
        kern = oracles.random_kernel(rng, m)
        fast = velocity(r, kern)
        slow = oracles.velocity_direct(r, kern)
        assert _dev(fast, slow) <= 1e-9
        assert fast.weights == kern.weights


def test_equivalent_rules_share_velocity():
    rng = random.Random(19)
    for _ in range(10):
        r = oracles.random_rule(rng, 3)
        kern = oracles.random_kernel(rng, rng.randint(1, 3))
        assert _dev(velocity(r, kern), velocity(symmetrize(r), kern)) <= 1e-9
        assert _dev(velocity(r, kern), velocity(lift(r, 4), kern)) <= 1e-9
    u = make_named("ignorant", 4, dist={63: F(1, 2), 0: F(1, 2)})
    star = make_named("ignorant", 4, dist={11: F(1)})
    kern = oracles.random_kernel(rng, 2)
    assert _dev(velocity(u, kern), velocity(star, kern)) <= 1e-9


@st.composite
def _kernels(draw, max_parts=3):
    m = draw(st.integers(min_value=1, max_value=max_parts))
    weights = draw(st.lists(st.integers(min_value=1, max_value=12),
                            min_size=m, max_size=m))
    unit = st.floats(min_value=0.0, max_value=1.0)
    vals = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            vals[i][j] = vals[j][i] = draw(unit)
    return StepKernel([F(w, sum(weights)) for w in weights], vals)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.randoms(use_true_random=False),
       _kernels())
def test_equal_certificates_give_bitwise_equal_velocity(k, rng, kern):
    rule = oracles.random_rule(rng, k)
    sigma = rng.sample(range(1, k + 1), k)
    relabelled = Rule(k, {
        (oracles.apply_sigma_bits(sigma, k, f),
         oracles.apply_sigma_bits(sigma, k, h)): p
        for (f, h), p in rule.entries.items()
    })
    for other in (symmetrize(rule), relabelled):
        assert coeff_vector(other) == coeff_vector(rule)
        assert velocity(other, kern).values == velocity(rule, kern).values


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.randoms(use_true_random=False),
       _kernels(max_parts=4))
def test_velocity_matches_grid_oracle(k, rng, kern):
    rule = oracles.random_rule(rng, k)
    fast = np.array(velocity(rule, kern).values)
    grid = oracles.grid_velocity(rule, kern)
    assert np.abs(fast - grid).max() <= 1e-12 * max(1.0, np.abs(fast).max())


def test_velocity_values_are_python_floats():
    two_parts = StepKernel((F(1, 3), F(2, 3)), ((0.8, 0.3), (0.3, 0.5)))
    for rule in (TR, make_named("extremist", 5), make_named("identity", 3)):
        for kern in (constant_kernel(0.8), two_parts):
            values = velocity(rule, kern).values
            assert all(type(v) is float for row in values for v in row)


@pytest.fixture
def fresh_plans():
    """Velocity plans built here under a patched budget must not outlive
    the test."""
    dynamics._plan.cache_clear()
    dynamics._compiled.cache_clear()
    yield
    dynamics._plan.cache_clear()
    dynamics._compiled.cache_clear()


def test_velocity_chunks_agree(monkeypatch, fresh_plans):
    ext5 = make_named("extremist", 5)
    kern = oracles.random_kernel(random.Random(47), 2)
    whole = np.array(velocity(ext5, kern).values)
    classes = len(coeff_vector(ext5).nonzero())
    # a third of the classes per chunk on 2 parts
    monkeypatch.setattr(dynamics, "_GRID_BUDGET", 2 ** 5 * (classes // 3))
    dynamics._plan.cache_clear()
    dynamics._compiled.cache_clear()
    split = np.array(velocity(ext5, kern).values)
    assert len(dynamics._plan(dynamics._compiled(ext5, 6), 2)) >= 3
    assert np.abs(split - whole).max() <= 1e-12 * max(1.0, np.abs(whole).max())
    # 4^5 cells are beyond the patched budget
    with pytest.raises(CapExceeded, match="grid"):
        velocity(ext5, oracles.random_kernel(random.Random(47), 4))


def test_velocity_is_capped():
    kern = oracles.random_kernel(random.Random(43), 2)
    # the certificate is held to the enumeration cap
    with pytest.raises(CapExceeded):
        velocity(make_named("clique-removal", 7), kern)
    with pytest.raises(CapExceeded):
        velocity(TR, kern, cap=2)
    with pytest.raises(CapExceeded):
        integrate(TR, kern, 0.01, cap=2)
    with pytest.raises(CapExceeded):
        transference_check(TR, 20, kern, 0.01, 0.5, 1, runs=1, cap=2)
    assert velocity(TR, kern, cap=3).values == velocity(TR, kern).values
    # and the m^k grid of part assignments to its budget: 20^6 cells
    wide = StepKernel([F(1, 20)] * 20, [[0.5] * 20] * 20)
    with pytest.raises(CapExceeded, match="grid"):
        velocity(make_named("clique-removal", 6), wide)
    with pytest.raises(CapExceeded, match="grid"):
        integrate(make_named("clique-removal", 6), wide, 0.01)
    assert velocity(TR, wide).values[0][0] == pytest.approx(-6 * 0.5 ** 3)


# ---------------------------------------------------------------- integration

def test_integrate_triangle_removal_closed_form():
    p = 0.8
    traj = integrate(TR, constant_kernel(p), 2.0)
    worst = max(
        abs(state.values[0][0] - p / math.sqrt(1 + 12 * p * p * t))
        for t, state in zip(traj.times, traj.states)
    )
    assert worst < 1e-6


def test_integrate_complementing_closed_form():
    p = 0.1
    c3 = make_named("complementing", 3)
    traj = integrate(c3, constant_kernel(p), 2.0)
    worst = max(
        abs(state.values[0][0] - (0.5 + (p - 0.5) * math.exp(-12 * t)))
        for t, state in zip(traj.times, traj.states)
    )
    assert worst < 1e-6


def test_integrate_step_bookkeeping():
    traj = integrate(TR, constant_kernel(0.5), 0.0105, h=1e-3)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.0105, abs=1e-12)
    assert len(traj.times) == 12
    flat = integrate(TR, constant_kernel(0.5), 0.0)
    assert len(flat.states) == 1 and flat.final == constant_kernel(0.5)
    near = traj.nearest_state(0.0031)
    assert near is traj.states[3]


def test_integrate_refuses_non_graphon_without_flag():
    bad = StepKernel((F(1),), ((1.5,),))
    with pytest.raises(ValueError):
        integrate(make_named("identity", 2), bad, 0.1)
    traj = integrate(make_named("identity", 2), bad, 0.1,
                     expert_nongraphon=True)
    assert traj.final.values[0][0] == 1.5


@pytest.mark.filterwarnings("error")
def test_integrate_detects_domain_escape():
    # unnormalized row doubling the edge indicator: drift 2w blows past 1
    runaway = Rule(2, {(1, 1): F(2)})
    with pytest.raises(IntegrationError, match=r"left \[0, 1\]"):
        integrate(runaway, constant_kernel(0.5), 1.0)
    # on two parts the excursion is caught before the clip removes it
    two = StepKernel((F(1, 3), F(2, 3)), ((0.5, 0.4), (0.4, 0.6)))
    with pytest.raises(IntegrationError, match=r"left \[0, 1\]"):
        integrate(runaway, two, 1.0)
    # outside the graphon domain the cubic drift overflows to inf and nan
    huge = StepKernel((F(1, 2), F(1, 2)), ((1e100, 1e100), (1e100, 1e100)))
    with pytest.raises(IntegrationError, match="no longer finite"):
        integrate(TR, huge, 1.0, h=0.1, expert_nongraphon=True)
    # on one part the drift is a Python float power, which overflows
    with pytest.raises(IntegrationError, match="overflowed"):
        integrate(TR, constant_kernel(1e100), 1.0, h=0.1, expert_nongraphon=True)
    # a finite state whose symmetrization (v + v.T) / 2 overflows
    ident = make_named("identity", 2)
    big = StepKernel((F(1, 2), F(1, 2)), ((1e308, 0.0), (0.0, 1e308)))
    with pytest.raises(IntegrationError, match="no longer finite"):
        integrate(ident, big, 0.001, expert_nongraphon=True)
    # one part is never symmetrized, so the same block value stays
    one = integrate(ident, constant_kernel(1e308), 0.001, expert_nongraphon=True)
    assert one.final.values == ((1e308,),)


# every case of the post-step settle: inside [0, 1], on its boundary with
# both zeros, within the clamp tolerance outside it, beyond it, not finite,
# and large enough that a non-graphon symmetrization overflows
_SETTLE_VALUES = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, -0.0, 1.0, -1e-9, 1.0 + 5e-10, math.nan, math.inf,
                     -math.inf, 1.7e308, -1.7e308]),
    st.floats(min_value=-1e-9, max_value=0.0),
    st.floats(min_value=1.0, max_value=1.0 + 1e-9),
    st.floats(min_value=-3.0, max_value=3.0),
)
_SETTLE_STATES = st.one_of(
    _SETTLE_VALUES,
    st.integers(1, 4).flatmap(lambda m: st.lists(
        st.lists(_SETTLE_VALUES, min_size=m, max_size=m),
        min_size=m, max_size=m)),
)


@settings(max_examples=400, deadline=None)
@given(st.booleans(), _SETTLE_STATES, st.floats(min_value=0.0, max_value=9.0))
@example(True, -0.0, 0.5)
@example(True, [[-0.0, 0.5], [0.5, -0.0]], 0.5)
@example(True, [[0.0, -0.0], [-0.0, 1.0]], 0.5)
@example(True, [[0.3, -5e-10], [-5e-10, 1.0 + 5e-10]], 0.5)
@example(True, [[0.3, -2e-9], [-2e-9, 0.5]], 0.5)
@example(True, [[0.3, math.nan], [math.nan, 0.5]], 0.5)
@example(False, [[1.7e308, 1.7e308], [1.7e308, 0.0]], 0.5)
@example(False, -math.inf, 0.5)
def test_settle_matches_always_clamped(graphon_mode, state, t):
    # bit for bit, -0.0 included: an in-range state skips the clamp only
    # where the clamp would change nothing
    seen = []
    for settle in (dynamics._settle, oracles.settle_always_clamped):
        v = state if type(state) is float else np.array(state)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                out = settle(v, t, graphon_mode)
        except IntegrationError as exc:
            seen.append(str(exc))
        else:
            out_array = np.asarray(out)
            seen.append((type(out), out_array.shape, out_array.tobytes()))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("name,p,t_max,h,digest", [
    # the starts whose CSV bytes CI pins: one.csv, comp3.csv, badx.csv
    ("triangle-removal", 0.8, 0.0105, 1e-3,
     "48d3bea6d60459021dce6457a0b0191b434c772801de55d893a3c704809d031d"),
    ("complementing", 0.8, 0.5, 1e-3,
     "e861ba88edff407d81f109a2e6c147c345d56a60d7dd2cbede80c1502a7b19ea"),
    ("triangle-removal", 1.5, 0.3, 0.01,
     "ad5a612bf6e47ad584ba1436adfbd88ae0c7a0b945b4f8a6e24c1fdc4b2ba874"),
    # boundary starts; triangle removal from 0.0 settles on 0.0 every step
    ("triangle-removal", 1.0, 0.5, 1e-3,
     "a5f7eb32847aa0501c1fcf2bf5e255f60085464c51931c10c18cc744f7846dba"),
    ("complementing", 0.0, 0.5, 1e-3,
     "6d52b57b5ae7af6da25e7cbbf3087c63212e1cecbb7af94a10c1759d67be710c"),
    ("triangle-removal", 0.0, 0.5, 1e-3,
     "730ab30fb02b889dcb15bc1f81ec879829f5c97a485e8dfe0856cb3523f6013a"),
])
def test_one_part_trajectory_bytes(name, p, t_max, h, digest):
    # one part is Python float arithmetic: the same bytes on every numpy
    traj = integrate(make_named(name, 3), constant_kernel(p), t_max, h=h,
                     expert_nongraphon=p > 1.0)
    assert hashlib.sha256(traj.to_csv().encode()).hexdigest() == digest


def test_integrate_steps_are_capped():
    # the stored trajectory, (steps + 1) * m^2 block values, is held to the
    # grid budget of 4,000,000 before the first step; on two parts that is
    # 999,999 steps, where the runaway rule leaves [0, 1] at once instead
    runaway = Rule(2, {(1, 1): F(2)})
    kern = StepKernel((F(1, 2), F(1, 2)), ((0.5, 0.5), (0.5, 0.5)))
    with pytest.raises(CapExceeded, match="steps"):
        integrate(runaway, kern, 1_000_000.0, h=1.0)
    with pytest.raises(IntegrationError):
        integrate(runaway, kern, 999_999.0, h=1.0)
    with pytest.raises(CapExceeded, match="steps"):
        integrate(TR, constant_kernel(0.5), 1e9)


def test_integrate_argument_errors():
    with pytest.raises(ValueError):
        integrate(TR, constant_kernel(0.5), -1.0)
    with pytest.raises(ValueError):
        integrate(TR, constant_kernel(0.5), 1.0, h=0.0)


@pytest.mark.parametrize("t_max,h", [
    (1.0, math.inf), (math.inf, 1e-3), (math.nan, 1e-3), (1.0, math.nan),
])
def test_integrate_refuses_non_finite_times(t_max, h):
    # h = inf would make a trajectory of no steps, t_max = inf an
    # OverflowError and NaN CPython's float-to-int message
    with pytest.raises(ValueError, match="finite"):
        integrate(TR, constant_kernel(0.8), t_max, h=h)


def test_trajectory_states_stay_graphons():
    rng = random.Random(23)
    for _ in range(5):
        r = symmetrize(oracles.random_rule(rng, 3))
        kern = oracles.random_kernel(rng, 2)
        traj = integrate(r, kern, 0.5, h=2e-3)
        assert all(state.is_graphon for state in traj.states)
        # the integrator skips validation; every state would pass it
        assert all(StepKernel(s.weights, s.values) == s for s in traj.states)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.randoms(use_true_random=False),
       st.floats(min_value=0.0, max_value=1.0))
def test_one_part_scalar_path_matches_grid(k, rng, p):
    # the one-part loop runs on Python floats; a 2-part kernel with all
    # values p is the same graphon and goes through the grid path
    r = symmetrize(oracles.random_rule(rng, k))
    whole = integrate(r, constant_kernel(p), 0.0205, h=1e-3)
    split = integrate(r, StepKernel((F(1, 2), F(1, 2)), ((p, p), (p, p))),
                      0.0205, h=1e-3)
    assert whole.times == split.times
    for a, b in zip(whole.states, split.states):
        assert all(abs(a.values[0][0] - v) <= 1e-12 for v in _flat(b))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1e-3, 7e-3, 0.05, 0.3]), st.integers(0, 30),
       st.floats(min_value=0.01, max_value=0.99),
       st.lists(st.floats(min_value=-2.0, max_value=12.0), max_size=10))
def test_nearest_state_matches_scan(h, n, frac, extra):
    traj = integrate(make_named("identity", 2), constant_kernel(0.5),
                     (n + frac) * h, h=h)
    times = traj.times
    assert len(times) == n + 2  # a short final step
    queries = [-1.0, -h / 2, times[-1] + h / 3, times[-1] + 5.0] + extra
    queries += list(times)
    queries += [(a + b) / 2 for a, b in zip(times, times[1:])]
    states = traj.states
    for t in queries:
        assert traj.nearest_state(t) is states[oracles.nearest_index(times, t)]


def test_trajectory_states_are_built_once():
    kern = StepKernel((F(1, 3), F(2, 3)), ((F(1, 2), F(1, 5)), (F(1, 5), 0)))
    traj = integrate(TR, kern, 0.01, h=1e-3)
    first = traj.states
    assert traj.states[0] is kern
    assert all(a is b for a, b in zip(first, traj.states))
    assert traj.final is first[-1]
    assert traj.nearest_state(0.0052) is first[5]


def test_trajectory_pickles():
    rng = random.Random(47)
    traj = integrate(symmetrize(oracles.random_rule(rng, 3)),
                     oracles.random_kernel(rng, 3), 0.0105, h=1e-3)
    blob = pickle.dumps(traj)
    again = pickle.loads(blob)
    assert again.times == traj.times and again.states == traj.states
    assert again.to_csv() == traj.to_csv()
    # the pickle does not depend on which states were built
    assert pickle.dumps(traj) == blob == pickle.dumps(again)


def test_trajectory_csv_formats_each_state():
    rng = random.Random(53)
    traj = integrate(symmetrize(oracles.random_rule(rng, 3)),
                     oracles.random_kernel(rng, 3), 0.0105, h=1e-3)
    lines = ["t,w_1_1,w_1_2,w_1_3,w_2_2,w_2_3,w_3_3"]
    for t, state in zip(traj.times, traj.states):
        row = [repr(float(t))]
        for i in range(3):
            for j in range(i, 3):
                row.append(repr(float(state.values[i][j])))
        lines.append(",".join(row))
    assert traj.to_csv() == "\n".join(lines) + "\n"


def test_trajectory_csv():
    kern = StepKernel((F(1, 2), F(1, 2)), ((0.1, 0.2), (0.2, 0.3)))
    traj = integrate(make_named("identity", 2), kern, 2e-3, h=1e-3)
    lines = traj.to_csv().splitlines()
    assert lines[0] == "t,w_1_1,w_1_2,w_2_2"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0.0" and [float(v) for v in first[1:]] == [0.1, 0.2, 0.3]


# ------------------------------------------------------------------ stability

def test_lipschitz_constant_values():
    assert lipschitz_constant(1) == 0.0
    assert lipschitz_constant(2) == 4.0
    assert lipschitz_constant(3) == 144.0
    assert lipschitz_constant(4) == 4608.0
    with pytest.raises(ValueError):
        lipschitz_constant(0)


def test_velocity_lipschitz_bound():
    rng = random.Random(29)
    for _ in range(200):
        k = rng.randint(2, 4)
        m = rng.randint(1, 3)
        r = oracles.random_rule(rng, k)
        k1 = oracles.random_kernel(rng, m)
        bumped = [[min(1.0, max(0.0, v + rng.uniform(-0.2, 0.2)))
                   for v in row] for row in k1.values]
        k2 = StepKernel(k1.weights, tuple(
            tuple((bumped[i][j] + bumped[j][i]) / 2 for j in range(m))
            for i in range(m)
        ))
        lhs = _dev(velocity(r, k1), velocity(r, k2))
        rhs = lipschitz_constant(k) * max_block_dev(k1, k2)
        assert lhs <= rhs + 1e-9
    # the bound compares kernels on the same parts only
    halves = StepKernel((F(1, 2), F(1, 2)), ((0.25, 0.5), (0.5, 1.0)))
    for other in (constant_kernel(0.25),
                  StepKernel((F(1, 3), F(2, 3)), ((0.25, 0.5), (0.5, 1.0)))):
        with pytest.raises(ValueError, match="different partitions"):
            max_block_dev(halves, other)


def test_short_time_drift_bound():
    # between nearby times the state moves at most k(k-1) per unit time
    rng = random.Random(31)
    for delta in (1e-2, 1e-3):
        for _ in range(5):
            k = rng.randint(2, 3)
            r = symmetrize(oracles.random_rule(rng, k))
            kern = oracles.random_kernel(rng, 2)
            h = 1e-3
            traj = integrate(r, kern, 0.2 + delta, h=h)
            a = traj.nearest_state(0.2)
            b = traj.nearest_state(0.2 + delta)
            assert _dev(a, b) <= k * (k - 1) * delta + 10 * h ** 4


def test_semigroup_property():
    rng = random.Random(37)
    for s, t in ((0.1, 0.1), (0.1, 0.5), (0.5, 0.1)):
        r = symmetrize(oracles.random_rule(rng, 3))
        kern = oracles.random_kernel(rng, 2)
        h = 3e-3
        once = integrate(r, kern, s + t, h=h).final
        first = integrate(r, kern, s, h=h).final
        twice = integrate(r, first, t, h=h).final
        assert _dev(once, twice) <= 1e-6


# -------------------------------------------------------------- serialization

def test_kernel_json_round_trip():
    kern = StepKernel((F(1, 3), F(2, 3)), ((0.25, 0.5), (0.5, 1.0)))
    again = kernel_from_json(kernel_to_json(kern))
    assert again == kern
    # numpy floats of every width are written as their exact fractions
    for dtype in (np.float16, np.float32, np.float64):
        kern = StepKernel((dtype(0.25), dtype(0.75)), ((0.25, 0.5), (0.5, 1.0)))
        assert kernel_from_json(kernel_to_json(kern)) == kern
        assert json.loads(kernel_to_json(kern))["weights"] == ["1/4", "3/4"]
    with pytest.raises(ValueError):
        kernel_from_json('{"weights": ["1"], "values": [[0.5]], "x": 1}')
    # an integer weight is exact
    assert kernel_from_json('{"weights": [1], "values": [[0.5]]}') == constant_kernel(0.5)
    # a block value is a JSON number, not a string or a boolean
    for value in ('"0.5"', "true"):
        with pytest.raises(ValueError, match="block values must be numbers"):
            kernel_from_json('{"weights": ["1"], "values": [[%s]]}' % value)


def test_kernel_equality_hash_and_repr():
    kern = StepKernel((F(1, 3), F(2, 3)), ((0.25, 0.5), (0.5, 1.0)))
    same = StepKernel((F(1, 3), F(2, 3)), ((0.25, 0.5), (0.5, 1.0)))
    assert kern == same and len({kern, same}) == 1
    assert kern != kern.values and kern.__eq__(0.5) is NotImplemented
    assert repr(kern) == "StepKernel(parts=2, graphon=True)"
    assert repr(constant_kernel(1.5)) == "StepKernel(parts=1, graphon=False)"


@pytest.mark.parametrize("weights, values, match", [
    ((), (), "at least one part"),
    ((F(3, 2), F(-1, 2)), ((0.5, 0.5), (0.5, 0.5)), "negative part weight"),
    ((F(1, 3), F(1, 3)), ((0.5, 0.5), (0.5, 0.5)), "sum to 2/3"),
    ((0.5, 0.5 + 1e-11), ((0.5, 0.5), (0.5, 0.5)), "sum to 1.00000000001"),
    ((F(1, 2), F(1, 2)), ((0.5, 0.5),), "2x2"),
    ((F(1, 2), F(1, 2)), ((0.5, 0.5), (0.5,)), "2x2"),
    ((F(1, 2), F(1, 2)), ((0.5, 0.1), (0.2, 0.5)), "not symmetric"),
    ((True,), ((True,),), "part weights must be numbers, got True"),
    ((1,), ((True,),), "block values must be numbers, got True"),
    (("1",), ((0.5,),), "part weights must be numbers, got '1'"),
    ((1,), (("0.5",),), "block values must be numbers, got '0.5'"),
], ids=["no-parts", "negative-weight", "exact-sum", "float-sum", "short-matrix",
        "ragged-matrix", "asymmetric", "bool-weight", "bool-value", "string-weight",
        "string-value"])
def test_kernel_rejects_malformed_parts_and_values(weights, values, match):
    with pytest.raises(ValueError, match=match):
        StepKernel(weights, values)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kernel_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="non-finite block value"):
        StepKernel((F(1, 2), F(1, 2)), ((0.5, bad), (bad, 0.5)))
    with pytest.raises(ValueError, match="non-finite part weight"):
        StepKernel((bad, 0.5), ((0.5, 0.5), (0.5, 0.5)))
    text = '{"weights": ["1"], "values": [[%s]]}' % json.dumps(bad)
    with pytest.raises(ValueError, match="non-finite"):
        kernel_from_json(text)


# ------------------------------------------------------------- density formula

def test_density_formula_single_root():
    base = RootedGraph([1, 2], [(1, 2)], roots=(1,))
    g = RootedGraph("ab", [("a", "b")])
    num, comb = density_formula_check(base, {1: 2, 2: 1}, g,
                                      {"a": F(1, 3), "b": F(2, 3)}, "a", "a")
    assert num == comb == F(2, 3)


def test_density_formula_two_roots():
    base = RootedGraph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)], roots=(1, 4))
    g = RootedGraph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    num, comb = density_formula_check(base, {v: 1 for v in range(1, 5)}, g,
                                      {v: F(1, 3) for v in "abc"}, "a", "b")
    assert num == comb == 0


def test_density_formula_excess_roots_forces_zero():
    base = RootedGraph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)], roots=(1, 4))
    g = RootedGraph("ab", [("a", "b")])
    num, comb = density_formula_check(base, {v: 1 for v in range(1, 5)}, g,
                                      {"a": F(1, 2), "b": F(1, 2)}, "a", "a")
    assert num == comb == 0


def test_density_formula_rejects_uncovered_shapes():
    k2 = RootedGraph("ab", [("a", "b")])
    base1 = RootedGraph([1, 2], [(1, 2)], roots=(1,))
    with pytest.raises(ValueError):
        # one root against two targets
        density_formula_check(base1, {1: 2, 2: 1}, k2,
                              {"a": F(1, 2), "b": F(1, 2)}, "a", "b")
    g3 = RootedGraph("abc", [("a", "b"), ("b", "c")])
    with pytest.raises(ValueError, match="G must be twinfree"):
        # a and c of the path are twins
        density_formula_check(base1, {1: 2, 2: 1}, g3,
                              {v: F(1, 3) for v in "abc"}, "a", "a")
    with pytest.raises(ValueError, match="reduced non-root count"):
        # the base's non-root twins its root, so its reduced count is 0;
        # doubling vertex 1 of K2 twins 1 with its copy, leaving 1
        density_formula_check(RootedGraph([1, 2], [], roots=(1,)), {1: 2, 2: 1},
                              RootedGraph([1, 2], [(1, 2)]), {1: F(1, 2), 2: F(1, 2)}, 1, 1)
    with pytest.raises(ValueError):
        density_formula_check(base1, {1: 1, 2: 1}, k2,
                              {"a": F(1, 2), "b": F(1, 2)}, "a", "a")


_BASE = RootedGraph([1, 2], [(1, 2)], roots=(1,))
_EDGE = RootedGraph("ab", [("a", "b")])


@pytest.mark.parametrize("base, m, g, z, x, match", [
    (RootedGraph([1, 2, 3], [(1, 2), (1, 3)], roots=(1,)), {1: 2, 2: 1, 3: 1}, _EDGE,
     None, "a", "base graph must be twinfree"),
    (_BASE, {1: 2, 2: 1}, RootedGraph("ab", [("a", "b")], roots=("a",)), None, "a",
     "G must be unrooted"),
    (_BASE, {1: 2, 2: 1}, RootedGraph("abc", [("a", "b"), ("a", "c")]),
     {v: F(1, 3) for v in "abc"}, "a", "G must be twinfree"),
    (_BASE, {1: 2}, _EDGE, None, "a", "indexed by the base vertices"),
    (_BASE, {1: 2, 2: 0}, _EDGE, None, "a", "multiplicity must be an integer"),
    (_BASE, {1: 2, 2: 1.0}, _EDGE, None, "a", "multiplicity must be an integer"),
    (_BASE, {1: 1, 2: 1}, _EDGE, None, "a", "total root multiplicity must be 2"),
    (_BASE, {1: 2, 2: 1}, _EDGE, {"a": F(1)}, "a", "keyed by the vertices of G"),
    (_BASE, {1: 2, 2: 1}, _EDGE, None, "c", "x and y must be vertices of G"),
], ids=["base-twins", "rooted-G", "G-twins", "m-keys", "m-zero", "m-float",
        "root-mass", "z-keys", "x-outside"])
def test_density_formula_rejects_bad_inputs(base, m, g, z, x, match):
    z = {"a": F(1, 3), "b": F(2, 3)} if z is None else z
    with pytest.raises(ValueError, match=match):
        density_formula_check(base, m, g, z, x, "a")


def test_density_formula_isolated_vertex_kills_embeddings():
    # the isolated non-root admits no induced image in the doubled edge,
    # and the numeric side vanishes to match
    base = RootedGraph([1, 2, 3], [(1, 2)], roots=(1,))
    k2 = RootedGraph("ab", [("a", "b")])
    num, comb = density_formula_check(base, {1: 2, 2: 1, 3: 1}, k2,
                                      {"a": F(1, 2), "b": F(1, 2)}, "a", "a")
    assert num == comb == 0


def _random_twinfree_graph(rng, lo, hi, roots=0):
    while True:
        n = rng.randint(lo, hi)
        g = oracles.random_rooted_graph(rng, n, roots=min(roots, n),
                                        p=rng.choice([0.3, 0.5, 0.7]))
        if len(g.roots) == roots and is_twinfree(g):
            return g


def test_density_formula_random_instances():
    rng = random.Random(41)
    nonzero = 0
    for trial in range(40):
        g = _random_twinfree_graph(rng, 2, 4)
        parts = sorted(g.vertices)
        if trial % 5 == 0:
            x = y = rng.choice(parts)
        else:
            x, y = rng.sample(parts, 2) if len(parts) > 1 else (parts[0],) * 2
        targets = 1 if x == y else 2
        need = len(parts) - targets
        while True:
            base = _random_twinfree_graph(
                rng, targets + need, targets + need + 1, roots=targets)
            # a root/non-root twin pair survives the quotient but still
            # shrinks the reduced count, so filter on vstar directly
            if vstar(base) >= need:
                break
        m = {v: 1 for v in base.vertices}
        if targets == 1:
            m[base.roots[0]] = 2
        for v in base.nonroots():
            if rng.random() < 0.3:
                m[v] = 2
        z = dict(zip(parts, oracles.random_fractions(rng, len(parts))))
        num, comb = density_formula_check(base, m, g, z, x, y)
        assert num == comb
        nonzero += num != 0
    assert nonzero > 0


def test_density_formula_float_weights():
    base = RootedGraph([1, 2], [(1, 2)], roots=(1,))
    g = RootedGraph("ab", [("a", "b")])
    num, comb = density_formula_check(base, {1: 2, 2: 1}, g,
                                      {"a": 0.25, "b": 0.75}, "a", "a")
    assert float(num) == pytest.approx(0.75, abs=1e-12)
