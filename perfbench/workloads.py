"""The four benchmark workloads: seeded inputs, job lists and output checks.

Every workload is a closed loop with one caller: the harness runs a
workload's jobs one after another, each starting when the previous one has
finished, and repeats the whole list as often as the run length allows.
Inputs come only from the generators here, seeded by the harness's
``--seed``.  Jobs call flipproc through attributes of the ``flipproc``
package at call time, so that a traced run sees its wrappers.

A job is (name, run, check): ``run()`` is the timed call, ``check(out)``
runs afterwards, outside the timed region, and returns None or a failure
message.
"""

import hashlib
import json
import math
import os
import pickle
import random
import select
import sys
from collections import namedtuple
from fractions import Fraction

Job = namedtuple("Job", "name run check")

# Expected census sizes for the CLI compare check (pair-rooted orbit
# classes at each order), so the check does not trust the program's own
# census.
CLASS_COUNTS = {4: 40, 5: 240, 6: 1992}


def verified_once(check):
    """The check, run only on outputs unlike every output that passed it
    before: an output equal to one that passed is correct as well.  Jobs
    are deterministic, so from the second pass on their checks cost a
    digest instead of taking measuring time from the run.  Outputs are
    remembered by the SHA-256 of their pickle, not kept, so that they add
    nothing to the run's peak RSS; an equal output that pickles otherwise
    is simply checked again."""
    passed = set()

    def cached(out):
        digest = hashlib.sha256(pickle.dumps(out)).digest()
        if digest in passed:
            return None
        problem = check(out)
        if problem is None:
            passed.add(digest)
        return problem

    return cached


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def random_rule(fp, rng, k, rows, supports):
    """A valid random sparse rule with explicit rows on the given graphs,
    row i a random distribution over supports[i] replacement graphs.  The
    shape is the caller's, so that a job's cost varies little with the
    seed; the graphs and weights are random."""
    space = 1 << (k * (k - 1) // 2)
    entries = {}
    for f, size in zip(rows, supports):
        support = rng.sample(range(space), size)
        weights = [rng.randint(1, 12) for _ in support]
        total = sum(weights)
        for h, w in zip(support, weights):
            entries[(f, h)] = Fraction(w, total)
    return fp.Rule(k, entries)


def random_kernel(fp, rng, m):
    """A step graphon on m parts: random exact part weights, block values
    uniform in [0, 1]."""
    weights = [rng.randint(1, 12) for _ in range(m)]
    total = sum(weights)
    vals = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            vals[i][j] = vals[j][i] = rng.random()
    return fp.StepKernel([Fraction(w, total) for w in weights], vals)


# ------------------------------------------------------------- certify-k5

def certify_k5(fp, seed, workdir, small, ctx):
    """Many small exact certificates in one warm library session."""
    rng = _rng("certify-k5", seed)
    jobs = []
    for i in range(6 if small else 99):
        # orders cycle 3, 4, 5; at each order the shapes cycle through 1 to
        # 4 rows of 1 to 4 replacements, the same for every seed
        k, j = 3 + i % 3, i // 3
        rows = rng.sample(range(1 << (k * (k - 1) // 2)), 1 + j % 4)
        supports = [1 + (j // 4 + r) % 4 for r in range(len(rows))]
        jobs.append(_certify_job(fp, f"random-k{k}", random_rule(fp, rng, k, rows, supports)))

    tr = fp.make_named("triangle-removal", 3)
    ext5 = fp.make_named("extremist", 5)
    comp5 = fp.make_named("complementing", 5)
    clique5 = fp.make_named("clique-removal", 5)

    def check_lift(verdict):
        if not verdict.equivalent or verdict.order != 5:
            return "lift(triangle-removal, 5) is not equivalent to triangle-removal"
        return None

    def check_extremist(verdict):
        if not verdict.unique or verdict.reason != "symmetric-deterministic":
            return f"extremist 5 classified as {verdict.reason}"
        return None

    def check_symmetrize(sym):
        if not fp.is_symmetric(sym):
            return "symmetrize(complementing 5) is not symmetric"
        if not fp.compare(sym, comp5).equivalent:
            return "symmetrize(complementing 5) is not equivalent to its input"
        return None

    def check_clique(cv):
        # K5 rooted at any ordered pair is one class of 20 members; each
        # member loses its root pair: coefficient -20, all others zero
        nonzero = cv.nonzero()
        if len(cv.classes) != 240 or len(nonzero) != 1:
            return f"clique-removal 5: {len(cv.classes)} classes, {len(nonzero)} nonzero"
        cls, coeff = nonzero[0]
        if cls.canon.graph.bits != (1 << 10) - 1 or cls.size != 20 or coeff != -20:
            return f"clique-removal 5: unexpected nonzero class {cls} = {coeff}"
        return None

    jobs += [
        Job("lift-compare-k5", lambda: fp.compare(fp.lift(tr, 5), tr), check_lift),
        Job("unique-extremist-k5", lambda: fp.classify_unique(ext5), check_extremist),
        Job("symmetrize-complementing-k5", lambda: fp.symmetrize(comp5),
            verified_once(check_symmetrize)),
        Job("coeffs-clique-k5", lambda: fp.coeff_vector(clique5), check_clique),
    ]
    return jobs


def _certify_job(fp, name, rule):
    def run():
        return fp.coeff_vector(rule), fp.classify_unique(rule)

    def check(out):
        cv, verdict = out
        if verdict.unique:
            if fp.is_symmetric(rule) and fp.is_deterministic(rule):
                return None
            return f"{name}: unique verdict for a rule that is not symmetric and deterministic"
        w = verdict.witness
        if w is None:
            return f"{name}: non-unique verdict without a witness"
        if fp.rule_problems(w):
            return f"{name}: invalid witness"
        if w == rule:
            return f"{name}: witness equals the rule"
        # compare decides equal-order rules by equality of their exact
        # certificates; the rule's own certificate is the job's output
        if fp.coeff_vector(w) != cv:
            return f"{name}: witness is not compare-equivalent to the rule"
        return None

    return Job(name, run, verified_once(check))


# --------------------------------------------------------- cli-compare-k6

CliResult = namedtuple("CliResult", "returncode stdout stderr maxrss_mb")


def spawn(argv, env, stdout_path, stderr_path, while_waiting=None):
    """Run one child to completion; its peak RSS comes from its own rusage.
    While it runs, `while_waiting()` is called whenever the child has not
    ended within the pause the previous call returned."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        if while_waiting is not None:
            pidfd = os.pidfd_open(pid)
            try:
                while not select.select([pidfd], [], [], while_waiting())[0]:
                    pass
            finally:
                os.close(pidfd)
    finally:
        _, status, usage = os.wait4(pid, 0)
    with open(stdout_path, encoding="utf-8") as fh:
        out = fh.read()
    with open(stderr_path, encoding="utf-8") as fh:
        err = fh.read()
    return CliResult(os.waitstatus_to_exitcode(status), out, err, usage.ru_maxrss / 1024.0)


def child_env(src):
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    return env


def cli_compare_k6(fp, seed, workdir, small, ctx):
    """A cold `python -m flipproc.cli compare` of lift(triangle-removal, 6)
    against triangle-removal.  The inputs are fixed; the seed changes
    nothing here.  While ctx.traced_cli is set, the op runs in a traced
    child through it instead, with the same arguments and result.  While
    ctx.probe is set, the reference probe samples the host during the op."""
    k = 4 if small else 6
    tr = fp.make_named("triangle-removal", 3)
    tr_path = os.path.join(workdir, "tr.json")
    big_path = os.path.join(workdir, f"tr{k}.json")
    fp.save_rule(tr, tr_path)
    fp.save_rule(fp.lift(tr, k), big_path)
    argv = ["compare", big_path, tr_path]
    env = child_env(ctx.src)
    out_path = os.path.join(workdir, "cli.out")
    err_path = os.path.join(workdir, "cli.err")

    def run():
        if ctx.traced_cli is not None:
            return ctx.traced_cli(argv, env, out_path, err_path)
        return spawn([sys.executable, "-m", "flipproc.cli"] + argv, env, out_path, err_path,
                     ctx.probe.during_wait if ctx.probe is not None else None)

    def check(res):
        if res.returncode != 0:
            return f"cli exit {res.returncode}: {res.stderr.strip()[-300:]}"
        obj = json.loads(res.stdout)
        if obj.get("equivalent") is not True:
            return "cli compare: not equivalent"
        sizes = [len(c) for c in obj["certificates"]]
        if sizes != [CLASS_COUNTS[k]] * 2:
            return f"cli compare: certificate sizes {sizes}, expected {CLASS_COUNTS[k]}"
        return None

    return [Job(f"cli-compare-k{k}", run, check)]


# -------------------------------------------------------------- trajectory

def trajectory(fp, seed, workdir, small, ctx):
    """Integrations and velocity calls only: grids from the one-part fast
    path up to 6 parts at order 5.  Horizons are chosen so that each job
    takes about a second or less."""
    rng = _rng("trajectory", seed)
    scale = 0.1 if small else 1.0
    h = 1e-3
    # explicit rows on all 20 three-edge graphs, a union of orbits, so the
    # symmetrized rule has 20 rows and the same integration cost for every
    # seed
    three_edges = [f for f in range(64) if f.bit_count() == 3]
    r4 = fp.symmetrize(random_rule(fp, rng, 4, three_edges,
                                   [1 + r % 4 for r in range(len(three_edges))]))
    k3 = random_kernel(fp, rng, 3)
    p = rng.uniform(0.2, 0.95)
    q = rng.uniform(0.05, 0.95)
    tr = fp.make_named("triangle-removal", 3)
    comp3 = fp.make_named("complementing", 3)
    ext5 = fp.make_named("extremist", 5)
    m_a, m_b = (3, 2) if small else (6, 4)
    k6a = random_kernel(fp, rng, m_a)
    k4b = random_kernel(fp, rng, m_b)
    k2 = random_kernel(fp, rng, 2)
    horizon = 2.0 * scale
    ext_steps = 2 if small else 5

    def trajectory_check(expected_steps, closed_form=None):
        def check(traj):
            if len(traj.times) - 1 != expected_steps:
                return f"{len(traj.times) - 1} RK4 steps, expected {expected_steps}"
            for t, st in zip(traj.times, traj.states):
                for row in st.values:
                    for v in row:
                        if not 0.0 <= v <= 1.0:
                            return f"state left [0, 1] at t={t}: {v}"
                if closed_form is not None:
                    dev = abs(float(st.values[0][0]) - closed_form(t))
                    if dev > 1e-6:
                        return f"closed form off by {dev:.3e} at t={t}"
            return None
        return check

    def velocity_check(m):
        def check(vel):
            vals = vel.values
            if len(vals) != m:
                return f"velocity has {len(vals)} parts, expected {m}"
            for i in range(m):
                for j in range(m):
                    if not math.isfinite(vals[i][j]) or vals[i][j] != vals[j][i]:
                        return f"velocity not finite and symmetric at ({i}, {j})"
            return None
        return check

    t_r4 = 0.25 * scale
    n_r4 = int(round(t_r4 / h))
    n_closed = int(round(horizon / h))
    return [
        Job("integrate-sym-k4-3part",
            lambda: fp.integrate(r4, k3, t_r4, h),
            trajectory_check(n_r4)),
        Job("integrate-triangle-closed-form",
            lambda: fp.integrate(tr, fp.constant_kernel(p), horizon, h),
            trajectory_check(n_closed, lambda t: p / math.sqrt(1 + 12 * p * p * t))),
        Job("integrate-complementing-closed-form",
            lambda: fp.integrate(comp3, fp.constant_kernel(q), horizon, h),
            trajectory_check(n_closed, lambda t: 0.5 + (q - 0.5) * math.exp(-12 * t))),
        Job("velocity-extremist-k5-6part", lambda: fp.velocity(ext5, k6a), velocity_check(m_a)),
        Job("velocity-extremist-k5-4part", lambda: fp.velocity(ext5, k4b), velocity_check(m_b)),
        Job("integrate-extremist-k5-2part",
            lambda: fp.integrate(ext5, k2, ext_steps * h, h),
            trajectory_check(ext_steps)),
    ]


# ---------------------------------------------------------------- simulate

# simulate jobs by step-loop regime, for the per-layer step-loop metrics
STEP_REGIMES = {"transference-triangle": "triangle", "run-complementing": "complementing"}


def simulate(fp, seed, workdir, small, ctx):
    """The step loop in two regimes: triangle removal, where most steps
    become idle, and complementing, where every step toggles three pairs.
    Sizes are chosen so that each job takes well under a second, and the
    run samples the host's speed between many short jobs."""
    rng = _rng("simulate", seed)
    tr = fp.make_named("triangle-removal", 3)
    comp3 = fp.make_named("complementing", 3)
    n_tr, t_tr = (100, 0.1) if small else (200, 0.5)
    n_co, t_co = (300, 0.05) if small else (1000, 0.05)
    tr_seed = rng.getrandbits(63)
    co_seed = rng.getrandbits(63)
    # two equal parts with block values p and 1 - p: a seeded start whose
    # edge density, and with it the cost of sampling it, is 1/2 for every
    # seed
    p = rng.uniform(0.1, 0.9)
    k2 = fp.StepKernel([Fraction(1, 2)] * 2, [[p, 1 - p], [1 - p, p]])
    co_config = fp.SimConfig(rule=comp3, n=n_co, initial=k2, horizon=t_co, seed=co_seed)
    co_steps = int(t_co * n_co * n_co + 1e-9)

    def check_transference(out):
        report, result = out
        if report["runs_passing"] < 4 or not report["pass"]:
            return f"transference: {report['runs_passing']}/5 runs passing"
        problem = _densities_problem(result, t_tr)
        if problem:
            return problem
        # triangle removal only deletes edges
        for snapshots in result.samples:
            for before, after in zip(snapshots, snapshots[1:]):
                if after[0][0] > before[0][0]:
                    return "transference: edge density rose under triangle removal"
        return None

    def check_complementing(result):
        problem = _densities_problem(result, t_co)
        if problem:
            return problem
        # each complementing step toggles exactly three pairs, so the edge
        # count changes parity on every step
        start, _, sizes = fp.sample_graph(k2, n_co, random.Random(fp.run_seed(co_seed, 0)))
        e0 = sum(a.bit_count() for a in start) // 2
        e1 = _edge_count(result.samples[0][-1], sizes)
        if (e1 - e0 - co_steps) % 2 or abs(e1 - e0) > 3 * co_steps:
            return f"complementing: edge count {e0} -> {e1} after {co_steps} steps"
        return None

    return [
        Job("transference-triangle",
            lambda: fp.transference_check(tr, n_tr, fp.constant_kernel(0.8), t_tr, 0.05,
                                          seed=tr_seed, runs=5),
            verified_once(check_transference)),
        Job("run-complementing", lambda: fp.run(co_config),
            verified_once(check_complementing)),
    ]


def _densities_problem(result, horizon):
    """Samples at the schedule's times, the last one at the horizon, after
    floor(T n^2) steps; every density in [0, 1]."""
    if not result.times or abs(result.times[-1] - horizon) > 1e-12:
        return f"last sample at {result.times[-1:]}, expected {horizon}"
    for snapshots in result.samples:
        if len(snapshots) != len(result.times):
            return f"{len(snapshots)} snapshots for {len(result.times)} sample times"
        for snap in snapshots:
            for row in snap:
                for d in row:
                    if not 0.0 <= d <= 1.0:
                        return f"density {d} outside [0, 1]"
    return None


def _edge_count(densities, sizes):
    total = 0.0
    for i, si in enumerate(sizes):
        for j in range(i, len(sizes)):
            pairs = si * (si - 1) // 2 if i == j else si * sizes[j]
            total += densities[i][j] * pairs
    return int(round(total))


WORKLOADS = {
    "certify-k5": certify_k5,
    "cli-compare-k6": cli_compare_k6,
    "trajectory": trajectory,
    "simulate": simulate,
}
