"""flipproc benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from a flipproc source checkout without an install: it puts the
checkout's ``src`` on its own import path and on every child's PYTHONPATH,
and runs the CLI as ``python -m flipproc.cli``.  One process, no threads,
at most one child process at a time.

--trace 0 measures the end-to-end metrics, timing the reference probe
of reference.py between jobs and scaling job times to its reference
speed; --trace 1 alternates untraced and traced passes and reports the
per-layer metrics.  Every output is
checked outside the timed region; a job that raises or fails its check
counts as failed.  The second-to-last line of standard output is a full
report (environment, sample counts, failures), the last line the result:
{"correct", "attempted", "failed", "metrics"}.  Traced runs also write
their spans to .perfbench-traces/ in the checkout.  See README.md here.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import tracer
from reference import Probe
from workloads import STEP_REGIMES, WORKLOADS, child_env, spawn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 9
IMPORT_SAMPLES = 3

END_TO_END = {
    "setup_s": "s",
    "ref_wall_s": "s",
    "peak_rss_mb": "MB",
    "ref_job_p50_ms": "ms",
    "ref_job_p90_ms": "ms",
    "ref_jobs_per_s": "1/s",
}

PER_LAYER = {
    "codes.enumerate_classes.calls": "count",
    "codes.enumerate_classes.self_s": "s",
    "codes.enumerate_classes.rss_growth_mb": "MB",
    "codes.canonical_class.calls": "count",
    "codes.canonical_class.self_s": "s",
    "equivalence.coeff_vector.calls": "count",
    "equivalence.coeff_vector.self_s": "s",
    "equivalence.compare.calls": "count",
    "equivalence.compare.self_s": "s",
    "equivalence.lift.self_s": "s",
    "equivalence.symmetrize.self_s": "s",
    "equivalence.classify_unique.self_s": "s",
    "equivalence.census_per_compare": "ratio",
    "equivalence.compares_per_verdict": "ratio",
    "rules.is_symmetric.self_s": "s",
    "rules.load_rule.self_s": "s",
    "rules.validate.self_s": "s",
    "dynamics.velocity.calls": "count",
    "dynamics.velocity.self_s": "s",
    "dynamics.integrate.calls": "count",
    "dynamics.integrate.self_s": "s",
    "dynamics.rk4_steps": "count",
    "simulate.sample_graph.calls": "count",
    "simulate.sample_graph.self_s": "s",
    "simulate.block_densities.calls": "count",
    "simulate.block_densities.self_s": "s",
    "simulate.step_loop_s.triangle": "s",
    "simulate.step_loop_s.complementing": "s",
    "simulate.steps.triangle": "count",
    "simulate.steps.complementing": "count",
    "simulate.runs_passing": "count",
    "simulate.flip_steps_per_s": "1/s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="flipproc benchmark harness")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced inputs, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def build(args, workdir):
    """The workload's inputs and job list: everything set-up covers."""
    import flipproc

    ctx = SimpleNamespace(src=str(SRC), traced_cli=None, probe=None)
    jobs = WORKLOADS[args.workload](flipproc, args.seed, workdir, args.small, ctx)
    return ctx, jobs


def measure_setup(args):
    """Set-up time from process start until the inputs are built, once per
    fresh child; each child prints "ready" when its inputs exist."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--small"] if args.small else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed: {err.decode(errors='replace')[-500:]}")
        samples.append(t1 - t0)
    return samples


def measure_cli_import():
    code = ("import time; t = time.perf_counter(); import flipproc.cli; "
            "print(time.perf_counter() - t)")
    env = child_env(SRC)
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        samples.append(float(out))
    return statistics.median(samples)


def run_pass(jobs, spans=None, deadline=None, cost=None, probe=None):
    """Run the job list once, in order; returns [(job index, seconds,
    error, child rss)].  With a deadline, stop before a job whose usual
    cost (its median run-and-check-and-probe time so far, in `cost`) would
    end past it.  With a tracer, spans recorded by the output checks are
    dropped.  With a probe, the reference probe is timed after each job."""
    records = []
    for i, job in enumerate(jobs):
        if deadline is not None and time.perf_counter() + statistics.median(cost[i]) > deadline:
            break
        if spans is not None:
            spans.job = job.name
        t0 = time.perf_counter()
        try:
            out = job.run()
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            out = None
            error = f"{job.name}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if error is None:
            keep = len(spans.spans) if spans is not None else 0
            try:
                error = job.check(out)
            except Exception as exc:
                error = f"{job.name}: check raised {type(exc).__name__}: {exc}"
            if spans is not None:
                del spans.spans[keep:]
        if probe is not None:
            probe.after_job(elapsed)
        if cost is not None:
            cost.setdefault(i, []).append(time.perf_counter() - t0)
        records.append((i, elapsed, error, getattr(out, "maxrss_mb", None)))
    return records


def measure(jobs, ctx, seconds, traced, workdir):
    """Untraced: one full pass, then further passes while each next job is
    expected to finish within `seconds`; the last pass may stop part way.
    The reference probe runs between jobs of untraced runs.
    Traced: whole passes alternating untraced and traced, at least one of
    each, while the next pass is expected to finish within `seconds`.
    Returns the passes and the tracer or the probe."""
    start = time.perf_counter()
    if not traced:
        tracer.require_untraced()
        cost = {}
        probe = ctx.probe = Probe()
        passes = [("plain", run_pass(jobs, cost=cost, probe=probe), 0, 0)]
        while len(passes[-1][1]) == len(jobs):
            records = run_pass(jobs, deadline=start + seconds, cost=cost, probe=probe)
            if not records:
                break
            passes.append(("plain", records, 0, 0))
        ctx.probe = None
        tracer.require_untraced()
        return passes, probe

    spans = tracer.Tracer()

    def traced_cli(argv, env, out_path, err_path):
        spans_path = os.path.join(workdir, "cli-spans.json")
        if os.path.exists(spans_path):
            os.remove(spans_path)  # never adopt a previous op's spans
        res = spawn([sys.executable, str(HERE / "cli_traced.py"), spans_path] + argv,
                    env, out_path, err_path)
        with open(spans_path, encoding="utf-8") as fh:
            spans.adopt(json.load(fh))
        return res

    passes = []
    durations = []
    while True:
        t0 = time.perf_counter()
        if len(passes) % 2 == 0:
            tracer.require_untraced()
            passes.append(("plain", run_pass(jobs), 0, 0))
        else:
            lo = len(spans.spans)
            spans.install()
            ctx.traced_cli = traced_cli
            try:
                records = run_pass(jobs, spans)
            finally:
                ctx.traced_cli = None
                spans.uninstall()
            passes.append(("traced", records, lo, len(spans.spans)))
        durations.append(time.perf_counter() - t0)
        if len(passes) >= 2 and time.perf_counter() - start + statistics.median(durations) > seconds:
            return passes, spans


def wall(records):
    return sum(r[1] for r in records)


def end_to_end(passes, setup, speed):
    """A job's latency is its median over the run; a pass is the sum of
    its jobs' latencies, so a last, partial pass still counts.  The ref_
    metrics are times scaled by `speed` to the reference speed; the raw
    times go to the report as well."""
    by_job = {}
    for _, records, _, _ in passes:
        for i, elapsed, _, _ in records:
            by_job.setdefault(i, []).append(elapsed)
    latency = [statistics.median(times) for times in by_job.values()]
    child_rss = [r[3] for _, records, _, _ in passes for r in records if r[3] is not None]
    if child_rss:
        peak = statistics.median(child_rss)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p90 = (statistics.quantiles(latency, n=10, method="inclusive")[8]
           if len(latency) > 1 else latency[0])
    raw = {
        "wall_s": sum(latency),
        "job_p50_ms": 1000.0 * statistics.median(latency),
        "job_p90_ms": 1000.0 * p90,
        "jobs_per_s": len(latency) / sum(latency),
    }
    values = {
        "setup_s": statistics.median(setup),
        "ref_wall_s": raw["wall_s"] * speed,
        "peak_rss_mb": peak,
        "ref_job_p50_ms": raw["job_p50_ms"] * speed,
        "ref_job_p90_ms": raw["job_p90_ms"] * speed,
        "ref_jobs_per_s": raw["jobs_per_s"] / speed,
    }
    return values, raw


def layer_metrics(spans, selfs, lo, hi, pass_wall):
    """Per-layer metrics of one traced pass, from spans[lo:hi]."""
    m = {name: 0.0 for name in PER_LAYER}
    census_in_compare = compares_in_unique = 0
    top = run_time = 0.0
    for i in range(lo, hi):
        name, t0, t1, parent, job, extra = spans[i]
        if f"{name}.calls" in m:
            m[f"{name}.calls"] += 1
        if f"{name}.self_s" in m:
            m[f"{name}.self_s"] += selfs[i]
        if parent < 0:
            top += t1 - t0
        if name == "codes.enumerate_classes":
            m["codes.enumerate_classes.rss_growth_mb"] += extra
            census_in_compare += tracer.has_ancestor(spans, i, "equivalence.compare")
        elif name == "equivalence.compare":
            compares_in_unique += tracer.has_ancestor(spans, i, "equivalence.classify_unique")
        elif name == "dynamics.integrate":
            m["dynamics.rk4_steps"] += extra
        elif name == "simulate.run":
            regime = STEP_REGIMES[job]
            m[f"simulate.step_loop_s.{regime}"] += selfs[i]
            m[f"simulate.steps.{regime}"] += extra
            run_time += t1 - t0
        elif name == "simulate.transference_check":
            m["simulate.runs_passing"] += extra
    compares = m["equivalence.compare.calls"]
    verdicts = sum(1 for i in range(lo, hi) if spans[i][0] == "equivalence.classify_unique")
    steps = m["simulate.steps.triangle"] + m["simulate.steps.complementing"]
    m["equivalence.census_per_compare"] = census_in_compare / compares if compares else 0.0
    m["equivalence.compares_per_verdict"] = compares_in_unique / verdicts if verdicts else 0.0
    m["simulate.flip_steps_per_s"] = steps / run_time if run_time else 0.0
    m["trace.unattributed_s"] = pass_wall - top
    return m


def per_layer(passes, spans):
    selfs = tracer.self_times(spans.spans)
    plain = statistics.median(wall(r) for kind, r, _, _ in passes if kind == "plain")
    rows = []
    for kind, records, lo, hi in passes:
        if kind == "traced":
            row = layer_metrics(spans.spans, selfs, lo, hi, wall(records))
            row["trace.overhead_s"] = wall(records) - plain
            rows.append(row)
    out = {name: statistics.median(row[name] for row in rows) for name in PER_LAYER}
    out["cli.import_s"] = measure_cli_import()
    return out


def git_commit():
    """HEAD of the checkout's own git directory, read without running git;
    None when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "flipproc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "seed": args.seed,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine": os.uname().machine,
    }


def write_spans(args, spans, env):
    out_dir = ROOT / ".perfbench-traces"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "environment": env,
                   "fields": ["name", "start", "end", "parent", "job", "extra"],
                   "spans": spans.spans}, fh)
    return path


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "flipproc" / "__init__.py").is_file():
        print(f"perfbench: no flipproc sources at {SRC}; run it from a flipproc "
              f"source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.setup_probe:
            build(args, workdir)
            print("ready", flush=True)
            return 0
        setup = [] if args.trace else measure_setup(args)
        ctx, jobs = build(args, workdir)
        passes, aux = measure(jobs, ctx, args.seconds, args.trace, workdir)
        tracer.require_untraced()
        env = environment(args)
        raw = reference = None
        if args.trace:
            values, units = per_layer(passes, aux), PER_LAYER
            trace_file = str(write_spans(args, aux, env).relative_to(ROOT))
        else:
            values, raw = end_to_end(passes, setup, aux.speed())
            units = END_TO_END
            reference = {"median_s": statistics.median(aux.samples),
                         "min_s": min(aux.samples), "samples": len(aux.samples)}
            trace_file = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for _, recs, _, _ in passes for r in recs]
    errors = [r[2] for r in records if r[2] is not None]
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "passes": [kind for kind, _, _, _ in passes],
        "jobs_per_pass": len(jobs),
        "job_samples": len(records),
        "setup_samples": setup,
        "raw_times": raw,
        "reference_probe": reference,
        "fail_ratio": len(errors) / len(records),
        "failures": errors[:10],
        "trace_file": trace_file,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(records),
        "failed": len(errors),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
