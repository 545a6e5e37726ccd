"""Smoke test of the benchmark harness at reduced inputs.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_emitted_without_failures(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    assert report["fail_ratio"] == 0, report["failures"]
    assert {"seed", "git_commit", "python", "numpy", "nproc", "cpu_model"} <= set(
        report["environment"])

    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
    elif workload == "cli-compare-k6":
        assert values["codes.enumerate_classes.calls"] == 2
        assert values["equivalence.census_per_compare"] == 2.0


def test_refuses_to_run_without_sources():
    # a directory holding only the benchmark, inside the checkout
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _bench("trajectory", 0, cwd=bare, script=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_binds_every_importing_module_and_restores():
    import flipproc.cli
    import flipproc.equivalence

    original = flipproc.codes.enumerate_classes
    spans = tracer.Tracer()
    spans.install()
    try:
        assert flipproc.equivalence.enumerate_classes is flipproc.codes.enumerate_classes
        assert flipproc.equivalence.enumerate_classes is not original
        assert flipproc.cli.compare is flipproc.equivalence.compare
        with pytest.raises(RuntimeError):
            tracer.require_untraced()
        flipproc.cli.compare(flipproc.make_named("triangle-removal", 3),
                             flipproc.make_named("triangle-edge-removal", 3))
    finally:
        spans.uninstall()
    assert flipproc.equivalence.enumerate_classes is original
    tracer.require_untraced()
    names = [s[0] for s in spans.spans]
    assert names.count("equivalence.compare") == 1
    assert names.count("codes.enumerate_classes") == 2
