"""Self-tests of the benchmark harness (about a minute).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Each workload gets two traced passes.  The first pass's outputs must pass
every check against ``reference.json`` and fail every check against a
perturbed copy of it; the exact counts of the two passes must be equal.
Between them, the workloads must produce every declared per-layer metric.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

import run_bench as rb

# per-layer quantities that are counts, not times: they must repeat exactly
EXACT = ("calls", "samples", "evaluations", "steps", "madds", "growth_hits",
         "replicates", "bytes", "fit_rate", "err_ratio")


def perturb(x):
    """Move every reference value far outside any check's tolerance, and
    make every list one element longer so that length checks fail too."""
    if isinstance(x, bool):
        return not x
    if isinstance(x, (int, float)):
        return -(1001 * abs(x) + 1000)
    if isinstance(x, str):
        return x + "-perturbed"
    if isinstance(x, list):
        out = [perturb(v) for v in x]
        return out + out[:1]
    return {k: perturb(v) for k, v in x.items()}


def traced_pass(workload, workdir):
    spans = workdir / "spans"
    spans.mkdir(exist_ok=True)
    p = rb.run_pass(workload, 0, workdir, spans)
    return p, rb.layer_metrics(p["span_files"], p["wall_s"], p["wall_s"])


@pytest.fixture(scope="module")
def first_pass(tmp_path_factory):
    """workload -> (workdir, pass, layer metrics) of one traced pass."""
    out = {}
    for workload in rb.WORKLOADS:
        workdir = tmp_path_factory.mktemp(workload)
        out[workload] = (workdir,) + traced_pass(workload, workdir)
    return out


@pytest.mark.parametrize("workload", rb.WORKLOADS)
def test_checks_and_exact_counts(workload, first_pass):
    reference = rb.load_reference()
    tmp_path, p, first = first_pass[workload]
    checks = rb.check_outputs(workload, tmp_path, p["exit_codes"], reference)
    assert checks and all(ok for _, ok in checks), checks

    bad = perturb(reference)
    checks = rb.check_outputs(workload, tmp_path, p["exit_codes"], bad)
    failed = sum(1 for _, ok in checks if not ok)
    assert failed / len(checks) == 1.0, [n for n, ok in checks if ok]

    _, second = traced_pass(workload, tmp_path)
    counts = sorted(k for k in first if k.rsplit(".", 1)[1] in EXACT)
    assert counts
    assert {k: first[k] for k in counts} == {k: second.get(k)
                                             for k in counts}


def test_every_declared_layer_metric_is_produced(first_pass):
    produced = {k for _, _, layers in first_pass.values() for k in layers}
    declared = {n for n, _ in rb.declared_metrics("per_layer")}
    assert declared <= produced, sorted(declared - produced)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(rb.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(rb.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_has_contract_keys(tmp_path):
    record = {"checks": [("a", True), ("b", False)],
              "passes": [{"wall_s": 2.0, "cpu_s": 3.0, "peak_rss_mb": 100.0}],
              "setup_s": [0.5, 0.7, 0.6]}
    out = rb.summarize(record, trace=False)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert (out["correct"], out["attempted"], out["failed"]) == (False, 2, 1)
    names = [n for n, _ in rb.declared_metrics("end_to_end")]
    assert sorted(out["metrics"]) == sorted(names)
    assert out["metrics"]["setup_s"]["value"] == 0.6
