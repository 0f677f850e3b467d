"""Tests of the benchmark's own rules.

    python3 -m pytest perfbench
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from metrics import (latency_summary, nearest_rank, self_times,
                     tail_percentile, work_rate)

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_nearest_rank():
    values = list(range(1, 101))
    assert nearest_rank(values, 50.0) == 50
    assert nearest_rank(values, 90.0) == 90
    assert nearest_rank([3.0], 99.0) == 3.0


def test_failed_operations_count_as_infinite_latency():
    seconds = [0.001 * (i + 1) for i in range(100)]
    failed = [False] * 100
    failed[0] = True            # the fastest operation failed
    summary = latency_summary(seconds, failed)
    assert summary["tail"] == "p90"
    # With the 1 ms sample at +inf, every rank moves up one place.
    assert summary["p50_ms"] == pytest.approx(51.0)
    assert summary["tail_ms"] == pytest.approx(91.0)

    all_failed = latency_summary([0.1] * 30, [True] * 30)
    assert math.isinf(all_failed["p50_ms"])


def test_failed_operations_leave_the_work_numerator():
    work = [100.0, 200.0, 300.0]
    seconds = [1.0, 1.0, 2.0]
    assert work_rate(work, seconds, [False, False, False]) == pytest.approx(150.0)
    # The failed operation's time stays in the denominator.
    assert work_rate(work, seconds, [False, True, False]) == pytest.approx(100.0)


def test_self_time_subtracts_nested_and_sibling_children():
    # 0 [0, 100] has children 1 [10, 40] and 2 [50, 90]; 1 has child 3 [20, 30].
    start = [0, 10, 50, 20, 200]
    end = [100, 40, 90, 30, 260]
    parent = [-1, 0, 0, 1, -1]
    got = self_times(start, end, parent).tolist()
    assert got == [100 - 30 - 40, 30 - 10, 40, 10, 60]
    assert sum(got[:4]) == 100      # a tree's self times add up to its root


def test_metric_names_match_benchmark_json():
    sys.path.insert(0, str(HERE.parent / "src"))
    import bench

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hmc_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_tracer_reaches_methods_and_from_imported_names():
    import numpy as np

    sys.path.insert(0, str(HERE.parent / "src"))
    import robustpriors as rp
    import robustpriors.cli as cli
    from tracer import SpanTable, Tracer

    tracer = Tracer()
    tracer.install()
    assert cli.sample is rp.sample is rp.sampler.sample
    assert cli.sample.__wrapped__.__module__ == "robustpriors.sampler"

    tracer.enabled = True
    target = rp.reduced_target(100, mu2=0.5, lambda2=1.0, family=rp.LPTN(0.95))
    target.grad_logpdf(np.zeros((3, 2)))
    tracer.enabled = False

    table = SpanTable(tracer)
    grad = table.mask(["model.PosteriorTarget.grad_logpdf"])
    assert table.calls(grad) == 1 and table.total_size(grad) == 3
    assert table.calls(table.mask(["priors.LPTN.grad_log_density"],
                                  ["model.PosteriorTarget.grad_logpdf"])) == 1
    # LPTN's constructor reaches specfun through a name priors imported.
    assert table.calls(table.mask(["specfun.normal_inv_cdf"], ["priors.LPTN"])) == 1
    assert table.calls(table.mask(["model.reduced_target"])) == 1
