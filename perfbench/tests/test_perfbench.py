"""The benchmark's own checks, on short streams.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from driftscope.pipeline import run_detection
from stamped import StampedStream
from tracing import Tracer, installed
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SHORT = {"agrawal-gradual-gnb": 2000, "sea-injected-track": 1200}


def _bench(root: Path, workload: str, trace: int, length: int | None = None):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    if length:
        cmd += ["--length", str(length)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert SHORT.keys() == WORKLOADS.keys()


@pytest.mark.parametrize("workload", list(SHORT))
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_emits_exactly_the_declared_metrics(workload, trace):
    proc = _bench(ROOT, workload, trace, SHORT[workload])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2 * (SHORT[workload] - 1)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _digest(workload_name: str, length: int, traced: bool) -> str:
    workload = WORKLOADS[workload_name]
    stream = StampedStream.wrap(workload.build(5, length, Path("."), {}))
    if traced:
        with installed(Tracer()) as tracer:
            result = workload.run(stream, 5)
        assert tracer.calls["tree.update"] == length - 1
    else:
        result = workload.run(stream, 5)
    return workload.check(result, stream)[0]


@pytest.mark.parametrize("workload", ["agrawal-gradual-gnb"])
def test_wrapping_leaves_results_unchanged(workload):
    assert _digest(workload, 2000, traced=True) == _digest(workload, 2000, traced=False)


def test_wrappers_are_removed_after_a_traced_run():
    from driftscope import tree

    before = tree.AdaptiveClusterTree.update
    with installed(Tracer()):
        assert tree.AdaptiveClusterTree.update is not before
    assert tree.AdaptiveClusterTree.update is before


def test_stamps_restart_per_pass_and_count_completed_steps():
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(50, 2))
    stream = StampedStream(features=x, labels=(x[:, 0] > 0.5).astype(np.int64))
    assert list(stream) and len(stream.stamps) == 51
    run_detection(stream, window=4)
    assert stream.steps_completed == stream.steps_attempted == 49
    assert stream.step_seconds().shape == (49,)

    bad = x.copy()
    bad[20, 0] = np.nan  # the tree rejects non-finite input at step 20
    broken = StampedStream(features=bad, labels=(x[:, 0] > 0.5).astype(np.int64),
                           feature_ranges=((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        run_detection(broken, window=4)
    assert broken.steps_completed == 19


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path, "agrawal-gradual-gnb", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_each_step_counts_at_the_slower_of_its_streams_runs():
    from worker import slower_run_steps, stream_count

    passes = [
        {"stream": 0, "step_s": np.array([1.0, 5.0])},
        {"stream": 1, "step_s": np.array([2.0])},
        {"stream": 0, "step_s": np.array([3.0, 4.0])},
        {"stream": 1, "step_s": np.array([1.0])},
    ]
    assert slower_run_steps(passes).tolist() == [3.0, 5.0, 2.0]
    workload = WORKLOADS["agrawal-gradual-gnb"]
    assert stream_count(workload, 0) == 1
    assert stream_count(workload, 4 * workload.pass_s) == 2
