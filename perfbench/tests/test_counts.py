"""The benchmark's own checks: exact counts repeat, attribution adds up.

    python3 -m pytest perfbench/tests

Each workload runs twice in traced mode on one seed; every count (unit
``count`` or ``B``) must be identical across the two runs, and the counts
that follow from the workload definitions are pinned.  Later changes cite
these numbers as counts, not as speed-ups.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
RUN = HERE / "run.py"
SEED = 0

sys.path.insert(0, str(HERE))
import spans  # noqa: E402

# counts that follow from the workload definitions
PINNED = {
    "decompose": {
        # m summed over the ten decompositions, plus the randomized builder's
        # own verification of its 25 channels
        "channels.ptm_calls": 8 + 3 + 25 + 25 + 5 + 27 + 3 + 5 + 9 + 17 + 33,
        # 2^n circuits per mub width n = 1..5
        "synth.synthesize_calls": 2 + 4 + 8 + 16 + 32,
        # 2^n families of 2^n - 1 members per mub width
        "families.paulis": sum(2**n * (2**n - 1) for n in range(1, 6)),
        "estimator.nodes": 0,
    },
    "synth_scale": {
        "synth.synthesize_calls": 2**8 + sum(2**n for n in range(1, 11)),
        "families.paulis": 2**8 * (2**8 - 1),
        "channels.ptm_calls": 0,
    },
    "mc_deep": {
        # 6 x 6 optimal1q children, then 28 mub n=2 children per node
        "estimator.nodes": 6 + 36 + 36 * 28,
        "estimator.uniform_bytes": 10**5 * (3 * 3 + 1) * 8,
        "channels.ptm_calls": 0,
    },
    "mc_wide": {
        "estimator.nodes": 6,
        "estimator.uniform_bytes": 2 * 10**6 * (3 * 1 + 1) * 8,
        "synth.synthesize_calls": 0,
    },
}


def traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_counts_repeat_exactly(workload):
    first, second = traced(workload), traced(workload)
    counts = {k for k, v in first.items() if v["unit"] in ("count", "B")}
    assert counts
    for name in sorted(counts):
        assert first[name]["value"] == second[name]["value"], name
    for name, want in PINNED[workload].items():
        assert first[name]["value"] == want, name
    # layer self times plus the unattributed rest make up the traced pass
    layer_s = sum(
        v["value"]
        for k, v in first.items()
        if v["unit"] == "s" and k not in ("bench.traced_pass_s", "estimator.run_s")
    )
    assert layer_s == pytest.approx(first["bench.traced_pass_s"]["value"], rel=1e-9)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "mc_wide",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _span(name, start, end, parent=None, thread=0):
    span = spans.Span(name, parent, thread)
    span.start, span.end = start, end
    return span


def test_attribution_splits_nested_and_concurrent_spans():
    root = _span("root", 0.0, 10.0)
    child = _span("child", 1.0, 3.0, root)
    # two pool workers, both children of root, overlapping on [5, 6]
    a = _span("worker", 4.0, 6.0, root, thread=1)
    b = _span("worker", 5.0, 8.0, root, thread=2)
    got = spans.attribute([root, child, a, b])
    assert got[child] == pytest.approx(2.0)
    assert got[a] == pytest.approx(1.5)
    assert got[b] == pytest.approx(2.5)
    assert got[root] == pytest.approx(4.0)
    assert sum(got.values()) == pytest.approx(10.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "mc_wide", "--seed", str(SEED),
         "--seconds", "0", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert {k: v["unit"] for k, v in traced("mc_wide").items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
