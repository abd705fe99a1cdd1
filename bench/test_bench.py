"""Self-tests of the benchmark harness (spans, tail rule, failure counting)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import DilateLarge, FuzzSmall, ReverifyWide

HERE = Path(__file__).resolve().parent
SMALL = dict(n=1, block_dims=[2], mults=[1], h1=2, h2=3)


def test_self_time_of_nested_spans():
    # op [0, 10] > dilate [1, 9] > {build_gram [2, 6] > eig [3, 5], verify [6, 8]}
    recorded = [
        (0, 3, 2, "linalg.hermitian_eig", 3.0, 5.0),
        (0, 2, 1, "dilation.build_gram", 2.0, 6.0),
        (0, 4, 1, "dilation.verify_dilation", 6.0, 8.0),
        (0, 1, 0, "dilation.dilate", 1.0, 9.0),
        (0, 0, None, spans.ROOT_SPAN, 0.0, 10.0),
    ]
    own = spans.self_times(recorded)
    assert own == {0: 2.0, 1: 2.0, 2: 2.0, 3: 2.0, 4: 2.0}
    row = spans.per_op_times(recorded)[0]
    assert row["layer.dilation.self"] == 6.0
    assert row["layer.linalg.self"] == 2.0
    assert row["layer.bench.self"] == 2.0
    assert row["dilation.build_gram.total"] == 4.0
    assert row["op.total"] == 10.0


def test_overlapping_children_and_recursion_count_once():
    recorded = [
        (0, 0, None, "a.f", 0.0, 10.0),
        (0, 1, 0, "a.f", 1.0, 6.0),   # recursive call: not counted again in the total
        (0, 2, 0, "b.g", 4.0, 8.0),   # overlaps its sibling by [4, 6]
    ]
    assert spans.self_times(recorded)[0] == pytest.approx(3.0)
    row = spans.per_op_times(recorded)[0]
    assert row["a.f.total"] == 10.0
    assert row["a.f.self"] == pytest.approx(3.0 + 5.0)


def test_tail_percentile_rule():
    assert run.tail_percentile([float(v) for v in range(1, 101)]) == (90.0, 90.0)
    value, pct = run.tail_percentile([float(v) for v in range(1000, 0, -1)])
    assert (value, pct) == (990.0, 99.0)
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_tracer_patches_where_names_are_looked_up(tmp_path):
    from cpdilate import cli, dilation, linalg

    originals = (cli.dilate, dilation.hermitian_eig, linalg.hermitian_eig)
    tracer = spans.Tracer()
    workload = FuzzSmall(seed=3)
    workload.setup(tmp_path)
    outcome, _ = run.attempt(workload, 0, tracer)
    assert outcome.ok, outcome.reason
    assert (cli.dilate, dilation.hermitian_eig, linalg.hermitian_eig) == originals
    by_id = {s[1]: s for s in tracer.spans}
    eig = [s for s in tracer.spans if s[3] == "linalg.hermitian_eig"]
    assert eig and all(by_id[s[2]][3] == "dilation.build_gram" for s in eig)
    assert {s[0] for s in tracer.spans} == {0}
    assert tracer.counts[0]["eig_flops"] > 0


def test_corrupted_dilation_file_is_a_counted_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(ReverifyWide, "shape", SMALL)
    workload = ReverifyWide(seed=5)
    workload.setup(tmp_path)
    assert run.attempt(workload, 0)[0].ok
    workload.dil_a.write_text("{not json", encoding="utf-8")
    result = run.run_loop(workload, seconds=0.2)
    assert len(result.outcomes) >= 2
    assert len(result.failures) == len(result.outcomes)
    assert all(o.reason.startswith("exit 2:") for o in result.failures)


def test_dilate_workload_checks_the_written_file(tmp_path, monkeypatch):
    monkeypatch.setattr(DilateLarge, "shape", SMALL)
    workload = DilateLarge(seed=5)
    workload.setup(tmp_path)
    outcome, _ = run.attempt(workload, 1)
    assert outcome.ok, outcome.reason
    assert outcome.counts["bytes_written"] == workload.out.stat().st_size


def _bench_root(tmp_path: Path) -> Path:
    root = tmp_path / "checkout"
    root.mkdir()
    shutil.copy(HERE.parent / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def test_untraced_run_writes_no_spans(tmp_path):
    root = _bench_root(tmp_path)
    detail, result = run.execute("fuzz_small", 1, 0.2, trace=False, root=root)
    assert result["correct"] and result["failed"] == 0
    assert detail["error_rate"] == 0.0
    assert not (root / ".bench_traces").exists()
    assert list((root / ".bench_work").iterdir()) == []
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_traced_run_writes_spans_and_every_per_layer_metric(tmp_path):
    root = _bench_root(tmp_path)
    _, result = run.execute("fuzz_small", 1, 0.2, trace=True, root=root)
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    lines = (root / ".bench_traces" / "fuzz_small-seed1.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["workload"] == "fuzz_small"
    assert {"op", "id", "parent", "name", "start", "end"} <= set(json.loads(lines[1]))


def test_refuses_to_run_without_sources(tmp_path):
    root = _bench_root(tmp_path)
    shutil.copytree(HERE, root / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fuzz_small", "--seconds", "1"],
        cwd=root, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
