"""Self-test of the benchmark harness at tiny sizes, so it does not rot.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "grover": {"n": 3, "samples": 1000},
    "sweep": {"n": 2},
    "chain": {"n": 2, "k": 4},
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_run(kind, trace, seed=7):
    return run.run_benchmark(f"selftest-{kind}", kind, TINY[kind], seed, 0.1, trace)


@pytest.mark.parametrize("kind", sorted(TINY))
def test_plain_run_reports_every_end_to_end_metric(kind):
    result = tiny_run(kind, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.SETUP_PROBES + 1
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: v["unit"] for k, v in metrics.items()
    }
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("kind", sorted(TINY))
def test_units_cover_each_iteration(kind):
    tiny_run(kind, trace=False)
    record = json.loads((run.OUT / f"selftest-{kind}" / "run-seed7-trace0.json").read_text())
    for it in record["iterations"]:
        assert sum(sec for _, sec in it["units"]) == pytest.approx(it["wall_s"])
        assert len(it["units"]) > 1 or kind == "grover"


def test_fast_wall_takes_each_unit_at_its_fastest():
    runs = [
        {"units": [["a", 1.0], ["w", 2.0], ["w", 3.0]]},
        {"units": [["a", 0.5], ["w", 4.0], ["w", 2.5]]},
    ]
    assert run.fast_wall(runs) == 0.5 + 2.0 + 2.0


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_run_attributes_the_traced_wall_time(kind):
    result = tiny_run(kind, trace=True)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {m["name"] for m in SPEC["per_layer"]} == set(metrics)
    assert 0 <= metrics["trace.unattributed_s"] < metrics["trace.wall_s"]
    assert all(v == 0 for k, v in metrics.items() if k.endswith(".errors"))
    assert metrics["trace.spans"] > 0


def test_spans_are_written_with_parents_and_run_id():
    tiny_run("chain", trace=True)
    files = sorted((run.OUT / "selftest-chain" / "spans").glob("*.npz"))
    assert files
    with np.load(files[0]) as spans:
        names = list(spans["names"])
        parent = spans["parent"]
        assert names[spans["name"][0]] == "workload" and parent[0] == -1
        assert (parent[1:] >= 0).all() and (parent[1:] < np.arange(1, len(parent))).all()
        assert (spans["end"] >= spans["start"]).all()
        assert len(set(spans["run_id"])) == 1
        gates = np.isin(spans["name"], [i for i, n in enumerate(names) if n.startswith("gates.")])
        assert (spans["width"][gates] == 4).all() and (spans["backend"][gates] == 1).all()


def test_report_digest_mismatch_counts_as_failure(monkeypatch):
    monkeypatch.setattr(run, "_expected_digest", lambda kind, params: "0" * 64)
    result = tiny_run("sweep", trace=False)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == run.SETUP_PROBES + 1


def test_failed_verdicts_are_reported():
    doc = {
        "oracles": [{"table": "0x1", "psi1": True, "psi3": False}],
        "nonzero_tv_pairs": [[0, 1]],
    }
    failures, _ = workloads.Chain(2, 1, 0).check(doc)
    assert len(failures) == 2


def test_inputs_depend_only_on_the_seed():
    a, b, c = (workloads.make("grover", TINY["grover"], s, run.OUT / "x") for s in (1, 1, 2))
    assert a.argv == b.argv != c.argv
    d, e = (workloads.make("chain", {"n": 6, "k": 16}, 5, None) for _ in range(2))
    assert [f.table for f in d.oracle_list] == [f.table for f in e.oracle_list]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
