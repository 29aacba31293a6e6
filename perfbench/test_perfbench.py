"""Self-tests of the benchmark harness; they run on small smoke graphs."""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402


def _traced_smoke(name: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", "5",
         "--ops", "4", "--traced", "--smoke"],
        env=bench.worker_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _counts(summary: dict) -> dict:
    merged = {**summary, **summary["layers"]}
    return {k: v for k, v in merged.items() if k.endswith(".calls") or k.startswith("work.")}


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first, second = _traced_smoke(name), _traced_smoke(name)
    assert first["failed"] == second["failed"] == 0
    counts = _counts(first)
    assert counts == _counts(second)
    assert counts["cli.main.calls"] == 4
    if name == "planar-recursive":
        assert all(v == 0 for k, v in counts.items() if k.startswith("quasitrees."))
    if name == "chord-quasitree":
        assert all(v == 0 for k, v in counts.items() if k.startswith("ribbon.minor."))


def test_layer_metrics_match_benchmark_json():
    summary = _traced_smoke("map-verify")
    plain = {**summary, "busy_s": summary["busy_s"] / 2}
    names = set(bench.layer_metrics(plain, summary))
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert names == {m["name"] for m in declared["per_layer"]}
    assert all(v is not None for v in summary["layers"].values())


def test_corrupted_expected_output_raises_error_rate():
    workload = wl.WORKLOADS["map-verify"]
    docs = list(itertools.islice(wl.graphs(workload, 5, smoke=True), 3))
    right = [wl.digest(workload.reference(doc)) for doc in docs]
    assert worker.run_pass(workload, 5, ops=3, smoke=True, expected=right)["failed"] == 0
    wrong = wl.reference_payload(workload, docs[1])
    wrong["methods"]["quasitree"]["term_count"] += 1
    corrupted = [right[0], wl.digest(wrong), right[2]]
    summary = worker.run_pass(workload, 5, ops=3, smoke=True, expected=corrupted)
    assert summary["failed"] / summary["attempted"] > 0


def test_hooks_rebind_every_name_and_report_absent_targets(tmp_path):
    import ribbonpoly.cli
    import ribbonpoly.expansions
    from ribbonpoly.mpoly import MPoly

    original = ribbonpoly.cli.main
    tracer = Tracer(
        hooks=(
            ("cli.main", "ribbonpoly.cli", "main"),
            ("quasitrees.enumerate_quasi_trees", "ribbonpoly.quasitrees", "enumerate_quasi_trees"),
            ("mpoly.__add__", "ribbonpoly.mpoly", "MPoly.__add__"),
            ("ribbon.gone", "ribbonpoly.ribbon", "RibbonGraph.no_such_method"),
            ("nowhere.f", "ribbonpoly.no_such_module", "f"),
        )
    )
    tracer.install()
    try:
        assert ribbonpoly.cli.main is not original
        assert ribbonpoly.expansions.enumerate_quasi_trees is ribbonpoly.cli.enumerate_quasi_trees
        assert MPoly.__radd__ is MPoly.__add__
        path = tmp_path / "g.json"
        path.write_text(json.dumps(wl.chord_diagram(wl.random.Random(0), 3)))
        _, code, _ = worker.call_cli(ribbonpoly.cli.main, ["compute", str(path)])
    finally:
        tracer.restore()
    assert code == 0 and ribbonpoly.cli.main is original
    metrics = tracer.metrics()
    assert metrics["cli.main.calls"] == 1
    assert metrics["quasitrees.enumerate_quasi_trees.calls"] == 1
    assert metrics["mpoly.__add__.calls"] > 0
    assert metrics["ribbon.gone.calls"] is None and metrics["nowhere.f.self_s"] is None
    assert len(tracer.absent) == 2


def test_default_seed_inputs_and_outputs_are_pinned():
    pinned = json.loads(worker.EXPECTED.read_text())
    assert pinned["seed"] == wl.DEFAULT_SEED
    for name, workload in wl.WORKLOADS.items():
        docs = list(itertools.islice(wl.graphs(workload, wl.DEFAULT_SEED), worker.MIN_OPS))
        assert wl.digest(docs) == pinned["workloads"][name]["inputs_sha256"], name
        for doc, want in zip(docs[:2], pinned["workloads"][name]["outputs"]):
            assert wl.digest(workload.reference(doc)) == want, name


def test_quasi_tree_count_matches_enumeration():
    from ribbonpoly.quasitrees import enumerate_quasi_trees
    from ribbonpoly.ribbon import graph_from_json

    for name, workload in wl.WORKLOADS.items():
        for doc in itertools.islice(wl.graphs(workload, 7, smoke=True), 10):
            expected = len(enumerate_quasi_trees(graph_from_json(doc)))
            assert wl.quasi_tree_count(doc) == expected, (name, doc)
            if workload.family is wl.planar_map:
                assert wl.spanning_tree_count(doc) == expected, (name, doc)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "map-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
