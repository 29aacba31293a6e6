"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N (--seconds S | --ops N)
                                [--traced] [--smoke]

``run.py`` starts it with ``src`` on ``PYTHONPATH`` and a fixed
``PYTHONHASHSEED``.  The pass is a closed loop with one client: each
operation is one in-process ``ribbonpoly.cli.main`` call on one graph
document, timed from the call to its return, and every document is used
once.  With ``--seconds`` the loop runs until that much operation time has
passed and at least ``MIN_OPS`` operations are done; with ``--ops`` it
runs exactly that many.  Outputs are checked after the loop: against the
pinned digests of ``expected.json`` for the default seed, otherwise
against a reference computed by another method (see ``workloads.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
MIN_OPS = 100  # so that at least ten samples lie above op_s_p90
MAX_OPS = 20_000


def call_cli(main, argv: list[str]) -> tuple[float, int | None, str]:
    """(seconds, exit code or None on an exception, captured stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = None
        traceback.print_exc(file=sys.stderr)
    return time.perf_counter() - start, code, out.getvalue()


def pinned_digests(workload: wl.Workload, seed: int, smoke: bool) -> list[str]:
    if smoke or seed != wl.DEFAULT_SEED or not EXPECTED.is_file():
        return []
    with open(EXPECTED, encoding="utf-8") as handle:
        pinned = json.load(handle)
    return pinned["workloads"].get(workload.name, {}).get("outputs", [])


def work_counts(payload: dict) -> tuple[int, int, int]:
    """(quasi-tree leaves, state-sum summands, recursive base summands) of one output."""
    command = payload.get("command")
    if command == "count":
        return payload["total"], 0, 0
    if command == "verify":
        recursive = payload["methods"]["recursive"]["term_count"]
        return payload["quasi_tree_summands"] or 0, payload["state_sum_summands"], recursive
    if payload.get("method") == "quasitree":
        return payload["term_count"], 0, 0
    return 0, 0, payload["term_count"]


def run_pass(
    workload: wl.Workload,
    seed: int,
    seconds: float | None = None,
    ops: int | None = None,
    smoke: bool = False,
    tracer=None,
    expected: list[str] | None = None,
) -> dict:
    """Time the operations, then check every output; returns the pass summary.

    ``expected`` overrides the pinned digests (used by the self-test).
    """
    from ribbonpoly import cli

    docs, times, codes, texts = [], [], [], []
    busy = 0.0
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for index, doc in enumerate(wl.graphs(workload, seed, smoke)):
            if ops is not None:
                if index >= ops:
                    break
            elif index >= MAX_OPS or (busy >= seconds and index >= MIN_OPS):
                break
            path = os.path.join(workdir, f"{index}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            elapsed, code, text = call_cli(cli.main, [*workload.argv, path, "--format", "json"])
            if tracer is not None:
                tracer.end_op()
            busy += elapsed
            docs.append(doc)
            times.append(elapsed)
            codes.append(code)
            texts.append(text)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer is not None:
            tracer.restore()  # the references below must not be traced
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if expected is None:
        expected = pinned_digests(workload, seed, smoke)
    failed = 0
    leaves = summands = base = 0
    for index, (doc, code, text) in enumerate(zip(docs, codes, texts)):
        try:
            payload = wl.normalise(json.loads(text)) if code == 0 else None
        except ValueError:
            payload = None
        want = expected[index] if index < len(expected) else wl.digest(workload.reference(doc))
        if payload is None or wl.digest(payload) != want:
            failed += 1
            continue
        counts = work_counts(payload)
        leaves, summands, base = leaves + counts[0], summands + counts[1], base + counts[2]

    return {
        "attempted": len(times),
        "failed": failed,
        "busy_s": busy,
        "op_s_p50": statistics.median(times),
        "op_s_p90": statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0],
        "ops_per_s": len(times) / busy,
        "peak_rss_mib": peak_rss_mib,
        "inputs_sha256": wl.digest(docs[:MIN_OPS]),
        "work.quasi_tree_leaves": leaves,
        "work.state_sum_summands": summands,
        "work.recursive_base_summands": base,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    budget = parser.add_mutually_exclusive_group(required=True)
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--ops", type=int)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="small graphs, for self-tests")
    args = parser.parse_args(argv)

    tracer = None
    if args.traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    summary = run_pass(
        wl.WORKLOADS[args.workload], args.seed, args.seconds, args.ops, args.smoke, tracer
    )
    if tracer is not None:
        layers = tracer.metrics()
        gamma_tests = layers["ribbon.face_orbit_ids.calls"]
        leaves = summary["work.quasi_tree_leaves"]
        layers["quasitrees.gamma_tests_per_leaf"] = (
            None if gamma_tests is None else gamma_tests / leaves if leaves else 0.0
        )
        summary["layers"] = layers
        summary["covered_s"] = tracer.covered_s
        summary["hooks_absent"] = tracer.absent
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
