"""Maintenance for the frozen parts of the benchmark.

    python3 perfbench/pin.py --calibrate   # print each workload's band cuts
    python3 perfbench/pin.py               # rewrite expected.json

``--calibrate`` draws ``CALIBRATION_DRAWS`` graphs from each family (with
a seed no run uses) and prints the quasi-tree counts that cut the
family's lower 99 % into ``STRATA`` equal-mass bands; paste them into the
``cuts`` of ``workloads.py``.  Changing cuts, sizes or generators changes
the inputs, so a later change that does it is its own benchmark change.

Without flags, the first ``PINNED_OPS`` inputs of the default seed of
every workload are run through the CLI.  Each output is compared with the
reference computed by another method, and only when they agree is its
digest written to ``expected.json``.  Run with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys

import workloads as wl
from worker import EXPECTED, MIN_OPS, call_cli

CALIBRATION_DRAWS = 20_000
PINNED_OPS = 800


def calibrate(workload: wl.Workload) -> tuple[int, ...]:
    rng = random.Random(f"{workload.name}/calibration")
    counts = sorted(wl.quasi_tree_count(workload.make(rng)) for _ in range(CALIBRATION_DRAWS))
    cap = counts[math.ceil(0.99 * len(counts)) - 1]
    kept = [c for c in counts if c <= cap]
    cuts = []
    for k in range(1, wl.STRATA):
        cut = kept[math.ceil(k * len(kept) / wl.STRATA) - 1]
        cuts.append(max(cut, cuts[-1] + 1) if cuts else cut)
    cuts.append(max(cap, cuts[-1] + 1))
    return tuple(cuts)


def pin(workload: wl.Workload) -> dict:
    from ribbonpoly import cli

    docs = list(itertools.islice(wl.graphs(workload, wl.DEFAULT_SEED), PINNED_OPS))
    outputs = []
    for index, doc in enumerate(docs):
        path = EXPECTED.with_name(".pin-input.json")
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            _, code, text = call_cli(cli.main, [*workload.argv, str(path), "--format", "json"])
        finally:
            path.unlink()
        got = wl.normalise(json.loads(text)) if code == 0 else None
        want = wl.reference_payload(workload, doc)
        if got != want:
            raise SystemExit(f"{workload.name} input {index}: the CLI disagrees with the reference")
        outputs.append(wl.digest(want))
    return {"inputs_sha256": wl.digest(docs[:MIN_OPS]), "outputs": outputs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calibrate", action="store_true")
    args = parser.parse_args()
    if args.calibrate:
        for workload in wl.WORKLOADS.values():
            print(f"{workload.name}: cuts={calibrate(workload)}", flush=True)
        return 0
    pinned = {"seed": wl.DEFAULT_SEED, "workloads": {}}
    for workload in wl.WORKLOADS.values():
        pinned["workloads"][workload.name] = pin(workload)
        print(f"{workload.name}: pinned {PINNED_OPS} outputs", file=sys.stderr, flush=True)
    EXPECTED.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
