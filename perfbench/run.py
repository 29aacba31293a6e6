"""The ribbonpoly benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
``src/``, so nothing is installed or built.  Workloads, metrics and the
reasons for both are described in ``perfbench/README.md``.

``--trace 0`` starts one fresh worker process that times ``cli.main`` for
``S`` seconds of operations, and reports the end-to-end metrics, with
``setup_s`` measured in fresh interpreters before and after it.  ``--trace 1`` runs
the first ``TRACE_OPS`` inputs twice, each time in a fresh worker: once
untraced and once with every layer wrapped, and reports the per-layer
metrics; ``S`` is not used, because the call counts must repeat exactly.

The line before the result records the run's environment (Python,
platform, ``nproc``, load average at the start) and its inputs digest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 16
TRACE_OPS = 32
WORKER_TIMEOUT_S = 170
IMPORT_PROGRAM = "import ribbonpoly, ribbonpoly.cli"


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_samples(count: int) -> list[float]:
    """Wall times of fresh interpreters importing the program."""
    command = [sys.executable, "-c", IMPORT_PROGRAM]
    env = worker_env()
    subprocess.run(command, env=env, check=True, timeout=60)  # write the bytecode cache
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(command, env=env, check=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return samples


def run_worker(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=worker_env(),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _load_average() -> list[float] | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return [float(x) for x in handle.read().split()[:3]]
    except OSError:
        return None


def _declared_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    return {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}


def _with_units(values: dict) -> dict:
    units = _declared_units()
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    # half before and half after the timed pass, so one slow second cannot move the median
    setup = setup_samples(SETUP_SAMPLES // 2)
    result = run_worker("--workload", workload, "--seed", str(seed), "--seconds", str(seconds))
    setup += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    metrics = {name: result[name] for name in ("op_s_p50", "op_s_p90", "ops_per_s")}
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mib"] = result["peak_rss_mib"]
    return _with_units(metrics), [result]


def layer_metrics(plain: dict, traced: dict) -> dict:
    """Per-layer values from an untraced and a traced pass over the same inputs."""
    layers = dict(traced["layers"])
    for name in traced:
        if name.startswith("work."):
            layers[name] = traced[name]
    layers.update(
        {
            "trace.ops": traced["attempted"],
            "trace.untraced_s": plain["busy_s"],
            "trace.traced_s": traced["busy_s"],
            "trace.overhead": traced["busy_s"] / plain["busy_s"],
            "trace.unattributed_s": traced["busy_s"] - traced["covered_s"],
            "trace.hooks_absent": len(traced["hooks_absent"]),
            "error_rate": (plain["failed"] + traced["failed"])
            / (plain["attempted"] + traced["attempted"]),
        }
    )
    return layers


def per_layer(workload: str, seed: int) -> tuple[dict, list[dict]]:
    common = ("--workload", workload, "--seed", str(seed), "--ops", str(TRACE_OPS))
    plain = run_worker(*common)
    traced = run_worker(*common, "--traced")
    for hook in traced["hooks_absent"]:
        print(f"warning: hooked function {hook} is absent", file=sys.stderr)
    return _with_units(layer_metrics(plain, traced)), [plain, traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ribbonpoly" / "cli.py").is_file():
        print(f"error: no ribbonpoly sources under {SRC}", file=sys.stderr)
        return 2

    started = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg": _load_average(),
    }
    if args.trace:
        metrics, passes = per_layer(args.workload, args.seed)
    else:
        metrics, passes = end_to_end(args.workload, args.seed, args.seconds)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    started.update(
        inputs_sha256=passes[0]["inputs_sha256"],
        attempted=attempted,
        failed=failed,
        error_rate=failed / attempted,
    )
    print(json.dumps({"run": started}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
