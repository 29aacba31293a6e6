"""Run every workload once and print each metric with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"{name}: failed\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        error_rate = result["failed"] / result["attempted"]
        print(f"{name}  attempted {result['attempted']}  failed {result['failed']}  "
              f"error_rate {error_rate:.4f} ratio")
        for metric, entry in result["metrics"].items():
            value = entry["value"]
            shown = "absent" if value is None else f"{value:.6g}"
            print(f"  {metric:<52} {shown:>14} {entry['unit']}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
