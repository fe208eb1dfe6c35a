"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]

Runs the benchmark once per seed, one run at a time, and prints for every
end-to-end metric its median and its spread: the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median, beside the metric's bound from BENCHMARK.json.  Raw results go to
stdout as one JSON line per run first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))

    values: dict[str, list[float]] = {}
    for seed in range(first, last + 1):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(done.stdout.splitlines()[-1])
        print(json.dumps({"seed": seed, **result}), flush=True)
        if not result["correct"]:
            print(f"seed {seed}: wrong verdicts\n{done.stderr}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, xs in values.items():
        q1, median, q3 = statistics.quantiles(xs, n=4)
        print(f"{args.workload:10s} {name:14s} median {median:12.6g}  "
              f"spread {(q3 - q1) / median:6.3f}  bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
