"""Quick self-check of the benchmark itself (about a minute).

    python3 perfbench/selfcheck.py

For every workload, one short run with one expected verdict flipped on
purpose: every end-to-end metric of BENCHMARK.json must be printed with its
unit, and exactly the flipped verdict must fail in every pass (so the fail
rate is non-zero and nothing else is wrong).  One short traced run checks
the per-layer metrics the same way, and that the layers' self times add up
to the traced wall time.  Finally the benchmark must refuse to
run, without a result line, from a directory that holds only
BENCHMARK.json and the benchmark's own files.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *args: str) -> tuple[int, list[dict], str]:
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = [json.loads(x) for x in done.stdout.splitlines() if x.startswith("{")]
    return done.returncode, lines, done.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok: bool, what: str):
        if not ok:
            problems.append(what)

    def check_metrics(result: dict, wanted: list[dict], what: str):
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in wanted}
        expect(got == want, f"{what}: metrics/units {got} != {want}")
        expect(all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values()), f"{what}: non-numeric value")

    for workload in (w["name"] for w in spec["workloads"]):
        code, lines, err = run(ROOT, "--workload", workload, "--seed", "7",
                               "--seconds", "1", "--trace", "0", "--flip-expected")
        what = f"{workload} with a flipped verdict"
        if code != 0 or len(lines) < 2:
            problems.append(f"{what}: exit {code}\n{err}")
            continue
        meta, result = lines[-2]["meta"], lines[-1]
        check_metrics(result, spec["end_to_end"], what)
        expect(result["correct"] is False, f"{what}: reported correct")
        expect(result["failed"] == meta["passes"],
               f"{what}: {result['failed']} failed verdicts, expected {meta['passes']}")
        expect(meta["fail_rate"] > 0, f"{what}: fail_rate is 0")

    code, lines, err = run(ROOT, "--workload", "cli-calls", "--seed", "7",
                           "--seconds", "1", "--trace", "1")
    if code != 0 or not lines:
        problems.append(f"traced cli-calls: exit {code}\n{err}")
    else:
        check_metrics(lines[-1], spec["per_layer"], "traced cli-calls")
        expect(lines[-1]["correct"] is True, "traced cli-calls: wrong verdicts")
        m = {name: v["value"] for name, v in lines[-1]["metrics"].items()}
        expect(abs(m["trace.unattributed_s"]) <= 0.01 * m["trace.wall_s"],
               "traced cli-calls: layer self times do not add up to trace.wall_s")

    bare = ROOT / ".perfbench-work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run(bare, "--workload", spec["workloads"][0]["name"],
                             "--seed", "1", "--seconds", "1", "--trace", "0")
        expect(code != 0 and not lines, f"bare directory: exit {code}, output {lines}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print("selfcheck: ok" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
