"""flagspec benchmark: end-to-end verdict times, or a traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its src/.
Workloads: table5, ladder, iso-scale, cli-calls (see workloads.py).  The
seed makes the relabeled inputs of ladder, iso-scale and cli-calls; the
same seed gives the same inputs.  table5 uses the battery's own seeds.

A run sets up (timed as setup_s in SETUP_PROBES fresh processes), then
makes round(S / nominal pass length) passes, each issuing every verdict
call of the workload once, one at a time, and checking each result
against a literal expected value.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where attempted/failed count verdict checks (their ratio is the fail
rate).  The line before it is {"meta": {...}}: commit, seed, versions,
nproc, BLAS threads, the tail percentile and sample count, and the median
time of every call label.

--trace 0 reports the end-to-end metrics (medians over passes; wall_s
sums the median time of every call, top_rung_s does so for the calls on
the largest input).  --trace 1 runs pairs of passes on equal inputs, one
plain and one with every public function of every layer wrapped by
tracer.py, and reports per-layer counts and self times of the traced
passes (times are per pass, medians over the traced passes).  Calls are
counted by the spans; vertices, flags, classify pairs and graph6 bytes are
computed from each call's inputs, src.lines from the source files.  The
run fails if a span count differs from the count that workloads.py
derives from the inputs, or if a count differs between traced passes.
Exit codes: 0 with a result line, 1 on a trace mismatch, 2 when the
library or its environment is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, TraceError, Tracer, summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_PROBES = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "top_rung_s": "s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "isomorphism.canonical_form.calls": "count",
    "isomorphism.canonical_form.vertices": "count",
    "isomorphism.canonical_form.self_s": "s",
    "isomorphism.canonical_form.ms_per_form": "ms",
    "isomorphism.is_isomorphic.calls": "count",
    "isomorphism.is_isomorphic.screened": "count",
    "isomorphism.design_isomorphic.self_s": "s",
    "spectra.char_poly.calls": "count",
    "spectra.char_poly.vertices": "count",
    "spectra.char_poly.self_s": "s",
    "spectra.char_poly.top_rung_s": "s",
    "spectra.verify_spectrum.self_s": "s",
    "spectra.numeric_spectrum.self_s": "s",
    "regularity.classify.calls": "count",
    "regularity.classify.pairs": "count",
    "regularity.classify.self_s": "s",
    "polynomials.calls": "count",
    "designs.validate_design.calls": "count",
    "designs.validate_design.self_s": "s",
    "flag_graphs.gamma1.self_s": "s",
    "flag_graphs.gamma2.self_s": "s",
    "flag_graphs.flags": "count",
    "graphs.graph6_bytes": "bytes",
    "cli.startup_s": "s",
    "cli.main.self_s": "s",
    "reporting.run_reproduction.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "src.lines": "lines",
}
COUNT_UNITS = ("count", "bytes", "lines")


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def pin_blas() -> tuple[int, int]:
    """Fix the BLAS thread count (default: nproc) before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        value = os.environ.setdefault(var, str(nproc))
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            fail(f"{var}={value!r}: need 1..{nproc} threads")
    return nproc, int(os.environ[BLAS_VARS[0]])


def check_source() -> None:
    if not (SRC / "flagspec" / "__init__.py").is_file():
        fail(f"no library at {SRC / 'flagspec'}; run from a flagspec checkout")


def import_flagspec():
    sys.path.insert(0, str(SRC))
    import flagspec
    import flagspec.cli  # noqa: F401 - the tracer wraps every layer

    if Path(flagspec.__file__).resolve().parent != (SRC / "flagspec").resolve():
        fail(f"imported flagspec from {flagspec.__file__}, not from {SRC}")
    return flagspec


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "flagspec").glob("*.py")))


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "flagspec").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def setup_probe(args) -> float:
    """Wall time of a fresh process that imports the library and runs the
    workload's set-up, as a user's process would."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    seconds = time.perf_counter() - t0
    if done.returncode != 0:
        fail(f"set-up failed:\n{done.stderr}", done.returncode or 2)
    return seconds


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it.  With fewer than 21 samples it keeps (n - 1) // 2
    beyond it instead, so a short run reports an upper quantile rather
    than its noisy maximum."""
    xs = sorted(samples)
    beyond = min(10, (len(xs) - 1) // 2)
    return xs[len(xs) - 1 - beyond], 100.0 * (len(xs) - beyond) / len(xs)


def label_medians(passes) -> dict[str, float]:
    by_label: dict[str, list[float]] = {}
    for calls in passes:
        for call in calls:
            by_label.setdefault(call.label, []).append(call.seconds)
    return {label: statistics.median(xs) for label, xs in by_label.items()}


def verdicts(passes) -> tuple[int, list[str]]:
    checks = [c for calls in passes for call in calls for c in call.checks]
    return len(checks), [name for name, ok in checks if not ok]


def end_to_end(passes, setup_times) -> tuple[dict, dict]:
    medians = label_medians(passes)
    top = max(call.n for call in passes[0])
    top_labels = {call.label for call in passes[0] if call.n == top}
    samples = [call.seconds for calls in passes for call in calls]
    tail_s, tail_pct = tail(samples)
    # calls made in child processes (cli-calls) report their own peak
    rss_kb = (max(call.rss_kb for calls in passes for call in calls)
              or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(medians.values()),
        "top_rung_s": sum(medians[label] for label in top_labels),
        "call_p50_ms": 1000.0 * statistics.median(samples),
        "call_tail_ms": 1000.0 * tail_s,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    meta = {"tail_percentile": tail_pct, "call_samples": len(samples),
            "top_rung_n": top, "call_median_s": medians}
    return metrics, meta


def layer_metrics(spans, calls) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and the span count of every
    traced function."""
    summary = summarize(spans)
    funcs, layers = summary["functions"], summary["layers"]

    def f(name, key="calls"):
        return funcs.get(name, {}).get(key, 0)

    cf, cp = "isomorphism.canonical_form", "spectra.char_poly"
    has_form_child = {parent for name, _, _, _, parent, _ in spans if name == cf}
    wall = sum(call.seconds for call in calls)
    m = {
        f"{cf}.calls": f(cf),
        f"{cf}.vertices": f(cf, "size"),
        f"{cf}.self_s": f(cf, "self_s"),
        f"{cf}.ms_per_form": 1000.0 * f(cf, "total_s") / f(cf) if f(cf) else 0.0,
        "isomorphism.is_isomorphic.calls": f("isomorphism.is_isomorphic"),
        "isomorphism.is_isomorphic.screened": sum(
            1 for i, s in enumerate(spans)
            if s[0] == "isomorphism.is_isomorphic" and i not in has_form_child),
        "isomorphism.design_isomorphic.self_s": f("isomorphism.design_isomorphic", "self_s"),
        f"{cp}.calls": f(cp),
        f"{cp}.vertices": f(cp, "size"),
        f"{cp}.self_s": f(cp, "self_s"),
        f"{cp}.top_rung_s": f(cp, "top_s"),
        "spectra.verify_spectrum.self_s": f("spectra.verify_spectrum", "self_s"),
        "spectra.numeric_spectrum.self_s": f("spectra.numeric_spectrum", "self_s"),
        "regularity.classify.calls": f("regularity.classify"),
        "regularity.classify.pairs": sum(
            s[5] * (s[5] - 1) // 2 for s in spans if s[0] == "regularity.classify"),
        "regularity.classify.self_s": f("regularity.classify", "self_s"),
        "polynomials.calls": sum(v["calls"] for k, v in funcs.items()
                                 if k.startswith("polynomials.")),
        "designs.validate_design.calls": f("designs.validate_design"),
        "designs.validate_design.self_s": f("designs.validate_design", "self_s"),
        "flag_graphs.gamma1.self_s": f("flag_graphs.gamma1", "self_s"),
        "flag_graphs.gamma2.self_s": f("flag_graphs.gamma2", "self_s"),
        "flag_graphs.flags": f("flag_graphs.gamma1", "size") + f("flag_graphs.gamma2", "size"),
        "graphs.graph6_bytes": f("graphs.graph_to_graph6", "size")
        + f("graphs.graph_from_graph6", "size"),
        "cli.startup_s": sum(call.startup_s for call in calls),
        "cli.main.self_s": f("cli.main", "self_s"),
        "reporting.run_reproduction.self_s": f("reporting.run_reproduction", "self_s"),
        **{f"{layer}.self_s": layers[layer] for layer in LAYERS},
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - sum(layers.values()),
    }
    return m, {name: v["calls"] for name, v in funcs.items()}


def measure_traced(w, passes: int) -> tuple[list, dict]:
    """Pairs of passes on the same inputs, alternating which runs first."""
    tracer = Tracer()
    all_passes, per_pass, overheads = [], [], []
    for k in range(max(1, passes // 2)):
        inputs = w.prepare(k)
        walls = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                calls = w.run_pass(inputs, traced=traced)
            finally:
                tracer.uninstall()
            all_passes.append(calls)
            walls[traced] = sum(call.seconds for call in calls)
            if not traced:
                continue
            spans = tracer.take()
            for call in calls:
                offset = len(spans)
                spans += [[name, layer, start, end, parent + offset if parent >= 0 else -1,
                           size] for name, layer, start, end, parent, size in call.spans]
            metrics, counts = layer_metrics(spans, calls)
            for name, want in w.expected_counts(inputs).items():
                if counts.get(name, 0) != want:
                    raise TraceError(f"{w.name}: {name} made {counts.get(name, 0)} "
                                     f"calls, the inputs imply {want}")
            per_pass.append(metrics)
        overheads.append(walls[True] - walls[False])
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if PER_LAYER[name] in COUNT_UNITS:
            if len(set(values)) > 1:
                raise TraceError(f"{w.name}: {name} differs between traced passes")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["src.lines"] = source_lines()
    return all_passes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--flip-expected", action="store_true",
                        help="falsify one expected verdict (self-check)")
    args = parser.parse_args(argv)

    nproc, blas_threads = pin_blas()
    check_source()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_probe:
            WORKLOADS[args.workload](import_flagspec(), args.seed, workdir).setup()
            return 0
        setup_times = [] if args.trace else [setup_probe(args) for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        fs = import_flagspec()
        w = WORKLOADS[args.workload](fs, args.seed, workdir)
        w.setup()
        setup_inproc_s = time.perf_counter() - t0
        if args.flip_expected:
            w.flip_expected()
        passes = max(1, round(args.seconds / w.nominal_pass_s))
        if args.trace:
            all_passes, metrics = measure_traced(w, passes)
            units, meta = PER_LAYER, {}
        else:
            all_passes = [w.run_pass(w.prepare(k), traced=False) for k in range(passes)]
            metrics, meta = end_to_end(all_passes, setup_times)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted, failures = verdicts(all_passes)
    for name in failures[:20]:
        print(f"perfbench: wrong verdict: {name}", file=sys.stderr)
    import numpy  # already loaded by flagspec, after pin_blas

    meta.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(all_passes),
        "fail_rate": len(failures) / attempted, "attempted": attempted,
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": nproc, "blas_threads": blas_threads,
        "load": "closed loop, one caller, one process at a time",
        "setup_probe_s": setup_times, "setup_inproc_s": setup_inproc_s,
    })
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
