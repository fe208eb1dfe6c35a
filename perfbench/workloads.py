"""The four benchmark workloads.

Each workload is a closed loop with one caller: it issues a verdict call,
waits for it, checks it, and only then issues the next.  A workload has a
set-up step (everything before the timed phase), a prepare step that makes
one pass's inputs from the seed (untimed and untraced), and a pass that
makes every verdict call once and times each call on its own.  Checks run
after the timed call and call none of the library's functions, so a traced
pass records spans only inside timed calls.

Why these four:
- table5: the user's headline verdict, run_reproduction; most of its time
  is canonical_form in the relabeling sweep.
- ladder: validation, flag graphs, classify and exact spectra on a size
  ladder past the catalog (n = 12 ... 333); char_poly dominates and
  isomorphism is never called.
- iso-scale: design and flag-graph isomorphism past the catalog, on
  relabeled copies and on non-isomorphic pairs with equal parameters, up
  to n = 333; spectra is bypassed.
- cli-calls: single decisions, one `python -m flagspec.cli` process each,
  where interpreter start, imports, catalog and graph6 parsing carry the
  time.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import expected as X
from families import FAMILY_PARAMS, build_family_design
from tracer import TraceError

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 120


@dataclass
class Call:
    """One timed verdict call and the checks made on its result."""

    label: str
    n: int  # flags (or vertices) of the call's input; picks the top rung
    seconds: float
    checks: list[tuple[str, bool]]
    spans: list = field(default_factory=list)  # spans of a traced child process
    startup_s: float = 0.0  # child process: spawn until flagspec.cli imported
    rss_kb: int = 0  # child process: peak resident set


def timed(label: str, n: int, fn, check) -> tuple[Call, object]:
    """Time fn() alone, then check its result.  An exception is a failed
    verdict, never a crash of the benchmark."""
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001 - any failure is a wrong verdict
        seconds = time.perf_counter() - t0
        return Call(label, n, seconds, [(f"{label} raised {exc!r}", False)]), None
    seconds = time.perf_counter() - t0
    try:
        checks = check(result)
    except Exception as exc:  # noqa: BLE001 - a malformed result is wrong too
        checks = [(f"{label} result unreadable: {exc!r}", False)]
    return Call(label, n, seconds, checks), result


def relabeled_design(fs, d, rng: random.Random):
    """Random point permutation and block order, as a fresh Design."""
    perm = list(range(d.v))
    rng.shuffle(perm)
    blocks = [[perm[p] for p in block] for block in d.blocks]
    rng.shuffle(blocks)
    return fs.Design(d.v, blocks)


def pass_rng(seed: int, k: int) -> random.Random:
    return random.Random(seed * 1_000_003 + k)


def literal_claim(fs, entries):
    return fs.SpectrumClaim(
        (fs.AlgebraicEigenvalue(Fraction(a), Fraction(b), d), m)
        for a, b, d, m in entries
    )


def refuted_entries(entries):
    """The true spectrum with one -2 moved to 0."""
    out = [(a, b, d, m - 1 if (a, b, d) == (-2, 0, 0) else m)
           for a, b, d, m in entries]
    return tuple(out) + ((0, 0, 0, 1),)


def all_designs(fs) -> dict:
    designs = {cid: fs.get_design(cid) for cid in X.CATALOG_PARAMS}
    for name in FAMILY_PARAMS:
        designs[name] = build_family_design(fs, name)
    return designs


def params_of(name: str) -> tuple:
    return X.CATALOG_PARAMS.get(name) or FAMILY_PARAMS[name]


def is_biplane(name: str) -> bool:
    v, b, r, k, lam = params_of(name)
    return v == b and lam == 2


def flag_count(name: str) -> int:
    v, b, r, k, lam = params_of(name)
    return v * r


def profile_tuple(profile) -> tuple:
    """(n, degree, classification, eta, mu) of a regular graph's profile;
    degree is None when the graph is not regular."""
    degree = next(iter(profile.degrees)) if len(profile.degrees) == 1 else None
    return (profile.n, degree, profile.classification,
            set(profile.eta_set), set(profile.mu_set))


class Workload:
    name = ""
    # pass length at the seed commit on a 2-core machine; with --seconds it
    # fixes the number of passes, so every run, and every commit, takes the
    # same number of samples
    nominal_pass_s = 1.0

    def __init__(self, fs, seed: int, workdir: Path):
        self.fs, self.seed, self.workdir = fs, seed, workdir

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, k: int):
        return k

    def run_pass(self, inputs, traced: bool) -> list[Call]:
        raise NotImplementedError

    def expected_counts(self, inputs) -> dict[str, int]:
        """Span counts of one pass, derived from the inputs alone."""
        raise NotImplementedError

    def flip_expected(self) -> None:
        """Deliberately falsify one expected verdict (self-check only)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# table5
# ---------------------------------------------------------------------------

class Table5(Workload):
    """The battery as `flagspec report paper-table5` runs it, whose default
    relabeling seed is 1729: pass k uses seed 1729 + k, whatever --seed is.
    The battery's time depends on its relabeling draws (one seed ran 25%
    slower than another), so a --seed-dependent draw moved the ten-seed
    spread of wall_s to 0.2, near the 0.25 bound."""

    name = "table5"
    nominal_pass_s = 5.5

    def setup(self):
        self.details = {c: list(lines) for c, lines in X.TABLE5_DETAILS.items()}
        for cid in X.CATALOG_PARAMS:
            self.fs.get_entry(cid)

    def prepare(self, k):
        return 1729 + k

    def run_pass(self, pass_seed, traced):
        fs, rounds = self.fs, X.TABLE5_RELABEL_ROUNDS

        def check(report):
            out = []
            got = {c.number: c for c in report.criteria}
            for number, lines in self.details.items():
                crit = got.get(number)
                actual = list(crit.details) if crit else []
                out.append((f"criterion {number} passed", bool(crit and crit.passed)))
                for i, line in enumerate(lines):
                    seen = actual[i] if i < len(actual) else None
                    out.append((f"criterion {number}: {line}", seen == line))
                if len(actual) > len(lines):
                    out.append((f"criterion {number} has extra lines", False))
            if set(got) != set(self.details):
                out.append(("criterion numbers", False))
            return out

        call, _ = timed(
            "run_reproduction", 96,
            lambda: fs.run_reproduction(relabel_rounds=rounds, seed=pass_seed), check)
        return [call]

    def expected_counts(self, _inputs):
        r = X.TABLE5_RELABEL_ROUNDS
        # criterion 5: 3 four-cycles, Coxeter, 6 Clebsch, 2 within D2, and
        # D3's 32- vs 64-vertex parts (screened by order); criterion 6:
        # gamma1 and gamma2 on the 6 pairs of the triple, gamma1 on 8 and
        # gamma2 on 6 relabeled copies; criterion 7: 3 gamma1 pairs
        is_iso = 3 + 1 + 6 + 2 + 1 + 2 * 6 + 8 + 6 + 3
        screened = 1
        design_iso = 6 + 8
        # 25 graphs (8 incidence, 8 gamma1, 6 gamma2, 3 references), each
        # canonicalized once plus once per relabeling round
        sweep = 25 * (1 + r)
        # verify_spectrum 6 + 2 + (1 + 3 + 2), numeric_spectrum 9, and the
        # char-poly cache of criteria 7 and 8 over the 25 graphs
        return {
            "isomorphism.is_isomorphic": is_iso,
            "isomorphism.design_isomorphic": design_iso,
            "isomorphism.canonical_form": 2 * (is_iso - screened) + 2 * design_iso + sweep,
            "spectra.char_poly": 14 + 9 + 25,
            "spectra.numeric_spectrum": 9,
            "reporting.run_reproduction": 1,
        }

    def flip_expected(self):
        self.details[1][0] = self.details[1][0].replace(": ok", ": FAIL")


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------

class Ladder(Workload):
    name = "ladder"
    nominal_pass_s = 8.3

    def setup(self):
        fs = self.fs
        rng = random.Random(self.seed)
        designs = all_designs(fs)
        self.rungs = []
        for name in sorted(X.GAMMA1, key=lambda s: (X.GAMMA1[s][0], s)):
            spectrum = X.GAMMA1[name][5]
            refuted = (literal_claim(fs, refuted_entries(spectrum))
                       if name in X.REFUTED_RUNGS else None)
            self.rungs.append((name, relabeled_design(fs, designs[name], rng),
                               literal_claim(fs, spectrum), refuted))
        self.verify_expected = {rung[0]: True for rung in self.rungs}

    def run_pass(self, _inputs, traced):
        fs = self.fs
        calls = []
        for name, d, claim_literal, refuted in self.rungs:
            n = X.GAMMA1[name][0]
            params = params_of(name)
            call, _ = timed(f"{name}:validate", n, lambda: fs.validate_design(d),
                            lambda p: [(f"{name} params", p.as_tuple() == params)])
            calls.append(call)
            call, fg1 = timed(f"{name}:gamma1", n, lambda: fs.gamma1(d),
                              lambda fg: [(f"{name} gamma1 order", fg.graph.n == n)])
            calls.append(call)
            graphs = [("gamma1", fg1, X.GAMMA1[name][:5], fs.predicted_gamma1_profile)]
            if is_biplane(name):
                call, fg2 = timed(f"{name}:gamma2", n, lambda: fs.gamma2(d),
                                  lambda fg: [(f"{name} gamma2 order",
                                               fg.graph.n == X.GAMMA2[name][0])])
                calls.append(call)
                graphs.append(("gamma2", fg2, X.GAMMA2[name][:5],
                               fs.predicted_gamma2_profile))
            for variant, fg, want, predict in graphs:
                def classify(fg=fg, predict=predict):
                    profile = fs.classify(fg.graph)
                    return profile, fs.check_against_prediction(profile, predict(fg.params))

                calls.append(timed(
                    f"{name}:classify-{variant}", n, classify,
                    lambda r, variant=variant, want=want: [
                        (f"{name} {variant} matches prediction", r[1].passed),
                        (f"{name} {variant} profile", profile_tuple(r[0]) == want)])[0])

            def spectrum(fg1=fg1):
                claim = fs.formula_spectrum_gamma1(fs.DesignParams(*params))
                return claim, fs.verify_spectrum(fg1.graph, claim)

            want = self.verify_expected[name]
            calls.append(timed(
                f"{name}:spectrum", n, spectrum,
                lambda r: [(f"{name} formula equals the literal spectrum",
                            r[0] == claim_literal),
                           (f"{name} spectrum verified", r[1] is want)])[0])
            if refuted is not None:
                calls.append(timed(
                    f"{name}:refuted", n,
                    lambda: fs.verify_spectrum(fg1.graph, refuted),
                    lambda ok: [(f"{name} refuted claim rejected", ok is False)])[0])
        return calls

    def expected_counts(self, _inputs):
        rungs = len(self.rungs)
        biplanes = sum(is_biplane(rung[0]) for rung in self.rungs)
        refuted = sum(rung[3] is not None for rung in self.rungs)
        return {
            # explicit calls, plus the one inside each gamma1 and gamma2
            "designs.validate_design": rungs + rungs + biplanes,
            "flag_graphs.gamma1": rungs,
            "flag_graphs.gamma2": biplanes,
            "regularity.classify": rungs + biplanes,
            "spectra.verify_spectrum": rungs + refuted,
            "spectra.char_poly": rungs + refuted,
            "isomorphism.canonical_form": 0,
        }

    def flip_expected(self):
        first = self.rungs[0][0]
        self.verify_expected[first] = not self.verify_expected[first]


# ---------------------------------------------------------------------------
# iso-scale
# ---------------------------------------------------------------------------

# Positive pairs: every family design past the catalog against a relabeled
# copy (the catalog designs get the same treatment inside table5).  The
# PG(2,4) and PG(2,5) flag graphs are left out of the flag-graph pairs:
# under random relabeling their canonical forms take 0.07-1.3 s and
# 0.7-8.0 s on the seed code, a spread the few passes of one run cannot
# estimate steadily.  Both stay in the design-level pairs, and PG(2,3)
# keeps the family in the flag-graph pairs.
ISO_GAMMA1 = ("singer-pg2-3", "paley-qr-19", "paley-qr-23", "quartic-37")


class IsoScale(Workload):
    """Not listed in BENCHMARK.json: on a shared 2-core VM its call_tail_ms
    moved by up to 27% (quartile spread over ten seeds), more than the
    benchmark's bound; it stays runnable for isomorphism work at scale."""

    name = "iso-scale"
    nominal_pass_s = 6.25

    def setup(self):
        fs = self.fs
        self.designs = all_designs(fs)
        self.positive = sorted(FAMILY_PARAMS, key=lambda s: (flag_count(s), s))
        triple = {a for pair in X.ISO_NEGATIVE for a in pair[:2]
                  if a in X.CATALOG_PARAMS}
        self.g1 = {name: fs.gamma1(self.designs[name]).graph
                   for name in ISO_GAMMA1 + tuple(sorted(triple))}
        self.g2 = {name: fs.gamma2(self.designs[name]).graph
                   for name in sorted(triple) + ["quartic-37"]}
        self.negative = [list(pair) for pair in X.ISO_NEGATIVE]

    def prepare(self, k):
        """Fresh relabeled copies for every positive pair of this pass."""
        fs, rng = self.fs, pass_rng(self.seed, k)
        copies = {name: relabeled_design(fs, self.designs[name], rng)
                  for name in self.positive}
        # a pair's size is the vertex count of the graphs compared: the
        # incidence graph (v + b) for designs, the flag count for gamma1/2
        pairs = []
        for name in self.positive:
            d = self.designs[name]
            pairs.append((f"{name}:design", d.v + d.b, "design", d, copies[name], True))
            if name in ISO_GAMMA1:
                pairs.append((f"{name}:gamma1", flag_count(name), "gamma1",
                              self.g1[name], fs.gamma1(copies[name]).graph, True))
            if is_biplane(name):
                pairs.append((f"{name}:gamma2", flag_count(name), "gamma2",
                              self.g2[name], fs.gamma2(copies[name]).graph, True))
        for a, b, kind, want in self.negative:
            if kind == "design":
                left, n = self.designs, self.designs[a].v + self.designs[a].b
            else:
                left, n = (self.g1 if kind == "gamma1" else self.g2), flag_count(a)
            pairs.append((f"{a}~{b}:{kind}", n, kind, left[a], left[b], want))
        return pairs

    def run_pass(self, pairs, traced):
        fs = self.fs
        calls = []
        for label, n, kind, left, right, want in pairs:
            decide = fs.design_isomorphic if kind == "design" else fs.is_isomorphic
            calls.append(timed(label, n, lambda: decide(left, right),
                               lambda got: [(label, got is want)])[0])
        return calls

    def expected_counts(self, pairs):
        design = sum(kind == "design" for _, _, kind, *_ in pairs)
        graph = [(g, h) for _, _, kind, g, h, _ in pairs if kind != "design"]

        def invariants(g):
            degrees = [0] * g.n
            for i, j in g.edges:
                degrees[i] += 1
                degrees[j] += 1
            return g.n, len(g.edges), sorted(degrees)

        screened = sum(invariants(g) != invariants(h) for g, h in graph)
        # every design pair here has equal parameters, so both sides are
        # canonicalized; unscreened graph pairs canonicalize both graphs
        return {
            "isomorphism.design_isomorphic": design,
            "isomorphism.is_isomorphic": len(graph),
            "isomorphism.canonical_form": 2 * design + 2 * (len(graph) - screened),
            "spectra.char_poly": 0,
        }

    def flip_expected(self):
        self.negative[0][3] = not self.negative[0][3]


# ---------------------------------------------------------------------------
# cli-calls
# ---------------------------------------------------------------------------

def _params_json(p) -> dict:
    v, b, r, k, lam = p
    return {"v": v, "b": b, "r": r, "k": k, "lambda": lam, "symmetric": v == b}


class CliCalls(Workload):
    name = "cli-calls"
    nominal_pass_s = 3.2

    def setup(self):
        fs = self.fs
        rng = random.Random(self.seed)
        designs = {name: fs.get_design(name) if name in X.CATALOG_PARAMS
                   else build_family_design(fs, name)
                   for name in ("paley-qr-19", "quartic-37", "singer-pg2-3",
                                "biplane-16-6-2-D1", "biplane-16-6-2-D2",
                                "biplane-16-6-2-D3")}
        copy = {name: relabeled_design(fs, d, rng) for name, d in designs.items()}
        files = {
            "qr19.json": fs.design_to_json(designs["paley-qr-19"]),
            "qr19-copy.json": fs.design_to_json(copy["paley-qr-19"]),
            "quartic37.json": fs.design_to_json(copy["quartic-37"]),
            "d1-g1.g6": fs.graph_to_graph6(fs.gamma1(designs["biplane-16-6-2-D1"]).graph),
            "d1-g1-copy.g6": fs.graph_to_graph6(fs.gamma1(copy["biplane-16-6-2-D1"]).graph),
            "d2-g1.g6": fs.graph_to_graph6(fs.gamma1(designs["biplane-16-6-2-D2"]).graph),
            "d3-g2-copy.g6": fs.graph_to_graph6(fs.gamma2(copy["biplane-16-6-2-D3"]).graph),
            "quartic37-g2.g6": fs.graph_to_graph6(fs.gamma2(copy["quartic-37"]).graph),
            "pg3-g1.g6": fs.graph_to_graph6(fs.gamma1(copy["singer-pg2-3"]).graph),
            "d1-g1-claim.json": fs.claim_to_json(
                literal_claim(fs, X.GAMMA1["biplane-16-6-2-D1"][5])),
            "pg3-refuted.json": fs.claim_to_json(
                literal_claim(fs, refuted_entries(X.GAMMA1["singer-pg2-3"][5]))),
        }
        self.workdir.mkdir(parents=True, exist_ok=True)
        for fname, payload in files.items():
            text = payload if isinstance(payload, str) else json.dumps(payload)
            (self.workdir / fname).write_text(text + "\n", encoding="ascii")
        q37 = {"profile": {"n": 333, "degrees": [16], "eta_set": [7],
                           "mu_set": [0, 1, 2], "classification": "QSRG"}}
        cox = {"profile": {"n": 28, "degrees": [3], "eta_set": [0],
                           "mu_set": [0, 1], "classification": "QSRG"}}
        # (label, arguments, input size, exit code, expected JSON fields)
        self.calls = [
            ["validate-catalog", ["validate", "catalog:biplane-11-5-2"], 11, 0,
             _params_json(X.CATALOG_PARAMS["biplane-11-5-2"])],
            ["validate-file", ["validate", "quartic37.json"], 37, 0,
             _params_json(FAMILY_PARAMS["quartic-37"])],
            ["iso-designs-catalog", ["iso", "--designs", "catalog:biplane-16-6-2-D1",
                                     "catalog:biplane-16-6-2-D2"], 32, 1,
             {"isomorphic": False}],
            ["iso-designs-file", ["iso", "--designs", "qr19.json", "qr19-copy.json"],
             38, 0, {"isomorphic": True}],
            ["iso-graph6-same", ["iso", "d1-g1.g6", "d1-g1-copy.g6"], 96, 0,
             {"isomorphic": True}],
            ["iso-graph6-cospectral", ["iso", "d1-g1.g6", "d2-g1.g6"], 96, 1,
             {"isomorphic": False}],
            ["spectrum-claim", ["spectrum", "d1-g1-copy.g6", "--claim",
                                "d1-g1-claim.json"], 96, 0, {"verified": True}],
            ["spectrum-refuted", ["spectrum", "pg3-g1.g6", "--claim",
                                  "pg3-refuted.json"], 52, 1, {"verified": False}],
            ["classify-catalog", ["classify", "catalog:biplane-7-4-2", "--via",
                                  "gamma2"], 28, 0,
             {"matches_prediction": True, **cox}],
            ["classify-file", ["classify", "quartic37.json", "--via", "gamma1"],
             333, 0, {"matches_prediction": True, **q37}],
            ["components-d3", ["components", "d3-g2-copy.g6"], 96, 0,
             {"count": 2, "sizes": [32, 64]}],
            ["components-quartic", ["components", "quartic37-g2.g6"], 333, 0,
             {"count": 1, "sizes": [333]}],
        ]
        self.env = dict(os.environ)
        src = str(HERE.parent / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")

    def run_pass(self, _inputs, traced):
        return [self._invoke(label, args, n, code, fields, traced)
                for label, args, n, code, fields in self.calls]

    def _invoke(self, label, args, n, code, fields, traced) -> Call:
        spans_path = self.workdir / "spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), *args]
        else:
            argv = [sys.executable, "-m", "flagspec.cli", *args]
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        checks = [(f"{label} exit code {code}", proc.returncode == code)]
        try:
            payload = json.loads(out_path.read_text(encoding="ascii"))
            if label.startswith("components"):
                payload["sizes"] = sorted(payload["sizes"])
            checks += [(f"{label} {key} = {value!r}", payload.get(key) == value)
                       for key, value in fields.items()]
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            checks.append((f"{label} output unreadable: {exc!r}", False))
        call = Call(label, n, t1 - t0, checks, rss_kb=usage.ru_maxrss)
        if traced:
            if not spans_path.exists():
                raise TraceError(f"{label}: the traced CLI process wrote no spans")
            child = json.loads(spans_path.read_text(encoding="ascii"))
            spans_path.unlink()
            call.startup_s = child["imported"] - t0
            call.spans = [["cli.process", "cli", t0, t1, -1, 0]] + [
                [name, layer, start, end, parent + 1, size]
                for name, layer, start, end, parent, size in child["spans"]]
        return call

    def expected_counts(self, _inputs):
        kinds = [args[0] + ("-designs" if "--designs" in args else "")
                 for _, args, *_ in self.calls]
        return {
            "cli.main": len(self.calls),
            "isomorphism.design_isomorphic": kinds.count("iso-designs"),
            "isomorphism.is_isomorphic": kinds.count("iso"),
            "isomorphism.canonical_form": 2 * (kinds.count("iso-designs") + kinds.count("iso")),
            "spectra.verify_spectrum": kinds.count("spectrum"),
            "spectra.char_poly": kinds.count("spectrum"),
            "regularity.classify": kinds.count("classify"),
            "graphs.connected_components": kinds.count("components")
            + 2 * kinds.count("iso"),
        }

    def flip_expected(self):
        self.calls[0][3] = 1 - self.calls[0][3]


WORKLOADS = {w.name: w for w in (Table5, Ladder, IsoScale, CliCalls)}
