"""One-shot reproduction battery over the designs its claims name.

Every published quantity the library is supposed to reproduce is written
out here as an explicit claim: exact spectra for the flag graphs and
incidence graphs, regularity profiles, component decompositions, and the
isomorphism / cospectrality matrix of the three 16-point biplanes.  The
claims are deliberately spelled out rather than generated from the closed
formulas, so a formula bug cannot silently agree with itself.  The battery
covers exactly the designs these claims name (the biplanes of
GAMMA1_CLAIMS, the Fano plane and the 3-subsets of a 6-set), so the
catalog can grow without changing the report.

run_reproduction returns a structured report; the command line front-end
renders it and the test suite asserts on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .catalog import get_design, reference_graph
from .designs import Design, incidence_graph
from .flag_graphs import gamma1, gamma2
from .graphs import (
    Graph,
    connected_components,
    girth,
    graph_from_graph6,
    graph_to_graph6,
    line_graph,
)
from .isomorphism import canonical_form, design_isomorphic, is_isomorphic
from .regularity import (
    check_against_prediction,
    classify,
    predicted_gamma1_profile,
    predicted_gamma2_profile,
)
from .spectra import (
    AlgebraicEigenvalue,
    SpectrumClaim,
    char_poly,
    claim_to_text,
    numeric_spectrum,
    verify_spectrum,
)


def _ev(a, b=0, d=0) -> AlgebraicEigenvalue:
    return AlgebraicEigenvalue(Fraction(a), Fraction(b), d)


def _claim(*entries) -> SpectrumClaim:
    return SpectrumClaim(entries)


TRIPLE = ("biplane-16-6-2-D1", "biplane-16-6-2-D2", "biplane-16-6-2-D3")

# Exact spectra of the first flag graphs, one claim per reported biplane;
# the three 16-point biplanes share theirs (criterion 7).
GAMMA1_CLAIMS = {
    "biplane-4-3-2": _claim(
        (_ev(4), 1), (_ev(2), 3), (_ev(0), 3), (_ev(-2), 5)
    ),
    "biplane-7-4-2": _claim(
        (_ev(6), 1), (_ev(2, 1, 2), 6), (_ev(2, -1, 2), 6), (_ev(-2), 15)
    ),
    "biplane-11-5-2": _claim(
        (_ev(8), 1), (_ev(3, 1, 3), 10), (_ev(3, -1, 3), 10), (_ev(-2), 34)
    ),
    **dict.fromkeys(TRIPLE, _claim(
        (_ev(10), 1), (_ev(6), 15), (_ev(2), 15), (_ev(-2), 65)
    )),
}

# The designs the battery reports on, in catalog order.
BIPLANES = tuple(GAMMA1_CLAIMS)
DESIGNS = BIPLANES + ("fano-7-3-1", "complete-6-20-10-3-4")

# The non-symmetric worked example: the 3-subsets of a 6-set.
INCIDENCE_CLAIM_620 = _claim(
    (_ev(0, 1, 30), 1),
    (_ev(0, 1, 6), 5),
    (_ev(0), 14),
    (_ev(0, -1, 6), 5),
    (_ev(0, -1, 30), 1),
)
GAMMA1_CLAIM_620 = _claim(
    (_ev(11), 1),
    (_ev(Fraction(9, 2), Fraction(1, 2), 73), 5),
    (_ev(Fraction(9, 2), Fraction(-1, 2), 73), 5),
    (_ev(1), 14),
    (_ev(-2), 35),
)

# Component spectra of the second flag graphs of the 16-point biplanes.
CLEBSCH_CLAIM = _claim((_ev(5), 1), (_ev(1), 10), (_ev(-3), 5))
D2_COMPONENT_CLAIM = _claim(
    (_ev(5), 1),
    (_ev(1), 18),
    (_ev(1, 2, 2), 2),
    (_ev(1, -2, 2), 2),
    (_ev(-3), 9),
)
D3_COMPONENT_64_CLAIM = _claim(
    (_ev(5), 1),
    (_ev(1), 34),
    (_ev(1, 2, 2), 6),
    (_ev(1, -2, 2), 6),
    (_ev(-3), 17),
)
D3_COMPONENT_32_CLAIM = _claim(
    (_ev(5), 1), (_ev(3), 4), (_ev(1), 14), (_ev(-1), 4), (_ev(-3), 9)
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    details: tuple[str, ...]


@dataclass(frozen=True)
class ReproductionReport:
    criteria: tuple[CriterionResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)


def report_to_json(r: ReproductionReport) -> dict:
    return {
        "passed": r.passed,
        "criteria": [
            {
                "number": c.number,
                "title": c.title,
                "passed": c.passed,
                "details": list(c.details),
            }
            for c in r.criteria
        ],
    }


class _Corpus:
    """Designs, flag graphs, reference graphs and the characteristic
    polynomials of the 25 graphs of all_graphs(), shared by the criteria.
    The polynomials are computed once, up front, and criteria 7 and 8 read
    them from `charpolys`; verify_spectrum and numeric_spectrum call
    char_poly on the same Graph instances, which return the polynomial they
    hold, so one pass makes 48 char_poly calls and computes 30 polynomials.
    The catalog designs keep their incidence graphs, and those graphs their
    polynomials, so a later pass in the same process computes 22."""

    def __init__(self):
        self.designs = {i: get_design(i) for i in DESIGNS}
        self.incidence = {i: incidence_graph(d) for i, d in self.designs.items()}
        self.g1 = {i: gamma1(d) for i, d in self.designs.items()}
        self.g2 = {i: gamma2(self.designs[i]) for i in BIPLANES}
        self.references = {
            name: reference_graph(name) for name in ("clebsch", "coxeter", "cycle-4")
        }
        self.charpolys = {key: char_poly(g) for key, g in self.all_graphs().items()}

    def all_graphs(self) -> dict[str, Graph]:
        out = {}
        for i in DESIGNS:
            out[f"incidence:{i}"] = self.incidence[i]
            out[f"gamma1:{i}"] = self.g1[i].graph
        for i in BIPLANES:
            out[f"gamma2:{i}"] = self.g2[i].graph
        for name, g in self.references.items():
            out[f"reference:{name}"] = g
        return out


class _Checks:
    def __init__(self):
        self.details: list[str] = []
        self.ok = True

    def record(self, label: str, passed: bool):
        self.ok &= passed
        self.details.append(f"{label}: {'ok' if passed else 'FAIL'}")

    def spectrum(self, name: str, g: Graph, claim: SpectrumClaim):
        self.record(f"{name} spectrum = {claim_to_text(claim)}", verify_spectrum(g, claim))

    def result(self, number: int, title: str) -> CriterionResult:
        return CriterionResult(number, title, self.ok, tuple(self.details))


def _relabeled_graph(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def _relabeled_design(d: Design, rng: random.Random) -> Design:
    perm = list(range(d.v))
    rng.shuffle(perm)
    blocks = [[perm[p] for p in block] for block in d.blocks]
    rng.shuffle(blocks)
    return Design(d.v, blocks)


def _criterion_biplane_spectra(c: _Corpus) -> CriterionResult:
    ch = _Checks()
    for did, claim in GAMMA1_CLAIMS.items():
        ch.spectrum(f"gamma1({did})", c.g1[did].graph, claim)
    return ch.result(1, "exact first-flag-graph spectra of the catalog biplanes")


def _criterion_nonsymmetric_spectra(c: _Corpus) -> CriterionResult:
    ch = _Checks()
    did = "complete-6-20-10-3-4"
    ch.spectrum(f"incidence({did})", c.incidence[did], INCIDENCE_CLAIM_620)
    ch.spectrum(f"gamma1({did})", c.g1[did].graph, GAMMA1_CLAIM_620)
    return ch.result(2, "exact spectra of the non-symmetric worked example")


def _criterion_profiles(
    number: int, title: str, variant: str, flag_graphs: dict, predict
) -> CriterionResult:
    ch = _Checks()
    for did, fg in flag_graphs.items():
        profile = classify(fg.graph)
        report = check_against_prediction(profile, predict(fg.params))
        ch.record(
            f"classify({variant}({did})) = {profile.classification}, "
            f"eta={sorted(profile.eta_set)}, mu={sorted(profile.mu_set)}",
            report.passed,
        )
    return ch.result(number, title)


def _criterion_components(c: _Corpus) -> CriterionResult:
    ch = _Checks()

    def component_graphs(did: str) -> list[Graph]:
        g = c.g2[did].graph
        return [g.subgraph(part) for part in connected_components(g)]

    parts = component_graphs("biplane-4-3-2")
    cycle4 = c.references["cycle-4"]
    ch.record(
        "gamma2(biplane-4-3-2) = three components, each a 4-cycle",
        len(parts) == 3 and all(is_isomorphic(p, cycle4) for p in parts),
    )

    g742 = c.g2["biplane-7-4-2"].graph
    ch.record(
        "gamma2(biplane-7-4-2) connected, 3-regular, girth 7",
        len(connected_components(g742)) == 1
        and all(g742.degree(v) == 3 for v in range(g742.n))
        and girth(g742) == 7,
    )
    ch.record(
        "gamma2(biplane-7-4-2) isomorphic to the bundled Coxeter graph",
        is_isomorphic(g742, c.references["coxeter"]),
    )

    clebsch = c.references["clebsch"]
    profile = classify(clebsch)
    ch.record(
        "Clebsch reference is an SRG(16,5,0,2) with spectrum "
        + claim_to_text(CLEBSCH_CLAIM),
        profile.classification == "SRG"
        and profile.degrees == frozenset({5})
        and profile.eta_set == frozenset({0})
        and profile.mu_set == frozenset({2})
        and verify_spectrum(clebsch, CLEBSCH_CLAIM),
    )
    parts = component_graphs("biplane-16-6-2-D1")
    ch.record(
        "gamma2(D1) = six components, each isomorphic to the Clebsch graph",
        len(parts) == 6 and all(is_isomorphic(p, clebsch) for p in parts),
    )

    parts = component_graphs("biplane-16-6-2-D2")
    ch.record(
        "gamma2(D2) = three pairwise-isomorphic 32-vertex components, each "
        "with spectrum " + claim_to_text(D2_COMPONENT_CLAIM),
        len(parts) == 3
        and all(p.n == 32 for p in parts)
        and all(is_isomorphic(parts[0], p) for p in parts[1:])
        and all(verify_spectrum(p, D2_COMPONENT_CLAIM) for p in parts),
    )

    parts = sorted(component_graphs("biplane-16-6-2-D3"), key=lambda p: p.n)
    ch.record(
        "gamma2(D3) = non-isomorphic components of orders 32 and 64 with "
        f"spectra {claim_to_text(D3_COMPONENT_32_CLAIM)} and "
        f"{claim_to_text(D3_COMPONENT_64_CLAIM)}",
        len(parts) == 2
        and (parts[0].n, parts[1].n) == (32, 64)
        and not is_isomorphic(parts[0], parts[1])
        and verify_spectrum(parts[0], D3_COMPONENT_32_CLAIM)
        and verify_spectrum(parts[1], D3_COMPONENT_64_CLAIM),
    )
    return ch.result(5, "component decompositions of the second flag graphs")


def _criterion_isomorphism_transfer(c: _Corpus, rng: random.Random) -> CriterionResult:
    ch = _Checks()
    for i, a in enumerate(TRIPLE):
        for b in TRIPLE[i:]:
            expected = a == b
            dec_design = design_isomorphic(c.designs[a], c.designs[b])
            dec_g1 = is_isomorphic(c.g1[a].graph, c.g1[b].graph)
            dec_g2 = is_isomorphic(c.g2[a].graph, c.g2[b].graph)
            ch.record(
                f"designs {a} vs {b}: design={dec_design} "
                f"gamma1={dec_g1} gamma2={dec_g2} (expected {expected})",
                dec_design == dec_g1 == dec_g2 == expected,
            )
    for did, d in c.designs.items():
        e = _relabeled_design(d, rng)
        dec_design = design_isomorphic(d, e)
        dec_g1 = is_isomorphic(c.g1[did].graph, gamma1(e).graph)
        decisions = [dec_design, dec_g1]
        if did in c.g2:
            decisions.append(is_isomorphic(c.g2[did].graph, gamma2(e).graph))
        ch.record(
            f"{did} vs a point-relabeled copy: decisions {decisions}",
            all(x is True for x in decisions),
        )
    return ch.result(
        6, "design isomorphism transfers to both flag graphs in both directions"
    )


def _criterion_cospectral_triple(c: _Corpus) -> CriterionResult:
    ch = _Checks()
    polys = {did: c.charpolys[f"gamma1:{did}"] for did in TRIPLE}
    for i, a in enumerate(TRIPLE):
        for b in TRIPLE[i + 1 :]:
            cosp = polys[a] == polys[b]
            iso = is_isomorphic(c.g1[a].graph, c.g1[b].graph)
            ch.record(
                f"gamma1({a}) vs gamma1({b}): cospectral={cosp} isomorphic={iso}",
                cosp and not iso,
            )
    return ch.result(
        7, "the three 96-vertex flag graphs are cospectral yet non-isomorphic"
    )


def _criterion_property_suites(
    c: _Corpus, rng: random.Random, relabel_rounds: int
) -> CriterionResult:
    ch = _Checks()
    graphs = c.all_graphs()

    bad = [
        key
        for key, g in graphs.items()
        if c.charpolys[key].coefficient(g.n - 1) != 0
        or c.charpolys[key].coefficient(g.n - 2) != -g.edge_count
    ]
    ch.record(
        f"char-poly trace and edge-count coefficients on {len(graphs)} graphs",
        not bad,
    )

    bad = [
        key for key, g in graphs.items() if graph_from_graph6(graph_to_graph6(g)) != g
    ]
    ch.record(f"graph6 round-trip on {len(graphs)} graphs", not bad)

    bad = []
    for did, fg in c.g1.items():
        inc, v = c.incidence[did], c.designs[did].v
        flags_as_edges = [(f.point, v + f.block_index) for f in fg.flags]
        if line_graph(inc) != fg.graph or list(inc.edges) != flags_as_edges:
            bad.append(did)
    ch.record(
        "gamma1 equals line_graph(incidence_graph) position by position", not bad
    )

    bad = []
    for key, g in graphs.items():
        cert = canonical_form(g).certificate
        for _ in range(relabel_rounds):
            if canonical_form(_relabeled_graph(g, rng)).certificate != cert:
                bad.append(key)
                break
    ch.record(
        f"canonical form invariant under {relabel_rounds} random relabelings "
        f"of each of {len(graphs)} graphs",
        not bad,
    )

    numeric_targets: list[tuple[str, Graph, SpectrumClaim]] = [
        ("incidence:complete-6-20-10-3-4", c.incidence["complete-6-20-10-3-4"],
         INCIDENCE_CLAIM_620),
        ("gamma1:complete-6-20-10-3-4", c.g1["complete-6-20-10-3-4"].graph,
         GAMMA1_CLAIM_620),
        ("reference:clebsch", c.references["clebsch"], CLEBSCH_CLAIM),
    ]
    for did, claim in GAMMA1_CLAIMS.items():
        numeric_targets.append((f"gamma1:{did}", c.g1[did].graph, claim))
    bad = []
    for key, g, claim in numeric_targets:
        numeric = numeric_spectrum(g, 1e-9)
        exact = [(ev.approx(), m) for ev, m in claim.entries]
        if len(numeric) != len(exact) or any(
            nm != em or abs(nv - ev) > 1e-9
            for (nv, nm), (ev, em) in zip(numeric, exact)
        ):
            bad.append(key)
    ch.record(
        f"numeric spectra match the exact claims at 1e-9 on "
        f"{len(numeric_targets)} graphs",
        not bad,
    )
    return ch.result(8, "property suites: coefficients, graph6, line graph, "
                        "relabeling invariance, numeric agreement")


def run_reproduction(relabel_rounds: int = 100, seed: int = 1729) -> ReproductionReport:
    """Evaluate every published claim against freshly built objects.

    relabel_rounds controls the canonical-form invariance sweep; 100 is the
    level the suite promises, smaller values make interactive runs quick.
    """
    if relabel_rounds < 1:
        raise ValueError("relabel_rounds must be positive")
    rng = random.Random(seed)
    c = _Corpus()
    criteria = (
        _criterion_biplane_spectra(c),
        _criterion_nonsymmetric_spectra(c),
        _criterion_profiles(
            3, "first flag graphs match the predicted regularity profiles",
            "gamma1", c.g1, predicted_gamma1_profile,
        ),
        _criterion_profiles(
            4, "second flag graphs are (k-1)-regular, triangle-free, mu within {0,1,2}",
            "gamma2", c.g2, predicted_gamma2_profile,
        ),
        _criterion_components(c),
        _criterion_isomorphism_transfer(c, rng),
        _criterion_cospectral_triple(c),
        _criterion_property_suites(c, rng, relabel_rounds),
    )
    return ReproductionReport(criteria)


def render_report(r: ReproductionReport) -> str:
    lines = []
    for crit in r.criteria:
        lines.append(f"[{'PASS' if crit.passed else 'FAIL'}] {crit.number}. {crit.title}")
        for detail in crit.details:
            lines.append(f"    {detail}")
    lines.append(f"overall: {'PASS' if r.passed else 'FAIL'}")
    return "\n".join(lines)
