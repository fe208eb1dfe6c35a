"""Expected verdicts, written out literally.

Nothing here is computed by the code under test.  Parameter tuples,
profiles and spectra follow from the design parameters by hand (for a
symmetric (v, k, lambda) design gamma1 is (2k-2)-regular with eta = {k-2},
mu = {0, 1} when lambda = 1 and {0, 1, 2} otherwise, and spectrum
2k-2, (k-2 +- sqrt(k-lambda))^(v-1), (-2)^(vk-2v+1)); the gamma2 profiles
and component sizes are the published ones for the catalog biplanes and
were recorded once for the (37, 9, 2) biplane.  A flipped entry must show
up as a failed verdict, which the self-check confirms.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# table5: run_reproduction(relabel_rounds=TABLE5_RELABEL_ROUNDS)
# ---------------------------------------------------------------------------

TABLE5_RELABEL_ROUNDS = 1

# criterion number -> every detail line of that criterion, in order; each
# line must end in ": ok" and the criterion must report passed
TABLE5_DETAILS = {
    1: (
        "gamma1(biplane-4-3-2) spectrum = 4, 2^3, 0^3, (-2)^5: ok",
        "gamma1(biplane-7-4-2) spectrum = 6, (2+√2)^6, (2-√2)^6, (-2)^15: ok",
        "gamma1(biplane-11-5-2) spectrum = 8, (3+√3)^10, (3-√3)^10, (-2)^34: ok",
        "gamma1(biplane-16-6-2-D1) spectrum = 10, 6^15, 2^15, (-2)^65: ok",
        "gamma1(biplane-16-6-2-D2) spectrum = 10, 6^15, 2^15, (-2)^65: ok",
        "gamma1(biplane-16-6-2-D3) spectrum = 10, 6^15, 2^15, (-2)^65: ok",
    ),
    2: (
        "incidence(complete-6-20-10-3-4) spectrum = √30, (√6)^5, 0^14, "
        "(-√6)^5, -√30: ok",
        "gamma1(complete-6-20-10-3-4) spectrum = 11, (9/2+1/2√73)^5, 1^14, "
        "(9/2-1/2√73)^5, (-2)^35: ok",
    ),
    3: (
        "classify(gamma1(biplane-4-3-2)) = QSRG, eta=[1], mu=[0, 1, 2]: ok",
        "classify(gamma1(biplane-7-4-2)) = QSRG, eta=[2], mu=[0, 1, 2]: ok",
        "classify(gamma1(biplane-11-5-2)) = QSRG, eta=[3], mu=[0, 1, 2]: ok",
        "classify(gamma1(biplane-16-6-2-D1)) = QSRG, eta=[4], mu=[0, 1, 2]: ok",
        "classify(gamma1(biplane-16-6-2-D2)) = QSRG, eta=[4], mu=[0, 1, 2]: ok",
        "classify(gamma1(biplane-16-6-2-D3)) = QSRG, eta=[4], mu=[0, 1, 2]: ok",
        "classify(gamma1(fano-7-3-1)) = QSRG, eta=[1], mu=[0, 1]: ok",
        "classify(gamma1(complete-6-20-10-3-4)) = AQSRG, eta=[1, 8], "
        "mu=[0, 1, 2]: ok",
    ),
    4: (
        "classify(gamma2(biplane-4-3-2)) = QSRG, eta=[0], mu=[0, 2]: ok",
        "classify(gamma2(biplane-7-4-2)) = QSRG, eta=[0], mu=[0, 1]: ok",
        "classify(gamma2(biplane-11-5-2)) = QSRG, eta=[0], mu=[0, 1]: ok",
        "classify(gamma2(biplane-16-6-2-D1)) = QSRG, eta=[0], mu=[0, 2]: ok",
        "classify(gamma2(biplane-16-6-2-D2)) = QSRG, eta=[0], mu=[0, 1, 2]: ok",
        "classify(gamma2(biplane-16-6-2-D3)) = QSRG, eta=[0], mu=[0, 1, 2]: ok",
    ),
    5: (
        "gamma2(biplane-4-3-2) = three components, each a 4-cycle: ok",
        "gamma2(biplane-7-4-2) connected, 3-regular, girth 7: ok",
        "gamma2(biplane-7-4-2) isomorphic to the bundled Coxeter graph: ok",
        "Clebsch reference is an SRG(16,5,0,2) with spectrum 5, 1^10, (-3)^5: ok",
        "gamma2(D1) = six components, each isomorphic to the Clebsch graph: ok",
        "gamma2(D2) = three pairwise-isomorphic 32-vertex components, each with "
        "spectrum 5, (1+2√2)^2, 1^18, (1-2√2)^2, (-3)^9: ok",
        "gamma2(D3) = non-isomorphic components of orders 32 and 64 with spectra "
        "5, 3^4, 1^14, (-1)^4, (-3)^9 and 5, (1+2√2)^6, 1^34, (1-2√2)^6, "
        "(-3)^17: ok",
    ),
    6: tuple(
        f"designs biplane-16-6-2-{a} vs biplane-16-6-2-{b}: design={v} "
        f"gamma1={v} gamma2={v} (expected {v}): ok"
        for a, b, v in (
            ("D1", "D1", True), ("D1", "D2", False), ("D1", "D3", False),
            ("D2", "D2", True), ("D2", "D3", False), ("D3", "D3", True),
        )
    )
    + tuple(
        f"{did} vs a point-relabeled copy: decisions {dec}: ok"
        for did, dec in (
            ("biplane-4-3-2", "[True, True, True]"),
            ("biplane-7-4-2", "[True, True, True]"),
            ("biplane-11-5-2", "[True, True, True]"),
            ("biplane-16-6-2-D1", "[True, True, True]"),
            ("biplane-16-6-2-D2", "[True, True, True]"),
            ("biplane-16-6-2-D3", "[True, True, True]"),
            ("fano-7-3-1", "[True, True]"),
            ("complete-6-20-10-3-4", "[True, True]"),
        )
    ),
    7: tuple(
        f"gamma1(biplane-16-6-2-{a}) vs gamma1(biplane-16-6-2-{b}): "
        "cospectral=True isomorphic=False: ok"
        for a, b in (("D1", "D2"), ("D1", "D3"), ("D2", "D3"))
    ),
    8: (
        "char-poly trace and edge-count coefficients on 25 graphs: ok",
        "graph6 round-trip on 25 graphs: ok",
        "gamma1 equals line_graph(incidence_graph) position by position: ok",
        f"canonical form invariant under {TABLE5_RELABEL_ROUNDS} random "
        "relabelings of each of 25 graphs: ok",
        "numeric spectra match the exact claims at 1e-9 on 9 graphs: ok",
    ),
}

# ---------------------------------------------------------------------------
# ladder and iso-scale: designs and their flag graphs
# ---------------------------------------------------------------------------

# (v, b, r, k, lambda) of the catalog designs
CATALOG_PARAMS = {
    "biplane-4-3-2": (4, 4, 3, 3, 2),
    "biplane-7-4-2": (7, 7, 4, 4, 2),
    "biplane-11-5-2": (11, 11, 5, 5, 2),
    "biplane-16-6-2-D1": (16, 16, 6, 6, 2),
    "biplane-16-6-2-D2": (16, 16, 6, 6, 2),
    "biplane-16-6-2-D3": (16, 16, 6, 6, 2),
    "fano-7-3-1": (7, 7, 3, 3, 1),
    "complete-6-20-10-3-4": (6, 20, 10, 3, 4),
}

# gamma1: name -> (vertices, degree, classification, eta, mu, spectrum);
# a spectrum entry is (a, b, d, multiplicity) for the eigenvalue a + b*sqrt(d)
GAMMA1 = {
    "biplane-4-3-2": (12, 4, "QSRG", {1}, {0, 1, 2},
                      ((4, 0, 0, 1), (2, 0, 0, 3), (0, 0, 0, 3), (-2, 0, 0, 5))),
    "fano-7-3-1": (21, 4, "QSRG", {1}, {0, 1},
                   ((4, 0, 0, 1), (1, 1, 2, 6), (1, -1, 2, 6), (-2, 0, 0, 8))),
    "biplane-7-4-2": (28, 6, "QSRG", {2}, {0, 1, 2},
                      ((6, 0, 0, 1), (2, 1, 2, 6), (2, -1, 2, 6), (-2, 0, 0, 15))),
    "singer-pg2-3": (52, 6, "QSRG", {2}, {0, 1},
                     ((6, 0, 0, 1), (2, 1, 3, 12), (2, -1, 3, 12), (-2, 0, 0, 27))),
    "biplane-11-5-2": (55, 8, "QSRG", {3}, {0, 1, 2},
                       ((8, 0, 0, 1), (3, 1, 3, 10), (3, -1, 3, 10), (-2, 0, 0, 34))),
    "complete-6-20-10-3-4": (60, 11, "AQSRG", {1, 8}, {0, 1, 2},
                             ((11, 0, 0, 1), ("9/2", "1/2", 73, 5),
                              ("9/2", "-1/2", 73, 5), (1, 0, 0, 14),
                              (-2, 0, 0, 35))),
    "biplane-16-6-2-D1": (96, 10, "QSRG", {4}, {0, 1, 2},
                          ((10, 0, 0, 1), (6, 0, 0, 15), (2, 0, 0, 15), (-2, 0, 0, 65))),
    "biplane-16-6-2-D2": (96, 10, "QSRG", {4}, {0, 1, 2},
                          ((10, 0, 0, 1), (6, 0, 0, 15), (2, 0, 0, 15), (-2, 0, 0, 65))),
    "biplane-16-6-2-D3": (96, 10, "QSRG", {4}, {0, 1, 2},
                          ((10, 0, 0, 1), (6, 0, 0, 15), (2, 0, 0, 15), (-2, 0, 0, 65))),
    "singer-pg2-4": (105, 8, "QSRG", {3}, {0, 1},
                     ((8, 0, 0, 1), (5, 0, 0, 20), (1, 0, 0, 20), (-2, 0, 0, 64))),
    "paley-qr-19": (171, 16, "QSRG", {7}, {0, 1, 2},
                    ((16, 0, 0, 1), (7, 1, 5, 18), (7, -1, 5, 18), (-2, 0, 0, 134))),
    "singer-pg2-5": (186, 10, "QSRG", {4}, {0, 1},
                     ((10, 0, 0, 1), (4, 1, 5, 30), (4, -1, 5, 30), (-2, 0, 0, 125))),
    "paley-qr-23": (253, 20, "QSRG", {9}, {0, 1, 2},
                    ((20, 0, 0, 1), (9, 1, 6, 22), (9, -1, 6, 22), (-2, 0, 0, 208))),
    "quartic-37": (333, 16, "QSRG", {7}, {0, 1, 2},
                   ((16, 0, 0, 1), (7, 1, 7, 36), (7, -1, 7, 36), (-2, 0, 0, 260))),
}

# gamma2 of the biplanes: name -> (vertices, degree, classification, eta,
# mu, sorted component sizes)
GAMMA2 = {
    "biplane-4-3-2": (12, 2, "QSRG", {0}, {0, 2}, (4, 4, 4)),
    "biplane-7-4-2": (28, 3, "QSRG", {0}, {0, 1}, (28,)),
    "biplane-11-5-2": (55, 4, "QSRG", {0}, {0, 1}, (55,)),
    "biplane-16-6-2-D1": (96, 5, "QSRG", {0}, {0, 2}, (16,) * 6),
    "biplane-16-6-2-D2": (96, 5, "QSRG", {0}, {0, 1, 2}, (32, 32, 32)),
    "biplane-16-6-2-D3": (96, 5, "QSRG", {0}, {0, 1, 2}, (32, 64)),
    "quartic-37": (333, 8, "QSRG", {0}, {0, 1}, (333,)),
}

# rungs that also get a refuted claim: the true spectrum with one -2
# moved to 0, which keeps the total multiplicity and integrality but must
# be rejected
REFUTED_RUNGS = ("biplane-7-4-2", "complete-6-20-10-3-4", "singer-pg2-4",
                 "paley-qr-19")

# iso-scale: (left, right, kind, expected).  "copy" names the seeded
# point-and-block relabeled copy of the left design; kind is "design"
# (design_isomorphic) or a flag graph ("gamma1", "gamma2").
ISO_NEGATIVE = (
    ("biplane-16-6-2-D1", "biplane-16-6-2-D2", "design", False),
    ("biplane-16-6-2-D1", "biplane-16-6-2-D3", "design", False),
    ("biplane-16-6-2-D2", "biplane-16-6-2-D3", "design", False),
    ("biplane-16-6-2-D1", "biplane-16-6-2-D2", "gamma1", False),
    ("biplane-16-6-2-D1", "biplane-16-6-2-D3", "gamma1", False),
    ("biplane-16-6-2-D2", "biplane-16-6-2-D3", "gamma1", False),
    ("biplane-16-6-2-D1", "biplane-16-6-2-D2", "gamma2", False),
    ("biplane-16-6-2-D1", "biplane-16-6-2-D3", "gamma2", False),
    ("biplane-16-6-2-D2", "biplane-16-6-2-D3", "gamma2", False),
    ("paley-qr-31", "singer-gf32-trace0", "design", False),
)
