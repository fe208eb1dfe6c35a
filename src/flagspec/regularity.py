"""Regularity classification read off the common-neighbor matrix A^2.

classify takes degrees off its diagonal, the counts of adjacent pairs
(eta_set) off its entries on edges and those of non-adjacent pairs (mu_set)
off the rest.  The predicted profiles encode what the flag-graph
constructions must satisfy: gamma1 of a (v,b,r,k,lambda) design is a (vr,
k+r-2, {r-2,k-2}; {0,1} or {0,1,2})-AQSRG with every mu value attained, and
gamma2 of a biplane is a (vk, k-1, {0}; subset of {0,1,2})-QSRG where the
guarantee is weaker: 0 is always attained plus at least one of 1, 2, but
which of the subsets occurs depends on the individual biplane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import DesignParams
from .errors import NotABiplane
from .graphs import Graph, _gram

SRG = "SRG"
QSRG = "QSRG"
AQSRG = "AQSRG"
NOT_REGULAR = "NotRegular"
COMPLETE = "Complete"
EDGELESS = "Edgeless"


@dataclass(frozen=True)
class RegularityProfile:
    n: int
    degrees: frozenset[int]
    eta_set: frozenset[int]
    mu_set: frozenset[int]
    classification: str


@dataclass(frozen=True)
class PredictedProfile:
    """Profile forced by the design parameters alone."""

    n: int
    degree: int
    eta_set: frozenset[int]
    mu_superset: frozenset[int]
    variant: str  # "gamma1" or "gamma2"


@dataclass(frozen=True)
class PredictionReport:
    n_ok: bool
    degree_ok: bool
    eta_ok: bool
    mu_ok: bool

    @property
    def passed(self) -> bool:
        return self.n_ok and self.degree_ok and self.eta_ok and self.mu_ok


def classify(g: Graph) -> RegularityProfile:
    """Profile of g read off A^2 over all vertex pairs; no sampling."""
    if g.n < 2:
        raise ValueError("classification needs at least 2 vertices")
    adj = g.adjacency()
    common = _gram(adj)
    degrees = frozenset(np.unique(np.diagonal(common)).tolist())
    eta = frozenset(np.unique(common[adj == 1]).tolist())
    np.fill_diagonal(adj, 1)  # mu runs over distinct non-adjacent pairs
    mu = frozenset(np.unique(common[adj == 0]).tolist())
    if not g.edges:
        label = EDGELESS
    elif 2 * g.edge_count == g.n * (g.n - 1):
        label = COMPLETE
    elif len(degrees) != 1:
        label = NOT_REGULAR
    elif len(eta) <= 1 and len(mu) <= 1:
        label = SRG
    elif len(eta) <= 1:
        label = QSRG
    else:
        label = AQSRG
    return RegularityProfile(g.n, degrees, eta, mu, label)


def predicted_gamma1_profile(p: DesignParams) -> PredictedProfile:
    """(vr, k+r-2, {r-2, k-2}; {0,1} if lambda=1 else {0,1,2})."""
    mu = frozenset({0, 1}) if p.lam == 1 else frozenset({0, 1, 2})
    return PredictedProfile(
        n=p.v * p.r,
        degree=p.k + p.r - 2,
        eta_set=frozenset({p.r - 2, p.k - 2}),
        mu_superset=mu,
        variant="gamma1",
    )


def predicted_gamma2_profile(p: DesignParams) -> PredictedProfile:
    """(vk, k-1, {0}; {0,1,2}) for a biplane."""
    if p.lam != 2 or not p.is_symmetric:
        raise NotABiplane(
            f"predicted gamma2 profile needs a biplane, got {p.as_tuple()}"
        )
    return PredictedProfile(
        n=p.v * p.k,
        degree=p.k - 1,
        eta_set=frozenset({0}),
        mu_superset=frozenset({0, 1, 2}),
        variant="gamma2",
    )


def check_against_prediction(
    actual: RegularityProfile, predicted: PredictedProfile
) -> PredictionReport:
    """Field-by-field comparison.

    mu handling differs by variant: gamma1 must attain the predicted set
    exactly, gamma2 only has to stay inside it while containing 0 and at
    least one of {1, 2}.
    """
    n_ok = actual.n == predicted.n
    degree_ok = actual.degrees == frozenset({predicted.degree})
    eta_ok = actual.eta_set == predicted.eta_set
    if predicted.variant == "gamma1":
        mu_ok = actual.mu_set == predicted.mu_superset
    else:
        mu_ok = (
            actual.mu_set <= predicted.mu_superset
            and 0 in actual.mu_set
            and bool(actual.mu_set & {1, 2})
        )
    return PredictionReport(n_ok, degree_ok, eta_ok, mu_ok)


def profile_to_json(p: RegularityProfile) -> dict:
    return {
        "n": p.n,
        "degrees": sorted(p.degrees),
        "eta_set": sorted(p.eta_set),
        "mu_set": sorted(p.mu_set),
        "classification": p.classification,
    }


def prediction_to_json(r: PredictionReport) -> dict:
    return {
        "n_ok": r.n_ok,
        "degree_ok": r.degree_ok,
        "eta_ok": r.eta_ok,
        "mu_ok": r.mu_ok,
        "passed": r.passed,
    }
