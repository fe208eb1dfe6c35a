import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagspec.designs import DesignParams
from flagspec.errors import NotABiplane
from flagspec.graphs import Graph, complete_graph, cycle_graph
from flagspec.regularity import (
    PredictedProfile,
    check_against_prediction,
    classify,
    predicted_gamma1_profile,
    predicted_gamma2_profile,
    profile_to_json,
)

from oracles import pair_audit_classify


def petersen() -> Graph:
    # Kneser graph on the 2-subsets of a 5-set, adjacent iff disjoint
    pairs = list(combinations(range(5), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    edges = [
        (idx[a], idx[b])
        for a in pairs
        for b in pairs
        if a < b and not set(a) & set(b)
    ]
    return Graph(10, edges)


def test_classify_extreme_graphs():
    assert classify(Graph(4, [])).classification == "Edgeless"
    assert classify(complete_graph(5)).classification == "Complete"
    assert classify(Graph(4, [(0, 1), (1, 2), (2, 3)])).classification == "NotRegular"
    with pytest.raises(ValueError):
        classify(Graph(1, []))


def test_classify_strongly_regular():
    p = classify(cycle_graph(5))
    assert p.classification == "SRG"
    assert (p.degrees, p.eta_set, p.mu_set) == (
        frozenset({2}), frozenset({0}), frozenset({1}),
    )
    p = classify(petersen())
    assert p.classification == "SRG"
    assert (p.degrees, p.eta_set, p.mu_set) == (
        frozenset({3}), frozenset({0}), frozenset({1}),
    )
    # C4 is complete bipartite: adjacent 0, non-adjacent 2
    p = classify(cycle_graph(4))
    assert p.classification == "SRG"
    assert p.mu_set == frozenset({2})


def test_classify_quasi_strong():
    p = classify(cycle_graph(6))
    assert p.classification == "QSRG"
    assert p.eta_set == frozenset({0})
    assert p.mu_set == frozenset({0, 1})


def test_classify_almost_quasi_strong():
    # the 3-prism: triangle edges see one common neighbor, rungs none
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                  (0, 3), (1, 4), (2, 5)])
    p = classify(g)
    assert p.classification == "AQSRG"
    assert p.degrees == frozenset({3})
    assert p.eta_set == frozenset({0, 1})
    assert p.mu_set == frozenset({2})


def test_profile_json_round_trip_fields():
    obj = profile_to_json(classify(cycle_graph(5)))
    assert obj == {
        "n": 5,
        "degrees": [2],
        "eta_set": [0],
        "mu_set": [1],
        "classification": "SRG",
    }


def test_predicted_gamma1_profile():
    p = predicted_gamma1_profile(DesignParams(7, 7, 3, 3, 1))
    assert p.n == 21 and p.degree == 4
    assert p.eta_set == frozenset({1})
    assert p.mu_superset == frozenset({0, 1})
    p = predicted_gamma1_profile(DesignParams(6, 20, 10, 3, 4))
    assert p.n == 60 and p.degree == 11
    assert p.eta_set == frozenset({8, 1})
    assert p.mu_superset == frozenset({0, 1, 2})


def test_predicted_gamma2_profile():
    p = predicted_gamma2_profile(DesignParams(11, 11, 5, 5, 2))
    assert p.n == 55 and p.degree == 4
    assert p.eta_set == frozenset({0})
    assert p.mu_superset == frozenset({0, 1, 2})
    with pytest.raises(NotABiplane):
        predicted_gamma2_profile(DesignParams(7, 7, 3, 3, 1))


def test_check_against_prediction_modes():
    actual = classify(cycle_graph(6))
    predicted = predicted_gamma2_profile(DesignParams(4, 4, 3, 3, 2))
    # C6 is 2-regular triangle-free with mu {0,1}: passes the gamma2 shape
    # except the vertex count
    report = check_against_prediction(actual, predicted)
    assert not report.n_ok and report.degree_ok and report.eta_ok and report.mu_ok
    assert not report.passed


def test_gamma1_prediction_requires_exact_mu(gamma1_graphs):
    fg = gamma1_graphs["fano-7-3-1"]
    actual = classify(fg.graph)
    predicted = predicted_gamma1_profile(fg.params)
    assert check_against_prediction(actual, predicted).passed
    # for gamma1 the mu set must be attained exactly, a superset is not enough
    widened = PredictedProfile(
        n=predicted.n,
        degree=predicted.degree,
        eta_set=predicted.eta_set,
        mu_superset=frozenset({0, 1, 2}),
        variant="gamma1",
    )
    assert not check_against_prediction(actual, widened).mu_ok


def _fields(p):
    return p.n, p.degrees, p.eta_set, p.mu_set, p.classification


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["edgeless", "complete", "random", "random"]))
    if kind == "edgeless":
        return Graph(n, [])
    if kind == "complete":
        return complete_graph(n)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0, 1))
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(small_graphs())
def test_classify_matches_pair_audit(g):
    assert _fields(classify(g)) == pair_audit_classify(g)


def test_classify_matches_pair_audit_on_flag_graphs(gamma1_graphs, gamma2_graphs):
    for g in [*(fg.graph for fg in gamma1_graphs.values()),
              *(fg.graph for fg in gamma2_graphs.values())]:
        assert _fields(classify(g)) == pair_audit_classify(g)
