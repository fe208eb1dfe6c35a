import json

import networkx as nx
import pytest

from flagspec import catalog, reporting
from flagspec.catalog import (
    BIPLANE_IDS,
    CATALOG_IDS,
    clebsch_graph,
    get_design,
    get_entry,
    reference_graph,
)
from flagspec.designs import design_from_difference_set, design_to_json, validate_design
from flagspec.errors import SelfCheckFailed, UnknownCatalogId, UnknownGraphName
from flagspec.flag_graphs import gamma2
from flagspec.graphs import cycle_graph, girth
from flagspec.regularity import RegularityProfile, classify

EXPECTED_PARAMS = {
    "biplane-4-3-2": (4, 4, 3, 3, 2),
    "biplane-7-4-2": (7, 7, 4, 4, 2),
    "biplane-11-5-2": (11, 11, 5, 5, 2),
    "biplane-16-6-2-D1": (16, 16, 6, 6, 2),
    "biplane-16-6-2-D2": (16, 16, 6, 6, 2),
    "biplane-16-6-2-D3": (16, 16, 6, 6, 2),
    "fano-7-3-1": (7, 7, 3, 3, 1),
    "complete-6-20-10-3-4": (6, 20, 10, 3, 4),
}


def test_catalog_ids_are_complete():
    assert set(CATALOG_IDS) == set(EXPECTED_PARAMS)
    assert set(BIPLANE_IDS) == {i for i in CATALOG_IDS if i.startswith("biplane")}


def test_every_entry_validates_to_its_parameters():
    for cid, expected in EXPECTED_PARAMS.items():
        entry = get_entry(cid)
        assert entry.id == cid
        assert validate_design(entry.design).as_tuple() == expected
        assert entry.params.as_tuple() == expected
        assert isinstance(entry.provenance, str) and entry.provenance


def test_unknown_ids_raise():
    with pytest.raises(UnknownCatalogId):
        get_entry("biplane-37-9-2")
    with pytest.raises(UnknownGraphName):
        reference_graph("petersen")


def test_clebsch_reference():
    g = clebsch_graph()
    assert g.n == 16
    p = classify(g)
    assert p.classification == "SRG"
    assert (p.degrees, p.eta_set, p.mu_set) == (
        frozenset({5}), frozenset({0}), frozenset({2}),
    )
    assert reference_graph("clebsch") == g


def test_coxeter_reference():
    g = reference_graph("coxeter")
    assert g.n == 28
    assert all(g.degree(v) == 3 for v in range(28))
    assert girth(g) == 7
    # distance-regular with the Coxeter graph's intersection array, and
    # built on its own, so criterion 5 compares two different labelings
    h = gamma2(get_design("biplane-7-4-2")).graph
    for graph in (g, h):
        array = nx.intersection_array(nx.Graph(list(graph.edges)))
        assert array == ([3, 2, 2, 1], [1, 1, 1, 2])
    assert g != h


def test_reference_checks_raise(monkeypatch):
    not_srg = RegularityProfile(
        16, frozenset({5}), frozenset({0}), frozenset({1}), "SRG"
    )
    monkeypatch.setattr(catalog, "classify", lambda g: not_srg)
    with pytest.raises(SelfCheckFailed, match="Clebsch"):
        reference_graph("clebsch")
    monkeypatch.setattr(catalog, "girth", lambda g: 6)
    with pytest.raises(SelfCheckFailed, match="Coxeter"):
        reference_graph("coxeter")


def test_cycle_reference():
    assert reference_graph("cycle-4") == cycle_graph(4)


def test_catalog_dir_override(tmp_path, monkeypatch):
    # an override directory takes priority for the ids it provides
    d = get_design("biplane-4-3-2")
    obj = design_to_json(d)
    obj["blocks"] = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]][::-1]
    payload = {"id": "biplane-4-3-2", "provenance": "override for testing", **obj}
    (tmp_path / "biplane-4-3-2.json").write_text(json.dumps(payload))
    monkeypatch.setenv("FLAGSPEC_CATALOG_DIR", str(tmp_path))
    loaded = get_design("biplane-4-3-2")
    assert loaded == d  # same design, block order is not identity
    assert get_entry("biplane-4-3-2").provenance == "override for testing"
    monkeypatch.delenv("FLAGSPEC_CATALOG_DIR")
    assert get_entry("biplane-4-3-2").provenance != "override for testing"


def test_catalog_growth_leaves_the_report_unchanged(tmp_path, monkeypatch):
    # table5 reports on the designs its literal claims name, so a biplane
    # added to the catalog (served here from an override directory) is
    # listed by the catalog and left out of the report
    before = reporting.run_reproduction(relabel_rounds=1)
    new_id = "biplane-11-5-2-qr"
    d = design_from_difference_set(11, [1, 3, 4, 5, 9])
    payload = {"id": new_id, "provenance": "quadratic residues mod 11",
               **design_to_json(d)}
    (tmp_path / f"{new_id}.json").write_text(json.dumps(payload))
    monkeypatch.setenv("FLAGSPEC_CATALOG_DIR", str(tmp_path))
    for module in (catalog, reporting):
        monkeypatch.setattr(module, "CATALOG_IDS", CATALOG_IDS + (new_id,),
                            raising=False)
        monkeypatch.setattr(module, "BIPLANE_IDS", BIPLANE_IDS + (new_id,),
                            raising=False)
    assert get_design(new_id) == d
    assert reporting.run_reproduction(relabel_rounds=1) == before
