"""Frozen design data and named reference graphs.

Catalog designs live as interchange JSON files under flagspec/data,
generated once by scripts/generate_catalog_data.py and re-validated on
load.  An <id>.json file in FLAGSPEC_CATALOG_DIR overrides the bundled
entry of that id; ids it does not provide load from flagspec/data.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import combinations
from pathlib import Path

from .designs import Design, DesignParams, design_from_json, validate_design
from .errors import SelfCheckFailed, UnknownCatalogId, UnknownGraphName
from .graphs import Graph, cycle_graph, degree_profile, girth
from .regularity import classify

CATALOG_IDS = (
    "biplane-4-3-2",
    "biplane-7-4-2",
    "biplane-11-5-2",
    "biplane-16-6-2-D1",
    "biplane-16-6-2-D2",
    "biplane-16-6-2-D3",
    "fano-7-3-1",
    "complete-6-20-10-3-4",
)

BIPLANE_IDS = tuple(i for i in CATALOG_IDS if i.startswith("biplane"))

REFERENCE_GRAPH_NAMES = ("clebsch", "coxeter", "cycle-4")


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    params: DesignParams
    design: Design
    provenance: str


@lru_cache(maxsize=None)
def _load_entry(entry_id: str, override: str | None) -> CatalogEntry:
    source = resources.files("flagspec").joinpath("data")
    if override and (Path(override) / f"{entry_id}.json").is_file():
        source = Path(override)
    raw = json.loads(source.joinpath(f"{entry_id}.json").read_text())
    design = design_from_json(raw)
    params = validate_design(design)
    return CatalogEntry(entry_id, params, design, raw.get("provenance", ""))


def get_entry(entry_id: str) -> CatalogEntry:
    if entry_id not in CATALOG_IDS:
        raise UnknownCatalogId(f"no catalog entry {entry_id!r}")
    return _load_entry(entry_id, os.environ.get("FLAGSPEC_CATALOG_DIR"))


def get_design(entry_id: str) -> Design:
    return get_entry(entry_id).design


def clebsch_graph() -> Graph:
    """Binary 4-vectors, adjacent when the difference is one of the four
    unit vectors or the all-ones vector; checked to be SRG(16,5,0,2)."""
    connection = (0b0001, 0b0010, 0b0100, 0b1000, 0b1111)
    edges = [
        (x, x ^ c) for x in range(16) for c in connection if x < (x ^ c)
    ]
    g = Graph(16, edges)
    p = classify(g)
    if (p.classification, p.degrees, p.eta_set, p.mu_set) != ("SRG", {5}, {0}, {2}):
        raise SelfCheckFailed(f"Clebsch graph is not SRG(16,5,0,2): {p}")
    return g


def reference_graph(name: str) -> Graph:
    if name == "clebsch":
        return clebsch_graph()
    if name == "coxeter":
        # the 28 3-subsets of Z7 that are not lines {i, i+1, i+3} of the
        # Fano plane, adjacent when disjoint
        lines = [{i, (i + 1) % 7, (i + 3) % 7} for i in range(7)]
        triples = [set(t) for t in combinations(range(7), 3) if set(t) not in lines]
        g = Graph(len(triples), [
            (i, j) for (i, s), (j, t) in combinations(enumerate(triples), 2) if not s & t
        ])
        if g.n != 28 or degree_profile(g) != {3} or girth(g) != 7:
            raise SelfCheckFailed("Coxeter graph is not cubic of order 28 and girth 7")
        return g
    if name == "cycle-4":
        return cycle_graph(4)
    raise UnknownGraphName(f"no reference graph {name!r}")
