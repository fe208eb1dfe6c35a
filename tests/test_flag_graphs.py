import random
from itertools import combinations

import pytest

from flagspec.catalog import BIPLANE_IDS, CATALOG_IDS
from flagspec.designs import (
    Design,
    design_from_difference_set,
    enumerate_flags,
    incidence_graph,
    validate_design,
)
from flagspec.errors import NotABiplane, PairCountMismatch
from flagspec.flag_graphs import flag_graph_to_json, gamma1, gamma2
from flagspec.graphs import girth, graph_from_json, line_graph
from test_spectra import _difference_set_designs


def test_gamma1_fano(catalog_designs):
    d = catalog_designs["fano-7-3-1"]
    fg = gamma1(d)
    assert fg.variant == "gamma1"
    assert fg.graph.n == 21
    assert all(fg.graph.degree(x) == 4 for x in range(21))
    assert fg.graph == line_graph(incidence_graph(d))


def test_gamma1_flag_order_and_index(catalog_designs):
    d = catalog_designs["biplane-4-3-2"]
    fg = gamma1(d)
    assert list(fg.flags) == sorted(fg.flags)  # lex by (point, block_index)
    assert list(fg.flags) == enumerate_flags(d)


def _relabeled(d, rng):
    """d with its points permuted and its blocks shuffled."""
    perm = list(range(d.v))
    rng.shuffle(perm)
    blocks = [[perm[p] for p in blk] for blk in d.blocks]
    rng.shuffle(blocks)
    return Design(d.v, blocks, allow_repeated_blocks=d.allow_repeated_blocks)


def test_both_flag_graphs_take_their_flags_from_enumerate_flags(catalog_designs):
    rng = random.Random(1729)
    fano = catalog_designs["fano-7-3-1"]
    doubled = Design(fano.v, fano.blocks * 2, allow_repeated_blocks=True)
    designs = [*catalog_designs.values(), *_difference_set_designs(), doubled]
    for d in designs + [_relabeled(d, rng) for d in designs]:
        flags = tuple(enumerate_flags(d))
        inc = incidence_graph(d)
        fg = gamma1(d)
        assert fg.flags == flags
        # incidence edge i, read as a flag, is flag i
        assert [(f.point, d.v + f.block_index) for f in flags] == list(inc.edges)
        assert fg.graph == line_graph(inc)
        params = validate_design(d)
        if params.is_symmetric and params.lam == 2:
            assert gamma2(d).flags == flags


BIPLANE_37 = design_from_difference_set(37, [1, 7, 9, 10, 12, 16, 26, 33, 34])


@pytest.mark.parametrize("did", BIPLANE_IDS + ("biplane-37",))
def test_validated_biplanes_meet_in_two_points_and_repeat_no_block(
    catalog_designs, did
):
    # gamma2 relies on both without checking: in a symmetric design
    # N^T N = (k - lambda)I + lambda J, so distinct blocks meet in lambda
    # points, and a repeated block can never pass validation
    d = BIPLANE_37 if did == "biplane-37" else catalog_designs[did]
    blocks = [set(blk) for blk in d.blocks]
    assert all(len(a & b) == 2 for a, b in combinations(blocks, 2))
    for j, l in combinations(range(d.b), 2):
        for kept, dropped in ((j, l), (l, j)):
            copy = list(d.blocks)
            copy[dropped] = d.blocks[kept]
            with pytest.raises(PairCountMismatch):
                validate_design(Design(d.v, copy, allow_repeated_blocks=True))


# every catalog design, plus one built by the difference-set construction
# (the (11,5,2) biplane from the quadratic residues mod 11)
DESIGN_IDS = CATALOG_IDS + ("qr-11",)
BIPLANE_DESIGN_IDS = BIPLANE_IDS + ("qr-11",)


def _design(catalog_designs, did):
    if did == "qr-11":
        return design_from_difference_set(11, [1, 3, 4, 5, 9])
    return catalog_designs[did]


@pytest.mark.parametrize("did", DESIGN_IDS)
def test_gamma1_adjacency_rule(catalog_designs, did):
    fg = gamma1(_design(catalog_designs, did))
    for x in range(fg.graph.n):
        for y in range(x + 1, fg.graph.n):
            p, c = fg.flags[x]
            q, e = fg.flags[y]
            expected = (p == q) != (c == e)
            assert fg.graph.has_edge(x, y) == expected


@pytest.mark.parametrize("did", BIPLANE_DESIGN_IDS)
def test_gamma2_adjacency_rule(catalog_designs, did):
    d = _design(catalog_designs, did)
    fg = gamma2(d)
    blocks = [frozenset(b) for b in d.blocks]
    for x in range(fg.graph.n):
        for y in range(x + 1, fg.graph.n):
            p, c = fg.flags[x]
            q, e = fg.flags[y]
            expected = c != e and blocks[c] & blocks[e] == {p, q}
            assert fg.graph.has_edge(x, y) == expected


def test_gamma2_smallest_biplane(catalog_designs):
    fg = gamma2(catalog_designs["biplane-4-3-2"])
    assert fg.graph.n == 12
    assert all(fg.graph.degree(x) == 2 for x in range(12))
    assert girth(fg.graph) == 4


def test_gamma2_rejects_non_biplanes(catalog_designs):
    with pytest.raises(NotABiplane):
        gamma2(catalog_designs["fano-7-3-1"])  # lambda = 1
    with pytest.raises(NotABiplane):
        gamma2(catalog_designs["complete-6-20-10-3-4"])  # lambda = 4
    # lambda = 2 but not symmetric
    doubled = Design(3, [[0, 1], [0, 2], [1, 2]] * 2, allow_repeated_blocks=True)
    with pytest.raises(NotABiplane):
        gamma2(doubled)


def test_flag_graph_json(catalog_designs):
    fg = gamma2(catalog_designs["biplane-4-3-2"])
    obj = flag_graph_to_json(fg)
    assert obj["variant"] == "gamma2"
    assert obj["params"]["lambda"] == 2
    assert obj["n"] == 12
    assert obj["flags"][0] == [0, 0]
    assert len(obj["flags"]) == 12
    # the object doubles as plain graph interchange
    assert graph_from_json({k: obj[k] for k in ("n", "edges")}) == fg.graph
