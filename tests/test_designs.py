import json

import pytest

from flagspec import designs
from flagspec.designs import (
    Design,
    DesignParams,
    derive_params,
    design_from_difference_set,
    design_from_json,
    design_to_json,
    enumerate_flags,
    incidence_graph,
    validate_design,
)
from flagspec.errors import (
    NonIntegralParams,
    PairCountMismatch,
    RepeatedBlock,
    SelfCheckFailed,
    TrivialDesign,
    UnequalBlockSizes,
)

from oracles import pair_concurrences

FANO_BLOCKS = [
    [0, 1, 3], [1, 2, 4], [2, 3, 5], [3, 4, 6], [0, 4, 5], [1, 5, 6], [0, 2, 6],
]


def test_params_arithmetic_constraints():
    DesignParams(7, 7, 3, 3, 1)
    with pytest.raises(ValueError):
        DesignParams(7, 7, 4, 3, 1)  # vr != bk
    with pytest.raises(ValueError):
        DesignParams(7, 7, 3, 3, 2)  # lambda(v-1) != r(k-1)
    with pytest.raises(ValueError):
        DesignParams(7, 7, 3, 3, 0)


def test_params_triviality_bounds():
    with pytest.raises(TrivialDesign):
        DesignParams(4, 4, 4, 4, 4)  # k = v
    with pytest.raises(TrivialDesign):
        DesignParams(5, 5, 1, 1, 1)  # k = 1
    # k = v - 1 is allowed: the smallest biplane lives there
    p = DesignParams(4, 4, 3, 3, 2)
    assert p.is_symmetric and p.flag_count == 12


def test_derive_params_completes_the_tuple():
    assert derive_params(7, 3, 1).as_tuple() == (7, 7, 3, 3, 1)
    assert derive_params(16, 6, 2).as_tuple() == (16, 16, 6, 6, 2)
    assert derive_params(6, 3, 4).as_tuple() == (6, 20, 10, 3, 4)


def test_derive_params_rejects_impossible_parameters():
    with pytest.raises(NonIntegralParams):
        derive_params(8, 3, 1)  # r = 7/2
    with pytest.raises(NonIntegralParams):
        derive_params(6, 4, 3)  # r = 5 but b = 30/4
    with pytest.raises(TrivialDesign):
        derive_params(3, 3, 1)
    with pytest.raises(ValueError):
        derive_params(7, 3, 0)


def test_design_normalizes_blocks():
    d = Design(4, [[2, 0, 1], [3, 1, 0]])
    assert d.blocks == ((0, 1, 2), (0, 1, 3))
    assert d.b == 2
    with pytest.raises(ValueError):
        Design(4, [[0, 0, 1]])
    with pytest.raises(ValueError):
        Design(4, [[0, 1, 4]])


def test_design_equality_ignores_block_order_and_policy():
    a = Design(4, [[0, 1, 2], [0, 1, 3]])
    b = Design(4, [[1, 3, 0], [2, 1, 0]], allow_repeated_blocks=True)
    assert a == b and hash(a) == hash(b)
    assert a != Design(4, [[0, 1, 2], [0, 2, 3]])


def test_validate_fano():
    d = Design(7, FANO_BLOCKS)
    assert validate_design(d).as_tuple() == (7, 7, 3, 3, 1)


def test_validator_error_order():
    with pytest.raises(ValueError):
        validate_design(Design(5, []))
    with pytest.raises(UnequalBlockSizes):
        validate_design(Design(5, [[0, 1], [0, 1, 2]]))
    with pytest.raises(TrivialDesign):
        validate_design(Design(3, [[0, 1, 2]]))
    with pytest.raises(RepeatedBlock) as exc:
        validate_design(Design(5, [[0, 1], [1, 0], [2, 3], [2, 4], [3, 4]]))
    assert exc.value.index == 1


def test_pair_count_mismatch_reports_first_bad_pair():
    # pair (0,2) never occurs while (0,1) occurs once
    with pytest.raises(PairCountMismatch) as exc:
        validate_design(Design(4, [[0, 1], [1, 2], [2, 3]]))
    assert exc.value.pair == (0, 2)
    assert exc.value.found == 0
    assert exc.value.expected == 1


def test_repeated_blocks_policy():
    # every 2-subset of a 3-set twice over: a (3,6,4,2,2) design
    blocks = [[0, 1], [0, 2], [1, 2]] * 2
    with pytest.raises(RepeatedBlock):
        validate_design(Design(3, blocks))
    p = validate_design(Design(3, blocks, allow_repeated_blocks=True))
    assert p.as_tuple() == (3, 6, 4, 2, 2)


def test_validation_agrees_with_brute_concurrence(catalog_designs):
    for d in catalog_designs.values():
        p = validate_design(d)
        counts = pair_concurrences(d.v, d.blocks)
        assert set(counts.values()) == {p.lam}


def test_difference_set_development():
    d = design_from_difference_set(7, [1, 2, 4])
    assert validate_design(d).as_tuple() == (7, 7, 3, 3, 1)
    d = design_from_difference_set(11, [1, 3, 4, 5, 9])
    assert validate_design(d).as_tuple() == (11, 11, 5, 5, 2)
    with pytest.raises(PairCountMismatch):
        design_from_difference_set(7, [0, 1, 2])
    with pytest.raises(ValueError):
        design_from_difference_set(7, [0, 1, 9])


def test_flag_enumeration_order():
    d = Design(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    flags = enumerate_flags(d)
    assert len(flags) == 12
    assert flags[:4] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert flags == sorted(flags, key=lambda f: (f.point, f.block_index))


def test_replication_check_raises(monkeypatch):
    # pair balance forces uniform replication, so the check can only fire
    # when pair counting is bypassed: here it sees no pairs at all
    monkeypatch.setattr(designs, "combinations", lambda items, r: iter(()))
    with pytest.raises(SelfCheckFailed, match="replication"):
        validate_design(Design(4, [[0, 1], [0, 2], [0, 3]]))


def test_incidence_graph_shape(catalog_designs):
    for d in catalog_designs.values():
        p = validate_design(d)
        g = incidence_graph(d)
        assert g.n == p.v + p.b
        assert g.edge_count == p.v * p.r
        assert all(g.degree(x) == p.r for x in range(p.v))
        assert all(g.degree(p.v + j) == p.k for j in range(p.b))
        # bipartite: no edge inside either side
        assert all(
            (u < p.v) != (w < p.v) for u, w in g.edges
        )


def test_design_json_round_trip():
    d = Design(7, FANO_BLOCKS)
    obj = design_to_json(d)
    assert obj["allow_repeated_blocks"] is False
    assert design_from_json(obj) == d
    assert design_from_json(json.dumps(obj)) == d
    again = design_from_json({"v": 7, "blocks": obj["blocks"], "extra": 1})
    assert again == d


def test_design_json_rejects_malformed_objects():
    with pytest.raises(ValueError):
        design_from_json({"v": 7})
    with pytest.raises(ValueError):
        design_from_json({"v": "7", "blocks": []})
    with pytest.raises(ValueError):
        design_from_json({"v": 7, "blocks": [["a"]]})
