import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagspec import designs
from flagspec.catalog import CATALOG_IDS, get_design
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
    FlagspecError,
    NonIntegralParams,
    PairCountMismatch,
    RepeatedBlock,
    SelfCheckFailed,
    TooManyVertices,
    TrivialDesign,
    UnequalBlockSizes,
)

from oracles import counted_concurrence_params, pair_concurrences

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
    # when the concurrence matrix is tampered with: here every off-diagonal
    # entry reads 1 while the diagonal keeps the replications 3, 1, 1, 1
    real = designs._gram

    def balanced(m):
        conc = real(m)
        conc[~np.eye(len(conc), dtype=bool)] = 1
        return conc

    monkeypatch.setattr(designs, "_gram", balanced)
    with pytest.raises(SelfCheckFailed, match="replications {1, 3}"):
        validate_design(Design(4, [[0, 1], [0, 2], [0, 3]]))


def _outcome(fn):
    try:
        return fn()
    except FlagspecError as exc:
        return type(exc), str(exc)


@st.composite
def block_systems(draw):
    """(v, blocks, allow_repeats) with uniform block size 1 < k < v, so
    validation reaches the pair counts: random k-subsets, or a catalog
    design with a moved point, a repeated block or points in no block."""
    if draw(st.booleans()):
        v = draw(st.integers(3, 9))
        k = draw(st.integers(2, v - 1))
        allow = draw(st.booleans())
        subsets = st.sets(st.integers(0, v - 1), min_size=k, max_size=k)
        blocks = draw(st.lists(subsets, min_size=1, max_size=14,
                               unique_by=None if allow else frozenset))
        return v, [sorted(b) for b in blocks], allow
    d = get_design(draw(st.sampled_from(CATALOG_IDS)))
    blocks = [list(b) for b in d.blocks]
    v = d.v + draw(st.integers(0, 3))  # extra points lie in no block
    if draw(st.booleans()):
        j = draw(st.integers(0, d.b - 1))
        old = draw(st.sampled_from(blocks[j]))
        new = draw(st.sampled_from([p for p in range(v) if p not in blocks[j]]))
        blocks[j] = sorted({*blocks[j], new} - {old})
    allow = draw(st.booleans())
    if allow and draw(st.booleans()):
        blocks.append(list(draw(st.sampled_from(blocks))))
    if not allow and len({tuple(b) for b in blocks}) < len(blocks):
        allow = True
    return v, blocks, allow


@settings(derandomize=True, deadline=None, max_examples=600)
@given(block_systems())
def test_validate_design_matches_pair_counting(system):
    v, blocks, allow = system
    ours = _outcome(lambda: validate_design(Design(v, blocks, allow)).as_tuple())
    assert ours == _outcome(lambda: counted_concurrence_params(v, blocks))


def test_validation_size_does_not_grow_with_v():
    # the first bad pair lies among the covered points and the first
    # uncovered one, so a huge v costs nothing
    cases = [
        (10**30, [[0, 1, 2], [0, 1, 2]], ((0, 3), 0, 2)),
        (10**6, [[5, 999_999], [7, 999_999]], ((5, 999_999), 1, 0)),
        (10**6, [[2, 3, 4], [2, 3, 5]], ((2, 3), 2, 0)),
    ]
    for v, blocks, (pair, found, expected) in cases:
        with pytest.raises(PairCountMismatch) as info:
            validate_design(Design(v, blocks, allow_repeated_blocks=True))
        assert (info.value.pair, info.value.found, info.value.expected) == (
            pair, found, expected,
        )


_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=3))
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
_point = st.integers(-1, 12) | st.integers() | _json
_design_objects = st.fixed_dictionaries(
    {
        "v": st.integers(-1, 14) | st.integers() | _json,
        "blocks": st.lists(st.lists(_point, max_size=6), max_size=10) | _json,
    },
    optional={"allow_repeated_blocks": _json},
)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.one_of(_json, _design_objects, _design_objects.map(json.dumps)))
def test_design_json_fuzz_fails_cleanly(obj):
    try:
        validate_design(design_from_json(obj))
    except (ValueError, TypeError, FlagspecError):
        pass


def test_python_api_rejects_non_integers():
    with pytest.raises(TypeError):
        Design(7.0, FANO_BLOCKS)
    with pytest.raises(TypeError):
        Design(7, [[0, 1, 3.0]])
    with pytest.raises(TypeError):
        DesignParams(7, 7, 3, 3, 1.0)
    p = DesignParams(*(np.int64(x) for x in (7, 7, 3, 3, 1)))
    assert all(type(x) is int for x in p.as_tuple())


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


def test_incidence_graph_is_kept_on_the_design():
    d = Design(7, FANO_BLOCKS)
    g = incidence_graph(d)
    assert incidence_graph(d) is g
    # an equal design is another instance, with a graph of its own
    other = Design(7, FANO_BLOCKS)
    assert other == d
    assert incidence_graph(other) == g and incidence_graph(other) is not g


def test_incidence_graph_refuses_more_vertices_than_a_graph_file_holds():
    # v + b vertices, checked before Graph builds one neighbor list each,
    # so every incidence graph written to a file reads back
    assert incidence_graph(Design(258046, [[0, 1]])).n == 258047
    wide = Design(258047, [[0, 1]])
    for _ in range(2):  # a refusal keeps nothing, so it refuses again
        with pytest.raises(TooManyVertices, match="graph-file limit"):
            incidence_graph(wide)


def test_design_json_round_trip():
    d = Design(7, FANO_BLOCKS)
    obj = design_to_json(d)
    assert obj["allow_repeated_blocks"] is False
    assert design_from_json(obj) == d
    assert design_from_json(json.dumps(obj)) == d
    again = design_from_json({"v": 7, "blocks": obj["blocks"], "extra": 1})
    assert again == d


@pytest.mark.parametrize("flag", ["false", 1, 0, None, [], {}],
                         ids=["string", "one", "zero", "null", "list", "object"])
def test_design_json_allow_repeated_blocks_must_be_a_boolean(flag):
    # bool("false") is True: only a JSON boolean may allow repeated blocks
    with pytest.raises(ValueError, match="allow_repeated_blocks"):
        design_from_json({"v": 7, "blocks": FANO_BLOCKS * 2,
                          "allow_repeated_blocks": flag})
    d = design_from_json({"v": 7, "blocks": FANO_BLOCKS * 2,
                          "allow_repeated_blocks": True})
    assert validate_design(d).as_tuple() == (7, 14, 6, 3, 2)


def test_design_json_rejects_malformed_objects():
    with pytest.raises(ValueError):
        design_from_json({"v": 7})
    with pytest.raises(ValueError):
        design_from_json({"v": "7", "blocks": []})
    with pytest.raises(ValueError):
        design_from_json({"v": 7, "blocks": [["a"]]})
