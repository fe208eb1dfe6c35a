"""The two graphs on the flags of a design.

Both take their flags from enumerate_flags, in lexicographic (point,
block_index) order, and vertex i of either graph is flags[i].  gamma1 joins
flags sharing the point or the block, which on flags is exactly the line
graph of the incidence graph, and it is built as that line graph: incidence
edge i is (p, v + j) for flag i = (p, j).  gamma2, defined for biplanes
only, joins (p, c) and (q, d) exactly when the blocks meet in {p, q}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .designs import (
    Design,
    DesignParams,
    Flag,
    enumerate_flags,
    incidence_graph,
    validate_design,
)
from .errors import NotABiplane
from .graphs import Graph, graph_to_json, line_graph


@dataclass(frozen=True)
class FlagGraph:
    graph: Graph
    flags: tuple[Flag, ...]
    params: DesignParams
    variant: str  # "gamma1" or "gamma2"


def gamma1(d: Design) -> FlagGraph:
    """Flag graph: (p, c) ~ (q, d) iff p = q or c = d (and the flags differ).

    The graph keeps (root, points, blocks) in _derived["line_root"]: the
    incidence graph and its sides, which char_poly's line route reads.
    """
    params = validate_design(d)
    root = incidence_graph(d)
    lg = line_graph(root)
    # The route's premises hold for every validated design: each point lies
    # in r blocks and each block holds k points; v <= b by Fisher's
    # inequality, repeated blocks or not; and m = vr = bk >= v + b, since
    # b(k - 1) >= b >= v, so the root has no more vertices than lg.
    lg._derived["line_root"] = (root, range(d.v), range(d.v, d.v + d.b))
    return FlagGraph(lg, tuple(enumerate_flags(d)), params, "gamma1")


def gamma2(d: Design) -> FlagGraph:
    """Biplane flag graph: (p, c) ~ (q, d) iff blocks c and d meet in {p, q}.

    Defined only for symmetric designs with lambda = 2.  There N is square
    and invertible (det NN^T = k^2 (k - lambda)^(v-1)) and NJ = JN = kJ, so
    N^T N = N^-1 (NN^T) N = (k - lambda)I + lambda J: two distinct blocks
    meet in exactly lambda = 2 < k points.  So a validated biplane has no
    repeated block, even with allow_repeated_blocks.
    """
    params = validate_design(d)
    if params.lam != 2 or not params.is_symmetric:
        raise NotABiplane(
            f"gamma2 needs a symmetric design with lambda=2, got "
            f"(v,b,r,k,lambda)={params.as_tuple()}"
        )
    block_sets = [frozenset(blk) for blk in d.blocks]
    flags = tuple(enumerate_flags(d))
    index = {f: i for i, f in enumerate(flags)}
    edges = []
    for j, l in combinations(range(d.b), 2):
        x, y = sorted(block_sets[j] & block_sets[l])
        edges.append((index[Flag(x, j)], index[Flag(y, l)]))
        edges.append((index[Flag(y, j)], index[Flag(x, l)]))
    return FlagGraph(Graph(len(flags), edges), flags, params, "gamma2")


def flag_graph_to_json(fg: FlagGraph) -> dict:
    """Graph interchange object extended with the flag list and parameters."""
    obj = graph_to_json(fg.graph)
    obj["flags"] = [[f.point, f.block_index] for f in fg.flags]
    obj["variant"] = fg.variant
    obj["params"] = {
        "v": fg.params.v,
        "b": fg.params.b,
        "r": fg.params.r,
        "k": fg.params.k,
        "lambda": fg.params.lam,
    }
    return obj
