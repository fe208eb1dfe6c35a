"""Balanced incomplete block designs.

Parameter arithmetic, full validation from the concurrence matrix N N^T,
flag enumeration, incidence graphs, the difference-set construction, and
the design interchange JSON format.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    NonIntegralParams,
    PairCountMismatch,
    RepeatedBlock,
    SelfCheckFailed,
    TrivialDesign,
    UnequalBlockSizes,
)
from .graphs import Graph, _check_dense, _gram, _json_int


@dataclass(frozen=True)
class DesignParams:
    """Admissible (v, b, r, k, lambda) tuple of a BIBD."""

    v: int
    b: int
    r: int
    k: int
    lam: int

    def __post_init__(self):
        for name in ("v", "b", "r", "k", "lam"):  # TypeError on non-integers
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if min(self.v, self.b, self.r, self.k, self.lam) < 1:
            raise ValueError("all parameters must be positive")
        if not 1 < self.k < self.v:
            raise TrivialDesign(f"need 1 < k < v, got k={self.k}, v={self.v}")
        if self.v * self.r != self.b * self.k:
            raise ValueError(f"vr != bk for {self}")
        if self.lam * (self.v - 1) != self.r * (self.k - 1):
            raise ValueError(f"lambda(v-1) != r(k-1) for {self}")

    @property
    def is_symmetric(self) -> bool:
        return self.v == self.b

    @property
    def flag_count(self) -> int:
        return self.v * self.r

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.v, self.b, self.r, self.k, self.lam)


def derive_params(v: int, k: int, lam: int) -> DesignParams:
    """Complete (v, k, lambda) to the full parameter tuple.

    r = lambda(v-1)/(k-1) and b = vr/k must both be integers; otherwise no
    BIBD with these parameters exists and NonIntegralParams is raised.
    """
    if not v > k > 1:
        raise TrivialDesign(f"need v > k > 1, got v={v}, k={k}")
    if lam < 1:
        raise ValueError("lambda must be positive")
    top = lam * (v - 1)
    if top % (k - 1):
        raise NonIntegralParams(f"r = {top}/{k - 1} is not an integer")
    r = top // (k - 1)
    if (v * r) % k:
        raise NonIntegralParams(f"b = {v * r}/{k} is not an integer")
    return DesignParams(v, v * r // k, r, k, lam)


class Design:
    """Block design on points 0..v-1.

    Blocks keep the order they were given in (flag graphs index into that
    order) but each block is stored as a sorted tuple.  Two designs are
    equal when they have the same point count and the same multiset of
    blocks; the repeated-block policy flag is not part of identity.  An
    instance is not changed after construction: incidence_graph keeps its
    result on it.
    """

    __slots__ = ("v", "blocks", "allow_repeated_blocks", "_incidence")

    def __init__(self, v: int, blocks, allow_repeated_blocks: bool = False):
        v = operator.index(v)  # TypeError on non-integers, as for points
        if v < 1:
            raise ValueError("v must be positive")
        norm = []
        for idx, blk in enumerate(blocks):
            pts = sorted(map(operator.index, blk))
            if len(set(pts)) != len(pts):
                raise ValueError(f"block {idx} repeats a point")
            if pts and not (0 <= pts[0] and pts[-1] < v):
                raise ValueError(f"block {idx} has points outside 0..{v - 1}")
            norm.append(tuple(pts))
        self.v = v
        self.blocks = tuple(norm)
        self.allow_repeated_blocks = bool(allow_repeated_blocks)
        self._incidence = None

    @property
    def b(self) -> int:
        return len(self.blocks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Design)
            and self.v == other.v
            and sorted(self.blocks) == sorted(other.blocks)
        )

    def __hash__(self) -> int:
        return hash((self.v, tuple(sorted(self.blocks))))

    def __repr__(self) -> str:
        return f"Design(v={self.v}, b={self.b})"


class Flag(NamedTuple):
    """Incident (point, block) pair; the block is named by its index."""

    point: int
    block_index: int


def validate_design(d: Design) -> DesignParams:
    """Check the BIBD axioms exhaustively and return the parameter tuple.

    Checks, in order: uniform block size, non-triviality 1 < k < v, block
    distinctness (unless the design allows repeats), and the concurrence of
    every unordered point pair.  The expected concurrence is the one of the
    pair (0, 1); the first pair in lexicographic order that differs is
    reported.
    """
    if not d.blocks:
        raise ValueError("design has no blocks")
    k = len(d.blocks[0])
    for idx, blk in enumerate(d.blocks):
        if len(blk) != k:
            raise UnequalBlockSizes(
                f"block {idx} has size {len(blk)}, expected {k}"
            )
    if not 1 < k < d.v:
        raise TrivialDesign(f"need 1 < k < v, got k={k}, v={d.v}")
    if not d.allow_repeated_blocks:
        seen = set()
        for idx, blk in enumerate(d.blocks):
            if blk in seen:
                raise RepeatedBlock(idx)
            seen.add(blk)
    # A point in no block meets every point in 0 blocks, so the first bad pair
    # lies among the covered points, 0, 1 and the first uncovered one: N gets
    # those rows only (all v points when all are covered), whatever v is.
    covered = set().union(*d.blocks)
    gap = next(p for p in range(d.v + 1) if p not in covered)
    pts = sorted(covered | {0, 1, gap} - {d.v})
    row = {p: i for i, p in enumerate(pts)}
    _check_dense(len(pts))
    inc = np.zeros((len(pts), d.b), dtype=np.uint8)
    inc[[row[p] for blk in d.blocks for p in blk], np.repeat(np.arange(d.b), k)] = 1
    conc = _gram(inc)
    lam = int(conc[0, 1])
    bad = np.argwhere(np.triu(conc != lam, 1))
    if bad.size:
        i, j = bad[0]
        raise PairCountMismatch((pts[i], pts[j]), int(conc[i, j]), lam)
    reps = np.diagonal(conc).tolist()
    r = reps[0]
    # pair balance plus uniform k forces uniform replication
    if any(c != r for c in reps):
        raise SelfCheckFailed(f"pair-balanced design with replications {set(reps)}")
    return DesignParams(d.v, d.b, r, k, lam)


def design_from_difference_set(group_order: int, base_block) -> Design:
    """Develop a base block through Z_n: blocks are {x + g mod n : x in base}.

    The result is validated; a base block that is not a difference set
    surfaces as a PairCountMismatch (or RepeatedBlock) from the validator.
    """
    base = sorted(set(base_block))
    if any(not 0 <= x < group_order for x in base):
        raise ValueError("base block must lie in 0..group_order-1")
    blocks = [
        [(x + g) % group_order for x in base] for g in range(group_order)
    ]
    d = Design(group_order, blocks)
    validate_design(d)
    return d


def enumerate_flags(d: Design) -> list[Flag]:
    """All b*k flags in (point, block_index) order.

    This is the order that names the vertices of gamma1 and gamma2, and
    the order of the edges of the incidence graph.
    """
    return sorted(Flag(p, j) for j, blk in enumerate(d.blocks) for p in blk)


def incidence_graph(d: Design) -> Graph:
    """Bipartite graph on points then blocks: vertex v + j is block j.

    Built once per Design and kept on it, so every call on the instance
    returns the same Graph, with whatever that Graph holds (its canonical
    forms, its char_poly).  Graph refuses v + b above graph6's largest
    order, and then nothing is kept.
    """
    if d._incidence is None:
        edges = [(p, d.v + j) for j, blk in enumerate(d.blocks) for p in blk]
        d._incidence = Graph(d.v + d.b, edges)
    return d._incidence


# ---------------------------------------------------------------------------
# interchange
# ---------------------------------------------------------------------------

def design_to_json(d: Design) -> dict:
    return {
        "v": d.v,
        "blocks": [list(b) for b in d.blocks],
        "allow_repeated_blocks": d.allow_repeated_blocks,
    }


def design_from_json(obj) -> Design:
    """Parse the design interchange object; unknown keys are ignored.

    Blocks need not arrive sorted.  Accepts a JSON string or an already
    decoded object.
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "v" not in obj or "blocks" not in obj:
        raise ValueError("design JSON must be an object with 'v' and 'blocks'")
    v = obj["v"]
    if not _json_int(v):
        raise ValueError("'v' must be an integer")
    blocks = obj["blocks"]
    if not isinstance(blocks, list):
        raise ValueError("'blocks' must be a list")
    for blk in blocks:
        if not isinstance(blk, list) or not all(_json_int(p) for p in blk):
            raise ValueError(f"bad block entry {blk!r}")
    repeated = obj.get("allow_repeated_blocks", False)
    if not isinstance(repeated, bool):
        raise ValueError("'allow_repeated_blocks' must be true or false")
    return Design(v, blocks, repeated)
