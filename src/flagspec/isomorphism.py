"""Canonical labeling and isomorphism decisions.

canonical_form runs iterated equitable refinement with individualization
and backtracking.  The certificate is the smallest graph6 encoding over
the leaves of the search tree, written by the same encoder as
graph_to_graph6, so it equals graph_to_graph6(g.relabel(permutation));
automorphisms discovered along the way (two leaves with equal
certificates) prune sibling branches orbit-wise.  Byte-equal certificates
hold exactly for isomorphic graphs.  Disconnected graphs are canonicalized
component by component and reassembled in sorted certificate order, which
keeps highly symmetric unions cheap.

Design isomorphism reuses the machinery on the incidence graph with the
point/block sides as an ordered two-color partition, so points can never
map to blocks: dualities of symmetric designs deliberately do not count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import Design, incidence_graph, validate_design
from .graphs import Graph, _graph6, connected_components


@dataclass(frozen=True)
class CanonicalForm:
    certificate: bytes
    permutation: tuple[int, ...]  # input vertex -> canonical position


def _search(g: Graph, base: list[int]) -> tuple[bytes, tuple[int, ...]]:
    """Backtracking over individualizations; returns (certificate, perm)."""
    n = g.n
    earr = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    src = np.concatenate([earr[:, 0], earr[:, 1]])
    dst = np.concatenate([earr[:, 1], earr[:, 0]])

    def refine(colors: np.ndarray) -> np.ndarray:
        # split cells by neighbor color histograms until stable; fresh ids
        # follow the lexicographic row order, so they only depend on the
        # partition, never on vertex labels.  Rows are compared as
        # big-endian byte strings, which agrees with numeric lexicographic
        # order because every entry is nonnegative.
        while True:
            width = int(colors.max()) + 1
            counts = np.bincount(
                src * width + colors[dst], minlength=n * width
            ).reshape(n, width)
            rows = np.column_stack([colors, counts]).astype(">u4")
            keys = rows.view(np.dtype((np.void, 4 * rows.shape[1]))).ravel()
            _, new = np.unique(keys, return_inverse=True)
            new = new.astype(np.int64)
            if np.array_equal(new, colors):
                return colors
            colors = new

    def individualize(colors: np.ndarray, v: int) -> np.ndarray:
        out = colors * 2
        out[colors == colors[v]] += 1
        out[v] -= 1
        return out

    best_cert: bytes | None = None
    best_perm: np.ndarray | None = None
    gens: list[np.ndarray] = []

    def visit_leaf(cols: np.ndarray):
        nonlocal best_cert, best_perm
        cert = _graph6(n, cols[earr[:, 0]], cols[earr[:, 1]])
        if best_cert is None or cert < best_cert:
            best_cert, best_perm = cert, cols
        elif cert == best_cert and not np.array_equal(cols, best_perm):
            # equal certificates expose an automorphism of g
            inverse = np.empty(n, dtype=np.int64)
            inverse[best_perm] = np.arange(n)
            gens.append(inverse[cols])

    def recurse(cols: np.ndarray, fixed: tuple[int, ...]):
        cols = refine(cols)
        if int(cols.max()) + 1 == n:
            visit_leaf(cols)
            return
        sizes = np.bincount(cols)
        target = int(np.argmax(sizes == sizes.max()))
        members = np.nonzero(cols == target)[0]
        # orbit pruning: discovered automorphisms fixing every vertex of
        # `fixed` join branch candidates into one union-find forest, and
        # only one candidate per orbit is explored
        parent = list(range(n))
        applied = 0

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        branched: list[int] = []
        for w in map(int, members):
            if branched:
                while applied < len(gens):
                    p = gens[applied]
                    applied += 1
                    if all(int(p[x]) == x for x in fixed):
                        for v in range(n):
                            rv, rp = find(v), find(int(p[v]))
                            if rv != rp:
                                parent[rv] = rp
                root = find(w)
                if any(find(x) == root for x in branched):
                    continue
            branched.append(w)
            recurse(individualize(cols, w), fixed + (w,))

    recurse(np.array(base, dtype=np.int64), ())
    return best_cert, tuple(int(p) for p in best_perm)


def _assemble_components(g: Graph, parts) -> tuple[bytes, tuple[int, ...]]:
    """Canonicalize each component, then lay them out in sorted certificate
    order; the result is the certificate of the reassembled whole."""
    pieces = []
    for part in parts:
        sub = g.subgraph(part)
        cert, perm = _search(sub, [0] * sub.n)
        pieces.append((sub.n, cert, perm, sorted(part)))
    pieces.sort(key=lambda t: (t[0], t[1]))
    perm_whole = [0] * g.n
    offset = 0
    for size, _, perm, vertices in pieces:
        for local, v in enumerate(vertices):
            perm_whole[v] = offset + perm[local]
        offset += size
    earr = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    ends = np.array(perm_whole, dtype=np.int64)[earr]
    return _graph6(g.n, ends[:, 0], ends[:, 1]), tuple(perm_whole)


def canonical_form(g: Graph, colors=None) -> CanonicalForm:
    """Deterministic, relabeling-invariant canonical form.

    With `colors`, vertices only ever map within their color class and the
    certificate gains a class-size prefix; color values are ordinal (the
    class with the smallest color occupies the lowest canonical positions).
    """
    n = g.n
    if colors is not None:
        if len(colors) != n:
            raise ValueError("need one color per vertex")
        rank = {c: i for i, c in enumerate(sorted(set(colors)))}
        base = [rank[c] for c in colors]
        sizes = [0] * len(rank)
        for c in base:
            sizes[c] += 1
        prefix = (",".join(map(str, sizes)) + ":").encode("ascii")
    else:
        base = [0] * n
        prefix = b""
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return CanonicalForm(prefix + _graph6(0, empty, empty), ())
    if colors is None:
        parts = connected_components(g)
        if len(parts) > 1:
            cert, perm = _assemble_components(g, parts)
            return CanonicalForm(prefix + cert, perm)
    cert, perm = _search(g, base)
    return CanonicalForm(prefix + cert, perm)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Certificate equality, after cheap invariant screens."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(g.degree(v) for v in range(g.n)) != sorted(
        h.degree(v) for v in range(h.n)
    ):
        return False
    return canonical_form(g).certificate == canonical_form(h).certificate


def design_isomorphic(d: Design, e: Design) -> bool:
    """Point-bijection isomorphism of designs.

    Decided on the incidence graphs with the bipartition as an ordered
    coloring (points 0, blocks 1), so a point never maps to a block.
    """
    pd, pe = validate_design(d), validate_design(e)
    if pd != pe:
        return False
    gd, ge = incidence_graph(d), incidence_graph(e)
    cd = [0] * d.v + [1] * len(d.blocks)
    ce = [0] * e.v + [1] * len(e.blocks)
    return (
        canonical_form(gd, cd).certificate
        == canonical_form(ge, ce).certificate
    )
