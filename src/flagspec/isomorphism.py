"""Canonical labeling and isomorphism decisions.

canonical_form runs partition refinement with individualization and
backtracking, depth first from an explicit stack.  The certificate is
the smallest graph6 encoding over the leaves of the search tree, written
by the same encoder as graph_to_graph6, so it equals
graph_to_graph6(g.relabel(permutation)); the permutation is the first
leaf, in depth-first order, that reaches it.  Byte-equal certificates hold
exactly for isomorphic graphs.

Two leaves with equal certificates expose an automorphism, which maps the
path of one onto the path of the other and so fixes their common prefix:
a vertex individualized at a node both paths share keeps its canonical
position in both leaves.  The stack is the whole search state, the path
being the candidate each node branched on last, so the common prefix ends
at the first level j whose candidate the automorphism moves.
Automorphisms prune in two ways (McKay 1981, "Practical graph
isomorphism"):

* jump-back: every leaf below the child taken at level j is the image of
  a leaf below the earlier leaf's child, a subtree already searched, so
  the search returns straight to level j.  McKay compares each leaf with
  the first and the best leaf; the search keeps the first leaf of every
  distinct certificate instead, which finds more automorphisms at the
  cost of one stored certificate per distinct leaf.
* orbit pruning: the automorphism fixes the path to each of the j + 1
  nodes left on the stack and goes to each of them.  A node keeps only
  the least vertex of each orbit of the automorphisms it holds; its
  candidates ascend, so one that is not the least of its orbit is the
  image of an earlier candidate and is not branched on.

Both skip only leaves that come later in depth-first order than a leaf
with the same certificate, so neither changes the certificate or the
permutation.  A third rule needs no leaf: a cell whose permutations are
plainly automorphisms is individualized whole, in one step (see _Node),
which takes complete and edgeless graphs and stars in one node.  The
children of such a node in any other member order are images of this one
under those automorphisms, so the certificate stays canonical.

Refinement splits every cell by one number per vertex, the sum of fixed
integer weights of its neighbors' colors.  The sums depend only on the
partition, never on vertex labels, which is all the search needs (McKay &
Piperno 2014).  Rarely, unequal neighbor colors give equal sums: a cell
then stays coarser, never wrong, as leaves compare full graph6 bytes.
Disconnected graphs are canonicalized component by component and
reassembled in sorted certificate order, which keeps highly symmetric
unions cheap.

Design isomorphism reuses the machinery on the incidence graph with the
point/block sides as an ordered two-color partition, so points can never
map to blocks: dualities of symmetric designs deliberately do not count.

Forms are kept on the Graph instance, the uncolored one and one per
coloring, so is_isomorphic and repeat canonical_form calls search each
instance once per coloring.  A Design keeps its incidence graph, so
design_isomorphic searches each design once, however often it is asked:
the reproduction report compares each (16,6,2) biplane five times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import Design, incidence_graph, validate_design
from .errors import TooManyVertices
from .graphs import Graph, _graph6, connected_components

# Vertex limit of canonical_form, checked before any search: a certificate
# is graph6 of the whole graph, built from a bit array of n(n - 1)/2 bytes,
# 134 MB at the limit.
CANONICAL_VERTEX_LIMIT = 16384


@dataclass(frozen=True)
class CanonicalForm:
    certificate: bytes
    permutation: tuple[int, ...]  # input vertex -> canonical position


def _color_weights(n: int, max_degree: int) -> np.ndarray:
    """Fixed integer weights of the color ids 0..n-1, each below
    2**(53 - max_degree.bit_length()).  A vertex sums at most max_degree of
    them, which stays below 2**53, so float64 adds every sum exactly, in
    any order.  The weights are the top bits of splitmix64 of the id."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11 + max_degree.bit_length())).astype(np.float64)


class _Node:
    """A refined partition of the search tree and its branching state.

    The candidates are the first largest cell T, in ascending order, and
    `last` is the one branched on last.  The search hands a node every
    automorphism it finds while the node stays on the stack after the
    jump-back; each fixes the path to the node, so it maps T onto itself.
    `orbit` labels each vertex with the least vertex of its orbit under
    them, and a candidate w is skipped exactly when orbit[w] != w: the
    least of its orbit is then an earlier candidate, branched on.  When
    each vertex of T has 0 or |T| - 1 neighbors in T and every other vertex
    0 or |T|, every permutation of T that fixes the rest is such an
    automorphism, so the node is `whole`: its one child individualizes all
    of T at once, in member order, and its first member stands for it.
    """

    def __init__(self, cols: np.ndarray, width: int, src, dst):
        self.cols, self.width = cols, width
        inside = cols == int(np.argmax(np.bincount(cols)))
        self.cell = np.nonzero(inside)[0]
        hits = np.bincount(src[inside[dst]], minlength=len(cols))
        self.whole = bool(((hits == 0) | (hits == len(self.cell) - inside)).all())
        self.members = self.cell[: 1 if self.whole else None].tolist()
        self.next = 0
        self.last = -1
        self.orbit = np.arange(len(cols))

    def pick(self) -> int | None:
        """Next candidate to branch on, or None when the node is done."""
        while self.next < len(self.members):
            w = self.members[self.next]
            self.next += 1
            if self.orbit[w] == w:
                self.last = w
                return w
        return None

    def merge(self, gen: np.ndarray):
        """Add an automorphism that fixes the path to this node."""
        if self.next == len(self.members):
            return  # no candidate left to prune
        # union-find on the orbits: hook the larger root of each pair
        # (root(v), root(gen[v])) onto the smaller, then compress, so every
        # root stays the least vertex of its orbit
        lab = self.orbit
        while not np.array_equal(lab, lab[gen]):
            np.minimum.at(lab, np.maximum(lab, lab[gen]), np.minimum(lab, lab[gen]))
            while not np.array_equal(lab, lab[lab]):
                lab = lab[lab]
        self.orbit = lab


def _search(g: Graph, base: list[int]) -> tuple[bytes, tuple[int, ...]]:
    """Depth-first search over individualizations; returns (certificate,
    perm).  An explicit stack of nodes drives it, so the depth is not
    bounded by the interpreter's recursion limit; the path to the current
    leaf is the last candidate branched on at each level."""
    n = g.n
    earr = g._ends
    src = np.concatenate([earr[:, 0], earr[:, 1]])
    dst = np.concatenate([earr[:, 1], earr[:, 0]])
    weight = _color_weights(n, int(np.bincount(src, minlength=n).max()))

    def refine(colors: np.ndarray, width: int) -> tuple[np.ndarray, int]:
        # colors are 0..width-1.  A round splits every cell by the sum of
        # weight[c] over the neighbors' colors c; fresh ids follow (color,
        # sum).  It stops when the cell count stops growing.
        while width < n:
            sums = np.bincount(src, weights=weight[colors[dst]], minlength=n)
            order = np.lexsort((sums, colors))
            c, s = colors[order], sums[order]
            steps = (c[1:] != c[:-1]) | (s[1:] != s[:-1])
            cells = int(np.count_nonzero(steps)) + 1
            if cells == width:
                break
            colors = np.empty(n, dtype=np.int64)
            colors[order[0]] = 0
            colors[order[1:]] = np.add.accumulate(steps, dtype=np.int64)
            width = cells
        return colors, width

    def certificate(cols: np.ndarray) -> bytes:
        return _graph6(n, cols[earr[:, 0]], cols[earr[:, 1]])

    width = max(base) + 1
    cols, width = refine(np.array(base, dtype=np.int64), width)
    if width == n:
        return certificate(cols), tuple(cols.tolist())
    # the first leaf of each certificate, as its coloring
    leaves: dict[bytes, np.ndarray] = {}
    stack = [_Node(cols, width, src, dst)]
    while stack:
        node = stack[-1]
        w = node.pick()
        if w is None:
            stack.pop()
            continue
        # individualize w, or every member of T but the last, which is then
        # alone too: they take their cell's id onward in order, and the rest
        # of the cell and every later cell move up by as many
        new = node.cell[:-1] if node.whole else np.array([w])
        c = node.cols[w]
        cols = node.cols + (node.cols >= c) * len(new)
        cols[new] = c + np.arange(len(new))
        cols, width = refine(cols, node.width + len(new))
        if width < n:
            stack.append(_Node(cols, width, src, dst))
            continue
        cert = certificate(cols)
        if cert not in leaves:
            leaves[cert] = cols
            continue
        # an earlier leaf with this certificate: the automorphism mapping
        # this leaf onto it first moves a path vertex at level j, the end
        # of their common prefix; jump back there and hand it to the nodes
        # left, whose paths it fixes
        inverse = np.empty(n, dtype=np.int64)
        inverse[leaves[cert]] = np.arange(n)
        gen = inverse[cols]
        j = 0
        while gen[stack[j].last] == stack[j].last:
            j += 1
        del stack[j + 1:]
        for kept in stack:
            kept.merge(gen)
    best = min(leaves)
    return best, tuple(leaves[best].tolist())


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
    ends = np.array(perm_whole, dtype=np.int64)[g._ends]
    return _graph6(g.n, ends[:, 0], ends[:, 1]), tuple(perm_whole)


def canonical_form(g: Graph, colors=None) -> CanonicalForm:
    """Deterministic, relabeling-invariant canonical form.

    With `colors`, vertices only ever map within their color class and the
    certificate gains a class-size prefix; color values are ordinal (the
    class with the smallest color occupies the lowest canonical positions).
    Every form is kept on g, the uncolored one and one per coloring (by
    its class ranks), so a repeat call on the same instance returns it
    without searching.  Graphs above CANONICAL_VERTEX_LIMIT
    vertices raise TooManyVertices.
    """
    n = g.n
    if n > CANONICAL_VERTEX_LIMIT:
        raise TooManyVertices(
            n, CANONICAL_VERTEX_LIMIT, "the canonical-form limit CANONICAL_VERTEX_LIMIT"
        )
    if colors is not None:
        if len(colors) != n:
            raise ValueError("need one color per vertex")
        rank = {c: i for i, c in enumerate(sorted(set(colors)))}
        base = [rank[c] for c in colors]
        sizes = [0] * len(rank)
        for c in base:
            sizes[c] += 1
        prefix = (",".join(map(str, sizes)) + ":").encode("ascii")
        key = ("canonical_form", tuple(base))
    else:
        base = [0] * n
        prefix = b""
        key = "canonical_form"
    form = g._derived.get(key)
    if form is not None:
        return form
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        cert, perm = _graph6(0, empty, empty), ()
    elif colors is None and len(parts := connected_components(g)) > 1:
        cert, perm = _assemble_components(g, parts)
    else:
        cert, perm = _search(g, base)
    form = g._derived[key] = CanonicalForm(prefix + cert, perm)
    return form


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
