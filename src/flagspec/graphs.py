"""Simple undirected graphs and the structural operations built on them.

Vertices are the integers 0..n-1.  Graphs are immutable after construction;
every operation here is a pure function.  The module also implements the
graph interchange formats: a small JSON object and bit-exact graph6.
"""

from __future__ import annotations

import json
import math
from collections import deque
from itertools import combinations

import numpy as np

from .errors import TooManyVertices

# Vertex limit of the dense kernels (adjacency, _gram and char_poly, which
# reads adjacency), checked before any n x n allocation.  char_poly holds
# two n x n int64 arrays at once, the Hessenberg copy and the reduction's
# scratch buffer or the recurrence's table: 1 GiB at the limit, besides the
# 64 MiB uint8 adjacency (a 22 MiB tracemalloc peak at n = 1,200).
DENSE_VERTEX_LIMIT = 8192


def _check_dense(n: int):
    if n > DENSE_VERTEX_LIMIT:
        raise TooManyVertices(
            n, DENSE_VERTEX_LIMIT, "the dense-kernel limit DENSE_VERTEX_LIMIT"
        )


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Edges are stored as a sorted tuple of (i, j) pairs with i < j, plus one
    sorted neighbor tuple per vertex for traversals; pair counts and spectra
    read the dense adjacency() matrix instead.

    Since nothing changes after construction, an instance also holds results
    derived from it: spectra.char_poly and the uncolored
    isomorphism.canonical_form keep theirs in the private _derived dict, so
    asking the same instance again returns the stored (immutable) object.  A
    new Graph with equal content starts empty and computes afresh.
    """

    __slots__ = ("n", "edges", "_neighbors", "_derived")

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        seen = set()
        for e in edges:
            i, j = e
            if i == j:
                raise ValueError(f"loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge {e} out of range for n={n}")
            seen.add((i, j) if i < j else (j, i))
        self.n = n
        self.edges = tuple(sorted(seen))
        nbrs = [[] for _ in range(n)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        self._neighbors = tuple(tuple(sorted(a)) for a in nbrs)
        self._derived: dict = {}

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._neighbors[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._neighbors[u]

    def degree(self, v: int) -> int:
        return len(self._neighbors[v])

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def relabel(self, perm) -> "Graph":
        """Image under the vertex permutation v -> perm[v]."""
        if len(perm) != self.n or set(perm) != set(range(self.n)):
            raise ValueError(f"not a permutation of 0..{self.n - 1}")
        return Graph(self.n, [(perm[i], perm[j]) for i, j in self.edges])

    def subgraph(self, vertices) -> "Graph":
        """Induced subgraph; vertex i of the result is sorted(vertices)[i]."""
        vs = sorted(vertices)
        pos = {v: i for i, v in enumerate(vs)}
        edges = [
            (pos[i], pos[j]) for i, j in self.edges if i in pos and j in pos
        ]
        return Graph(len(vs), edges)

    def adjacency(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix, uint8, n x n; raises TooManyVertices
        above DENSE_VERTEX_LIMIT."""
        _check_dense(self.n)
        a = np.zeros((self.n, self.n), dtype=np.uint8)
        i, j = np.array(self.edges, dtype=np.intp).reshape(-1, 2).T
        a[i, j] = a[j, i] = 1
        return a

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self.edges)})"


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def line_graph(g: Graph) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Line graph of g, plus the edge ordering that names its vertices.

    Vertex i of the result is edge_order[i] (edges of g in lexicographic
    order); two vertices are adjacent iff the underlying edges share an
    endpoint.  Edges of a simple graph share at most one, so every pair
    of line-graph vertices is produced by exactly one star.  gamma1 is
    built as this graph of the incidence graph.
    """
    edge_order = g.edges
    incident = [[] for _ in range(g.n)]
    for i, (a, b) in enumerate(edge_order):
        incident[a].append(i)
        incident[b].append(i)
    pairs = [pair for star in incident for pair in combinations(star, 2)]
    return Graph(len(edge_order), pairs), edge_order


def connected_components(g: Graph) -> list[list[int]]:
    """Partition of the vertices into components, ordered by minimum vertex."""
    unseen = set(range(g.n))
    parts = []
    while unseen:
        root = min(unseen)
        comp = {root}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        unseen -= comp
        parts.append(sorted(comp))
    return parts


def _gram(m: np.ndarray) -> np.ndarray:
    """m @ m.T of a 0/1 matrix, exactly, as int32: entry (i, j) counts the
    columns where rows i and j both hold 1.

    The float32 BLAS product is exact: every partial sum is an integer of
    at most m.shape[1], and float32 holds every integer below 2**24, so
    that many columns are refused, and so are more than DENSE_VERTEX_LIMIT
    rows.
    """
    _check_dense(m.shape[0])
    if m.shape[1] >= 1 << 24:
        raise ValueError(f"exact 0/1 product needs < 2**24 columns, got {m.shape[1]}")
    f = m.astype(np.float32)
    return (f @ f.T).astype(np.int32)


def girth(g: Graph) -> float:
    """Length of the shortest cycle; math.inf for forests."""
    best = math.inf
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            if 2 * dist[v] >= best - 1:
                break
            for w in g.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif parent[v] != w:
                    # non-tree edge closes a cycle through the BFS root
                    best = min(best, dist[v] + dist[w] + 1)
    return best


def degree_profile(g: Graph) -> set[int]:
    """Set of distinct vertex degrees."""
    return {g.degree(v) for v in range(g.n)}


# ---------------------------------------------------------------------------
# interchange: JSON
# ---------------------------------------------------------------------------

def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def _json_int(x) -> bool:
    """Is x a JSON integer?  json.loads maps true and false to bool, which
    Python counts as an int, so booleans are excluded here."""
    return isinstance(x, int) and not isinstance(x, bool)


def graph_from_json(obj) -> Graph:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError("graph JSON must be an object with 'n' and 'edges'")
    n = obj["n"]
    if not _json_int(n):
        raise ValueError("'n' must be an integer")
    if n > _G6_MAX_N:
        # refused before Graph builds one neighbor list per vertex
        raise TooManyVertices(
            n, _G6_MAX_N, "the graph-file limit (graph6's largest order)"
        )
    edges = []
    for e in obj["edges"]:
        if not (
            isinstance(e, (list, tuple))
            and len(e) == 2
            and all(_json_int(x) for x in e)
        ):
            raise ValueError(f"bad edge entry {e!r}")
        edges.append((e[0], e[1]))
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# interchange: graph6 (bit-exact)
# ---------------------------------------------------------------------------
#
# Header: for n <= 62 a single byte n+63; for 63 <= n <= 258047 the byte '~'
# (126) followed by three bytes holding n in 6-bit big-endian groups, each
# +63.  Body: upper-triangle bits x(0,1), x(0,2), x(1,2), x(0,3), ...,
# x(n-2,n-1), packed 6 per byte (zero-padded), each group +63.

_G6_MAX_N = 258047
_PACK = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)


def graph_to_graph6(g: Graph) -> str:
    ends = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    return _graph6(g.n, ends[:, 0], ends[:, 1]).decode("ascii")


def _graph6(n: int, a: np.ndarray, b: np.ndarray) -> bytes:
    """graph6 bytes of the graph on 0..n-1 with edges (a[e], b[e]).

    The single encoder behind graph_to_graph6 and the canonical
    certificates; endpoints may come in either order.
    """
    if n < 0 or n > _G6_MAX_N:
        raise ValueError(f"graph6 supports 0 <= n <= {_G6_MAX_N}, got {n}")
    if n <= 62:
        header = bytes([n + 63])
    else:
        header = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    nbits = n * (n - 1) // 2
    bits = np.zeros(nbits + (-nbits) % 6, dtype=np.uint8)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # pair (lo, hi) sits at column-major upper-triangle position C(hi,2) + lo
    bits[hi * (hi - 1) // 2 + lo] = 1
    return header + (bits.reshape(-1, 6) @ _PACK + 63).tobytes()


def graph_from_graph6(s: str | bytes) -> Graph:
    data = s.encode("ascii") if isinstance(s, str) else bytes(s)
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise ValueError("empty graph6 string")
    if data[0] == 126:
        # '~' + 3 size bytes covers n up to 258047; a second '~' would
        # start the 36-bit form, which is beyond this library's sizes
        if (
            len(data) < 4
            or data[1] == 126
            or any(not 63 <= c <= 126 for c in data[1:4])
        ):
            raise ValueError("bad extended graph6 header")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if n < 0:
        raise ValueError("bad graph6 header byte")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError(
            f"graph6 body has {len(body)} bytes, expected {(nbits + 5) // 6}"
        )
    raw = np.frombuffer(body, dtype=np.uint8)
    bad = (raw < 63) | (raw > 126)
    if bad.any():
        raise ValueError(f"graph6 byte {int(raw[bad][0])} out of range")
    bits = np.unpackbits((raw - 63)[:, None], axis=1)[:, 2:].ravel()
    if bits[nbits:].any():
        raise ValueError("nonzero padding bits in graph6 body")
    # row-major lower-triangle pairs (hi, lo) follow the encoder's
    # column-major upper-triangle bit order (lo, hi)
    hi, lo = np.tril_indices(n, -1)
    on = bits[:nbits].astype(bool)
    return Graph(n, zip(lo[on].tolist(), hi[on].tolist()))
