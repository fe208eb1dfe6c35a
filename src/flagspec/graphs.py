"""Simple undirected graphs and the structural operations built on them.

Vertices are the integers 0..n-1.  Graphs are immutable after construction;
every operation here is a pure function.  The module also implements the
graph interchange formats: a small JSON object and bit-exact graph6.
"""

from __future__ import annotations

import json
import math
import operator
from collections import deque
from itertools import chain, combinations

import numpy as np

from .errors import TooManyVertices

# Vertex limit of the dense kernels (adjacency, _gram and char_poly, which
# reads adjacency), checked before any n x n allocation.  char_poly's
# adjacency route holds three n x n float64 arrays at once, the matrix and
# two Horner products (eigvalsh copies the matrix earlier, while only it
# lives): 1.5 GiB at the limit, and a tracemalloc peak of 95 MiB, 3.1 n^2
# float64 words, at n = 2,000.  Its fallback, the Hessenberg kernel, holds
# two n x n int64 arrays, the copy and the reduction's scratch buffer or
# the recurrence's table: 1 GiB at the limit (a 22 MiB tracemalloc peak at
# n = 1,200).  Both come besides the 64 MiB uint8 adjacency.
DENSE_VERTEX_LIMIT = 8192


def _check_dense(n: int):
    if n > DENSE_VERTEX_LIMIT:
        raise TooManyVertices(
            n, DENSE_VERTEX_LIMIT, "the dense-kernel limit DENSE_VERTEX_LIMIT"
        )


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Edges are stored as a sorted tuple of int pairs (i, j) with i < j, again
    as _ends, a read-only (m, 2) int64 array of the same pairs, and as one
    sorted neighbor tuple per vertex for traversals; pair counts and spectra
    read the dense adjacency() matrix instead.  Above graph6's largest order
    the constructor raises TooManyVertices before it builds anything.

    Since nothing changes after construction, an instance also holds results
    derived from it: spectra.char_poly and isomorphism.canonical_form (one
    form per coloring) keep theirs in the private _derived dict, so asking
    the same instance again returns the stored (immutable) object.  A
    new Graph with equal content starts empty and computes afresh.  Every
    graph built in this module starts empty; flag_graphs.gamma1 alone
    leaves structure there, its root under "line_root".
    """

    __slots__ = ("n", "edges", "_ends", "_neighbors", "_derived")

    def __init__(self, n: int, edges):
        n = operator.index(n)  # TypeError on non-integers, as for endpoints
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if n > _G6_MAX_N:
            raise TooManyVertices(
                n, _G6_MAX_N, "the graph-file limit (graph6's largest order)"
            )
        index = operator.index
        seen = set()
        for e in edges:
            i, j = e
            if i > j:
                i, j = j, i
            if not 0 <= i < j < n:
                if i == j:
                    raise ValueError(f"loop at vertex {i}")
                raise ValueError(f"edge {e} out of range for n={n}")
            seen.add((index(i), index(j)))
        self.n = n
        self.edges = tuple(sorted(seen))
        ends = np.fromiter(chain.from_iterable(self.edges), np.int64, 2 * len(seen))
        self._ends = ends.reshape(-1, 2)
        self._ends.flags.writeable = False
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
        """Induced subgraph; vertex i of the result is sorted(vertices)[i].
        Reads only the kept vertices' neighbor lists; a vertex outside
        0..n-1, or a repeated one, raises ValueError."""
        vs = sorted(vertices)
        pos = {v: i for i, v in enumerate(vs)}
        if len(pos) != len(vs) or (vs and not 0 <= vs[0] <= vs[-1] < self.n):
            raise ValueError(f"vertices must be distinct and in 0..{self.n - 1}")
        nbrs = self._neighbors
        edges = [(pos[i], pos[j]) for i in vs for j in nbrs[i] if i < j and j in pos]
        return Graph(len(vs), edges)

    def adjacency(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix, uint8, n x n; raises TooManyVertices
        above DENSE_VERTEX_LIMIT."""
        _check_dense(self.n)
        a = np.zeros((self.n, self.n), dtype=np.uint8)
        i, j = self._ends.T
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


def line_graph(g: Graph) -> Graph:
    """Line graph of g: vertex i is g.edges[i].

    Two vertices are adjacent iff the underlying edges share an endpoint.
    Edges of a simple graph share at most one, so every pair of line-graph
    vertices is produced by exactly one star.  Graph gets them from a
    generator, so it refuses too many edges before any pair is made.
    gamma1 is built as this graph of the incidence graph, and records it.
    """
    incident = [[] for _ in range(g.n)]
    for i, (a, b) in enumerate(g.edges):
        incident[a].append(i)
        incident[b].append(i)
    pairs = (pair for star in incident for pair in combinations(star, 2))
    return Graph(g.edge_count, pairs)


def connected_components(g: Graph) -> list[list[int]]:
    """Partition of the vertices into components, ordered by minimum vertex.

    Vertices are scanned in order, so each unseen one is the minimum of a
    new component: O(n + m) in all.
    """
    seen = bytearray(g.n)
    parts = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = 1
        comp = [root]
        for v in comp:  # grows while it is read: breadth first
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = 1
                    comp.append(w)
        comp.sort()
        parts.append(comp)
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
    """Graph from its JSON object or string; Graph itself refuses more
    vertices than graph6 holds."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError("graph JSON must be an object with 'n' and 'edges'")
    n = obj["n"]
    if not _json_int(n):
        raise ValueError("'n' must be an integer")
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
    return _graph6(g.n, g._ends[:, 0], g._ends[:, 1]).decode("ascii")


def _graph6(n: int, a: np.ndarray, b: np.ndarray) -> bytes:
    """graph6 bytes of the graph on 0..n-1 with edges (a[e], b[e]).

    The single encoder behind graph_to_graph6 and the canonical
    certificates; endpoints may come in either order, and n is a Graph's.
    """
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
    elif 63 <= data[0] <= 125:
        n = data[0] - 63
        body = data[1:]
    else:
        raise ValueError(f"bad graph6 header byte {data[0]}")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError(
            f"graph6 body has {len(body)} bytes, expected {(nbits + 5) // 6}"
        )
    raw = np.frombuffer(body, dtype=np.uint8)
    bad = (raw < 63) | (raw > 126)
    if bad.any():
        raise ValueError(f"graph6 byte {int(raw[bad][0])} out of range")
    # unpack only the bytes that hold a set bit, so memory follows the
    # file and the edges, not the n(n - 1)/2 pairs
    hit = np.flatnonzero(raw != 63)
    byte, bit = np.nonzero(np.unpackbits((raw[hit] - 63)[:, None], axis=1)[:, 2:])
    pos = 6 * hit[byte] + bit  # ascending
    if pos.size and pos[-1] >= nbits:
        raise ValueError("nonzero padding bits in graph6 body")
    # invert the encoder's position C(hi, 2) + lo: the float root is off by
    # at most one either way
    hi = ((1 + np.sqrt(8 * pos + 1)) / 2).astype(np.int64)
    hi -= hi * (hi - 1) // 2 > pos
    hi += hi * (hi + 1) // 2 <= pos
    lo = pos - hi * (hi - 1) // 2
    return Graph(n, zip(lo.tolist(), hi.tolist()))
