"""Graph representation and the matrices derived from it.

Vertices are dense indices 0..n-1.  A graph is three parallel numpy arrays
(tail, head, weight) in a fixed edge order, validated as a whole.  Matrices
are scipy CSR arrays in canonical form (sorted column indices, no duplicate
or explicit zero entries), assembled from the edge arrays in one pass; dense
numpy conversion happens only at the eigensolver boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterable, Optional

import numpy as np
import scipy.sparse as sp

EdgeInput = tuple[int, int] | tuple[int, int, float]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _integral(a, what: str) -> np.ndarray:
    """a as a new int64 array, refusing, not truncating or wrapping, a
    non-integral entry or one outside int64."""
    a = np.asarray(a)
    if a.dtype.kind in "bi":
        return a.astype(np.int64)
    f = a.reshape(-1)  # a uint64 past int64 would wrap
    if a.dtype.kind != "u":
        f = a.astype(float).reshape(-1)
        bad = np.flatnonzero(~np.isfinite(f) | (f != np.trunc(f)))
        if bad.size:
            raise ValueError(f"non-integral {what} {float(f[bad[0]])!r}")
    bad = np.flatnonzero((f < -2**63) | (f >= 2**63))
    if bad.size:
        raise ValueError(f"{what} {a.reshape(-1)[bad[0]]} lies outside int64")
    return a.astype(np.int64)


# One rule per kind of setting: each refuses, naming it, a value of another kind or out of range.

def whole_number(value, name: str, least=None, or_none=False) -> Optional[int]:
    """An int or numpy integer, never a bool, float or string, and at least
    ``least``; or None, if ``or_none``."""
    if value is None and or_none:
        return None
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (least is not None and value < least)):
        kind = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}.get(
            least, f"an integer >= {least}")
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return int(value)


def real_number(value, name: str, at_most=math.inf) -> float:
    """An int or float, Python or numpy, never a bool or string, in
    (0, at_most] and finite as a float."""
    # a numpy float is widened, not the bound narrowed to its dtype; an int compares exactly
    x = float(value) if isinstance(value, (float, np.floating)) else value
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not 0 < x <= min(at_most, float(np.finfo(float).max))):
        kind = "> 0" if at_most == math.inf else f"in (0, {at_most}]"
        raise ValueError(f"{name} must be a finite number {kind}, got {value!r}")
    return float(value)


def flag(value, name: str) -> bool:
    """A bool, Python or numpy."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


@dataclass(frozen=True, eq=False)
class Graph:
    """A simple graph with canonical 0..n-1 vertex labels.

    Edge k runs from ``u[k]`` to ``v[k]`` with weight ``w[k]``.  Undirected
    edges are stored with u < v and carry strictly positive finite weights;
    a digraph's arcs carry unit weight, since its system is the ±1
    incidence matrix.  No self-loops, no duplicate edges.  A directed graph
    may contain both (u, v) and (v, u); families that forbid bi-directed
    pairs enforce that at generation time.  The arrays are read-only copies.
    """

    n_vertices: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    directed: bool = False

    def __post_init__(self) -> None:
        n = int(_integral(self.n_vertices, "vertex count"))
        u = _frozen(_integral(self.u, "vertex").reshape(-1))
        v = _frozen(_integral(self.v, "vertex").reshape(-1))
        w = _frozen(np.array(self.w, dtype=float).reshape(-1))
        object.__setattr__(self, "n_vertices", n)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "directed", flag(self.directed, "directed"))
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if not u.size == v.size == w.size:
            raise ValueError("u, v and w must have the same length")
        bad = np.flatnonzero((u < 0) | (u >= n) | (v < 0) | (v >= n))
        if bad.size:
            k = bad[0]
            raise ValueError(f"edge ({u[k]},{v[k]}) out of range for {n} vertices")
        bad = np.flatnonzero(u == v)
        if bad.size:
            raise ValueError(f"self-loop at vertex {u[bad[0]]}")
        bad = np.flatnonzero(~np.isfinite(w))
        if bad.size:
            k = bad[0]
            raise ValueError(f"non-finite weight {w[k]} on edge ({u[k]},{v[k]})")
        bad = np.flatnonzero(w <= 0)
        if bad.size:
            k = bad[0]
            raise ValueError(f"non-positive weight {w[k]} on edge ({u[k]},{v[k]})")
        if self.directed:
            bad = np.flatnonzero(w != 1.0)
            if bad.size:
                k = bad[0]
                raise ValueError(f"edge ({u[k]},{v[k]}) has weight {w[k]}, "
                                 "but a digraph's arcs carry unit weight")
            keys = u * n + v
        else:
            keys = np.minimum(u, v) * n + np.maximum(u, v)
        order = np.argsort(keys, kind="stable")
        repeats = np.flatnonzero(keys[order][1:] == keys[order][:-1])
        if repeats.size:
            k = order[repeats[0] + 1]
            raise ValueError(f"duplicate edge ({u[k]},{v[k]})")
        if not self.directed and (u > v).any():
            raise ValueError("undirected edges must be stored with u < v")

    @staticmethod
    def from_edges(n_vertices: int, edges: Iterable[EdgeInput], directed: bool = False) -> "Graph":
        """Build a graph from (u, v) or (u, v, w) rows, weights defaulting to 1.

        Undirected rows are stored with their endpoints in ascending order.
        """
        rows = list(edges)
        lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        if ((lens < 2) | (lens > 3)).any():
            raise ValueError("edges must be (u, v) or (u, v, w) rows")
        flat = np.fromiter(chain.from_iterable(rows), dtype=float, count=int(lens.sum()))
        start = np.cumsum(lens) - lens
        u, v = flat[start], flat[start + 1]
        w = np.ones(len(rows))
        weighted = lens == 3
        w[weighted] = flat[start[weighted] + 2]
        if not directed:
            u, v = np.minimum(u, v), np.maximum(u, v)
        return Graph(n_vertices, u, v, w, directed)

    @property
    def n_edges(self) -> int:
        return int(self.u.size)

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """(u, v, w) Python tuples in stored order, for exchange and display;
        computations use the arrays."""
        return tuple(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n_vertices == other.n_vertices
            and self.directed == other.directed
            and np.array_equal(self.u, other.u)
            and np.array_equal(self.v, other.v)
            and np.array_equal(self.w, other.w)
        )


class RectMatrix:
    """Real matrix held as a canonical CSR array in ``csr``.

    Accepts anything ``scipy.sparse.csr_array`` does: a dense array or any
    sparse format; duplicate entries are summed and explicit zeros dropped.
    """

    def __init__(self, a) -> None:
        csr = sp.csr_array(a, dtype=float, copy=True)
        if csr.ndim != 2 or min(csr.shape) < 1:
            raise ValueError("dimensions must be >= 1")
        csr.sum_duplicates()
        csr.eliminate_zeros()
        self.csr = csr
        self.rows, self.cols = csr.shape

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()


class SymmetricMatrix(RectMatrix):
    """Real symmetric matrix; both triangles are stored."""

    def __init__(self, a) -> None:
        super().__init__(a)
        if self.rows != self.cols:
            raise ValueError(f"symmetric matrix must be square, got {self.rows}x{self.cols}")
        # Canonical CSR is unique, so m is symmetric exactly when its arrays
        # equal those of its sorted transpose (a NaN entry compares unequal).
        t = self.csr.T.tocsr()
        t.sort_indices()
        if not all(np.array_equal(getattr(self.csr, k), getattr(t, k))
                   for k in ("indptr", "indices", "data")):
            raise ValueError("matrix is not symmetric")
        self.order = self.rows

    @classmethod
    def _built_symmetric(cls, a) -> "SymmetricMatrix":
        """``a`` in canonical CSR without the symmetry check, for a matrix
        symmetric by construction: a Laplacian, a dilation, a padding."""
        m = cls.__new__(cls)
        RectMatrix.__init__(m, a)
        m.order = m.rows
        return m


def laplacian(g: Graph) -> SymmetricMatrix:
    """Weighted Laplacian L = D - Q (undirected only).

    Degrees are accumulated in stored edge order, each edge adding its
    weight to u then to v, so the diagonal does not depend on how the
    matrix is assembled.
    """
    if g.directed:
        raise ValueError("laplacian is defined for undirected graphs")
    n = g.n_vertices
    ends = np.column_stack((g.u, g.v)).ravel()
    deg = np.bincount(ends, weights=np.repeat(g.w, 2), minlength=n)
    diag = np.arange(n)
    # Lower triangle, diagonal, upper triangle: when the edges are sorted by
    # (u, v), every row then arrives in column order and needs no sort.
    rows = np.concatenate((g.v, diag, g.u))
    cols = np.concatenate((g.u, diag, g.v))
    vals = np.concatenate((-g.w, deg, -g.w))
    # each edge enters both triangles with one weight: symmetric by construction
    return SymmetricMatrix._built_symmetric(sp.coo_array((vals, (rows, cols)), shape=(n, n)))


def incidence_matrix(g: Graph) -> RectMatrix:
    """Vertex-edge incidence matrix B: -1 at the initial vertex of each arc,
    +1 at the terminal vertex, columns in stored arc order (directed only;
    the arcs carry unit weight, so B is all of the digraph)."""
    if not g.directed:
        raise ValueError("incidence matrix is defined for directed graphs")
    m = g.n_edges
    cols = np.arange(m)
    vals = np.concatenate((np.full(m, -1.0), np.ones(m)))
    coo = sp.coo_array(
        (vals, (np.concatenate((g.u, g.v)), np.concatenate((cols, cols)))),
        shape=(g.n_vertices, max(m, 1)),
    )
    return RectMatrix(coo)


def system_matrix(g: Graph) -> RectMatrix:
    """g's Laplacian L, or a digraph's incidence matrix B (solved as [[0, B], [Bᵀ, 0]])."""
    return incidence_matrix(g) if g.directed else laplacian(g)


def hermitian_dilation(b: RectMatrix) -> SymmetricMatrix:
    """Symmetric block matrix [[0, B], [B^T, 0]] of order rows + cols."""
    return SymmetricMatrix._built_symmetric(sp.block_array([[None, b.csr], [b.csr.T, None]]))


def next_power_of_two(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def pad_to_power_of_two(m: SymmetricMatrix, fill: float) -> SymmetricMatrix:
    """Extend to the next power-of-two order with a fill * identity block.

    The caller is responsible for choosing fill inside the nonzero spectral
    range when the condition number must be preserved.
    """
    if not fill > 0:
        raise ValueError("fill must be positive")
    target = next_power_of_two(m.order)
    if target == m.order:
        return m
    # The padding rows hold one entry each, so m's canonical CSR arrays
    # extend in place; m and fill * I are symmetric, so their direct sum
    # needs no check.
    csr, extra = m.csr, np.arange(1, target - m.order + 1)
    return SymmetricMatrix._built_symmetric(sp.csr_array(
        (
            np.concatenate((csr.data, np.full(extra.size, float(fill)))),
            np.concatenate((csr.indices, m.order - 1 + extra)),
            np.concatenate((csr.indptr, csr.indptr[-1] + extra)),
        ),
        shape=(target, target),
    ))


def write_edge_list(g: Graph, fh: IO[str]) -> None:
    """Write the exchange format: header 'directed|undirected n', then 'u v w' lines."""
    fh.write(f"{'directed' if g.directed else 'undirected'} {g.n_vertices}\n")
    for u, v, w in g.edges:
        fh.write(f"{u} {v} {w!r}\n")


def read_edge_list(fh: IO[str]) -> Graph:
    header = fh.readline().split()
    if (
        len(header) != 2 or header[0] not in ("directed", "undirected")
        or not header[1].isdecimal()
    ):
        raise ValueError("edge-list line 1: expected 'directed|undirected n_vertices'")
    directed = header[0] == "directed"
    n = int(header[1])
    edges: list[EdgeInput] = []
    for lineno, line in enumerate(fh, start=2):
        parts = line.split()
        if not parts:
            continue
        if not 2 <= len(parts) <= 3:
            raise ValueError(f"edge-list line {lineno}: expected 'u v [w]', got {line.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) > 2 else 1.0
        except ValueError:
            raise ValueError(
                f"edge-list line {lineno}: expected integer vertices and a numeric weight, "
                f"got {line.strip()!r}"
            ) from None
        edges.append((u, v, w))
    return Graph.from_edges(n, edges, directed)
