"""Reference values computed apart from ``nlsp.graphs`` and ``nlsp.spectral``.

Closed forms cover the families that have one.  Elsewhere the system matrix
is assembled with numpy from a generated edge list: the Laplacian L for
undirected families, the incidence matrix B for directed ones.  Condition
numbers come from ``eigvalsh(L)`` or the singular values of B, skipping
exactly as many zero modes as ``connected_components`` counts, so no
eigenvalue cutoff enters.  Sparsity is the largest row count of structural
nonzeros of the system matrix (L, or the dilation [[0, B], [B^T, 0]]).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


class Reference(NamedTuple):
    """Expected measurements of one instance."""

    system_size: int
    kappa: float
    sparsity: int


def edge_arrays(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, w) arrays from an iterable of (u, v, w) triples."""
    arr = np.asarray(list(edges), dtype=float).reshape(-1, 3)
    return arr[:, 0].astype(np.intp), arr[:, 1].astype(np.intp), arr[:, 2]


def n_components(n: int, u: np.ndarray, v: np.ndarray) -> int:
    """Number of (weakly) connected components, isolated vertices included."""
    adj = sp.coo_array((np.ones(len(u)), (u, v)), shape=(n, n))
    return int(connected_components(adj, directed=False)[0])


def laplacian_dense(n: int, u, v, w) -> np.ndarray:
    lap = np.zeros((n, n))
    np.add.at(lap, (u, v), -w)
    np.add.at(lap, (v, u), -w)
    deg = np.bincount(u, weights=w, minlength=n) + np.bincount(v, weights=w, minlength=n)
    lap[np.diag_indices(n)] += deg
    return lap


def incidence_dense(n: int, u, v) -> np.ndarray:
    """B with -1 at each edge's tail and +1 at its head, one column per edge."""
    b = np.zeros((n, max(len(u), 1)))
    cols = np.arange(len(u))
    b[u, cols] = -1.0
    b[v, cols] = 1.0
    return b


def laplacian_reference(n: int, u, v, w) -> Reference:
    """κ of L from its full spectrum, skipping one zero mode per component."""
    c = n_components(n, u, v)
    eigs = np.linalg.eigvalsh(laplacian_dense(n, u, v, w))
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    sparsity = int((deg + (deg > 0)).max())
    return Reference(n, float(eigs[-1] / eigs[c]), sparsity)


def incidence_reference(n: int, u, v) -> Reference:
    """κ of the dilation from the singular values of B; rank B = n - c."""
    c = n_components(n, u, v)
    svals = np.linalg.svd(incidence_dense(n, u, v), compute_uv=False)
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    sparsity = max(int(deg.max()), 2 if len(u) else 0)
    return Reference(n + max(len(u), 1), float(svals[0] / svals[n - c - 1]), sparsity)


def min_norm_flow(n: int, u, v, c) -> np.ndarray:
    """Least-squares minimum-norm solution y of B y = c."""
    return np.linalg.lstsq(incidence_dense(n, u, v), np.asarray(c, dtype=float), rcond=None)[0]


def resistance(n: int, u, v, w, i: int, j: int) -> float:
    """(δi - δj)^T L^+ (δi - δj) from a pseudo-inverse of the numpy Laplacian."""
    rhs = np.zeros(n)
    rhs[i], rhs[j] = 1.0, -1.0
    return float(rhs @ np.linalg.pinv(laplacian_dense(n, u, v, w)) @ rhs)


# ---------------------------------------------------------------------------
# closed forms, keyed by catalog family id and schedule index n

def complete(n: int) -> Reference:
    """K_n: spectrum {0, n}, every row full."""
    return Reference(n, 1.0, n)


def turan(n: int) -> Reference:
    """T(n, 2) = K_{a,b}, a = n // 2: spectrum {0, a, b, n}; degree b = ceil(n/2)."""
    return Reference(n, n / (n // 2), -(-n // 2) + 1)


def hypercube(d: int) -> Reference:
    """Q_d: spectrum {2k : k = 0..d}, degree d."""
    return Reference(2**d, float(d), d + 1)


def grid_2d(n: int, rows: int = 102) -> Reference:
    """P_rows x P_n: eigenvalues (2 - 2cos(πi/rows)) + (2 - 2cos(πj/n))."""
    top = (2 - 2 * math.cos(math.pi * (rows - 1) / rows)) + (2 - 2 * math.cos(math.pi * (n - 1) / n))
    low = 2 - 2 * math.cos(math.pi / max(rows, n))
    degree = min(2, rows - 1) + min(2, n - 1)
    return Reference(rows * n, top / low, degree + 1)


def directed_hypercube(d: int) -> Reference:
    """B B^T is the Laplacian of Q_d, so σ(B) = sqrt(2k) and κ = sqrt(d).

    Vertex rows of the dilation hold d entries, edge rows 2.
    """
    return Reference(2**d + d * 2 ** (d - 1), math.sqrt(d), max(d, 2))


CLOSED_FORMS = {
    "complete": complete,
    "turan": turan,
    "hypercube": hypercube,
    "grid_2d": grid_2d,
    "directed_hypercube": directed_hypercube,
}
