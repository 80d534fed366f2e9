"""The catalog families that networkx builds, and the adapters they need.

This module, and with it networkx, is imported on the first build of one of
these families (``families._NetworkxBuild``), so a process that builds only
the natively generated families never loads networkx.  ``BUILDS`` maps each
such family id to its builder ``(n, params, rng) -> BuildResult``.  A random
family's generator draws through ``families._StreamRandom``, which networkx
takes as a ``random.Random`` and which reads the instance's PCG64 stream the
way networkx's own wrapper of a ``numpy.random.Generator`` does, without its
per-draw numpy calls: its graphs are those of the networkx generator called
with the Generator as ``seed``.
"""

from __future__ import annotations

import math
from itertools import chain

import networkx as nx
import numpy as np
import scipy.sparse.linalg
from networkx.generators.directed import random_uniform_k_out_graph

from .families import BuildResult, _simple_graph, _StreamRandom
from .graphs import Graph

EXPANDER_RETRY_LIMIT = 200
RAMANUJAN_BOUND = 2.0 * math.sqrt(5.0)  # regularity 6


def _from_nx(g: nx.Graph) -> Graph:
    # Nodes are relabeled by rank in sorted order; edges keep the generator's
    # emission order, which is deterministic, and g says whether it is directed.
    idx = {v: i for i, v in enumerate(sorted(g.nodes()))}
    flat = np.fromiter(
        map(idx.__getitem__, chain.from_iterable(g.edges())),
        dtype=np.int64,
        count=2 * g.number_of_edges(),
    )
    return _simple_graph(len(idx), flat[0::2], flat[1::2], g.is_directed())


def _adjacency_lambda2(g: nx.Graph) -> float:
    n = g.number_of_nodes()
    a = nx.adjacency_matrix(g, nodelist=sorted(g.nodes())).astype(float)
    if n <= 400:
        vals = np.linalg.eigvalsh(a.toarray())
        return float(vals[-2])
    vals = scipy.sparse.linalg.eigsh(a, k=2, which="LA", return_eigenvectors=False)
    return float(np.sort(vals)[0])


def _expander(n: int, rng: np.random.Generator) -> BuildResult:
    stream = _StreamRandom(rng)  # one stream across the retries
    for _ in range(EXPANDER_RETRY_LIMIT):
        cand = nx.random_regular_graph(6, n, seed=stream)
        if _adjacency_lambda2(cand) <= RAMANUJAN_BOUND + 1e-9:
            return _from_nx(cand)
    g = _from_nx(cand)
    return g, (f"no Ramanujan graph within {EXPANDER_RETRY_LIMIT} retries at n={n}",)


def _build(fn):
    # a random family's networkx generator draws through _StreamRandom
    def build(n, params, rng):
        seed = None if rng is None else _StreamRandom(rng)
        return _from_nx(fn(n, params, seed))

    return build


# networkx 3.5 renamed random_lobster, keeping the old name as a deprecated
# alias; networkx 3.4, the last release for Python 3.10, has only the old one.
_random_lobster = getattr(nx, "random_lobster_graph", None) or nx.random_lobster


# Each family's size growth, schedule and seed are its catalog entry's.
BUILDS = {
    # -- undirected, deterministic ------------------------------------------
    "sudoku": _build(lambda n, p, r: nx.sudoku_graph(n)),
    "hexagonal": _build(lambda n, p, r: nx.hexagonal_lattice_graph(n, 101)),
    "triangular": _build(lambda n, p, r: nx.triangular_lattice_graph(n, 101)),
    "harary_kn": _build(lambda n, p, r: nx.hkn_harary_graph(3, n)),
    "harary_mn": _build(lambda n, p, r: nx.hnm_harary_graph(n, n + 1)),
    "ladder": _build(lambda n, p, r: nx.ladder_graph(n)),
    "circular_ladder": _build(lambda n, p, r: nx.circular_ladder_graph(n)),
    "ring_of_cliques": _build(lambda n, p, r: nx.ring_of_cliques(n, 3)),
    "balanced_binary_tree": _build(lambda n, p, r: nx.balanced_tree(2, n)),
    "balanced_ternary_tree": _build(lambda n, p, r: nx.balanced_tree(3, n)),
    "binomial_tree": _build(lambda n, p, r: nx.binomial_tree(n)),
    # -- undirected, random -------------------------------------------------
    "random_regular_expander": lambda n, p, r: _expander(n, r),
    "newman_watts_strogatz": _build(
        lambda n, p, r: nx.newman_watts_strogatz_graph(n, 3, 1.0, seed=r)),
    "random_regular": _build(lambda n, p, r: nx.random_regular_graph(4, n, seed=r)),
    "gaussian_random_partition": _build(
        lambda n, p, r: nx.gaussian_random_partition_graph(n, 5, 5, 0.5, 0.4, seed=r)),
    "geographical_threshold": _build(
        lambda n, p, r: nx.geographical_threshold_graph(n, 10, seed=r)),
    "soft_random_geometric": _build(
        lambda n, p, r: nx.soft_random_geometric_graph(n, 1.0, seed=r)),
    "thresholded_random_geometric": _build(
        lambda n, p, r: nx.thresholded_random_geometric_graph(n, 1.0, 2.0, seed=r)),
    "planted_partition": _build(
        lambda n, p, r: nx.planted_partition_graph(2, n, 0.5, 0.4, seed=r)),
    "random_geometric": _build(lambda n, p, r: nx.random_geometric_graph(n, 1.0, seed=r)),
    "uniform_random_intersection": _build(
        lambda n, p, r: nx.uniform_random_intersection_graph(n, n - 3, 0.6, seed=r)),
    "random_lobster": _build(lambda n, p, r: _random_lobster(n, 0.6, 0.5, seed=r)),
    # -- directed, random ---------------------------------------------------
    "gaussian_random_partition_directed": _build(
        lambda n, p, r: nx.gaussian_random_partition_graph(
            n, 5, 5, 0.5, 0.4, directed=True, seed=r)),
    "planted_partition_directed": _build(
        lambda n, p, r: nx.planted_partition_graph(n, 5, 0.8, 0.4, seed=r, directed=True)),
    "navigable_small_world": _build(lambda n, p, r: nx.navigable_small_world_graph(n, seed=r)),
    "gnp_directed": _build(lambda n, p, r: nx.gnp_random_graph(n, 0.8, seed=r, directed=True)),
    "random_uniform_kout": _build(
        lambda n, p, r: random_uniform_k_out_graph(
            n, 2, self_loops=False, with_replacement=False, seed=r)),
    "scale_free": _build(
        lambda n, p, r: nx.scale_free_graph(
            n, alpha=0.41, beta=0.54, gamma=0.05, delta_in=0.2, delta_out=0, seed=r)),
}
