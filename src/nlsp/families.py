"""Graph family catalog: generators, schedules, weights, source/sink repair.

Each family produces a sequence of graphs indexed by a single integer n.
Deterministic families are rebuilt from scratch; random families draw from a
per-instance PCG64 stream derived by hashing (base seed, family id, n), so
instances are reproducible and order-independent.  A networkx-backed family
draws through ``_BitStreamRandom``, which reads that stream the way networkx's
own wrapper of a ``numpy.random.Generator`` does, without its per-draw numpy
calls: its graphs are those of the networkx generator called with the
Generator as ``seed``.  ``gnp`` and ``gn`` are built natively from the same
draws.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import math
import numbers
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Mapping, Optional, Sequence, Union

import networkx as nx
import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from networkx.generators.directed import random_uniform_k_out_graph
from networkx.utils.misc import PythonRandomViaNumpyBits

from .graphs import Graph
from .growth import GrowthClass

log = logging.getLogger(__name__)

WEIGHT_RULES = ("unit", "log_rule", "linear_rule", "quadratic_rule")
DEFAULT_UNDIRECTED_SEED = 23
DEFAULT_DIRECTED_SEED = 19
REDRAW_LIMIT = 100
EXPANDER_RETRY_LIMIT = 200
RAMANUJAN_BOUND = 2.0 * math.sqrt(5.0)  # regularity 6

BuildResult = Union[Graph, tuple[Graph, tuple[str, ...]]]


def derive_seed(base_seed: int, family_id: str, n: int) -> int:
    """Stable 64-bit per-instance seed from (base seed, family, index)."""
    digest = hashlib.sha256(f"{base_seed}/{family_id}/{n}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


# The bit generator's C draws, called with the GIL held: a draw takes
# nanoseconds, so releasing the GIL around it, as a CFUNCTYPE call would,
# only invites a thread switch.
_DOUBLE_DRAW = ctypes.PYFUNCTYPE(ctypes.c_double, ctypes.c_void_p)
_WORD_DRAW = ctypes.PYFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)


def _c_draw(prototype, fn):
    return prototype(ctypes.cast(fn, ctypes.c_void_p).value)


class _BitStreamRandom(PythonRandomViaNumpyBits):
    """networkx's ``random.Random`` over a Generator, drawing the same bits.

    ``PythonRandomViaNumpyBits`` answers ``random()`` with
    ``Generator.random()`` and ``getrandbits(k)`` with
    ``Generator.bytes(ceil(k / 8))``, a numpy call of about 9 us per draw.
    This subclass calls the bit generator's ``next_double`` and
    ``next_uint32`` on the same state instead.  ``Generator.random()`` is one
    ``next_double``; ``Generator.bytes(m)`` is ceil(m / 4) ``next_uint32``
    words laid out little-endian and cut to m bytes, read here the same way.
    ``getrandbits(0)`` is left to the parent, since numpy decides how many
    words zero bytes take.  Every other ``random.Random`` method is built on
    these two, so the stream, and the state left behind, match networkx's
    own wrapper draw for draw.

    The draws skip the Generator's lock: the Generator must not be shared
    with another thread, as holds for the one ``generate`` makes per
    instance.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__(rng)
        iface = rng.bit_generator.ctypes
        self._state = iface.state_address
        self._next_double = _c_draw(_DOUBLE_DRAW, iface.next_double)
        self._next_uint32 = _c_draw(_WORD_DRAW, iface.next_uint32)

    def random(self) -> float:
        return self._next_double(self._state)

    def getrandbits(self, k: int) -> int:
        if k <= 0:
            return super().getrandbits(k)
        nbytes = (k + 7) // 8
        draw, state = self._next_uint32, self._state
        if nbytes <= 4:  # randrange's k <= 32: one word, no join
            raw = draw(state).to_bytes(4, "little")
        else:
            raw = b"".join([draw(state).to_bytes(4, "little") for _ in range((nbytes + 3) // 4)])
        return int.from_bytes(raw[:nbytes], "big") >> (8 * nbytes - k)


# ---------------------------------------------------------------------------
# edge arrays

def _simple_graph(n: int, a: np.ndarray, b: np.ndarray, directed: bool) -> Graph:
    """Unit-weight graph from emitted (a, b) vertex pairs.

    Self-loops, parallel duplicates, and the reverse of an already kept edge
    are dropped: each unordered pair keeps its first emission, in emission
    order.  Undirected pairs are stored as (min, max); directed pairs keep
    the orientation they were emitted with.
    """
    keep = a != b
    a, b = a[keep], b[keep]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    first = np.sort(np.unique(lo * n + hi, return_index=True)[1])
    if directed:
        lo, hi = a, b
    return _unit(n, lo[first], hi[first], directed)


def _unit(n: int, u: np.ndarray, v: np.ndarray, directed: bool = False) -> Graph:
    return Graph(n, u, v, np.ones(len(u)), directed)


def _from_nx(g: "nx.Graph", directed: bool) -> Graph:
    # Nodes are relabeled by rank in sorted order; edges keep the generator's
    # emission order, which is deterministic.
    idx = {v: i for i, v in enumerate(sorted(g.nodes()))}
    flat = np.fromiter(
        map(idx.__getitem__, chain.from_iterable(g.edges())),
        dtype=np.int64,
        count=2 * g.number_of_edges(),
    )
    return _simple_graph(len(idx), flat[0::2], flat[1::2], directed)


# ---------------------------------------------------------------------------
# hand-built constructions

def _complete(n: int) -> Graph:
    return _unit(n, *np.triu_indices(n, 1))


def _turan(n: int) -> Graph:
    """Complete bipartite graph on parts 0..n//2-1 and n//2..n-1: the
    2-partite Turan graph, edges in nx.turan_graph(n, 2) order."""
    half = n // 2
    u = np.repeat(np.arange(half), n - half)
    v = np.tile(np.arange(half, n), half)
    return _unit(n, u, v)


def _gnp(n: int, p: float, rng: np.random.Generator) -> Graph:
    """G(n, p) with one uniform draw per vertex pair in (0,1), (0,2), ...
    order: the stream and edge order of nx.gnp_random_graph(n, p, seed=rng)."""
    u, v = np.triu_indices(n, 1)
    keep = rng.random(u.size) < p
    return _unit(n, u[keep], v[keep])


def _gn(n: int, rng: np.random.Generator) -> Graph:
    """The growing network digraph with a linear kernel, the graph of
    nx.gn_graph(n, kernel=lambda d: d, seed=rng).

    Vertex s >= 2 draws u = random() and links to the first vertex t with
    (deg[0] + ... + deg[t]) / 2(s - 1) >= u, the total degree being 2(s - 1):
    the target of networkx's discrete_sequence, whose CDF divides the
    integer prefix sums by the total.  The draws are the n - 2 doubles
    networkx takes, one per vertex, taken in one call; the edges (s, t) come
    in s order after (1, 0).  A draw of exactly 0.0 links to vertex 0, where
    networkx adds a vertex labelled -1.
    """
    deg = np.ones(n, dtype=np.int64)
    target = np.zeros(max(n - 1, 0), dtype=np.int64)
    draws = rng.random(max(n - 2, 0))
    for s in range(2, n):
        t = (np.cumsum(deg[:s]) / (2 * (s - 1))).searchsorted(draws[s - 2])
        target[s - 1] = t
        deg[t] += 1
    return _unit(n, np.arange(1, n), target, directed=True)


def _hypercube(n: int, directed: bool = False) -> Graph:
    # (v, v | 2^b) for v ascending, then b ascending, where bit b of v is 0;
    # directed edges point toward the endpoint of larger Hamming weight
    size = 1 << n
    v = np.repeat(np.arange(size), n)
    u = v | (1 << np.tile(np.arange(n), size))
    keep = u != v
    return _unit(size, v[keep], u[keep], directed)


def _generalized_hypercube(m: int, a: int) -> Graph:
    """Vertices are m-tuples over {0..a-1}; edges join tuples differing in
    exactly one coordinate.  Labels are base-a integer encodings."""
    if a < 2 or m < 1:
        raise ValueError("generalized hypercube needs a >= 2, m >= 1")
    size = a**m
    # candidates (v, pos, other) in row-major order; keep other > digit
    v = np.arange(size)[:, None, None]
    p = (a ** np.arange(m))[None, :, None]
    other = np.arange(a)[None, None, :]
    digit = (v // p) % a
    keep = np.broadcast_to(other > digit, (size, m, a))
    u = np.broadcast_to(v, keep.shape)[keep]
    w = np.broadcast_to(v + (other - digit) * p, keep.shape)[keep]
    return _unit(size, u, w)


def _modified_mgg(n: int) -> Graph:
    """Z_n x Z_n with the four affine neighbor rules, loops and parallel
    edges dropped.  Vertex (x, y) gets label x*n + y."""
    if n < 2:
        raise ValueError("grid side must be at least 2")
    x, y = np.divmod(np.arange(n * n), n)
    targets = np.column_stack((
        ((x + 2 * y) % n) * n + y,
        ((x + 2 * y + 1) % n) * n + y,
        x * n + (y + 2 * x) % n,
        x * n + (y + 2 * x + 1) % n,
    ))
    return _simple_graph(n * n, np.repeat(x * n + y, 4), targets.ravel(), directed=False)


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True


def _paley(q: int) -> Graph:
    if not _is_prime(q) or q % 4 != 3:
        raise ValueError(f"paley needs a prime = 3 (mod 4), got {q}")
    residues = np.zeros(q, dtype=bool)
    residues[[pow(x, 2, q) for x in range(1, q)]] = True
    u, w = np.divmod(np.arange(q * q), q)
    keep = (u != w) & residues[(u - w) % q]
    return _unit(q, u[keep], w[keep], directed=True)


def _adjacency_lambda2(g: "nx.Graph") -> float:
    n = g.number_of_nodes()
    a = nx.adjacency_matrix(g, nodelist=sorted(g.nodes())).astype(float)
    if n <= 400:
        vals = np.linalg.eigvalsh(a.toarray())
        return float(vals[-2])
    vals = scipy.sparse.linalg.eigsh(a, k=2, which="LA", return_eigenvectors=False)
    return float(np.sort(vals)[0])


def _expander(n: int, rng: np.random.Generator) -> BuildResult:
    stream = _BitStreamRandom(rng)  # one stream across the retries
    for _ in range(EXPANDER_RETRY_LIMIT):
        cand = nx.random_regular_graph(6, n, seed=stream)
        if _adjacency_lambda2(cand) <= RAMANUJAN_BOUND + 1e-9:
            return _from_nx(cand, directed=False)
    g = _from_nx(cand, directed=False)
    return g, (f"no Ramanujan graph within {EXPANDER_RETRY_LIMIT} retries at n={n}",)


# ---------------------------------------------------------------------------
# source/sink repair

def _draw_from(rng: np.random.Generator, pool: Sequence[int], admissible) -> Optional[int]:
    for _ in range(REDRAW_LIMIT):
        y = pool[int(rng.integers(len(pool)))]
        if admissible(y):
            return y
    # Bounded redraws exhausted; scan deterministically so the postcondition
    # (no sources or sinks) still holds whenever a legal choice exists.
    for y in pool:
        if admissible(y):
            return y
    return None


def repair_sources_sinks(g: Graph, seed: int) -> Graph:
    """Rewire a digraph so every vertex has an incoming and outgoing edge.

    First pass fixes total-degree-1 vertices; then sources and sinks are
    paired off, with leftover vertices served by random partners.  Additions
    and reversals never create a bi-directed pair, and the vertex count is
    unchanged.  Idempotent: a clean graph comes back as-is.

    Each step is written once, for a vertex that needs an outgoing edge; the
    incoming case swaps the two ends of every arc (``arc``).  Edges live in a
    dict for its membership tests and insertion order, the returned order.
    """
    if not g.directed:
        raise ValueError("repair applies to directed graphs")
    n = g.n_vertices
    if n < 3:
        raise ValueError("repair needs at least 3 vertices")
    edges = dict(zip(zip(g.u.tolist(), g.v.tolist()), g.w.tolist()))
    indeg = [0] * n
    outdeg = [0] * n
    for u, v in edges:
        outdeg[u] += 1
        indeg[v] += 1
    rng = _rng(seed)

    def arc(a: int, b: int, out: bool) -> tuple[int, int]:
        return (a, b) if out else (b, a)

    def add(u: int, v: int) -> None:
        edges[(u, v)] = 1.0
        outdeg[u] += 1
        indeg[v] += 1

    def serve(v: int, pool: Sequence[int], out: bool) -> None:
        # give v an outgoing edge (an incoming one if not out).  Reversing
        # the edge w→v is allowed only when w keeps an outgoing and v an
        # incoming edge, else the reversal re-creates the defect it fixes;
        # in particular v's only edge is never reversed.
        def ok(w: int) -> bool:
            if w == v:
                return False
            a, b = arc(w, v, out)
            if (a, b) in edges:
                return outdeg[a] > 1 and indeg[b] > 1
            return arc(v, w, out) not in edges

        w = _draw_from(rng, pool, ok)
        if w is None:
            return
        a, b = arc(w, v, out)
        if (a, b) in edges:
            del edges[(a, b)]
            outdeg[a] -= 1
            indeg[b] -= 1
        add(*arc(v, w, out))

    everyone = list(range(n))
    for v in range(n):
        if indeg[v] + outdeg[v] == 1:
            serve(v, everyone, out=indeg[v] == 1)

    sources = [v for v in range(n) if indeg[v] == 0]
    sinks = [v for v in range(n) if outdeg[v] == 0]
    if not sources and not sinks:
        log.debug("there are no source and sink vertices in the graph")
    elif not sources or not sinks:
        # one-sided: serve each sink (or source) from the vertices that
        # already have the missing kind of edge
        out = not sources
        deg = outdeg if out else indeg
        pool = [v for v in range(n) if deg[v] > 0]
        for v in sinks if out else sources:
            serve(v, pool, out)
    else:
        # walk both lists in parallel: a single sink-to-source edge fixes
        # each pair unless it would collide with an existing edge; whatever
        # is left over draws random partners from the other list
        for src, snk in zip(sources, sinks):
            if src != snk and (snk, src) not in edges and (src, snk) not in edges:
                add(snk, src)
        for defective, partners, out in ((sources, sinks, False), (sinks, sources, True)):
            deg = outdeg if out else indeg
            for v in defective:
                for pool in (partners, everyone):
                    if deg[v] == 0:
                        serve(v, pool, out)

    uv = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    return Graph(n, uv[:, 0], uv[:, 1], list(edges.values()), directed=True)


# ---------------------------------------------------------------------------
# weight rules

def apply_weight_rule(g: Graph, rule: str, family_id: str) -> Graph:
    """Reweight edges of a hypercube or modified-MGG graph.

    Hypercube: the rule value log(j+5), j+1 or j^2+1 (j the larger endpoint
    label) is the resistance of the edge, so the Laplacian weight stored here
    is its reciprocal.  High-label edges become weak links and the linear and
    quadratic rules open a condition-number gap that grows with N; direct
    weights cannot do that because every hypercube vertex touches a
    high-label edge.
    Modified MGG: with b = larger label + 1 (the rank n*r+s+1 of the
    lexicographically larger endpoint), the weights log(b)+1, b, b^2 enter
    the Laplacian directly.
    """
    if rule not in WEIGHT_RULES:
        raise ValueError(f"unknown weight rule {rule!r}")
    if rule == "unit":
        return g
    j = np.maximum(g.u, g.v)
    if family_id == "hypercube":
        if rule == "log_rule":
            w = 1.0 / _math_log(j + 5)
        elif rule == "linear_rule":
            w = 1.0 / (j + 1)
        else:
            w = 1.0 / (j * j + 1)
    elif family_id == "modified_mgg":
        b = j + 1
        if rule == "log_rule":
            w = _math_log(b) + 1.0
        elif rule == "linear_rule":
            w = b.astype(float)
        else:
            w = (b * b).astype(float)
    else:
        raise ValueError(f"weight rules are defined for hypercube and modified_mgg, not {family_id}")
    return Graph(g.n_vertices, g.u, g.v, w, directed=g.directed)


def _math_log(x: np.ndarray) -> np.ndarray:
    """Elementwise natural log through ``math.log``, once per distinct value.

    numpy's vectorized log can differ from libm's in the last bit, and the
    weights must not depend on which one a build uses.
    """
    values, inverse = np.unique(x, return_inverse=True)
    return np.fromiter(map(math.log, values.tolist()), dtype=float, count=values.size)[inverse]


# ---------------------------------------------------------------------------
# catalog

@dataclass(frozen=True)
class CatalogEntry:
    """One family: directed families solve incidence systems, and random
    families carry a default seed."""

    family_id: str
    matrix_kind: str  # laplacian | incidence
    size_growth: Union[GrowthClass, Callable[[Mapping], GrowthClass]]
    build: Callable[..., BuildResult]
    default_schedule: tuple[int, ...]
    default_params: Mapping = field(default_factory=dict)
    default_seed: Optional[int] = None
    weightable: bool = False

    @property
    def directed(self) -> bool:
        return self.matrix_kind == "incidence"

    @property
    def random(self) -> bool:
        return self.default_seed is not None

    def resolved_size_growth(self, params: Mapping) -> GrowthClass:
        if callable(self.size_growth):
            return self.size_growth(params)
        return self.size_growth


def _primes_3_mod_4(limit: int) -> tuple[int, ...]:
    return tuple(q for q in range(3, limit + 1) if q % 4 == 3 and _is_prime(q))


_N1 = GrowthClass.poly(1)
_N2 = GrowthClass.poly(2)
_EXP2 = GrowthClass.exponential(2)


def _und(fid, growth, build, schedule, params=None, seed=None, weightable=False):
    return CatalogEntry(fid, "laplacian", growth, build,
                        tuple(schedule), params or {}, seed, weightable)


def _dir(fid, growth, build, schedule, params=None, rand=False):
    seed = DEFAULT_DIRECTED_SEED if rand else None
    return CatalogEntry(fid, "incidence", growth, build, tuple(schedule), params or {}, seed)


def _nx_build(fn, directed: bool):
    # a random family's networkx generator draws through _BitStreamRandom
    def build(n, params, rng):
        seed = None if rng is None else _BitStreamRandom(rng)
        return _from_nx(fn(n, params, seed), directed)

    return build


def _nx_und(fn):
    return _nx_build(fn, directed=False)


def _nx_dir(fn):
    return _nx_build(fn, directed=True)


# networkx 3.5 renamed random_lobster, keeping the old name as a deprecated
# alias; networkx 3.4, the last release for Python 3.10, has only the old one.
_random_lobster = getattr(nx, "random_lobster_graph", None) or nx.random_lobster


_CATALOG_ENTRIES = [
    # -- undirected, deterministic ------------------------------------------
    _und("hypercube", _EXP2, lambda n, p, r: _hypercube(n), range(2, 15), weightable=True),
    CatalogEntry(
        "generalized_hypercube", "laplacian",
        lambda params: GrowthClass.exponential(int(params["a"])),
        lambda n, p, r: _generalized_hypercube(n, int(p["a"])),
        tuple(range(1, 8)), {"a": 2}, None, False,
    ),
    _und("modified_mgg", _N2, lambda n, p, r: _modified_mgg(n), range(5, 110), weightable=True),
    _und("sudoku", GrowthClass.poly(4), _nx_und(lambda n, p, r: nx.sudoku_graph(n)), range(2, 15)),
    _und("grid_2d", _N1, _nx_und(lambda n, p, r: nx.grid_2d_graph(102, n)), range(3, 52)),
    _und("grid_2d_square", GrowthClass.exponential(4),
         _nx_und(lambda n, p, r: nx.grid_2d_graph(2**n, 2**n)), range(2, 9)),
    _und("hexagonal", _N1, _nx_und(lambda n, p, r: nx.hexagonal_lattice_graph(n, 101)), range(1, 31)),
    _und("triangular", _N1, _nx_und(lambda n, p, r: nx.triangular_lattice_graph(n, 101)), range(1, 101)),
    _und("complete", _N1, lambda n, p, r: _complete(n), range(2, 5005)),
    _und("turan", _N1, lambda n, p, r: _turan(n), range(5, 5004)),
    _und("harary_kn", _N1, _nx_und(lambda n, p, r: nx.hkn_harary_graph(3, n)), range(5, 5010)),
    _und("harary_mn", _N1, _nx_und(lambda n, p, r: nx.hnm_harary_graph(n, n + 1)), range(5, 5010)),
    _und("ladder", _N1, _nx_und(lambda n, p, r: nx.ladder_graph(n)), range(5, 2501)),
    _und("circular_ladder", _N1, _nx_und(lambda n, p, r: nx.circular_ladder_graph(n)), range(5, 2501)),
    _und("ring_of_cliques", _N1, _nx_und(lambda n, p, r: nx.ring_of_cliques(n, 3)), range(5, 1668)),
    _und("balanced_binary_tree", _EXP2, _nx_und(lambda n, p, r: nx.balanced_tree(2, n)), range(2, 15)),
    _und("balanced_ternary_tree", GrowthClass.exponential(3),
         _nx_und(lambda n, p, r: nx.balanced_tree(3, n)), range(2, 10)),
    _und("binomial_tree", _EXP2, _nx_und(lambda n, p, r: nx.binomial_tree(n)), range(2, 15)),
    # -- undirected, random (seed 23 unless noted) --------------------------
    _und("random_regular_expander", _N1, lambda n, p, r: _expander(n, r),
         range(9, 5010), seed=DEFAULT_UNDIRECTED_SEED),
    _und("barabasi_albert", _N1, _nx_und(lambda n, p, r: nx.barabasi_albert_graph(n, 3, seed=r)),
         range(5, 5010), seed=DEFAULT_UNDIRECTED_SEED),
    _und("newman_watts_strogatz", _N1,
         _nx_und(lambda n, p, r: nx.newman_watts_strogatz_graph(n, 3, 1.0, seed=r)),
         range(5, 5006), seed=19),
    _und("random_regular", _N1, _nx_und(lambda n, p, r: nx.random_regular_graph(4, n, seed=r)),
         range(5, 5014), seed=DEFAULT_UNDIRECTED_SEED),
    _und("gnp", _N1, lambda n, p, r: _gnp(n, 0.8, r),
         range(5, 5010), seed=DEFAULT_UNDIRECTED_SEED),
    _und("gaussian_random_partition", _N1,
         _nx_und(lambda n, p, r: nx.gaussian_random_partition_graph(n, 5, 5, 0.5, 0.4, seed=r)),
         range(5, 5010), seed=DEFAULT_UNDIRECTED_SEED),
    _und("geographical_threshold", _N1,
         _nx_und(lambda n, p, r: nx.geographical_threshold_graph(n, 10, seed=r)),
         range(5, 5010), seed=DEFAULT_UNDIRECTED_SEED),
    _und("soft_random_geometric", _N1,
         _nx_und(lambda n, p, r: nx.soft_random_geometric_graph(n, 1.0, seed=r)),
         range(5, 5010), seed=DEFAULT_UNDIRECTED_SEED),
    _und("thresholded_random_geometric", _N1,
         _nx_und(lambda n, p, r: nx.thresholded_random_geometric_graph(n, 1.0, 2.0, seed=r)),
         range(5, 5010), seed=DEFAULT_UNDIRECTED_SEED),
    _und("planted_partition", _N1,
         _nx_und(lambda n, p, r: nx.planted_partition_graph(2, n, 0.5, 0.4, seed=r)),
         range(5, 2508), seed=DEFAULT_UNDIRECTED_SEED),
    _und("random_geometric", _N1, _nx_und(lambda n, p, r: nx.random_geometric_graph(n, 1.0, seed=r)),
         range(7, 5009), seed=DEFAULT_UNDIRECTED_SEED),
    _und("uniform_random_intersection", _N1,
         _nx_und(lambda n, p, r: nx.uniform_random_intersection_graph(n, n - 3, 0.6, seed=r)),
         range(5, 3000), seed=DEFAULT_UNDIRECTED_SEED),
    _und("random_lobster", _N1, _nx_und(lambda n, p, r: _random_lobster(n, 0.6, 0.5, seed=r)),
         range(10, 2001), seed=19),
    # -- directed, deterministic --------------------------------------------
    _dir("paley", GrowthClass.poly(3), lambda n, p, r: _paley(n), _primes_3_mod_4(139)),
    _dir("directed_hypercube", _EXP2 * _N1, lambda n, p, r: _hypercube(n, directed=True),
         range(2, 15)),
    # -- directed, random (seed 19) -----------------------------------------
    _dir("gn", _N1, lambda n, p, r: _gn(n, r), range(5, 5000), rand=True),
    _dir("gnc", _N2, _nx_dir(lambda n, p, r: nx.gnc_graph(n, seed=r)), range(5, 1201), rand=True),
    _dir("gnr", _N1, _nx_dir(lambda n, p, r: nx.gnr_graph(n, 0.5, seed=r)), range(5, 5000), rand=True),
    _dir("gaussian_random_partition_directed", _N2,
         _nx_dir(lambda n, p, r: nx.gaussian_random_partition_graph(
             n, 5, 5, 0.5, 0.4, directed=True, seed=r)),
         range(5, 171), rand=True),
    _dir("planted_partition_directed", _N2,
         _nx_dir(lambda n, p, r: nx.planted_partition_graph(n, 5, 0.8, 0.4, seed=r, directed=True)),
         range(5, 45), rand=True),
    _dir("navigable_small_world", _N2,
         _nx_dir(lambda n, p, r: nx.navigable_small_world_graph(n, seed=r)), range(5, 101),
         rand=True),
    _dir("gnp_directed", _N2,
         _nx_dir(lambda n, p, r: nx.gnp_random_graph(n, 0.8, seed=r, directed=True)),
         range(9, 299), rand=True),
    _dir("random_uniform_kout", _N1,
         _nx_dir(lambda n, p, r: random_uniform_k_out_graph(
             n, 2, self_loops=False, with_replacement=False, seed=r)),
         range(4, 3651), rand=True),
    _dir("scale_free", _N1,
         _nx_dir(lambda n, p, r: nx.scale_free_graph(
             n, alpha=0.41, beta=0.54, gamma=0.05, delta_in=0.2, delta_out=0, seed=r)),
         range(5, 3401), rand=True),
]

CATALOG: dict[str, CatalogEntry] = {e.family_id: e for e in _CATALOG_ENTRIES}


def catalog_entry(family_id: str) -> CatalogEntry:
    try:
        return CATALOG[family_id]
    except KeyError:
        raise ValueError(f"unknown family {family_id!r}") from None


def list_families() -> tuple[str, ...]:
    return tuple(CATALOG)


# ---------------------------------------------------------------------------
# specs and generation

def is_integer(value) -> bool:
    """An int or a numpy integer; a bool is no size."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class FamilySpec:
    """A family's schedule, params, base seed and weight rule.  Its matrix
    kind and size growth N(n) are read from the catalog entry and params.
    A repair spec needs a seed, since the rewiring draws from one."""

    family_id: str
    params: Mapping
    seed: Optional[int]
    schedule: tuple[int, ...]
    weight_rule: str = "unit"

    def __post_init__(self) -> None:
        entry = catalog_entry(self.family_id)
        bad = [n for n in self.schedule if not is_integer(n)]
        if bad:
            raise ValueError(f"schedule entries must be integers, got {bad[0]!r}")
        if any(b <= a for a, b in zip(self.schedule, self.schedule[1:])):
            raise ValueError("schedule must be strictly increasing")
        if entry.random and self.seed is None:
            raise ValueError(f"{self.family_id} is random and requires a seed")
        if self.seed is not None and not (is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative int or None, got {self.seed!r}")
        if self.weight_rule not in WEIGHT_RULES:
            raise ValueError(f"unknown weight rule {self.weight_rule!r}")
        if self.weight_rule != "unit" and not entry.weightable:
            raise ValueError(f"{self.family_id} has no weight rules")
        allowed = set(entry.default_params) | ({"repair"} if entry.directed else set())
        unknown = sorted(set(self.params) - allowed)
        if unknown:
            raise ValueError(f"{self.family_id} has no params {unknown}; it takes {sorted(allowed)}")
        if self.params.get("repair") and self.seed is None:
            raise ValueError("repair requires a seed")

    @property
    def matrix_kind(self) -> str:
        return catalog_entry(self.family_id).matrix_kind

    @property
    def size_growth(self) -> GrowthClass:
        return catalog_entry(self.family_id).resolved_size_growth(self.params)


@dataclass(frozen=True)
class FamilyInstance:
    """One generated graph; seed is the per-instance seed its random draws
    used, None for a deterministic family."""

    spec: FamilySpec
    n: int
    graph: Graph
    seed: Optional[int]
    warnings: tuple[str, ...] = ()

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges


def make_spec(
    family_id: str,
    *,
    schedule: Optional[Sequence[int]] = None,
    seed: Optional[int] = None,
    params: Optional[Mapping] = None,
    weight_rule: str = "unit",
    repair: bool = False,
) -> FamilySpec:
    """Assemble a validated spec with catalog defaults filled in."""
    entry = catalog_entry(family_id)
    merged = dict(entry.default_params)
    merged.update(params or {})
    if repair:
        if not entry.directed:
            raise ValueError("source/sink repair applies to directed families")
        merged["repair"] = True
    return FamilySpec(
        family_id=family_id,
        params=merged,
        seed=seed if seed is not None else entry.default_seed,
        schedule=tuple(schedule if schedule is not None else entry.default_schedule),
        weight_rule=weight_rule,
    )


def generate(spec: FamilySpec, n: int) -> FamilyInstance:
    if n not in spec.schedule:
        raise ValueError(f"n={n} not in schedule for {spec.family_id}")
    entry = catalog_entry(spec.family_id)
    seed = derive_seed(spec.seed, spec.family_id, n) if entry.random else None
    built = entry.build(n, spec.params, None if seed is None else _rng(seed))
    warnings: tuple[str, ...] = ()
    if isinstance(built, tuple):
        graph, warnings = built
    else:
        graph = built
    if spec.params.get("repair"):
        graph = repair_sources_sinks(graph, derive_seed(spec.seed, spec.family_id + "/repair", n))
    if spec.weight_rule != "unit":
        graph = apply_weight_rule(graph, spec.weight_rule, spec.family_id)
    return FamilyInstance(spec=spec, n=n, graph=graph, seed=seed, warnings=warnings)
