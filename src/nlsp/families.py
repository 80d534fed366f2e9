"""Graph family catalog: generators, schedules, weights, source/sink repair.

Each family produces a sequence of graphs indexed by a single integer n.
Deterministic families are rebuilt from scratch; random families draw from a
per-instance PCG64 stream derived by hashing (base seed, family id, n), so
instances are reproducible and order-independent.

Fourteen families are generated natively from numpy arrays and Python loops:
``hypercube``, ``generalized_hypercube``, ``modified_mgg``, ``grid_2d``,
``grid_2d_square``, ``complete``, ``turan``, ``gnp``, ``barabasi_albert``,
``paley``, ``directed_hypercube``, ``gn``, ``gnr`` and ``gnc``.  Each builds
the graph, edge for edge, of the networkx generator it replaces; the random
ones take the same draws from the instance's stream.  Each of the others
holds its networkx call in its own catalog line, as a ``_Networkx`` build;
networkx is imported on the first such build, so a process that builds only
native families never loads it.  A random one draws through
``_StreamRandom``: its graphs are those of the networkx generator called with
the instance's Generator as ``seed``.  ``CatalogEntry.needs_networkx`` tells
the two kinds apart.

The weight rules of ``hypercube`` and ``modified_mgg`` live in their catalog
entries, as ``CatalogEntry.weights``; every other family, and every digraph
(whose arcs carry unit weight), is unit-weight only.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import math
import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np
import scipy.sparse.linalg

from .graphs import Graph, flag, whole_number
from .growth import GrowthClass

log = logging.getLogger(__name__)

WEIGHT_RULES = ("unit", "log_rule", "linear_rule", "quadratic_rule")
DEFAULT_UNDIRECTED_SEED = 23
DEFAULT_DIRECTED_SEED = 19
REDRAW_LIMIT = 100

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


class _StreamRandom(random.Random):
    """A ``random.Random`` drawing from a numpy Generator's bit stream.

    It draws what networkx's ``PythonRandomViaNumpyBits`` draws over the
    same Generator, which answers ``random()`` with ``Generator.random()``
    and ``getrandbits(k)`` with ``Generator.bytes(ceil(k / 8))``, a numpy
    call of about 9 us per draw.  This class calls the bit generator's
    ``next_double`` and ``next_uint32`` on the same state instead.
    ``Generator.random()`` is one ``next_double``; ``Generator.bytes(m)`` is
    ceil(m / 4) ``next_uint32`` words laid out little-endian and cut to m
    bytes, read here the same way.  ``getrandbits(0)`` still calls
    ``Generator.bytes(0)``, since numpy decides what zero bytes draw.  Every
    other ``random.Random`` method is built on these two, so the stream, and
    the state left behind, match networkx's wrapper draw for draw, and a
    networkx generator given this object as ``seed`` draws through it.

    The draws skip the Generator's lock: the Generator must not be shared
    with another thread, as holds for the one ``generate`` makes per
    instance.  The state is the bit generator's; ``seed`` is refused.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        # random.Random.__init__ would seed, which this stream cannot
        self._rng = rng
        self.gauss_next = None
        iface = rng.bit_generator.ctypes
        self._state = iface.state_address
        self._next_double = _c_draw(_DOUBLE_DRAW, iface.next_double)
        self._next_uint32 = _c_draw(_WORD_DRAW, iface.next_uint32)

    def random(self) -> float:
        return self._next_double(self._state)

    def getrandbits(self, k: int) -> int:
        if k <= 0:
            if k < 0:
                raise ValueError("number of bits must be non-negative")
            self._rng.bytes(0)
            return 0
        nbytes = (k + 7) // 8
        draw, state = self._next_uint32, self._state
        if nbytes <= 4:  # randrange's k <= 32: one word, no join
            raw = draw(state).to_bytes(4, "little")
        else:
            raw = b"".join([draw(state).to_bytes(4, "little") for _ in range((nbytes + 3) // 4)])
        return int.from_bytes(raw[:nbytes], "big") >> (8 * nbytes - k)

    def getstate(self) -> dict:
        return self._rng.bit_generator.state

    def setstate(self, state: dict) -> None:
        self._rng.bit_generator.state = state

    def seed(self, *args, **kwds) -> None:
        raise NotImplementedError("a bit stream's seed is its Generator's")


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


def _barabasi_albert(n: int, m: int, rng: np.random.Generator) -> Graph:
    """Preferential attachment from the star on vertices 0..m: the graph of
    nx.barabasi_albert_graph(n, m, seed=rng).

    Vertex s > m links to a set of m distinct targets, each drawn by
    ``choice`` from the list that holds every vertex once per incident edge;
    the targets join the list in the set's iteration order, then s m times.
    networkx emits each vertex's edges to higher vertices, which joined its
    adjacency in ascending order: the edges sorted by (lower, higher) end.
    """
    choice = _StreamRandom(rng).choice
    repeated = [0] * m + list(range(1, m + 1))
    lower = [0] * m  # the star's hub
    for source in range(m + 1, n):
        picked: set[int] = set()
        while len(picked) < m:
            picked.add(choice(repeated))
        repeated.extend(picked)
        repeated.extend([source] * m)
        lower.extend(picked)
    lo = np.array(lower, dtype=np.int64)
    hi = np.concatenate((np.arange(1, m + 1), np.repeat(np.arange(m + 1, n), m)))
    order = np.lexsort((hi, lo))
    return _unit(n, lo[order], hi[order])


def _gnr(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Growing network with redirection: the digraph of
    nx.gnr_graph(n, p, seed=rng).

    Vertex s >= 1 draws a target t = randrange(0, s), then a double; below p,
    and if t != 0, it links to t's own target instead.  The edges come in s
    order.
    """
    stream = _StreamRandom(rng)
    randrange, draw = stream.randrange, stream.random
    target = [0] * n
    for source in range(1, n):
        t = randrange(0, source)
        if draw() < p and t != 0:
            t = target[t]
        target[source] = t
    return _unit(n, np.arange(1, n), target[1:], directed=True)


def _gnc(n: int, rng: np.random.Generator) -> Graph:
    """Growing network with copying: the digraph of nx.gnc_graph(n, seed=rng).

    Vertex s >= 1 draws t = randrange(0, s) and links to t's successors, in
    the order t linked to them, then to t.  The edges come in s order.
    """
    randrange = _StreamRandom(rng).randrange
    succ: list[list[int]] = [[]]
    for source in range(1, n):
        t = randrange(0, source)
        succ.append(succ[t] + [t])
    heads = np.fromiter(chain.from_iterable(succ), dtype=np.int64)
    return _unit(n, np.repeat(np.arange(n), [len(s) for s in succ]), heads, directed=True)


def _grid_2d(rows: int, cols: int) -> Graph:
    """The rows x cols grid, vertex (i, j) labelled i * cols + j: the graph
    of nx.grid_2d_graph(rows, cols), which emits each vertex's edge down,
    then its edge right, in row-major vertex order."""
    v = np.arange(rows * cols)
    i, j = np.divmod(v, cols)
    keep = np.column_stack((i < rows - 1, j < cols - 1))
    ends = np.column_stack((v + cols, v + 1))
    return _unit(rows * cols, np.broadcast_to(v[:, None], keep.shape)[keep], ends[keep])


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
    whole_number(m, "m", 1)
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


# ---------------------------------------------------------------------------
# constructions networkx builds

@dataclass(frozen=True)
class _Networkx:
    """The build of a family that networkx generates: ``make(nx, n, stream)``
    returns networkx's graph, or a graph and its warnings.  networkx is
    imported on the first call.  stream is the instance's Generator as a
    ``_StreamRandom``, None for a deterministic family."""

    make: Callable

    def __call__(self, n: int, params: Mapping, rng: Optional[np.random.Generator]) -> BuildResult:
        import networkx as nx

        built = self.make(nx, n, None if rng is None else _StreamRandom(rng))
        if isinstance(built, tuple):
            return _from_nx(built[0]), built[1]
        return _from_nx(built)


def _from_nx(g) -> Graph:
    # Nodes are relabeled by rank in sorted order; edges keep the generator's
    # emission order, which is deterministic, and g says whether it is directed.
    idx = {v: i for i, v in enumerate(sorted(g.nodes()))}
    flat = np.fromiter(map(idx.__getitem__, chain.from_iterable(g.edges())), dtype=np.int64,
                       count=2 * g.number_of_edges())
    return _simple_graph(len(idx), flat[0::2], flat[1::2], g.is_directed())


EXPANDER_RETRY_LIMIT = 200
RAMANUJAN_BOUND = 2.0 * math.sqrt(5.0)  # regularity 6


def _adjacency_lambda2(nx, g) -> float:
    a = nx.adjacency_matrix(g, nodelist=sorted(g.nodes())).astype(float)
    if g.number_of_nodes() <= 400:
        return float(np.linalg.eigvalsh(a.toarray())[-2])
    vals = scipy.sparse.linalg.eigsh(a, k=2, which="LA", return_eigenvectors=False)
    return float(np.sort(vals)[0])


def _expander(nx, n, stream):
    for _ in range(EXPANDER_RETRY_LIMIT):  # one stream across the retries
        cand = nx.random_regular_graph(6, n, seed=stream)
        if _adjacency_lambda2(nx, cand) <= RAMANUJAN_BOUND + 1e-9:
            return cand
    return cand, (f"no Ramanujan graph within {EXPANDER_RETRY_LIMIT} retries at n={n}",)


def _random_lobster(nx, n, stream):
    # networkx 3.5 renamed random_lobster, keeping the old name as a deprecated
    # alias; networkx 3.4, the last release for Python 3.10, has only the old one.
    lobster = getattr(nx, "random_lobster_graph", None) or nx.random_lobster
    return lobster(n, 0.6, 0.5, seed=stream)


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
    incoming case swaps the two ends of every arc (``arc``).  Arcs live in a
    dict's key set for its membership tests and insertion order, the
    returned order.
    """
    if not g.directed:
        raise ValueError("repair applies to directed graphs")
    n = g.n_vertices
    if n < 3:
        raise ValueError("repair needs at least 3 vertices")
    edges = dict.fromkeys(zip(g.u.tolist(), g.v.tolist()))
    indeg = [0] * n
    outdeg = [0] * n
    for u, v in edges:
        outdeg[u] += 1
        indeg[v] += 1
    rng = _rng(seed)

    def arc(a: int, b: int, out: bool) -> tuple[int, int]:
        return (a, b) if out else (b, a)

    def add(u: int, v: int) -> None:
        edges[(u, v)] = None
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
    return _unit(n, uv[:, 0], uv[:, 1], directed=True)


# ---------------------------------------------------------------------------
# weight rules: each table maps a rule to the weights of an edge's larger
# endpoint label j (stored as v, since u < v)

# Hypercube: the rule value log(j+5), j+1 or j^2+1 is the resistance of the
# edge, so the Laplacian weight is its reciprocal.  High-label edges become
# weak links and the linear and quadratic rules open a condition-number gap
# that grows with N; direct weights cannot do that because every hypercube
# vertex touches a high-label edge.
_HYPERCUBE_WEIGHTS = {
    "log_rule": lambda j: 1.0 / _math_log(j + 5),
    "linear_rule": lambda j: 1.0 / (j + 1),
    "quadratic_rule": lambda j: 1.0 / (j * j + 1),
}

# Modified MGG: with b = j + 1 (the rank n*r+s+1 of the lexicographically
# larger endpoint), the weights log(b)+1, b, b^2 enter the Laplacian directly.
_MGG_WEIGHTS = {
    "log_rule": lambda j: _math_log(j + 1) + 1.0,
    "linear_rule": lambda j: (j + 1).astype(float),
    "quadratic_rule": lambda j: ((j + 1) * (j + 1)).astype(float),
}


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
    """One family: directed families solve incidence systems, random
    families carry a default seed, and ``weights`` maps each weight rule
    other than unit to the family's edge weights."""

    family_id: str
    matrix_kind: str  # laplacian | incidence
    size_growth: Union[GrowthClass, Callable[[Mapping], GrowthClass]]
    build: Callable[..., BuildResult]
    # as written in the catalog, a range or a tuple: tuples of the 103,409
    # catalog instances would hold that many ints in every process
    default_schedule: Sequence[int]
    default_params: Mapping = field(default_factory=dict)
    default_seed: Optional[int] = None
    weights: Mapping[str, Callable[[np.ndarray], np.ndarray]] = field(default_factory=dict)

    @property
    def directed(self) -> bool:
        return self.matrix_kind == "incidence"

    @property
    def random(self) -> bool:
        return self.default_seed is not None

    @property
    def needs_networkx(self) -> bool:
        """Whether building the family imports networkx."""
        return isinstance(self.build, _Networkx)

    def resolved_size_growth(self, params: Mapping) -> GrowthClass:
        if callable(self.size_growth):
            return self.size_growth(params)
        return self.size_growth


def _primes_3_mod_4(limit: int) -> tuple[int, ...]:
    return tuple(q for q in range(3, limit + 1) if q % 4 == 3 and _is_prime(q))


_N1 = GrowthClass.poly(1)
_N2 = GrowthClass.poly(2)
_EXP2 = GrowthClass.exponential(2)


def _und(fid, growth, build, schedule, params=None, seed=None, weights=None):
    return CatalogEntry(fid, "laplacian", growth, build, schedule, params or {}, seed,
                        weights or {})


def _dir(fid, growth, build, schedule, params=None, rand=False):
    seed = DEFAULT_DIRECTED_SEED if rand else None
    return CatalogEntry(fid, "incidence", growth, build, schedule, params or {}, seed)


_CATALOG_ENTRIES = [
    # -- undirected, deterministic ------------------------------------------
    _und("hypercube", _EXP2, lambda n, p, r: _hypercube(n), range(2, 15),
         weights=_HYPERCUBE_WEIGHTS),
    _und("generalized_hypercube",
         lambda params: GrowthClass.exponential(params["a"]),
         lambda n, p, r: _generalized_hypercube(n, p["a"]), range(1, 8), {"a": 2}),
    _und("modified_mgg", _N2, lambda n, p, r: _modified_mgg(n), range(5, 110),
         weights=_MGG_WEIGHTS),
    _und("sudoku", GrowthClass.poly(4), _Networkx(lambda nx, n, r: nx.sudoku_graph(n)),
         range(2, 15)),
    _und("grid_2d", _N1, lambda n, p, r: _grid_2d(102, n), range(3, 52)),
    _und("grid_2d_square", GrowthClass.exponential(4), lambda n, p, r: _grid_2d(2**n, 2**n),
         range(2, 9)),
    _und("hexagonal", _N1, _Networkx(lambda nx, n, r: nx.hexagonal_lattice_graph(n, 101)),
         range(1, 31)),
    _und("triangular", _N1, _Networkx(lambda nx, n, r: nx.triangular_lattice_graph(n, 101)),
         range(1, 101)),
    _und("complete", _N1, lambda n, p, r: _complete(n), range(2, 5005)),
    _und("turan", _N1, lambda n, p, r: _turan(n), range(5, 5004)),
    _und("harary_kn", _N1, _Networkx(lambda nx, n, r: nx.hkn_harary_graph(3, n)),
         range(5, 5010)),
    _und("harary_mn", _N1, _Networkx(lambda nx, n, r: nx.hnm_harary_graph(n, n + 1)),
         range(5, 5010)),
    _und("ladder", _N1, _Networkx(lambda nx, n, r: nx.ladder_graph(n)), range(5, 2501)),
    _und("circular_ladder", _N1, _Networkx(lambda nx, n, r: nx.circular_ladder_graph(n)),
         range(5, 2501)),
    _und("ring_of_cliques", _N1, _Networkx(lambda nx, n, r: nx.ring_of_cliques(n, 3)),
         range(5, 1668)),
    _und("balanced_binary_tree", _EXP2, _Networkx(lambda nx, n, r: nx.balanced_tree(2, n)),
         range(2, 15)),
    _und("balanced_ternary_tree", GrowthClass.exponential(3),
         _Networkx(lambda nx, n, r: nx.balanced_tree(3, n)), range(2, 10)),
    _und("binomial_tree", _EXP2, _Networkx(lambda nx, n, r: nx.binomial_tree(n)), range(2, 15)),
    # -- undirected, random (seed 23 unless noted) --------------------------
    _und("random_regular_expander", _N1, _Networkx(_expander), range(9, 5010),
         seed=DEFAULT_UNDIRECTED_SEED),
    _und("barabasi_albert", _N1, lambda n, p, r: _barabasi_albert(n, 3, r),
         range(5, 5010), seed=DEFAULT_UNDIRECTED_SEED),
    _und("newman_watts_strogatz", _N1,
         _Networkx(lambda nx, n, r: nx.newman_watts_strogatz_graph(n, 3, 1.0, seed=r)),
         range(5, 5006), seed=19),
    _und("random_regular", _N1,
         _Networkx(lambda nx, n, r: nx.random_regular_graph(4, n, seed=r)),
         range(5, 5014), seed=DEFAULT_UNDIRECTED_SEED),
    _und("gnp", _N1, lambda n, p, r: _gnp(n, 0.8, r),
         range(5, 5010), seed=DEFAULT_UNDIRECTED_SEED),
    _und("gaussian_random_partition", _N1,
         _Networkx(lambda nx, n, r: nx.gaussian_random_partition_graph(
             n, 5, 5, 0.5, 0.4, seed=r)),
         range(5, 5010), seed=DEFAULT_UNDIRECTED_SEED),
    _und("geographical_threshold", _N1,
         _Networkx(lambda nx, n, r: nx.geographical_threshold_graph(n, 10, seed=r)),
         range(5, 5010), seed=DEFAULT_UNDIRECTED_SEED),
    _und("soft_random_geometric", _N1,
         _Networkx(lambda nx, n, r: nx.soft_random_geometric_graph(n, 1.0, seed=r)),
         range(5, 5010), seed=DEFAULT_UNDIRECTED_SEED),
    _und("thresholded_random_geometric", _N1,
         _Networkx(lambda nx, n, r: nx.thresholded_random_geometric_graph(n, 1.0, 2.0, seed=r)),
         range(5, 5010), seed=DEFAULT_UNDIRECTED_SEED),
    _und("planted_partition", _N1,
         _Networkx(lambda nx, n, r: nx.planted_partition_graph(2, n, 0.5, 0.4, seed=r)),
         range(5, 2508), seed=DEFAULT_UNDIRECTED_SEED),
    _und("random_geometric", _N1,
         _Networkx(lambda nx, n, r: nx.random_geometric_graph(n, 1.0, seed=r)),
         range(7, 5009), seed=DEFAULT_UNDIRECTED_SEED),
    _und("uniform_random_intersection", _N1,
         _Networkx(lambda nx, n, r: nx.uniform_random_intersection_graph(n, n - 3, 0.6, seed=r)),
         range(5, 3000), seed=DEFAULT_UNDIRECTED_SEED),
    _und("random_lobster", _N1, _Networkx(_random_lobster), range(10, 2001), seed=19),
    # -- directed, deterministic --------------------------------------------
    _dir("paley", GrowthClass.poly(3), lambda n, p, r: _paley(n), _primes_3_mod_4(139)),
    _dir("directed_hypercube", _EXP2 * _N1, lambda n, p, r: _hypercube(n, directed=True),
         range(2, 15)),
    # -- directed, random (seed 19) -----------------------------------------
    _dir("gn", _N1, lambda n, p, r: _gn(n, r), range(5, 5000), rand=True),
    _dir("gnc", _N2, lambda n, p, r: _gnc(n, r), range(5, 1201), rand=True),
    _dir("gnr", _N1, lambda n, p, r: _gnr(n, 0.5, r), range(5, 5000), rand=True),
    _dir("gaussian_random_partition_directed", _N2,
         _Networkx(lambda nx, n, r: nx.gaussian_random_partition_graph(
             n, 5, 5, 0.5, 0.4, directed=True, seed=r)),
         range(5, 171), rand=True),
    _dir("planted_partition_directed", _N2,
         _Networkx(lambda nx, n, r: nx.planted_partition_graph(
             n, 5, 0.8, 0.4, seed=r, directed=True)),
         range(5, 45), rand=True),
    _dir("navigable_small_world", _N2,
         _Networkx(lambda nx, n, r: nx.navigable_small_world_graph(n, seed=r)),
         range(5, 101), rand=True),
    _dir("gnp_directed", _N2,
         _Networkx(lambda nx, n, r: nx.gnp_random_graph(n, 0.8, seed=r, directed=True)),
         range(9, 299), rand=True),
    _dir("random_uniform_kout", _N1,
         _Networkx(lambda nx, n, r: nx.generators.directed.random_uniform_k_out_graph(
             n, 2, self_loops=False, with_replacement=False, seed=r)),
         range(4, 3651), rand=True),
    _dir("scale_free", _N1,
         _Networkx(lambda nx, n, r: nx.scale_free_graph(
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

# How a spec reads each param it may hold: generalized_hypercube's base a,
# and a directed family's repair switch.
_PARAM_RULES = {
    "a": lambda value: whole_number(value, "a", 2),
    "repair": lambda value: flag(value, "repair"),
}


@dataclass(frozen=True)
class FamilySpec:
    """A family's schedule, params, base seed and weight rule.  The catalog
    entry gives its matrix kind, and with the params its size growth N(n),
    resolved when the spec is built.  A repair spec needs a seed to draw from."""

    family_id: str
    params: Mapping
    seed: Optional[int]
    schedule: tuple[int, ...]
    weight_rule: str = "unit"
    size_growth: GrowthClass = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        entry = catalog_entry(self.family_id)
        schedule = tuple(whole_number(n, "schedule entry") for n in self.schedule)
        object.__setattr__(self, "schedule", schedule)
        if any(b <= a for a, b in zip(schedule, schedule[1:])):
            raise ValueError("schedule must be strictly increasing")
        if entry.random and self.seed is None:
            raise ValueError(f"{self.family_id} is random and requires a seed")
        object.__setattr__(self, "seed", whole_number(self.seed, "seed", 0, or_none=True))
        if self.weight_rule not in WEIGHT_RULES:
            raise ValueError(f"unknown weight rule {self.weight_rule!r}")
        if self.weight_rule != "unit" and self.weight_rule not in entry.weights:
            raise ValueError(f"{self.family_id} has no weight rules")
        allowed = set(entry.default_params) | ({"repair"} if entry.directed else set())
        unknown = sorted(set(self.params) - allowed)
        if unknown:
            raise ValueError(f"{self.family_id} has no params {unknown}; it takes {sorted(allowed)}")
        # every catalog param, and any given one, stored as its rule reads it
        params = {key: _PARAM_RULES[key](self.params.get(key))
                  for key in {**entry.default_params, **self.params}}
        object.__setattr__(self, "params", params)
        if params.get("repair") and self.seed is None:
            raise ValueError("repair requires a seed")
        object.__setattr__(self, "size_growth", entry.resolved_size_growth(params))

    @property
    def matrix_kind(self) -> str:
        return catalog_entry(self.family_id).matrix_kind


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
) -> FamilySpec:
    """Assemble a validated spec with catalog defaults filled in."""
    entry = catalog_entry(family_id)
    merged = dict(entry.default_params)
    merged.update(params or {})
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
    graph, warnings = built if isinstance(built, tuple) else (built, ())
    if spec.params.get("repair"):
        graph = repair_sources_sinks(graph, derive_seed(spec.seed, spec.family_id + "/repair", n))
    if spec.weight_rule != "unit":
        w = entry.weights[spec.weight_rule](graph.v)
        graph = Graph(graph.n_vertices, graph.u, graph.v, w, graph.directed)
    return FamilyInstance(spec=spec, n=n, graph=graph, seed=seed, warnings=warnings)
