import hashlib
import logging
import math
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.utils.misc import PythonRandomViaNumpyBits

from nlsp.families import (
    CATALOG,
    FamilySpec,
    catalog_entry,
    derive_seed,
    generate,
    list_families,
    make_spec,
    repair_sources_sinks,
)
from nlsp.families import _from_nx, _gn, _grid_2d, _rng, _StreamRandom
from nlsp.graphs import Graph, system_matrix
from nlsp.growth import GrowthClass
from nlsp.spectral import measure


def degree_profile(g: Graph) -> tuple[list[int], list[int]]:
    indeg = [0] * g.n_vertices
    outdeg = [0] * g.n_vertices
    for u, v, _ in g.edges:
        outdeg[u] += 1
        indeg[v] += 1
    return indeg, outdeg


def system_size(inst) -> int:
    """N of an instance's system, as the survey measures it."""
    return measure(system_matrix(inst.graph)).system_size


def assert_no_bidirected(g: Graph) -> None:
    pairs = {(u, v) for u, v, _ in g.edges}
    assert not any((v, u) in pairs for u, v in pairs)


# -- catalog and spec plumbing -------------------------------------------------

def test_catalog_covers_both_matrix_kinds():
    kinds = {catalog_entry(f).matrix_kind for f in list_families()}
    assert kinds == {"laplacian", "incidence"}
    assert len(list_families()) >= 40


def test_catalog_direction_is_the_measured_kind():
    # the survey measures system_matrix(graph), which follows the graph's
    # direction, and reports the catalog's kind: records.csv and report.json
    # agree only while every build's direction is its entry's
    for f in list_families():
        entry = catalog_entry(f)
        g = generate(make_spec(f), entry.default_schedule[0]).graph
        assert g.directed == entry.directed, f
        assert measure(system_matrix(g)).matrix_kind == entry.matrix_kind, f


def test_catalog_schedules_stay_as_written_and_specs_get_tuples():
    # the full default catalog: ROADMAP's 103,409 instances
    entries = [catalog_entry(f) for f in list_families()]
    assert sum(len(e.default_schedule) for e in entries) == 103_409
    # a range holds no int per instance; make_spec expands it
    assert isinstance(catalog_entry("complete").default_schedule, range)
    assert isinstance(catalog_entry("generalized_hypercube").default_schedule, range)
    for f in ("complete", "generalized_hypercube", "paley"):
        spec = make_spec(f)
        assert isinstance(spec.schedule, tuple)
        assert spec.schedule == tuple(catalog_entry(f).default_schedule)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        catalog_entry("petersen")


def test_schedule_must_increase():
    with pytest.raises(ValueError):
        make_spec("hypercube", schedule=[3, 3, 4])
    with pytest.raises(ValueError):
        make_spec("hypercube", schedule=[5, 4])


def test_schedule_entries_must_be_integers():
    for schedule in ([2.5, 3, 4, 5], ["4"], [True, 2], [2, 3.0]):
        with pytest.raises(ValueError, match="schedule entry must be an integer"):
            make_spec("hypercube", schedule=schedule)
    assert make_spec("hypercube", schedule=np.arange(2, 6)).schedule == (2, 3, 4, 5)


def test_random_family_requires_seed():
    spec = make_spec("barabasi_albert")
    assert spec.seed == 23
    with pytest.raises(ValueError, match="is random and requires a seed"):
        FamilySpec(family_id="barabasi_albert", params={}, seed=None, schedule=(5, 6))


def test_seed_must_be_a_non_negative_integer():
    # True would hash as "True" and draw other instances than seed 1
    for seed in (True, False, 2.5, "3", -1, np.int64(-2)):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            make_spec("gnp", schedule=(5, 6), seed=seed)
    assert make_spec("gnp", schedule=(5, 6), seed=np.int64(3)).seed == 3
    assert make_spec("hypercube", schedule=(2, 3), seed=0).seed == 0


def test_repair_spec_without_a_seed_is_refused():
    # deterministic directed families have no default seed to rewire with
    with pytest.raises(ValueError, match="repair requires a seed"):
        make_spec("directed_hypercube", params={"repair": True})
    with pytest.raises(ValueError, match="repair requires a seed"):
        FamilySpec("paley", {"repair": True}, None, (3, 7))
    spec = make_spec("directed_hypercube", params={"repair": True}, seed=5, schedule=(3, 4))
    assert generate(spec, 3).n_vertices == 8


def test_instance_seed_is_the_derived_seed():
    spec = make_spec("gnp", schedule=(5, 9), seed=7)
    assert [generate(spec, n).seed for n in (5, 9)] == [derive_seed(7, "gnp", n) for n in (5, 9)]
    assert generate(make_spec("hypercube"), 3).seed is None


def test_weight_rule_limited_to_weightable_families():
    with pytest.raises(ValueError):
        make_spec("complete", weight_rule="log_rule")
    spec = make_spec("hypercube", weight_rule="linear_rule")
    assert spec.weight_rule == "linear_rule"


def test_unknown_params_rejected():
    with pytest.raises(ValueError, match=r"gnp has no params \['p'\]"):
        make_spec("gnp", params={"p": 0.1})
    with pytest.raises(ValueError, match="no params"):
        make_spec("generalized_hypercube", params={"a": 3, "m": 2})
    with pytest.raises(ValueError, match="no params"):
        make_spec("hypercube", params={"repair": True})
    assert make_spec("generalized_hypercube", params={"a": 3}).params == {"a": 3}


def test_generate_outside_schedule_errors():
    spec = make_spec("hypercube", schedule=[2, 3])
    with pytest.raises(ValueError):
        generate(spec, 9)


def test_derived_seeds_distinct():
    seeds = {derive_seed(23, f, n) for f in ("gnp", "gn") for n in (5, 6, 7)}
    assert len(seeds) == 6
    assert derive_seed(23, "gnp", 5) == derive_seed(23, "gnp", 5)


def test_schedule_generation_deterministic():
    spec = make_spec("gnp", schedule=[5, 9, 13])
    a = [generate(spec, n) for n in spec.schedule]
    b = [generate(spec, n) for n in spec.schedule]
    assert [i.graph.edges for i in a] == [i.graph.edges for i in b]
    assert [system_size(i) for i in a] == [i.graph.n_vertices for i in a]


# -- deterministic constructions ----------------------------------------------

def test_hypercube_counts_and_regularity():
    inst = generate(make_spec("hypercube"), 3)
    assert inst.n_vertices == 8
    assert inst.n_edges == 12
    indeg, outdeg = degree_profile(inst.graph)
    total = [i + o for i, o in zip(indeg, outdeg)]
    assert total == [3] * 8
    for n in (2, 4, 6):
        inst = generate(make_spec("hypercube"), n)
        assert inst.n_edges == inst.n_vertices * n // 2


def test_generalized_hypercube_m1_is_complete():
    spec = make_spec("generalized_hypercube", params={"a": 3}, schedule=[1, 2])
    inst = generate(spec, 1)
    assert inst.n_vertices == 3
    assert sorted((u, v) for u, v, _ in inst.graph.edges) == [(0, 1), (0, 2), (1, 2)]
    assert spec.size_growth == GrowthClass.exponential(3)
    # a^m vertices, each of degree m(a-1)
    inst = generate(spec, 2)
    assert inst.n_vertices == 9
    assert inst.n_edges == 9 * 2 * 2 // 2


def test_directed_hypercube_single_source_sink():
    inst = generate(make_spec("directed_hypercube"), 3)
    assert (inst.n_vertices, inst.n_edges, system_size(inst)) == (8, 12, 20)
    indeg, outdeg = degree_profile(inst.graph)
    assert [v for v in range(8) if indeg[v] == 0] == [0]
    assert [v for v in range(8) if outdeg[v] == 0] == [7]


def test_modified_mgg_matches_simple_margulis():
    inst = generate(make_spec("modified_mgg"), 5)
    ref = nx.Graph()
    for u, v in nx.margulis_gabber_galil_graph(5).edges():
        if u != v:
            ref.add_edge(u[0] * 5 + u[1], v[0] * 5 + v[1])
    assert inst.n_vertices == 25
    assert inst.n_edges == ref.number_of_edges() == 70
    mine = {(u, v) for u, v, _ in inst.graph.edges}
    assert mine == {(min(u, v), max(u, v)) for u, v in ref.edges()}


def test_assorted_vertex_counts():
    assert generate(make_spec("sudoku"), 2).n_vertices == 16
    assert generate(make_spec("sudoku"), 2).n_edges == 56
    assert generate(make_spec("sudoku"), 3).n_vertices == 81
    assert generate(make_spec("ring_of_cliques"), 6).n_vertices == 18
    assert generate(make_spec("balanced_binary_tree"), 4).n_vertices == 31
    assert generate(make_spec("balanced_ternary_tree"), 3).n_vertices == 40
    assert generate(make_spec("binomial_tree"), 5).n_vertices == 32
    assert generate(make_spec("turan"), 6).n_vertices == 6
    assert generate(make_spec("turan"), 6).n_edges == 9


def test_lattice_schedule_endpoints():
    assert generate(make_spec("grid_2d"), 51).n_vertices == 102 * 51
    assert generate(make_spec("hexagonal"), 30).n_vertices == 6322
    assert generate(make_spec("triangular"), 100).n_vertices == 5202


def test_paley_quadratic_residue_structure():
    spec = make_spec("paley")
    assert spec.schedule[:4] == (3, 7, 11, 19)
    inst = generate(spec, 7)
    assert inst.n_edges == 21
    assert system_size(inst) == 28
    assert_no_bidirected(inst.graph)
    residues = {1, 2, 4}
    for u, v, _ in inst.graph.edges:
        assert (u - v) % 7 in residues


def test_paley_rejects_bad_moduli():
    with pytest.raises(ValueError):
        generate(make_spec("paley", schedule=[5]), 5)
    with pytest.raises(ValueError):
        generate(make_spec("paley", schedule=[9]), 9)


def test_random_regular_degree():
    inst = generate(make_spec("random_regular"), 12)
    indeg, outdeg = degree_profile(inst.graph)
    assert [i + o for i, o in zip(indeg, outdeg)] == [4] * 12


def test_expander_is_six_regular_no_warning():
    inst = generate(make_spec("random_regular_expander"), 20)
    indeg, outdeg = degree_profile(inst.graph)
    assert [i + o for i, o in zip(indeg, outdeg)] == [6] * 20
    assert inst.warnings == ()


def test_directed_families_have_no_bidirected_pairs():
    for fid in ("gn", "gnc", "gnr", "scale_free", "navigable_small_world",
                "gnp_directed", "random_uniform_kout"):
        spec = make_spec(fid)
        n = spec.schedule[2]
        assert_no_bidirected(generate(spec, n).graph)


# -- weights -------------------------------------------------------------------

def weighted(family_id: str, rule: str, n: int) -> Graph:
    return generate(make_spec(family_id, weight_rule=rule), n).graph


def test_hypercube_weight_rules():
    # hypercube rule values are resistances: stored weight is the reciprocal
    logs = {(u, v): w for u, v, w in weighted("hypercube", "log_rule", 3).edges}
    assert logs[(0, 1)] == pytest.approx(1 / math.log(6))
    lin = {(u, v): w for u, v, w in weighted("hypercube", "linear_rule", 3).edges}
    assert lin[(2, 3)] == 0.25
    quad = {(u, v): w for u, v, w in weighted("hypercube", "quadratic_rule", 3).edges}
    assert quad[(2, 3)] == 0.1


def test_mgg_weight_rules():
    g = generate(make_spec("modified_mgg"), 5).graph
    u, v, _ = g.edges[0]
    b = max(u, v) + 1
    logs = weighted("modified_mgg", "log_rule", 5)
    assert logs.edges[0][2] == pytest.approx(math.log(b) + 1)
    lin = weighted("modified_mgg", "linear_rule", 5)
    assert lin.edges[0][2] == float(b)
    quad = weighted("modified_mgg", "quadratic_rule", 5)
    assert quad.edges[0][2] == float(b * b)


def test_weight_rule_family_mismatch():
    with pytest.raises(ValueError, match="complete has no weight rules"):
        make_spec("complete", weight_rule="log_rule")
    with pytest.raises(ValueError, match="unknown weight rule 'cubic_rule'"):
        make_spec("hypercube", weight_rule="cubic_rule")


def test_weighted_spec_flows_through_generate():
    inst = generate(make_spec("hypercube", weight_rule="quadratic_rule"), 2)
    weights = {(u, v): w for u, v, w in inst.graph.edges}
    assert weights[(0, 1)] == 0.5
    assert weights[(2, 3)] == 0.1


# -- source/sink repair --------------------------------------------------------

def test_repair_path_becomes_cycle():
    path = Graph.from_edges(3, [(0, 1), (1, 2)], directed=True)
    fixed = repair_sources_sinks(path, seed=7)
    assert sorted((u, v) for u, v, _ in fixed.edges) == [(0, 1), (1, 2), (2, 0)]


def test_repair_clean_graph_is_noop(caplog):
    cyc = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], directed=True)
    with caplog.at_level(logging.DEBUG, logger="nlsp.families"):
        fixed = repair_sources_sinks(cyc, seed=7)
    assert fixed.edges == cyc.edges
    assert any("no source and sink" in r.message for r in caplog.records)


def test_repair_two_sources_one_sink():
    g = Graph.from_edges(
        4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], directed=True)
    fixed = repair_sources_sinks(g, seed=11)
    indeg, outdeg = degree_profile(fixed)
    assert all(d > 0 for d in indeg)
    assert all(d > 0 for d in outdeg)
    assert fixed.n_vertices == 4
    assert_no_bidirected(fixed)


def test_repair_rejects_small_and_undirected():
    with pytest.raises(ValueError):
        repair_sources_sinks(Graph.from_edges(2, [(0, 1)], directed=True), seed=1)
    with pytest.raises(ValueError):
        repair_sources_sinks(Graph.from_edges(3, [(0, 1)]), seed=1)


def test_repair_idempotent_and_deterministic():
    spec = make_spec("gn")
    for n in (6, 11, 17):
        raw = generate(spec, n).graph
        once = repair_sources_sinks(raw, seed=5)
        again = repair_sources_sinks(once, seed=99)
        assert again.edges == once.edges
        assert repair_sources_sinks(raw, seed=5).edges == once.edges


def test_repaired_variant_postconditions():
    for fid in ("gn", "gnr", "scale_free"):
        spec = make_spec(fid, params={"repair": True})
        for n in (spec.schedule[1], spec.schedule[4]):
            inst = generate(spec, n)
            indeg, outdeg = degree_profile(inst.graph)
            assert all(d > 0 for d in indeg), (fid, n)
            assert all(d > 0 for d in outdeg), (fid, n)
            assert_no_bidirected(inst.graph)


def _edges_digest(graphs) -> str:
    h = hashlib.sha256()
    for g in graphs:
        h.update(repr(g.edges).encode())
    return h.hexdigest()


def test_repaired_edges_match_their_recorded_digest():
    # Pins the exact edges, in order, that the repair returns: the seeded
    # digraphs of acceptance criterion 8, and four repaired families.
    rng = np.random.default_rng(8)
    suite = []
    for trial in range(200):
        n = int(rng.integers(5, 51))
        p = float(rng.uniform(0.05, 0.3))
        raw = nx.gnp_random_graph(n, p, seed=int(rng.integers(1 << 31)), directed=True)
        g = Graph.from_edges(n, list(raw.edges()), directed=True)
        suite.append(repair_sources_sinks(g, seed=trial))
    assert _edges_digest(suite) == (
        "b2c6cb070441f7ea5c1ffe2e0abf3d8af47f5093c37b442b3328b0d23ca97f62"
    )
    families = []
    for fid in ("gn", "gnr", "scale_free", "paley"):
        spec = make_spec(fid, params={"repair": True}, seed=5)
        families += [generate(spec, n).graph for n in spec.schedule[:40:8]]
    assert _edges_digest(families) == (
        "bebcd1b045061dbe5f519dba190194e1a0301cce18f43dca129e5237ea60db36"
    )


def test_random_lobster_edges_match_their_recorded_digest():
    # Pins the vertex counts and edges, in order, of random_lobster at the
    # catalog seed and at seed 3, across its schedule.
    h = hashlib.sha256()
    for spec in (make_spec("random_lobster"), make_spec("random_lobster", seed=3)):
        for n in (10, 25, 50, 75, 300, 1200, 2000):
            g = generate(spec, n).graph
            h.update(f"{g.n_vertices}:{g.edges!r}".encode())
    assert h.hexdigest() == "44a1e450e243c49da7d9eab121e66ba92d518693af916c13075864fba90d4513"


def test_repair_flag_rejected_for_undirected():
    with pytest.raises(ValueError, match=r"gnp has no params \['repair'\]"):
        make_spec("gnp", params={"repair": True})


def _nx_edge_list(g: nx.Graph) -> list[tuple[int, int]]:
    return [(min(u, v), max(u, v)) for u, v in g.edges()]


@pytest.mark.parametrize("n", [2, 3, 7, 40])
def test_complete_matches_networkx(n):
    g = generate(make_spec("complete", schedule=(n,)), n).graph
    assert g.n_vertices == n
    assert [(u, v) for u, v, _ in g.edges] == _nx_edge_list(nx.complete_graph(n))


@pytest.mark.parametrize("n", [5, 6, 11, 40])
def test_turan_matches_networkx(n):
    g = generate(make_spec("turan", schedule=(n,)), n).graph
    assert g.n_vertices == n
    assert [(u, v) for u, v, _ in g.edges] == _nx_edge_list(nx.turan_graph(n, 2))


@pytest.mark.parametrize("n", [5, 9, 30, 101])
@pytest.mark.parametrize("seed", [23, 4])
def test_gnp_matches_networkx_stream(n, seed):
    # Same PCG64 stream, one draw per vertex pair in combinations order: any
    # change to networkx's draw order fails here instead of shifting records.
    g = generate(make_spec("gnp", schedule=(n,), seed=seed), n).graph
    ref = nx.gnp_random_graph(n, 0.8, seed=_rng(derive_seed(seed, "gnp", n)))
    assert g.n_vertices == ref.number_of_nodes() == n
    assert [(u, v) for u, v, _ in g.edges] == _nx_edge_list(ref)


# The networkx generator each native family replaces, called with the
# instance's Generator as seed, so networkx draws through its own wrapper;
# and the points compared: each schedule's ends and the benchmark's points.
NETWORKX_TWINS = {
    "barabasi_albert": (
        lambda n, rng: nx.barabasi_albert_graph(n, 3, seed=rng),
        (5, 6, 7, 8, 9, 10, 100, 400, 2100, 2200, 5008, 5009)),
    "gnr": (
        lambda n, rng: nx.gnr_graph(n, 0.5, seed=rng),
        (5, 6, 7, 8, 9, 10, 50, 250, 1100, 4998, 4999)),
    "gnc": (
        lambda n, rng: nx.gnc_graph(n, seed=rng),
        (5, 6, 7, 8, 9, 10, 20, 80, 1199, 1200)),
    "grid_2d": (
        lambda n, rng: nx.grid_2d_graph(102, n),
        (3, 4, 5, 6, 7, 8, 21, 22, 50, 51)),
    "grid_2d_square": (
        lambda n, rng: nx.grid_2d_graph(2**n, 2**n),
        (2, 3, 4, 5, 6, 7, 8)),
}


def assert_same_graph(g: Graph, ref: Graph) -> None:
    assert (g.n_vertices, g.directed) == (ref.n_vertices, ref.directed)
    for ours, theirs in ((g.u, ref.u), (g.v, ref.v), (g.w, ref.w)):
        assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("family_id, seed", [
    (f, seed) for f in sorted(NETWORKX_TWINS)
    # the catalog seed (None) and the benchmark's seeds 1 and 2
    for seed in ((None, 1, 2) if CATALOG[f].random else (None,))
])
def test_native_family_matches_networkx(family_id, seed):
    twin, points = NETWORKX_TWINS[family_id]
    spec = make_spec(family_id, schedule=points, seed=seed)
    for n in points:
        inst = generate(spec, n)
        rng = None if inst.seed is None else _rng(inst.seed)
        assert_same_graph(inst.graph, _from_nx(twin(n, rng)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["barabasi_albert", "gnr", "gnc"]), st.integers(4, 80),
       st.integers(0, 2**64 - 1))
def test_native_random_family_matches_networkx_on_any_stream(family_id, n, seed):
    entry = CATALOG[family_id]
    twin, _ = NETWORKX_TWINS[family_id]
    g = entry.build(n, entry.default_params, _rng(seed))
    assert_same_graph(g, _from_nx(twin(n, _rng(seed))))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12))
def test_grid_matches_networkx_at_any_shape(rows, cols):
    ref = _from_nx(nx.grid_2d_graph(rows, cols))
    assert_same_graph(_grid_2d(rows, cols), ref)


# -- random streams --------------------------------------------------------------

# sha256 of the vertex count and the u, v, w arrays of each random family at
# its catalog seed, at three schedule points, the last a large one; recorded
# while every networkx family still drew through networkx's own Generator
# wrapper and gn was nx.gn_graph.
RANDOM_FAMILY_DIGESTS = {
    "random_regular_expander": ((9, 509, 2509), "de3473f6b61f79cb44640cda82b1c73d1b0fa362b1eba061d0e7c0b56f9fb258"),
    "barabasi_albert": ((5, 505, 2507), "811f0689a863bab210442101851cd8a4267460455458bd7d5ca8f77543b953df"),
    "newman_watts_strogatz": ((5, 505, 2505), "e9ade9171a848841adcad4daa55fd20e20da8c487ce1a09f6aaba551f28955a5"),
    "random_regular": ((5, 505, 2509), "75eff00215b28b4873310954bbd15a0fe9f5948315a3c8940080d3f03d2b4cae"),
    "gnp": ((5, 505, 1505), "66c3cfecd3803407c73274d247e55b52a86dff9730fdc4006f6411a5df9c568c"),
    "gaussian_random_partition": ((5, 105, 505), "094efce9333eb00cbc6d4ca0666f1cf78742c7441945d630bd58283a53e94cf4"),
    "geographical_threshold": ((5, 105, 505), "f6c71df58ddbfdf89f3b10de3a049e24348c848b92836693dda15565cedae45a"),
    "soft_random_geometric": ((5, 105, 305), "525ce123474e62759ce36820d80a756b54b0968de16e31d16cb0fb0620fb952d"),
    "thresholded_random_geometric": ((5, 105, 505), "bfaacdda321f2b0f1955002205e19ce4306d06be16b633d2e6ade659e7007557"),
    "planted_partition": ((5, 55, 255), "af8f906f71948b264ade09a5f03a70fdc6edc6d8f1d3a7a464da1e0a358f5608"),
    "random_geometric": ((7, 107, 507), "8f9e8c85116f61175e5deb56f2b1dbd03704c371ff3b500bdbd86524cf5a6a53"),
    "uniform_random_intersection": ((5, 55, 304), "0eec197d171d2bfe03a20a9390be9ce7b0c420caa1eb68967ad9cab1c7b514ab"),
    "random_lobster": ((10, 209, 2000), "1253de6a335846805bb63a02b6d761ff795e401944b7bdcaa106985828a34f67"),
    "gn": ((5, 504, 4999), "e22bec1cab3bf95048d3be1b4eed937bbf8fa453490fbe85dc62ed4716e315d2"),
    "gnc": ((5, 124, 300), "ae9986aee4e1cf43aa6238c354a95ec5e5589d49a590f637c2cd438bd36ba7c3"),
    "gnr": ((5, 504, 4999), "fb219c3876307f99769e7138242312cd757534c6dc7d95af650f4feb07c29eae"),
    "gaussian_random_partition_directed": ((5, 21, 170), "ab283c29c5e252389b9f1565c4f684c0e0104019a27b6ba082014ab65e0a113d"),
    "planted_partition_directed": ((5, 9, 44), "41281eb8068ac86b7e5f34c0c6f71f9587cd47d40b25bfb4a06ceed158f406ff"),
    "navigable_small_world": ((5, 14, 20), "f9742a31b4ea125f8bca0a2ced9bed8785af3c2e713beda21ed65c07e5448ee3"),
    "gnp_directed": ((9, 38, 298), "9c35854ee5dccbad1522f3a8344d4a4a8dc079f7320b77c0c0283eacdbbcd6c5"),
    "random_uniform_kout": ((4, 368, 3650), "f3041b5ff9bc9bc71306e0453dc1115c7226562d846b6ca8197134d804a4760c"),
    "scale_free": ((5, 344, 3400), "67dca3439452855e92daee1efdb688f27fff19f8935f38fc8eefe7e810ea4569"),
}


def test_every_random_family_has_a_recorded_digest():
    assert set(RANDOM_FAMILY_DIGESTS) == {f for f, e in CATALOG.items() if e.random}


@pytest.mark.parametrize("family_id", sorted(RANDOM_FAMILY_DIGESTS))
def test_random_family_edges_match_their_recorded_digest(family_id):
    points, want = RANDOM_FAMILY_DIGESTS[family_id]
    spec = make_spec(family_id)
    h = hashlib.sha256()
    for n in points:
        g = generate(spec, n).graph
        h.update(f"{g.n_vertices}:".encode())
        for a in (g.u.astype("<i8"), g.v.astype("<i8"), g.w.astype("<f8")):
            h.update(a.tobytes())
    assert h.hexdigest() == want


_DRAWS = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("getrandbits"), st.integers(0, 200)),
    st.tuples(st.just("randrange"), st.integers(1, 2**70)),
    st.tuples(st.just("sample"), st.integers(1, 60), st.integers(0, 60)),
    st.tuples(st.just("shuffle"), st.integers(0, 60)),
)


def _draw(r, call):
    name, *args = call
    if name == "sample":
        size, k = args
        return r.sample(range(size), min(k, size))
    if name == "shuffle":
        items = list(range(args[0]))
        r.shuffle(items)
        return items
    return getattr(r, name)(*args)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1), st.lists(_DRAWS, max_size=40))
def test_bit_stream_random_draws_what_networkx_draws(seed, calls):
    ours, theirs = _StreamRandom(_rng(seed)), PythonRandomViaNumpyBits(_rng(seed))
    for call in calls:
        assert _draw(ours, call) == _draw(theirs, call), call
    assert ours._rng.bit_generator.state == theirs._rng.bit_generator.state


def test_stream_random_state_is_the_bit_generators():
    r = _StreamRandom(_rng(7))
    state = r.getstate()
    first = [r.random(), r.getrandbits(40), r.randrange(10**30), r.getrandbits(0)]
    r.setstate(state)
    assert [r.random(), r.getrandbits(40), r.randrange(10**30), r.getrandbits(0)] == first
    with pytest.raises(ValueError):
        r.getrandbits(-1)
    with pytest.raises(NotImplementedError):
        r.seed(1)


def test_gn_matches_networkx_on_the_same_stream():
    for n in range(2, 301):
        ref = nx.gn_graph(n, kernel=lambda d: d, seed=_rng(n))
        g = _gn(n, _rng(n))
        assert g.n_vertices == n and g.directed
        assert list(zip(g.u.tolist(), g.v.tolist())) == list(ref.edges()), n


def test_gn_links_a_zero_draw_to_vertex_zero(monkeypatch):
    draws = _rng(4).random(8)
    draws[0] = 0.0
    # networkx turns the draw 0.0 into the target -1, a vertex outside 0..n-1
    stream = iter(draws.tolist())
    monkeypatch.setattr(_StreamRandom, "random", lambda self: next(stream))
    ref = nx.gn_graph(10, kernel=lambda d: d, seed=_StreamRandom(_rng(4)))
    assert (2, -1) in ref.edges()
    g = _gn(10, SimpleNamespace(random=lambda size: draws[:size]))
    assert g.n_vertices == 10
    assert (g.u[1], g.v[1]) == (2, 0)
