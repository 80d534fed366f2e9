import logging
import math

import networkx as nx
import pytest

from nlsp.families import (
    CATALOG,
    FamilySpec,
    apply_weight_rule,
    catalog_entry,
    derive_seed,
    generate,
    list_families,
    make_spec,
    repair_sources_sinks,
)
from nlsp.graphs import Graph
from nlsp.growth import GrowthClass
from nlsp.spectral import measure
from nlsp.survey import system_matrix


def degree_profile(g: Graph) -> tuple[list[int], list[int]]:
    indeg = [0] * g.n_vertices
    outdeg = [0] * g.n_vertices
    for u, v, _ in g.edges:
        outdeg[u] += 1
        indeg[v] += 1
    return indeg, outdeg


def system_size(inst) -> int:
    """N of an instance's system, as the survey measures it."""
    return measure(system_matrix(inst), inst.spec.matrix_kind).system_size


def assert_no_bidirected(g: Graph) -> None:
    pairs = {(u, v) for u, v, _ in g.edges}
    assert not any((v, u) in pairs for u, v in pairs)


# -- catalog and spec plumbing -------------------------------------------------

def test_catalog_covers_both_matrix_kinds():
    kinds = {catalog_entry(f).matrix_kind for f in list_families()}
    assert kinds == {"laplacian", "incidence"}
    assert len(list_families()) >= 40


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        catalog_entry("petersen")


def test_schedule_must_increase():
    with pytest.raises(ValueError):
        make_spec("hypercube", schedule=[3, 3, 4])
    with pytest.raises(ValueError):
        make_spec("hypercube", schedule=[5, 4])


def test_random_family_requires_seed():
    spec = make_spec("barabasi_albert")
    assert spec.seed == 23
    with pytest.raises(ValueError, match="is random and requires a seed"):
        FamilySpec(family_id="barabasi_albert", params={}, seed=None, schedule=(5, 6))


def test_repair_spec_without_a_seed_is_refused():
    # deterministic directed families have no default seed to rewire with
    with pytest.raises(ValueError, match="repair requires a seed"):
        make_spec("directed_hypercube", repair=True)
    with pytest.raises(ValueError, match="repair requires a seed"):
        FamilySpec("paley", {"repair": True}, None, (3, 7))
    spec = make_spec("directed_hypercube", repair=True, seed=5, schedule=(3, 4))
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
    assert make_spec("gn", params={"repair": True}) == make_spec("gn", repair=True)


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

def test_hypercube_weight_rules():
    # hypercube rule values are resistances: stored weight is the reciprocal
    g = generate(make_spec("hypercube"), 3).graph
    logs = {(u, v): w for u, v, w in apply_weight_rule(g, "log_rule", "hypercube").edges}
    assert logs[(0, 1)] == pytest.approx(1 / math.log(6))
    lin = {(u, v): w for u, v, w in apply_weight_rule(g, "linear_rule", "hypercube").edges}
    assert lin[(2, 3)] == 0.25
    quad = {(u, v): w for u, v, w in apply_weight_rule(g, "quadratic_rule", "hypercube").edges}
    assert quad[(2, 3)] == 0.1
    assert apply_weight_rule(g, "unit", "hypercube") is g


def test_mgg_weight_rules():
    g = generate(make_spec("modified_mgg"), 5).graph
    u, v, _ = g.edges[0]
    b = max(u, v) + 1
    logs = apply_weight_rule(g, "log_rule", "modified_mgg")
    assert logs.edges[0][2] == pytest.approx(math.log(b) + 1)
    lin = apply_weight_rule(g, "linear_rule", "modified_mgg")
    assert lin.edges[0][2] == float(b)
    quad = apply_weight_rule(g, "quadratic_rule", "modified_mgg")
    assert quad.edges[0][2] == float(b * b)


def test_weight_rule_family_mismatch():
    g = generate(make_spec("complete"), 4).graph
    with pytest.raises(ValueError):
        apply_weight_rule(g, "log_rule", "complete")
    with pytest.raises(ValueError):
        apply_weight_rule(g, "cubic_rule", "hypercube")


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
        spec = make_spec(fid, repair=True)
        for n in (spec.schedule[1], spec.schedule[4]):
            inst = generate(spec, n)
            indeg, outdeg = degree_profile(inst.graph)
            assert all(d > 0 for d in indeg), (fid, n)
            assert all(d > 0 for d in outdeg), (fid, n)
            assert_no_bidirected(inst.graph)


def test_repair_flag_rejected_for_undirected():
    with pytest.raises(ValueError):
        make_spec("gnp", repair=True)


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
    from nlsp.families import _rng

    g = generate(make_spec("gnp", schedule=(n,), seed=seed), n).graph
    ref = nx.gnp_random_graph(n, 0.8, seed=_rng(derive_seed(seed, "gnp", n)))
    assert g.n_vertices == ref.number_of_nodes() == n
    assert [(u, v) for u, v, _ in g.edges] == _nx_edge_list(ref)
