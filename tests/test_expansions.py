import random
from fractions import Fraction

import pytest

from ribbonpoly import (
    Disconnected,
    Method,
    MPoly,
    ONE,
    SizeLimit,
    X,
    Y,
    Z,
    compute,
    deletion_contraction,
    duality_check,
    enumerate_quasi_trees,
    quasi_tree_sum,
    spanning_tree_expansion,
    spanning_tree_rows,
    state_sum,
    verify_all,
)
from generators import (
    all_one_vertex_graphs,
    random_connected_ribbon_graph,
)
from oracles import disjoint_union, interval_state_sum, parse_poly
from conftest import (
    GENUS2_POLY,
    GENUS2_SPANNING_TREE_TABLE,
    TORUS_THETA_POLY,
)


# -- state sum -----------------------------------------------------------------


def test_state_sum_worked_graph(genus2_graph):
    result = state_sum(genus2_graph)
    assert result.polynomial == GENUS2_POLY
    assert result.term_count == 64
    assert result.method is Method.STATE_SUM


def test_state_sum_restricted_to_interval(genus2_graph):
    # all resolutions extending ****01
    polynomial, subgraphs = interval_state_sum(genus2_graph, {4: 0, 5: 1})
    assert subgraphs == 16
    assert polynomial == X * Y * (ONE + Y) * (X + 1 + Y * Z)


def test_state_sum_interval_accepts_partial_resolution(genus2_graph):
    by_bits = {q.bitstring(): q for q in enumerate_quasi_trees(genus2_graph)}
    states = by_bits["011101"].states
    assert interval_state_sum(genus2_graph, states)[0] == X * Y * (
        ONE + Y
    ) * (X + 1 + Y * Z)


def test_state_sum_bridge(bridge_graph):
    assert state_sum(bridge_graph).polynomial == X


def test_state_sum_cap(genus2_graph):
    with pytest.raises(SizeLimit):
        state_sum(genus2_graph, cap=5)
    assert state_sum(genus2_graph, cap=6).polynomial == GENUS2_POLY


# -- spanning-tree expansion -------------------------------------------------


def test_tree_rows_match_published_table(genus2_graph):
    rows = {genus2_graph.bitstring(r.edges): r for r in spanning_tree_rows(genus2_graph)}
    assert sorted(rows) == [bits for bits, _, _, _ in GENUS2_SPANNING_TREE_TABLE]
    for bits, activity, inner_text, x_power in GENUS2_SPANNING_TREE_TABLE:
        row = rows[bits]
        assert row.activity == activity
        assert row.inner_weight == parse_poly(inner_text)
        assert row.internal_count == x_power


def test_tree_expansion_total(genus2_graph):
    result = spanning_tree_expansion(genus2_graph)
    assert result.polynomial == GENUS2_POLY
    assert result.term_count == sum(
        1 << row.external_count for row in spanning_tree_rows(genus2_graph)
    )


def test_tree_expansion_requires_connected(one_loop):
    with pytest.raises(Disconnected):
        spanning_tree_expansion(disjoint_union(one_loop, one_loop))


# -- deletion/contraction ------------------------------------------------------


def test_recursion_base_cases(one_loop, bridge_graph):
    assert deletion_contraction(one_loop).polynomial == ONE + Y
    assert deletion_contraction(bridge_graph).polynomial == X


def test_recursion_torus_theta_matches_frozen_oracle(torus_theta):
    assert state_sum(torus_theta).polynomial == TORUS_THETA_POLY
    assert deletion_contraction(torus_theta).polynomial == TORUS_THETA_POLY


def test_recursion_worked_graph(genus2_graph):
    assert deletion_contraction(genus2_graph).polynomial == GENUS2_POLY


def test_multiplicative_over_disjoint_union(one_loop, torus_theta, two_interleaved_loops):
    pieces = (one_loop, torus_theta, two_interleaved_loops)
    union = disjoint_union(disjoint_union(*pieces[:2]), pieces[2])
    product = ONE
    for piece in pieces:
        product = product * deletion_contraction(piece).polynomial
    assert deletion_contraction(union).polynomial == product
    assert state_sum(union).polynomial == product


def test_compute_dispatch(genus2_graph):
    for method in Method:
        assert compute(genus2_graph, method).polynomial == GENUS2_POLY
    assert compute(genus2_graph, "statesum").method is Method.STATE_SUM


# -- verify_all ------------------------------------------------------------------


def test_verify_worked_graph(genus2_graph):
    report = verify_all(genus2_graph)
    assert report.results[Method.STATE_SUM].term_count == 64
    assert report.results[Method.QUASI_TREE].term_count == 12
    payload = report.to_json_dict()
    assert payload["equal"] is True
    assert payload["methods"]["statesum"]["term_count"] == 64


def test_verify_genus_zero_summands_equal_tree_count(planar_theta):
    report = verify_all(planar_theta)
    trees = spanning_tree_rows(planar_theta)
    assert report.results[Method.QUASI_TREE].term_count == len(trees)


def test_verify_random_graphs_agree():
    rng = random.Random(2718)
    for _ in range(12):
        graph = random_connected_ribbon_graph(rng, rng.randint(1, 7))
        # raises Mismatch on any disagreement, the Tutte slice included
        verify_all(graph)


def test_verify_disconnected_runs_two_methods(one_loop):
    union = disjoint_union(one_loop, one_loop)
    report = verify_all(union)
    assert set(report.results) == {Method.STATE_SUM, Method.RECURSIVE}
    assert report.to_json_dict()["quasi_tree_summands"] is None


# -- duality -----------------------------------------------------------------------


def test_duality_worked_graph(genus2_graph):
    report = duality_check(genus2_graph)
    assert report.genus_histogram == {0: 4, 1: 7, 2: 1}
    assert report.dual_genus_histogram == {0: 1, 1: 7, 2: 4}
    assert len(report.sample_points) == 20
    assert all((x - 1) * y * z == 1 for x, y, z in report.sample_points)


def test_duality_report_carries_the_dual(genus2_graph, torus_theta, planar_theta):
    for graph in (genus2_graph, torus_theta, planar_theta):
        assert duality_check(graph).dual == graph.dual()


def test_duality_torus_theta(torus_theta):
    report = duality_check(torus_theta)
    assert report.genus_histogram == {0: 2, 1: 1}
    assert report.dual_genus_histogram == {0: 1, 1: 2}


def test_duality_identity_at_simple_point(torus_theta):
    # X = 2, Y = 1, Z = 1 satisfies (X-1)YZ = 1
    g = torus_theta.genus
    lhs = Fraction(2 - 1) ** g * state_sum(torus_theta).polynomial.evaluate(x=2, y=1, z=1)
    dual_poly = state_sum(torus_theta.dual()).polynomial
    rhs = Fraction(1) ** g * dual_poly.evaluate(x=2, y=1, z=1)
    assert lhs == rhs


def test_duality_random_graphs():
    rng = random.Random(3141)
    for _ in range(10):
        graph = random_connected_ribbon_graph(rng, rng.randint(1, 6))
        report = duality_check(graph, seed=rng.randint(0, 99))
        total = graph.genus
        assert report.dual_genus_histogram == {
            total - g: c for g, c in sorted(report.genus_histogram.items())
        }


def test_duality_requires_connected(one_loop):
    with pytest.raises(Disconnected):
        duality_check(disjoint_union(one_loop, one_loop))


# -- specializations ------------------------------------------------------------


def test_tutte_slice_on_fixtures(genus2_graph, torus_theta, planar_theta):
    for graph in (genus2_graph, torus_theta, planar_theta):
        c = state_sum(graph).polynomial
        tutte = graph.underlying_multigraph().tutte_polynomial()
        assert c.substitute(z=1) == tutte.substitute(y=ONE + Y)


def test_counting_specialization_counts_enumerated_quasi_trees():
    from ribbonpoly import genus_counting_series, genus_histogram

    rng = random.Random(1618)
    for _ in range(15):
        graph = random_connected_ribbon_graph(rng, rng.randint(1, 7))
        series = genus_counting_series(state_sum(graph).polynomial)
        histogram = genus_histogram(enumerate_quasi_trees(graph))
        assert series == MPoly({(0, 0, 0, g): c for g, c in histogram.items()})


def test_tree_expansion_is_edge_order_independent(genus2_graph, torus_theta):
    rng = random.Random(55)
    for graph in (genus2_graph, torus_theta):
        reference = spanning_tree_expansion(graph).polynomial
        ids = list(range(graph.edge_count))
        for _ in range(5):
            rng.shuffle(ids)
            assert spanning_tree_expansion(graph.with_edge_order(ids)).polynomial == reference


def test_duality_points_are_deterministic(torus_theta):
    first = duality_check(torus_theta, seed=9)
    second = duality_check(torus_theta, seed=9)
    assert first.sample_points == second.sample_points
    other = duality_check(torus_theta, seed=10)
    assert other.sample_points != first.sample_points


def test_enumeration_order_is_stable(genus2_graph):
    first = [q.bitstring() for q in enumerate_quasi_trees(genus2_graph)]
    second = [q.bitstring() for q in enumerate_quasi_trees(genus2_graph)]
    assert first == second


def test_interleaved_one_vertex_graphs_have_fewer_summands():
    from ribbonpoly import chord_diagram

    for graph in all_one_vertex_graphs(4):
        if graph.edge_count < 2:
            continue
        rotation = chord_diagram(graph, frozenset())
        interleaved = any(
            rotation.chords_intersect(i, j)
            for i in range(graph.edge_count)
            for j in range(i + 1, graph.edge_count)
        )
        if not interleaved:
            continue
        results = verify_all(graph).results
        assert results[Method.QUASI_TREE].term_count < results[Method.STATE_SUM].term_count
