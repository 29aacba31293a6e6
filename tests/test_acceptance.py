"""Acceptance suite: one test per criterion, exact tolerances, no slack.

Each test prints a `criterion NN PASS` line on success (visible with
``pytest -s`` or ``-v`` via the test names).  Criterion 2 deliberately
records the published 001010 boundary cycle (which repeats half-edge 5)
and asserts that the computed cycle differs from it in exactly the final
entry; the discrepancy is surfaced, never patched over.
"""

import itertools
import random
import time

from ribbonpoly import (
    MPoly,
    Method,
    T,
    X,
    Y,
    activity_string,
    chord_diagram,
    classify_activities,
    counting_substitution,
    deletion_contraction,
    duality_check,
    enumerate_quasi_trees,
    genus_counting_series,
    genus_histogram,
    quasi_tree_sum,
    quasi_tree_weight,
    spanning_tree_expansion,
    spanning_tree_rows,
    state_sum,
    verify_all,
)
from generators import (
    all_one_vertex_graphs,
    random_connected_ribbon_graph,
    random_planar_ribbon_graph,
)
from conftest import (
    GENUS2_POLY,
    GENUS2_QUASI_TREE_TABLE,
    GENUS2_SPANNING_TREE_TABLE,
    PRINTED_001010_CYCLE,
)
from oracles import (
    contracted_graph,
    dead_subgraph,
    live_external,
    live_internal,
    parse_poly,
    quasi_trees_by_brute_force,
    subset_from_bitstring,
)


def _pass(number, message):
    print(f"criterion {number:02d} PASS: {message}")


def _components(vertex_count, links):
    parent = list(range(vertex_count))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for u, v in links:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(vertex_count)})


def test_criterion_01_polynomial_by_all_four_methods(genus2_graph):
    methods = (state_sum, spanning_tree_expansion, deletion_contraction, quasi_tree_sum)
    for method in methods:
        result = method(genus2_graph)
        assert result.polynomial == GENUS2_POLY, result.method
        assert result.elapsed < 1.0, (result.method, result.elapsed)
    _pass(1, "all four methods reproduce the 15-term polynomial in under 1 s each")


def test_criterion_02_quasi_tree_table(genus2_graph):
    by_bits = {q.bitstring(): q for q in enumerate_quasi_trees(genus2_graph)}
    assert sorted(by_bits) == [row[0] for row in GENUS2_QUASI_TREE_TABLE]
    for bits, cycle, activity, numbers, weight_text in GENUS2_QUASI_TREE_TABLE:
        q = by_bits[bits]
        assert q.activity_string() == activity, bits
        w = quasi_tree_weight(q)
        assert (q.genus, w.nullity_dead, w.genus_dead, w.external_live_count) == numbers
        assert w.expanded == parse_poly(weight_text), bits
        assert q.diagram.cycle == cycle, bits
    # the printed source row for 001010 ends in a second 5; the computed
    # cycle must differ from it exactly in that final entry
    computed = by_bits["001010"].diagram.cycle
    assert computed != PRINTED_001010_CYCLE
    assert computed[:-1] == PRINTED_001010_CYCLE[:-1]
    assert (computed[-1], PRINTED_001010_CYCLE[-1]) == (6, 5)
    _pass(2, "12 quasi-trees with matching diagrams, activities, numbers and "
             "weights; printed 001010 cycle typo surfaced")


def test_criterion_03_quasi_tree_counting(genus2_graph):
    poly = state_sum(genus2_graph).polynomial
    series = genus_counting_series(poly)
    assert series == 4 + 7 * T + T**2
    assert series.evaluate(t=1) == 12
    assert counting_substitution(poly).substitute(y=0) == series
    _pass(3, "q(t,0) = 4 + 7t + t^2 and q(1,0) = 12")


def test_criterion_04_spanning_tree_table(genus2_graph):
    rows = {genus2_graph.bitstring(r.edges): r for r in spanning_tree_rows(genus2_graph)}
    assert sorted(rows) == [row[0] for row in GENUS2_SPANNING_TREE_TABLE]
    for bits, activity, inner_text, x_power in GENUS2_SPANNING_TREE_TABLE:
        row = rows[bits]
        assert row.activity == activity, bits
        assert row.inner_weight == parse_poly(inner_text), bits
        assert row.internal_count == x_power, bits
    assert spanning_tree_expansion(genus2_graph).polynomial == GENUS2_POLY
    _pass(4, "4 spanning trees with matching activities, inner weights and X factors")


def test_criterion_05_activities_change_with_edge_order(genus2_graph):
    full = subset_from_bitstring(genus2_graph, "111111")
    diagram = chord_diagram(genus2_graph, full)
    default_order = list(range(6))
    swapped_order = [3, 1, 2, 0, 4, 5]  # first and fourth edges exchanged
    before = activity_string(classify_activities(diagram, full, default_order), default_order)
    after = activity_string(classify_activities(diagram, full, swapped_order), swapped_order)
    assert (before, after) == ("LDDDDD", "LLLDDD")
    _pass(5, "genus-2 quasi-tree activity goes LDDDDD -> LLLDDD under the edge swap")


def test_criterion_06_two_embeddings_of_one_graph(planar_theta, torus_theta):
    left = planar_theta.counts()
    right = torus_theta.counts()
    assert (left.vertices, left.edges, left.faces, left.genus) == (2, 3, 3, 0)
    assert (right.vertices, right.edges, right.faces, right.genus) == (2, 3, 1, 1)
    full = torus_theta.subgraph_counts(range(3))
    assert (full.faces, full.components) == (1, 1)
    full = planar_theta.subgraph_counts(range(3))
    assert (full.faces, full.components) != (1, 1)
    _pass(6, "the permutation triples give (2,3,3,0) and (2,3,1,1); only the "
             "second is itself a quasi-tree")


def _check_split_identities(graph, quasi_tree):
    dead_edges, dead = dead_subgraph(quasi_tree)
    internal = sorted(live_internal(quasi_tree))
    external = sorted(live_external(quasi_tree))
    contracted = contracted_graph(quasi_tree)
    for r in range(len(internal) + 1):
        for part1 in itertools.combinations(internal, r):
            joined = graph.subgraph_counts(dead_edges | frozenset(part1))
            links = [(u, v) for u, v, eid in contracted.edges if eid in part1]
            n_w = _components(contracted.vertex_count, links) - contracted.vertex_count + len(part1)
            assert joined.nullity == dead.nullity + n_w
            assert joined.genus == dead.genus + n_w
            for s in range(len(external) + 1):
                for part2 in itertools.combinations(external, s):
                    full = graph.subgraph_counts(
                        dead_edges | frozenset(part1) | frozenset(part2)
                    )
                    assert full.components == joined.components
                    assert full.nullity == joined.nullity + len(part2)
                    assert full.genus == joined.genus


def _full_property_check(graph):
    assert {q.edges for q in enumerate_quasi_trees(graph)} == quasi_trees_by_brute_force(graph)
    verify_all(graph)  # raises on any method disagreement, the Tutte slice included
    for q in enumerate_quasi_trees(graph):
        _check_split_identities(graph, q)


def test_criterion_07_property_suite():
    begin = time.perf_counter()
    family = 0
    for graph in all_one_vertex_graphs(4):
        _full_property_check(graph)
        family += 1
    assert family == 1 + 1 + 3 + 15 + 105
    rng = random.Random(20240901)
    for _ in range(200):
        graph = random_connected_ribbon_graph(rng, rng.randint(1, 10))
        _full_property_check(graph)
    elapsed = time.perf_counter() - begin
    assert elapsed < 300.0, f"property suite took {elapsed:.1f}s"
    _pass(7, f"{family} one-vertex graphs and 200 random graphs verified in {elapsed:.1f}s")


def test_criterion_08_genus_zero_reduction():
    rng = random.Random(424242)
    checked = 0
    while checked < 50:
        vertices = rng.randint(1, 6)
        extra = rng.randint(0, 5)
        graph = random_planar_ribbon_graph(rng, vertices, extra)
        if graph.is_trivial:
            continue
        quasi_trees = enumerate_quasi_trees(graph)
        tree_rows = {
            frozenset(r.edges): r for r in spanning_tree_rows(graph)
        }
        assert {q.edges for q in quasi_trees} == set(tree_rows)
        for q in quasi_trees:
            assert q.activity_string() == tree_rows[q.edges].activity
        tutte_style = MPoly.zero()
        for row in tree_rows.values():
            tutte_style = tutte_style + MPoly.monomial(
                1, x=row.internal_count, y=row.external_count
            )
        expansion = quasi_tree_sum(graph).polynomial
        assert expansion.substitute(y=Y - 1, z=1) == tutte_style
        checked += 1
    _pass(8, "50 planar graphs: live/dead equals active/inactive and the "
             "expansion at (X, y-1, 1) is the activity generating sum")


def test_criterion_09_duality(genus2_graph, torus_theta):
    report = duality_check(genus2_graph)
    assert report.genus_histogram == {0: 4, 1: 7, 2: 1}
    assert report.dual_genus_histogram == {0: 1, 1: 7, 2: 4}
    assert len(report.sample_points) == 20
    report2 = duality_check(torus_theta)
    assert report2.dual_genus_histogram == {
        torus_theta.genus - g: c for g, c in report2.genus_histogram.items()
    }
    _pass(9, "genus histograms reverse under duality and the identity holds "
             "at 20 exact rational constraint points")


def test_criterion_10_quasi_tree_expansion_is_smaller():
    checked = 0
    for graph in all_one_vertex_graphs(4):
        if graph.edge_count < 2:
            continue
        rotation = chord_diagram(graph, frozenset())
        if not any(
            rotation.chords_intersect(i, j)
            for i in range(graph.edge_count)
            for j in range(i + 1, graph.edge_count)
        ):
            continue  # no interleaved loops
        results = verify_all(graph).results
        assert results[Method.QUASI_TREE].term_count < results[Method.STATE_SUM].term_count
        checked += 1
    assert checked > 0
    _pass(10, f"{checked} interleaved one-vertex graphs all need fewer "
              "quasi-tree summands than state-sum summands")
