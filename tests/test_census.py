"""A census of small graphs through every method and the resolution tree.

Every one-vertex graph with at most five chords, and 200 seeded maps with
two to four vertices under shuffled edge orders, must pass ``verify_all``
and give the spanning trees and activities of
:func:`oracles.spanning_trees_by_combinations`; the leaves of the
resolution tree must be exactly the one-face spanning subgraphs, and each
leaf's quasi-tree must be the one the completion rule of
:func:`oracles.completion_by_gamma` picks from its interval.  Each
leaf's activities must be the chord-crossing classification of
:func:`ribbonpoly.classify_activities`.  The genus histogram of the leaves
must equal the genus-counting specialisation of the polynomial.  Each
leaf's weight must equal the one :func:`oracles.weight_by_subgraphs` takes
from its dead subgraph and contracted multigraph, its weight key must be
read from the same pieces, and the quasi-tree sum, which expands each
distinct key once, must be the sum of those weights over the leaves.
The leaves, in order, must be those of the two-test enumeration
:func:`oracles.quasi_trees_by_two_tests`, and at every node of it the
test that the enumeration's one-test rule skips must pass.  On 20 seeded
planar maps with 8 to 10 vertices, the shape of the benchmark's ``count``
load, ``count`` must find :func:`oracles.kirchhoff_count` spanning trees,
all of genus 0, and the leaves must again be the two-test oracle's.

Run as a script to take the census of a larger chord count, for example
``PYTHONPATH=src:tests python tests/test_census.py 6`` for the 10,395
six-chord one-vertex graphs, each under its default and its reversed edge
order, or of larger planar maps, for example
``PYTHONPATH=src:tests python tests/test_census.py planar 1 8 12 28`` for
8 maps from seed 1 with 12 vertices and 28 edges.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from ribbonpoly import (
    Method,
    MPoly,
    build_ribbon_graph,
    classify_activities,
    enumerate_quasi_trees,
    genus_counting_series,
    genus_histogram,
    graph_to_json_dict,
    quasi_tree_sum,
    quasi_tree_weight,
    verify_all,
)
from ribbonpoly.cli import main
from generators import all_one_vertex_graphs, one_vertex_graphs, random_planar_ribbon_graph
from oracles import (
    completion_by_gamma,
    contracted_graph,
    kirchhoff_count,
    quasi_trees_by_brute_force,
    quasi_trees_by_two_tests,
    spanning_trees_by_combinations,
    weight_by_subgraphs,
)


def check(graph):
    polynomial = verify_all(graph).results[Method.STATE_SUM].polynomial
    leaves = enumerate_quasi_trees(graph)
    check_leaves(graph, leaves)
    by_genus = {(0, 0, 0, g): c for g, c in genus_histogram(leaves).items()}
    assert genus_counting_series(polynomial) == MPoly(by_genus)
    assert {q.edges for q in leaves} == quasi_trees_by_brute_force(graph)
    assert len(leaves) == len({q.edges for q in leaves})
    multigraph = graph.underlying_multigraph()
    trees = multigraph.spanning_trees_with_activities(graph.edge_order)
    assert len(set(trees)) == len(trees)
    assert set(trees) == set(spanning_trees_by_combinations(multigraph, graph.edge_order))
    total = MPoly.zero()
    for q in leaves:
        assert q.edges == completion_by_gamma(graph, q.states), q.states
        expected = classify_activities(q.diagram, q.edges, graph.edge_order)
        assert q.activities == expected, q.states
        w = quasi_tree_weight(q)
        weight = (w.nullity_dead, w.genus_dead, w.external_live_count, w.tutte_factor, w.expanded)
        reference = weight_by_subgraphs(q)
        assert weight == reference, q.states
        contracted = contracted_graph(q)
        pairs = tuple(sorted((min(u, v), max(u, v)) for u, v, _ in contracted.edges))
        assert q.weight_key() == (*reference[:3], contracted.vertex_count, pairs), q.states
        total = total + reference[-1]
    result = quasi_tree_sum(graph)
    assert (result.polynomial, result.term_count) == (total, len(leaves))


def check_leaves(graph, leaves):
    """The leaves are the two-test oracle's, in its order, and at every node
    the test that the one-test rule skips passes: the 0-test when the
    edge's ends lie on one face of the included edges, else the 1-test."""
    nodes = []
    assert [(q.edges, q.states) for q in leaves] == quasi_trees_by_two_tests(graph, nodes)
    for included, eid, zero, one in nodes:
        face_of = {h: f for f, cycle in enumerate(graph.boundary_components(included)) for h in cycle}
        a, b = graph.edges[eid]
        assert zero if face_of[a] == face_of[b] else one, (sorted(included), eid)


def count_json(graph):
    """The JSON output of ``ribbonpoly count`` on the graph's document."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        path.write_text(json.dumps(graph_to_json_dict(graph)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["count", str(path), "--format", "json"]) == 0
    return json.loads(out.getvalue())


def check_planar(graph):
    """On a planar map the quasi-trees are the spanning trees, so ``count``
    finds Kirchhoff's number of them, all of genus 0, and the leaves are the
    two-test oracle's."""
    trees = kirchhoff_count(graph.underlying_multigraph())
    result = count_json(graph)
    assert (result["total"], result["by_genus"]) == (trees, {"0": trees})
    check_leaves(graph, enumerate_quasi_trees(graph))


def planar_maps(seed, number, vertices, edges):
    """Seeded random planar maps under shuffled edge orders."""
    rng = random.Random(seed)
    for _ in range(number):
        vertex_count = rng.randint(*vertices)
        graph = random_planar_ribbon_graph(rng, vertex_count, rng.randint(*edges) - vertex_count + 1)
        order = list(range(graph.edge_count))
        rng.shuffle(order)
        yield graph.with_edge_order(order)


def random_map(rng):
    """A connected map with 2 to 4 vertices and a shuffled edge order."""
    while True:
        vertex_count = rng.randint(2, 4)
        edge_count = rng.randint(vertex_count - 1, 7)
        n2 = 2 * edge_count
        labels = list(range(1, n2 + 1))
        rng.shuffle(labels)
        cuts = [0, *sorted(rng.sample(range(1, n2), vertex_count - 1)), n2]
        cycles = [labels[a:b] for a, b in zip(cuts, cuts[1:])]
        rng.shuffle(labels)
        pairs = [labels[i : i + 2] for i in range(0, n2, 2)]
        graph = build_ribbon_graph(cycles, pairs)
        if graph.is_connected:
            order = list(range(edge_count))
            rng.shuffle(order)
            return graph.with_edge_order(order)


def test_one_vertex_census():
    count = 0
    for graph in all_one_vertex_graphs(5):
        check(graph)
        count += 1
    assert count == 1070


def test_map_census_under_shuffled_orders():
    rng = random.Random(2718)
    for _ in range(200):
        graph = random_map(rng)
        assert 2 <= graph.vertex_count <= 4
        check(graph)


def test_planar_maps_match_kirchhoff_and_two_tests():
    count = 0
    for graph in planar_maps(25, 20, (8, 10), (16, 20)):
        assert 8 <= graph.vertex_count <= 10
        check_planar(graph)
        count += 1
    assert count == 20


if __name__ == "__main__":
    if sys.argv[1] == "planar":
        seed, number, vertices, edges = map(int, sys.argv[2:])
        for graph in planar_maps(seed, number, (vertices, vertices), (edges, edges)):
            check_planar(graph)
        print(
            f"{number} planar maps with {vertices} vertices and {edges} edges match Kirchhoff's"
            " count and the two-test enumeration"
        )
        raise SystemExit
    chords = int(sys.argv[1])
    count = 0
    for graph in one_vertex_graphs(chords):
        check(graph)
        check(graph.with_edge_order(graph.edge_order[::-1]))
        count += 1
    print(
        f"{count} one-vertex graphs with {chords} chords pass the census"
        " under their default and reversed edge orders"
    )
