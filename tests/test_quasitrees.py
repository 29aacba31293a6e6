import itertools
import random
from dataclasses import fields

import pytest

from ribbonpoly import (
    MPoly,
    MultiGraph,
    NotQuasiTree,
    ONE,
    QuasiTree,
    SplitRoot,
    X,
    Y,
    Z,
    activity_string,
    build_ribbon_graph,
    chord_diagram,
    classify_activities,
    enumerate_quasi_trees,
    genus_histogram,
    quasi_tree_sum,
    quasi_tree_weight,
)
from ribbonpoly.quasitrees import _build_quasi_tree, key_weight
from conftest import GENUS2_POLY, GENUS2_QUASI_TREE_TABLE
from generators import all_one_vertex_graphs, random_connected_ribbon_graph
from oracles import (
    completions,
    contains,
    contracted_graph,
    dead_subgraph,
    disjoint_union,
    interval_size,
    is_live,
    live_external,
    live_internal,
    parse_poly,
    quasi_trees_by_brute_force,
    resolution_string,
    subset_from_bitstring,
    unresolved,
)


# -- chord diagrams -----------------------------------------------------------


def test_chord_diagram_rows(genus2_graph):
    d1 = chord_diagram(genus2_graph, subset_from_bitstring(genus2_graph, "011101"))
    assert d1.cycle == (1, 3, 12, 10, 4, 2, 5, 11, 8, 9, 7, 6)
    d2 = chord_diagram(genus2_graph, subset_from_bitstring(genus2_graph, "111111"))
    assert d2.cycle == (1, 5, 11, 8, 9, 4, 2, 3, 12, 10, 7, 6)


def test_chord_diagram_of_empty_subgraph(two_interleaved_loops):
    d = chord_diagram(two_interleaved_loops, frozenset())
    assert d.cycle == (1, 3, 2, 4)


def test_chord_diagram_rejects_multiface_subgraph(torus_theta):
    with pytest.raises(NotQuasiTree):
        chord_diagram(torus_theta, frozenset())  # two vertices, two walks


def test_chord_intersection_rule():
    d = chord_diagram(
        build_ribbon_graph([[1, 3, 2, 4]], [[1, 2], [3, 4]]), frozenset()
    )
    assert d.chords_intersect(0, 1)
    nested = chord_diagram(
        build_ribbon_graph([[1, 2, 3, 4]], [[1, 2], [3, 4]]), frozenset()
    )
    assert not nested.chords_intersect(0, 1)


# -- activities ----------------------------------------------------------------


def test_activity_rows(genus2_graph):
    order = list(range(6))
    for bits, _, expected, _, _ in GENUS2_QUASI_TREE_TABLE:
        subset = subset_from_bitstring(genus2_graph, bits)
        diagram = chord_diagram(genus2_graph, subset)
        acts = classify_activities(diagram, subset, order)
        assert activity_string(acts, order) == expected


def test_activity_depends_on_edge_order(genus2_graph):
    full = subset_from_bitstring(genus2_graph, "111111")
    diagram = chord_diagram(genus2_graph, full)
    default = classify_activities(diagram, full, list(range(6)))
    assert activity_string(default, list(range(6))) == "LDDDDD"
    swapped_order = [3, 1, 2, 0, 4, 5]  # first and fourth edges exchanged
    swapped = classify_activities(diagram, full, swapped_order)
    assert activity_string(swapped, swapped_order) == "LLLDDD"


@pytest.mark.parametrize(
    "call, order",
    [
        ("classify", [0]),
        ("classify", [0, 0]),
        ("classify", [0, 1, 2]),
        ("classify", [0.0, 1]),
        ("classify", [True, 0]),
        ("string", [0]),
        ("string", [0, 0]),
        ("string", [0, 1, 2]),
        ("string", [0.0, 1]),
        ("string", [True, 0]),
        ("spanning trees", [0.0, 1]),
        ("spanning trees", [True, 0]),
    ],
)
def test_activities_reject_an_order_that_is_not_an_int_permutation(
    two_interleaved_loops, call, order
):
    diagram = chord_diagram(two_interleaved_loops, [])
    with pytest.raises(ValueError, match="not a permutation"):
        if call == "classify":
            classify_activities(diagram, [], order)
        elif call == "string":
            activity_string(classify_activities(diagram, [], [0, 1]), order)
        else:
            MultiGraph(2, ((0, 1, 0), (0, 1, 1))).spanning_trees_with_activities(order)


def test_lone_chord_is_live(one_loop):
    qts = enumerate_quasi_trees(one_loop)
    assert len(qts) == 1
    assert qts[0].edges == frozenset()
    assert qts[0].activity_string() == "ℓ"


# -- enumeration ------------------------------------------------------------


def test_worked_graph_enumeration(genus2_graph):
    qts = enumerate_quasi_trees(genus2_graph)
    assert sorted(q.bitstring() for q in qts) == [
        row[0] for row in GENUS2_QUASI_TREE_TABLE
    ]
    assert genus_histogram(qts) == {0: 4, 1: 7, 2: 1}


def test_quasi_trees_compare_and_hash_by_value(genus2_graph):
    first = enumerate_quasi_trees(genus2_graph)
    second = enumerate_quasi_trees(genus2_graph)
    assert first == second
    assert [hash(q) for q in first] == [hash(q) for q in second]
    assert len(set(first + second)) == len(first)


def test_planar_loop_graph_has_single_quasi_tree(one_loop):
    assert [q.edges for q in enumerate_quasi_trees(one_loop)] == [frozenset()]


def test_trivial_graph_quasi_tree():
    trivial = build_ribbon_graph([], [])
    qts = enumerate_quasi_trees(trivial)
    assert len(qts) == 1 and qts[0].edges == frozenset()


def test_leaf_with_two_faces_is_not_a_quasi_tree(planar_theta):
    # two edges of the planar theta make a cycle: one component, two faces
    counts = planar_theta.subgraph_counts([0, 1])
    assert (counts.components, counts.edges, counts.faces) == (1, 2, 2)
    with pytest.raises(NotQuasiTree, match="has 2 boundary components, expected one"):
        _build_quasi_tree(planar_theta, frozenset({0, 1}), (1, 1, 0))


def test_disconnected_root_raises(one_loop):
    with pytest.raises(SplitRoot):
        enumerate_quasi_trees(disjoint_union(one_loop, one_loop))


def test_resolution_of_named_leaf(genus2_graph):
    by_bits = {q.bitstring(): q for q in enumerate_quasi_trees(genus2_graph)}
    q = by_bits["011101"]
    assert resolution_string(q.states, q.parent.edge_order) == "****01"
    assert interval_size(q.states) == 16
    assert contains(q.states, q.edges)


def test_enumeration_matches_brute_force_on_fixtures(
    genus2_graph, torus_theta, planar_theta, two_interleaved_loops, two_nested_loops
):
    for graph in (genus2_graph, torus_theta, planar_theta,
                  two_interleaved_loops, two_nested_loops):
        assert {q.edges for q in enumerate_quasi_trees(graph)} == quasi_trees_by_brute_force(graph)


def test_enumeration_matches_brute_force_on_random_graphs():
    rng = random.Random(404)
    for _ in range(25):
        graph = random_connected_ribbon_graph(rng, rng.randint(1, 8))
        assert {q.edges for q in enumerate_quasi_trees(graph)} == quasi_trees_by_brute_force(graph)


def test_leaf_unresolved_edges_are_the_live_edges():
    rng = random.Random(505)
    for _ in range(15):
        graph = random_connected_ribbon_graph(rng, rng.randint(1, 7))
        for q in enumerate_quasi_trees(graph):
            activities = classify_activities(q.diagram, q.edges, graph.edge_order)
            assert q.activities == activities
            live = {e for e, a in enumerate(activities) if is_live(a)}
            assert live == set(unresolved(q.states))


def test_live_chords_never_cross_lower_live_chords():
    rng = random.Random(606)
    for _ in range(15):
        graph = random_connected_ribbon_graph(rng, rng.randint(1, 7))
        for q in enumerate_quasi_trees(graph):
            for i, j in itertools.combinations(range(graph.edge_count), 2):
                if q.diagram.chords_intersect(i, j):
                    assert not is_live(q.activities[j])  # i < j in default order


def test_leaf_intervals_partition_the_subset_lattice():
    rng = random.Random(707)
    for _ in range(10):
        graph = random_connected_ribbon_graph(rng, rng.randint(1, 7))
        qts = enumerate_quasi_trees(graph)
        assert sum(interval_size(q.states) for q in qts) == 2**graph.edge_count
        seen = set()
        for q in qts:
            for completion in completions(q.states):
                assert completion not in seen
                seen.add(completion)
        assert len(seen) == 2**graph.edge_count


# -- the structural identities behind the expansion -------------------------------


def test_single_edge_effects_on_dead_subgraph():
    rng = random.Random(808)
    for _ in range(12):
        graph = random_connected_ribbon_graph(rng, rng.randint(1, 7))
        for q in enumerate_quasi_trees(graph):
            dead_edges, dead = dead_subgraph(q)
            for eid in live_external(q):
                grown = graph.subgraph_counts(dead_edges | {eid})
                assert grown.faces == dead.faces + 1
                assert grown.components == dead.components
            for eid in live_internal(q):
                grown = graph.subgraph_counts(dead_edges | {eid})
                assert grown.faces == dead.faces - 1


def _components(vertex_count, links):
    parent = list(range(vertex_count))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for u, v in links:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(vertex_count)})


def _check_split_identities(graph, q):
    dead_edges, dead = dead_subgraph(q)
    contracted = contracted_graph(q)
    internal = sorted(live_internal(q))
    external = sorted(live_external(q))
    for r in range(len(internal) + 1):
        for part1 in itertools.combinations(internal, r):
            with_internal = graph.subgraph_counts(dead_edges | frozenset(part1))
            contracted_sub = [(u, v) for u, v, eid in contracted.edges if eid in part1]
            # nullity of the matching spanning subgraph of the contracted graph
            k_w = _components(contracted.vertex_count, contracted_sub)
            n_w = k_w - contracted.vertex_count + len(part1)
            assert with_internal.nullity == dead.nullity + n_w
            assert with_internal.genus == dead.genus + n_w
            for s in range(len(external) + 1):
                for part2 in itertools.combinations(external, s):
                    both = graph.subgraph_counts(
                        dead_edges | frozenset(part1) | frozenset(part2)
                    )
                    assert both.components == with_internal.components
                    assert both.nullity == with_internal.nullity + len(part2)
                    assert both.genus == with_internal.genus


def test_split_identities_small_graphs(torus_theta, two_interleaved_loops):
    for graph in (torus_theta, two_interleaved_loops):
        for q in enumerate_quasi_trees(graph):
            _check_split_identities(graph, q)


def test_split_identities_random_graphs():
    rng = random.Random(909)
    for _ in range(8):
        graph = random_connected_ribbon_graph(rng, rng.randint(1, 6))
        for q in enumerate_quasi_trees(graph):
            _check_split_identities(graph, q)


# -- the expansion ---------------------------------------------------------------


def test_named_weight(genus2_graph):
    by_bits = {q.bitstring(): q for q in enumerate_quasi_trees(genus2_graph)}
    w = quasi_tree_weight(by_bits["011101"])
    assert (w.nullity_dead, w.genus_dead, w.external_live_count) == (1, 0, 1)
    assert w.expanded == X * Y * (ONE + Y) * (X + 1 + Y * Z)
    assert by_bits["011101"].genus == 1


def test_all_table_weights(genus2_graph):
    by_bits = {q.bitstring(): q for q in enumerate_quasi_trees(genus2_graph)}
    for bits, _, _, numbers, weight_text in GENUS2_QUASI_TREE_TABLE:
        q = by_bits[bits]
        w = quasi_tree_weight(q)
        assert (q.genus, w.nullity_dead, w.genus_dead, w.external_live_count) == numbers
        assert w.expanded == parse_poly(weight_text)


def test_expansion_of_worked_graph(genus2_graph):
    assert quasi_tree_sum(genus2_graph).polynomial == GENUS2_POLY


def test_expansion_of_two_interleaved_loops(two_interleaved_loops):
    assert quasi_tree_sum(two_interleaved_loops).polynomial == 1 + 2 * Y + Y**2 * Z


def test_one_vertex_weights_degenerate_to_loop_factors():
    for graph in all_one_vertex_graphs(3):
        for q in enumerate_quasi_trees(graph):
            w = quasi_tree_weight(q)
            _, dead = dead_subgraph(q)
            assert w.expanded == (
                MPoly.monomial(1, y=dead.nullity, z=dead.genus)
                * (ONE + Y) ** len(live_external(q))
                * (ONE + Y * Z) ** len(live_internal(q))
            )


def test_expansion_is_edge_order_independent(genus2_graph, torus_theta):
    rng = random.Random(123)
    for graph in (genus2_graph, torus_theta):
        reference = quasi_tree_sum(graph).polynomial
        ids = list(range(graph.edge_count))
        for _ in range(5):
            rng.shuffle(ids)
            assert quasi_tree_sum(graph.with_edge_order(ids)).polynomial == reference


def test_leaf_keeps_four_fields_and_builds_its_diagram(genus2_graph):
    assert [f.name for f in fields(QuasiTree)] == ["parent", "edges", "genus", "states"]
    for q in enumerate_quasi_trees(genus2_graph):
        assert q.diagram.cycle == chord_diagram(genus2_graph, q.edges).cycle


def test_named_weight_key(genus2_graph):
    by_bits = {q.bitstring(): q for q in enumerate_quasi_trees(genus2_graph)}
    # D is one loop, so its components are the three vertices, which the
    # three live internal edges join as two parallel edges and a bridge
    key = by_bits["011101"].weight_key()
    assert key == (1, 0, 1, 3, ((0, 1), (0, 1), (1, 2)))
    assert key_weight(key).expanded == X * Y * (ONE + Y) * (X + 1 + Y * Z)


def test_key_weight_scales_with_multiplicity(genus2_graph):
    for q in enumerate_quasi_trees(genus2_graph):
        key = q.weight_key()
        assert key_weight(key, 3).expanded == 3 * key_weight(key).expanded
        assert key_weight(key, 3).tutte_factor == key_weight(key).tutte_factor


def test_leaves_share_few_weight_keys():
    # every one-vertex leaf's key is (n, g, |external live|, 1, loops), so
    # the keys are far fewer than the leaves
    graph = build_ribbon_graph([list(range(1, 13))], [[i, i + 6] for i in range(1, 7)])
    leaves = enumerate_quasi_trees(graph)
    keys = {q.weight_key() for q in leaves}
    assert all(key[3] == 1 and set(key[4]) <= {(0, 0)} for key in keys)
    assert len(keys) < len(leaves)


def test_contracted_graph_shape(genus2_graph):
    by_bits = {q.bitstring(): q for q in enumerate_quasi_trees(genus2_graph)}
    gq = contracted_graph(by_bits["011101"])
    assert gq.vertex_count == 3
    degree_pairs = sorted((min(u, v), max(u, v)) for u, v, _ in gq.edges)
    assert len(gq.edges) == 3
    # two parallel edges plus one bridge
    assert degree_pairs[0] == degree_pairs[1] or degree_pairs[1] == degree_pairs[2]
