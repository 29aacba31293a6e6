import random

import pytest

from ribbonpoly import (
    Disconnected,
    MPoly,
    MultiGraph,
    ONE,
    SpanningTreeActivities,
    X,
    Y,
    Z,
)
from oracles import spanning_trees_by_combinations, tutte_by_subgraph_sum


def test_single_loop_is_y():
    g = MultiGraph(1, ((0, 0, 0),))
    assert g.tutte_polynomial() == Y
    assert g.tutte_polynomial().substitute(y=ONE + Y * Z) == ONE + Y * Z


def test_contracted_graph_of_worked_row():
    # two parallel edges plus a bridge to a third vertex
    g = MultiGraph(3, ((0, 2, 1), (0, 2, 2), (1, 2, 3)))
    assert g.tutte_polynomial() == X**2 + X * Y


def test_path_is_x_to_the_edges():
    for m in range(1, 5):
        edges = tuple((i, i + 1, i) for i in range(m))
        assert MultiGraph(m + 1, edges).tutte_polynomial() == X**m


def test_triangle():
    g = MultiGraph(3, ((0, 1, 0), (1, 2, 1), (2, 0, 2)))
    assert tutte_by_subgraph_sum(g) == X**2 + X + Y
    assert g.tutte_polynomial() == X**2 + X + Y


def test_long_cycle_runs_on_an_explicit_stack():
    # 1,200 contractions in a row: far deeper than Python's default
    # recursion limit
    n = 1200
    cycle = MultiGraph(n, tuple((i, (i + 1) % n, i) for i in range(n)))
    expected = Y + sum((X**k for k in range(1, n)), MPoly.zero())
    assert cycle.tutte_polynomial() == expected


def test_disconnected_is_product():
    g = MultiGraph(4, ((0, 1, 0), (2, 3, 1), (2, 3, 2)))
    assert g.tutte_polynomial() == X * (X + Y)
    assert g.tutte_polynomial() == tutte_by_subgraph_sum(g)


def _random_multigraph(rng):
    v = rng.randint(1, 5)
    e = rng.randint(0, 8)
    edges = tuple(
        (rng.randrange(v), rng.randrange(v), i) for i in range(e)
    )
    return MultiGraph(v, edges)


def test_deletion_contraction_matches_subgraph_sum():
    rng = random.Random(99)
    for _ in range(40):
        g = _random_multigraph(rng)
        assert g.tutte_polynomial() == tutte_by_subgraph_sum(g)


def test_order_independence():
    rng = random.Random(17)
    g = MultiGraph(3, ((0, 1, 0), (0, 1, 1), (1, 2, 2), (2, 2, 3), (0, 2, 4)))
    ids = [eid for _, _, eid in g.edges]
    reference = g.tutte_polynomial()
    for _ in range(5):
        rng.shuffle(ids)
        # the recursion pivots on the highest edge id, so relabelling the
        # edges changes the order in which it resolves them
        relabelled = MultiGraph(g.vertex_count, tuple((u, v, ids[eid]) for u, v, eid in g.edges))
        assert relabelled.tutte_polynomial() == reference


def test_worked_graph_spanning_trees(genus2_graph):
    mg = genus2_graph.underlying_multigraph()
    trees = mg.spanning_trees_with_activities()
    by_edges = {t.edges: t for t in trees}
    assert set(by_edges) == {
        frozenset({2, 4}),
        frozenset({2, 3}),
        frozenset({1, 4}),
        frozenset({1, 3}),
    }
    t = by_edges[frozenset({1, 3})]  # 010100
    assert t.internally_active == frozenset({1, 3})
    assert t.externally_active == frozenset({0, 5})
    t = by_edges[frozenset({2, 4})]  # 001010
    assert t.internally_active == frozenset()
    assert t.externally_active == frozenset({0, 1, 3, 5})


def test_four_cycle_spanning_trees_under_a_reordering():
    # in a cycle the cut of a tree edge is itself and the one edge left
    # out, and the left-out edge closes the whole cycle; with edge 2 lowest
    # and edge 1 highest, each tree edge ordered below the left-out edge is
    # internally active, and only edge 2 can be externally active
    g = MultiGraph(4, ((0, 1, 0), (1, 2, 1), (2, 3, 2), (3, 0, 3)))
    trees = g.spanning_trees_with_activities([2, 0, 3, 1])
    assert sorted(trees, key=lambda t: sorted(t.edges)) == [
        SpanningTreeActivities(frozenset({0, 1, 2}), frozenset({0, 2}), frozenset()),
        SpanningTreeActivities(frozenset({0, 1, 3}), frozenset(), frozenset({2})),
        SpanningTreeActivities(frozenset({0, 2, 3}), frozenset({0, 2, 3}), frozenset()),
        SpanningTreeActivities(frozenset({1, 2, 3}), frozenset({2}), frozenset()),
    ]


def test_one_vertex_unique_empty_tree():
    g = MultiGraph(1, ((0, 0, 0), (0, 0, 1), (0, 0, 2)))
    trees = g.spanning_trees_with_activities()
    assert len(trees) == 1
    assert trees[0].edges == frozenset()
    assert trees[0].externally_active == frozenset({0, 1, 2})


def test_activity_sum_reproduces_tutte():
    rng = random.Random(31)
    order_rng = random.Random(37)
    checked = 0
    while checked < 25:
        g = _random_multigraph(rng)
        if not g.is_connected:
            continue
        ids = [eid for _, _, eid in g.edges]
        shuffled = order_rng.sample(ids, len(ids))
        # both sides come from one recursion, so each is also held to a
        # route of its own
        tutte = tutte_by_subgraph_sum(g)
        assert g.tutte_polynomial() == tutte
        # Tutte's theorem holds for every edge order
        for order in (None, shuffled):
            trees = g.spanning_trees_with_activities(order)
            assert len(trees) == len(spanning_trees_by_combinations(g, order))
            total = MPoly.zero()
            for t in trees:
                total = total + MPoly.monomial(
                    1, x=len(t.internally_active), y=len(t.externally_active)
                )
            assert total == tutte
            assert tutte.evaluate(x=1, y=1) == len(trees)
        checked += 1


def _random_connected_multigraph(rng):
    """1 to 6 vertices and up to 9 edges, loops and parallel edges
    included: a random spanning tree first, then random extra edges, with
    the edge ids shuffled over both."""
    v = rng.randint(1, 6)
    e = rng.randint(v - 1, 9)
    labels = rng.sample(range(v), v)
    ends = [(labels[i], labels[rng.randrange(i)]) for i in range(1, v)]
    ends += [(rng.randrange(v), rng.randrange(v)) for _ in range(e - v + 1)]
    ids = rng.sample(range(e), e)
    return MultiGraph(v, tuple((a, b, eid) for (a, b), eid in zip(ends, ids)))


def test_spanning_trees_match_the_combinations_oracle():
    rng = random.Random(1954)
    for _ in range(1000):
        g = _random_connected_multigraph(rng)
        ids = [eid for _, _, eid in g.edges]
        for order in (None, rng.sample(ids, len(ids))):
            trees = g.spanning_trees_with_activities(order)
            assert len(set(trees)) == len(trees), (g, order)
            assert set(trees) == set(spanning_trees_by_combinations(g, order)), (g, order)


def test_spanning_trees_require_connected():
    with pytest.raises(Disconnected):
        MultiGraph(2, ()).spanning_trees_with_activities()


@pytest.mark.parametrize(
    "vertex_count, edges",
    [
        (2, ((0, 1.0, 0),)),
        (2.0, ((0, 1, 0),)),
        (2, ((0, 1, "a"), (0, 1, 1))),
        (2, ((0, True, 0),)),
        (2, ((0, 1, 0.5),)),
    ],
    ids=["float endpoint", "float vertex count", "str edge id", "bool endpoint", "float edge id"],
)
def test_input_that_is_not_an_int_raises(vertex_count, edges):
    # unchecked, the first three raise TypeError inside the Tutte recursion or
    # the edge ranking, and the last two are taken silently
    with pytest.raises(ValueError, match="is not"):
        MultiGraph(vertex_count, edges)
