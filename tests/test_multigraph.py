import random

import pytest

from ribbonpoly import Disconnected, MPoly, MultiGraph, ONE, X, Y, Z
from oracles import tutte_by_subgraph_sum


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
        # Tutte's theorem holds for every edge order
        for order in (None, shuffled):
            trees = g.spanning_trees_with_activities(order)
            total = MPoly.zero()
            for t in trees:
                total = total + MPoly.monomial(1, x=t.internal_count, y=t.external_count)
            assert total == g.tutte_polynomial()
            assert g.tutte_polynomial().evaluate(x=1, y=1) == len(trees)
        checked += 1


def test_spanning_trees_require_connected():
    with pytest.raises(Disconnected):
        MultiGraph(2, ()).spanning_trees_with_activities()
