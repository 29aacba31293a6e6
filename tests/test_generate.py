import hashlib
import random
from collections import Counter

from generators import (
    all_one_vertex_graphs,
    one_vertex_graphs,
    perfect_matchings,
    random_connected_ribbon_graph,
    random_planar_ribbon_graph,
)


def test_matching_counts():
    # (2m-1)!! matchings on 2m labels
    for m, expected in ((0, 1), (1, 1), (2, 3), (3, 15), (4, 105)):
        assert sum(1 for _ in perfect_matchings(range(1, 2 * m + 1))) == expected


def test_one_vertex_family():
    graphs = list(one_vertex_graphs(3))
    assert len(graphs) == 15
    for g in graphs:
        counts = g.counts()
        assert counts.vertices == 1 and counts.edges == 3 and g.is_connected
    assert sum(1 for _ in all_one_vertex_graphs(3)) == 1 + 1 + 3 + 15


def test_one_vertex_family_is_distinct():
    seen = {g.sigma1 for g in one_vertex_graphs(4)}
    assert len(seen) == 105


def _harer_zagier(n_max):
    """eps[n][g], the one-vertex maps with n edges and genus g, by the
    Harer-Zagier recursion (Invent. Math. 85, 1986)."""
    eps = [[0] * (n_max // 2 + 2) for _ in range(n_max + 1)]
    eps[0][0] = 1
    for n in range(1, n_max + 1):
        for g in range(n // 2 + 1):
            total = 2 * (2 * n - 1) * eps[n - 1][g]
            if n >= 2 and g >= 1:
                total += (n - 1) * (2 * n - 1) * (2 * n - 3) * eps[n - 2][g - 1]
            assert total % (n + 1) == 0
            eps[n][g] = total // (n + 1)
    return eps


def test_one_vertex_genus_census_matches_harer_zagier():
    eps = _harer_zagier(6)
    for n in range(7):
        histogram = Counter(g.genus for g in one_vertex_graphs(n))
        assert histogram == {genus: count for genus, count in enumerate(eps[n]) if count}


def test_random_connected_graphs_are_connected_and_deterministic():
    for seed in range(5):
        a = random_connected_ribbon_graph(random.Random(seed), 6)
        b = random_connected_ribbon_graph(random.Random(seed), 6)
        assert a == b
        assert a.is_connected and a.edge_count == 6


def test_random_planar_graphs_have_genus_zero():
    rng = random.Random(99)
    for _ in range(20):
        v = rng.randint(1, 6)
        extra = rng.randint(0, 5)
        g = random_planar_ribbon_graph(rng, v, extra)
        counts = g.counts()
        assert counts.genus == 0
        assert counts.components == 1
        assert counts.vertices == v or (v == 1 and g.is_trivial)
        assert counts.edges == (v - 1) + extra


def test_random_planar_is_deterministic():
    a = random_planar_ribbon_graph(random.Random(7), 4, 3)
    b = random_planar_ribbon_graph(random.Random(7), 4, 3)
    assert a == b


def test_random_planar_outputs_are_pinned():
    # the generator's face choices must not drift when its face walk changes
    images = [
        (g.sigma0.images, g.sigma1.images)
        for size in ((1, 3), (2, 5), (5, 6), (8, 10))
        for seed in range(50)
        for g in [random_planar_ribbon_graph(random.Random(seed), *size)]
    ]
    digest = hashlib.sha256(repr(images).encode()).hexdigest()
    assert digest == "ba376704b750681033e546b372b3786f0c6ace05e86d50e75aa1c27fe7e1c33c"
