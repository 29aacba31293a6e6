import itertools
import json
import random
import re
from pathlib import Path

import pytest

from ribbonpoly import (
    Disconnected,
    LoopContraction,
    NotInvolution,
    NotPartition,
    RibbonGraph,
    build_ribbon_graph,
    graph_from_json,
    graph_to_json_dict,
)
from ribbonpoly.cli import main
from ribbonpoly.permutation import Perm
from ribbonpoly.ribbon import edge_order_from_numbers
from generators import (
    all_one_vertex_graphs,
    one_vertex_graphs,
    random_connected_ribbon_graph,
    random_planar_ribbon_graph,
)
import oracles
from oracles import (
    disjoint_union,
    orbit_count,
    orbit_of,
    restrict,
    sigma0,
    sigma1,
    sigma2,
    subset_from_bitstring,
)

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


def all_subsets(graph):
    ids = range(graph.edge_count)
    return itertools.chain.from_iterable(
        itertools.combinations(ids, size) for size in range(graph.edge_count + 1)
    )


# -- construction and counts ------------------------------------------------


def _assert_faces_are_permutation_cycles(g):
    # the boundary walk along every edge follows sigma2^-1 = sigma0 * sigma1,
    # which the oracle composes from the vertex and edge tuples alone
    assert g.boundary_components(range(g.edge_count)) == sigma2(g).inverse().orbits()


def test_planar_theta_faces(planar_theta):
    assert sigma2(planar_theta).orbits() == [(1,), (2, 4, 6), (3, 5)]
    _assert_faces_are_permutation_cycles(planar_theta)
    assert planar_theta.counts() == (2, 3, 3, 1, 0, 2)


def test_torus_theta_faces(torus_theta):
    assert sigma2(torus_theta).orbits() == [(1, 5, 2, 3, 6, 4)]
    _assert_faces_are_permutation_cycles(torus_theta)
    assert torus_theta.counts() == (2, 3, 1, 1, 1, 2)


def test_genus2_graph_data(genus2_graph):
    g = genus2_graph
    assert orbit_of(sigma2(g), 1) == (1, 6, 7, 10, 12, 3, 2, 4, 9, 8, 11, 5)
    _assert_faces_are_permutation_cycles(g)
    assert g.counts() == (3, 6, 1, 1, 2, 4)
    assert g.edges == ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12))


def test_triple_composes_to_identity(genus2_graph, torus_theta, planar_theta):
    for g in (genus2_graph, torus_theta, planar_theta):
        s0, s1, s2 = sigma0(g), sigma1(g), sigma2(g)
        for i in range(1, g.half_edge_count + 1):
            assert s0(s1(s2(i))) == i
        _assert_faces_are_permutation_cycles(g)


def test_faces_are_permutation_cycles_on_route_graphs():
    for g in _route_graphs():
        _assert_faces_are_permutation_cycles(g)
        if g.is_connected:
            _assert_faces_are_permutation_cycles(g.dual())


def test_graph_has_no_public_constructor(torus_theta):
    # graphs enter through build_ribbon_graph alone, which checks its input
    with pytest.raises(TypeError):
        RibbonGraph(sigma0(torus_theta), sigma1(torus_theta))
    with pytest.raises(TypeError):
        RibbonGraph(sigma0(torus_theta), sigma1(torus_theta), [0, 1, 2])


def test_one_loop_counts(one_loop):
    assert one_loop.counts() == (1, 1, 2, 1, 0, 1)


def test_trivial_graph():
    trivial = build_ribbon_graph([], [])
    assert trivial.is_trivial
    assert trivial.counts() == (1, 0, 1, 1, 0, 0)


@pytest.mark.parametrize("path", sorted(GRAPHS.glob("*.json")), ids=lambda path: path.stem)
def test_counts_are_the_subgraph_counts_of_every_edge(path):
    # one record for a graph and its spanning subgraphs, each of which keeps
    # every vertex: the whole edge set gives the graph's own counts
    graph = graph_from_json(json.loads(path.read_text(encoding="utf-8")))
    every_edge = range(graph.edge_count)
    counts = graph.counts()
    assert counts == graph.subgraph_counts(every_edge) == graph.spanning_subgraph(every_edge)
    assert counts.vertices == graph.vertex_count and counts.edges == graph.edge_count


@pytest.mark.parametrize("repeated", [[0, 0], [0, 0, 0]])
def test_repeated_edge_index_counts_once(torus_theta, repeated):
    # a spanning subgraph is a set of edges: a repeated index adds nothing
    assert torus_theta.subgraph_counts(repeated) == torus_theta.subgraph_counts([0])
    assert torus_theta.spanning_subgraph(repeated) == torus_theta.subgraph_counts([0])
    # edge 0 is the loop {1, 3}: two components, three faces, genus 0, nullity 1
    assert torus_theta.subgraph_counts([0]) == (2, 1, 3, 2, 0, 1)


def test_validation_errors():
    with pytest.raises(NotInvolution):
        build_ribbon_graph([[1, 2]], [[1, 1]])
    with pytest.raises(NotInvolution):
        build_ribbon_graph([[1, 2, 3, 4]], [[1, 2], [2, 3]])
    with pytest.raises(NotInvolution):
        build_ribbon_graph([[1, 2]], [[1, 3]])
    with pytest.raises(NotPartition):
        build_ribbon_graph([[1, 2], [2, 3]], [[1, 2], [3, 4]])
    with pytest.raises(NotPartition):
        build_ribbon_graph([[1, 2]], [[1, 2], [3, 4]])


@pytest.mark.parametrize(
    "cycles, pairs, label",
    [
        ([[1.0, 2]], [[1, 2]], "1.0"),
        ([[True, 2]], [[1, 2]], "True"),
        ([[1, 2]], [[1, 2.0]], "2.0"),
        ([[1, 2]], [["1", 2]], "'1'"),
        ([[1, 2]], [[1, [2]]], "[2]"),
    ],
)
def test_non_integer_labels_rejected(cycles, pairs, label):
    with pytest.raises(ValueError, match=f"half-edge label {re.escape(label)} is not an integer"):
        build_ribbon_graph(cycles, pairs)


def test_equality_reads_rotations_pairs_and_order():
    # one rotation (1,2,3,4) under its three matchings
    graphs = list(one_vertex_graphs(2))
    assert len(set(graphs)) == 3
    assert all(a != b for a, b in itertools.combinations(graphs, 2))
    g = graphs[0]
    assert g == build_ribbon_graph([[1, 2, 3, 4]], g.edges)
    assert g != g.with_edge_order([1, 0])
    assert g != build_ribbon_graph([[1, 2], [3, 4]], g.edges)


def test_disconnected_is_flag_not_error(one_loop, torus_theta):
    union = disjoint_union(one_loop, torus_theta)
    assert not union.is_connected
    assert union.counts().components == 2


# -- boundary walks and the restriction oracle ------------------------------


def test_boundary_full_subgraph(genus2_graph):
    cycles = genus2_graph.boundary_components(range(6))
    assert cycles == [(1, 5, 11, 8, 9, 4, 2, 3, 12, 10, 7, 6)]


def test_boundary_named_subgraph(genus2_graph):
    subset = subset_from_bitstring(genus2_graph, "011101")
    assert genus2_graph.boundary_components(subset) == [
        (1, 3, 12, 10, 4, 2, 5, 11, 8, 9, 7, 6)
    ]


def test_boundary_empty_subgraph_is_vertex_rotations(genus2_graph, torus_theta):
    assert genus2_graph.boundary_components([]) == [
        (1, 3, 2, 5), (4, 12, 8, 6, 11, 10), (7, 9)
    ]
    assert torus_theta.boundary_components([]) == [(1, 2, 3, 4), (5, 6)]
    for g in (genus2_graph, torus_theta):
        assert g.boundary_components([]) == list(g.vertices)
        assert g.face_count([]) == g.counts().vertices


def test_restrict_examples(genus2_graph):
    empty = restrict(genus2_graph, [])
    assert empty.graph is None
    assert empty.isolated_vertices == 3
    assert empty.face_count == 3

    quasi = restrict(genus2_graph, subset_from_bitstring(genus2_graph, "001010"))
    assert quasi.isolated_vertices == 0
    assert quasi.face_count == 1


def test_restrict_loop_of_two_loop_graph(two_interleaved_loops):
    restricted = restrict(two_interleaved_loops, [0])
    assert restricted.isolated_vertices == 0
    assert restricted.face_count == 2
    assert restricted.genus == 0
    assert restricted.graph.counts().vertices == 1


def _check_subgraph_counts_against_restriction(graph):
    for subset in all_subsets(graph):
        counts = graph.subgraph_counts(subset)
        restricted = restrict(graph, subset)
        assert counts.faces == restricted.face_count
        assert counts.components == restricted.component_count
        assert counts.genus == restricted.genus
        assert counts.faces >= counts.components
        assert counts.nullity == counts.components - graph.counts().vertices + counts.edges
        assert len(graph.boundary_components(subset)) == counts.faces


def test_two_face_count_algorithms_agree_on_fixtures(
    genus2_graph, torus_theta, planar_theta, two_interleaved_loops, one_loop
):
    for graph in (genus2_graph, torus_theta, planar_theta, two_interleaved_loops, one_loop):
        _check_subgraph_counts_against_restriction(graph)


def test_two_face_count_algorithms_agree_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(25):
        graph = random_connected_ribbon_graph(rng, rng.randint(1, 7))
        _check_subgraph_counts_against_restriction(graph)


# -- deletion ----------------------------------------------------------------


def test_delete_edge_splices(torus_theta):
    smaller = torus_theta.delete_edge(1)  # {2, 6}
    assert smaller.counts().vertices == 2
    assert smaller.counts().edges == 2


def test_delete_only_loop_gives_trivial(one_loop):
    assert one_loop.delete_edge(0).is_trivial


def test_delete_from_worked_graph(genus2_graph):
    smaller = genus2_graph.delete_edge(5)  # {11, 12}
    counts = smaller.counts()
    assert (counts.vertices, counts.edges) == (3, 5)
    # orbit recount oracle: faces recomputed from the rebuilt triple
    assert counts.faces == orbit_count(sigma2(smaller))
    _assert_faces_are_permutation_cycles(smaller)
    assert 2 * counts.genus == (
        2 * counts.components - counts.vertices + counts.edges - counts.faces
    )


def test_delete_changes_components_by_at_most_one():
    rng = random.Random(5)
    for _ in range(20):
        graph = random_connected_ribbon_graph(rng, rng.randint(2, 7))
        for eid in range(graph.edge_count):
            after = graph.delete_edge(eid).counts().components
            assert after in (1, 2)


# -- contraction ---------------------------------------------------------------


def test_contract_bridge_to_trivial(bridge_graph):
    assert bridge_graph.contract_edge(0).is_trivial


def test_contract_torus_theta_connector(torus_theta):
    # {1,3} is a loop there; contracting a connecting edge leaves one
    # vertex with two loops and the genus intact
    merged = torus_theta.contract_edge(1)  # {2, 6}
    counts = merged.counts()
    assert (counts.vertices, counts.edges, counts.genus) == (1, 2, 1)
    with pytest.raises(LoopContraction):
        torus_theta.contract_edge(0)  # {1, 3}


def test_contract_in_worked_graph(genus2_graph):
    merged = genus2_graph.contract_edge(3)  # {7, 8}
    counts = merged.counts()
    assert (counts.vertices, counts.edges, counts.genus) == (2, 5, 2)


def test_contract_preserves_components_and_genus():
    rng = random.Random(11)
    checked = 0
    while checked < 15:
        graph = random_connected_ribbon_graph(rng, rng.randint(2, 7))
        non_loops = [ei for ei in range(graph.edge_count) if not graph.is_loop(ei)]
        if not non_loops:
            continue
        before = graph.counts()
        merged = graph.contract_edge(non_loops[0])
        after = merged.counts()
        assert after.components == before.components
        assert after.genus == before.genus
        assert after.vertices == before.vertices - 1
        assert after.edges == before.edges - 1
        checked += 1


def _random_small_maps(seed, count):
    """Seeded maps with 1 to 5 vertices, each also under its reversed edge order.

    Random rotations give vertices of every degree; planar maps also give
    degree-one vertices, which vanish from a deletion.
    """
    rng = random.Random(seed)
    maps = []
    while len(maps) < count:
        if rng.random() < 0.5:
            g = random_connected_ribbon_graph(rng, rng.randint(1, 6))
        else:
            g = random_planar_ribbon_graph(rng, rng.randint(1, 5), rng.randint(0, 3))
        if g.is_trivial or g.vertex_count > 5:
            continue
        maps.append(g)
        maps.append(g.with_edge_order(g.edge_order[::-1]))
    return maps


def _assert_same_graph(graph, rebuilt):
    """Equal, and equal in every table derived from the rotation system."""
    assert graph == rebuilt
    assert hash(graph) == hash(rebuilt)
    assert graph.vertices == rebuilt.vertices
    assert graph.edges == rebuilt.edges
    assert graph.edge_order == rebuilt.edge_order
    assert graph.counts() == rebuilt.counts()
    assert graph.component_count == rebuilt.component_count
    every_edge = range(graph.edge_count)
    assert graph.face_orbit_ids(every_edge) == rebuilt.face_orbit_ids(every_edge)


def test_minors_match_cycle_oracle():
    for g in _random_small_maps(23, 60):
        for ei in range(g.edge_count):
            _assert_same_graph(g.delete_edge(ei), oracles.delete_edge(g, ei))
            if not g.is_loop(ei):
                _assert_same_graph(g.contract_edge(ei), oracles.contract_edge(g, ei))


def test_components_match_cycle_oracle():
    maps = _random_small_maps(29, 30)
    rng = random.Random(31)
    for _ in range(40):
        union = maps[rng.randrange(len(maps))]
        for _ in range(rng.randint(0, 2)):
            union = disjoint_union(union, maps[rng.randrange(len(maps))])
        # a reversed order interleaves the components' edges in the order
        for graph in (union, union.with_edge_order(union.edge_order[::-1])):
            parts = graph.connected_components()
            rebuilt = oracles.connected_components(graph)
            assert len(parts) == len(rebuilt)
            for part, rebuilt_part in zip(parts, rebuilt):
                _assert_same_graph(part, rebuilt_part)


def test_disjoint_union_counts_add():
    # the union that the component tests build must add every count and keep
    # each piece's edge order, the second piece's edges after the first's
    maps = _random_small_maps(37, 20)
    for a, b in itertools.product(maps[:10], maps[10:]):
        union = disjoint_union(a, b)
        left, right, both = a.counts(), b.counts(), union.counts()
        assert both == tuple(x + y for x, y in zip(left, right))
        assert union.component_count == a.component_count + b.component_count
        assert union.edge_order == a.edge_order + tuple(ei + a.edge_count for ei in b.edge_order)


def test_is_loop_matches_vertex_cycles():
    for g in _random_small_maps(41, 30):
        vertex_of = {h: vi for vi, cycle in enumerate(g.vertices) for h in cycle}
        for ei, (a, b) in enumerate(g.edges):
            assert g.is_loop(ei) == (vertex_of[a] == vertex_of[b])


# -- cycle data and the permutation route ---------------------------------------


def _route_graphs():
    """The census graphs up to five chords, the fixtures and seeded maps, each
    also under a shuffled edge order."""
    rng = random.Random(43)
    fixtures = [
        graph_from_json(json.loads(path.read_text(encoding="utf-8")))
        for path in sorted(GRAPHS.glob("*.json"))
    ]
    for graph in [*all_one_vertex_graphs(5), *fixtures, *_random_small_maps(41, 40)]:
        order = list(graph.edge_order)
        rng.shuffle(order)
        yield graph
        yield graph.with_edge_order(order)


def test_cycle_data_matches_permutation_route():
    rng = random.Random(47)
    for graph in _route_graphs():
        # the same graph written with its cycles rotated and shuffled and
        # its pairs swapped and shuffled
        cycles = [list(c[k:] + c[:k]) for c in graph.vertices for k in [rng.randrange(len(c))]]
        pairs = [p[::-1] if rng.random() < 0.5 else p for p in graph.edges]
        rng.shuffle(cycles)
        rng.shuffle(pairs)
        default = graph.edge_order == tuple(range(graph.edge_count))
        order = None if default else list(graph.edge_order)
        n2 = graph.half_edge_count
        by_perms = build_ribbon_graph(
            Perm.from_cycles(cycles, n2).orbits(), Perm.from_cycles(pairs, n2).orbits(), order
        )
        _assert_same_graph(build_ribbon_graph(cycles, pairs, order), by_perms)
        _assert_same_graph(by_perms, graph)


def test_dual_matches_permutation_route():
    for graph in _route_graphs():
        _assert_same_graph(graph.dual(), oracles.dual_by_permutations(graph))


def _repr_by_permutations(graph):
    cycles0, cycles1 = sigma0(graph).cycle_string(), sigma1(graph).cycle_string()
    return f"RibbonGraph(sigma0={cycles0}, sigma1={cycles1})"


def test_repr_matches_permutation_cycle_strings():
    for graph in _route_graphs():
        assert repr(graph) == _repr_by_permutations(graph)
        if graph.is_connected:
            assert repr(graph.dual()) == _repr_by_permutations(graph.dual())


def test_dual_text_lines_match_permutation_cycle_strings(tmp_path, capsys):
    rng = random.Random(53)
    graphs = [g for g in _route_graphs() if g.is_connected]
    for graph in rng.sample(graphs, 8):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph_to_json_dict(graph)), encoding="utf-8")
        assert main(["dual", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        dual = graph.dual()
        assert lines[:2] == [
            f"dual sigma0: {sigma0(dual).cycle_string()}",
            f"dual sigma1: {sigma1(dual).cycle_string()}",
        ]


# -- duality ---------------------------------------------------------------------


def test_dual_counts(torus_theta, genus2_graph):
    d1 = torus_theta.dual().counts()
    assert (d1.vertices, d1.edges, d1.faces, d1.genus) == (1, 3, 2, 1)
    d2 = genus2_graph.dual().counts()
    assert (d2.vertices, d2.edges, d2.faces, d2.genus) == (1, 6, 3, 2)


def test_double_dual_profile(genus2_graph, torus_theta, planar_theta, one_loop):
    for graph in (genus2_graph, torus_theta, planar_theta, one_loop):
        assert graph.dual().dual().counts() == graph.counts()


def test_dual_swaps_vertices_and_faces_randomly():
    rng = random.Random(3)
    for _ in range(20):
        graph = random_connected_ribbon_graph(rng, rng.randint(1, 7))
        counts = graph.counts()
        dual_counts = graph.dual().counts()
        assert dual_counts.vertices == counts.faces
        assert dual_counts.faces == counts.vertices
        assert dual_counts.edges == counts.edges
        assert dual_counts.genus == counts.genus


def test_dual_requires_connected(one_loop):
    union = disjoint_union(one_loop, one_loop)
    with pytest.raises(Disconnected):
        union.dual()


# -- components, unions, orders, serialization ---------------------------------


def test_components_of_disjoint_union(one_loop, torus_theta):
    union = disjoint_union(torus_theta, one_loop)
    parts = union.connected_components()
    assert [p.counts() for p in parts] == [torus_theta.counts(), one_loop.counts()]


def test_bitstring_roundtrip(genus2_graph):
    subset = subset_from_bitstring(genus2_graph, "011101")
    assert subset == frozenset({1, 2, 3, 5})
    assert genus2_graph.bitstring(subset) == "011101"
    swapped = genus2_graph.with_edge_order((3, 1, 2, 0, 4, 5))
    assert swapped.bitstring(subset) == "111001"


@pytest.mark.parametrize(
    "query, argument",
    [
        (query, [index])
        for query in (
            "face_count",
            "face_orbit_ids",
            "boundary_components",
            "subgraph_counts",
            "bitstring",
            "spanning_subgraph",
        )
        for index in (-1, 6)
    ],
)
def test_bad_edge_subset_raises(genus2_graph, query, argument):
    # unchecked, -1 would index the last edge
    with pytest.raises(ValueError):
        getattr(genus2_graph, query)(argument)


@pytest.mark.parametrize("bits", ["11111x", "1111 1"])
def test_bad_bitstring_raises(genus2_graph, bits):
    # unchecked, "x" would read as "0"
    with pytest.raises(ValueError):
        subset_from_bitstring(genus2_graph, bits)


TORUS_THETA = graph_from_json(json.loads((GRAPHS / "torus_theta.json").read_text(encoding="utf-8")))
OUT_OF_RANGE = (
    [
        (TORUS_THETA, query, index, f"edge index {index} out of range for 3 edges")
        for query in ("delete_edge", "contract_edge", "is_loop")
        for index in (-1, 3)
    ]
    + [
        (Perm((2, 1, 3)), "__call__", index, f"label {index} out of range for 3 labels")
        for index in (-1, 0, 4)
    ]
)


@pytest.mark.parametrize(
    "target, query, index, message",
    OUT_OF_RANGE,
    ids=[f"{type(target).__name__}.{query}({index})" for target, query, index, _ in OUT_OF_RANGE],
)
def test_index_outside_the_domain_raises(target, query, index, message):
    # unchecked, -1 would wrap round to the last edge or label
    with pytest.raises(ValueError, match=re.escape(message)):
        getattr(target, query)(index)


NOT_AN_INT = [
    (query, index, f"edge index {index} out of range for 3 edges")
    for query in (
        "face_count",
        "face_orbit_ids",
        "boundary_components",
        "subgraph_counts",
        "spanning_subgraph",
        "bitstring",
        "delete_edge",
        "contract_edge",
        "is_loop",
    )
    for index in (True, 1.0, [0])
]


@pytest.mark.parametrize(
    "query, index, message",
    NOT_AN_INT,
    ids=[f"{query}({index})" for query, index, _ in NOT_AN_INT],
)
def test_index_that_is_not_an_int_raises(query, index, message):
    # unchecked, True would index as 1 and a float or a list would raise TypeError
    edge_ids = ("delete_edge", "contract_edge", "is_loop")
    argument = index if query in edge_ids else [index]
    with pytest.raises(ValueError, match=re.escape(message)):
        getattr(TORUS_THETA, query)(argument)


def test_edge_order_override_validation(genus2_graph):
    with pytest.raises(ValueError):
        genus2_graph.with_edge_order([0, 1])
    with pytest.raises(ValueError):
        genus2_graph.with_edge_order([0, 0, 1, 2, 3, 4])
    # equal as numbers to a permutation, but not plain ints
    with pytest.raises(ValueError):
        genus2_graph.with_edge_order([0, 1.0, 2, 3, 4, 5])
    with pytest.raises(ValueError):
        genus2_graph.with_edge_order([True, 0, 2, 3, 4, 5])
    reordered = genus2_graph.with_edge_order([3, 1, 2, 0, 4, 5])
    assert reordered.edge_order == (3, 1, 2, 0, 4, 5)


@pytest.mark.parametrize("numbers", [[True, 2], [1.0, 2], [1, 1]])
def test_edge_numbers_must_be_plain_ints(numbers):
    with pytest.raises(ValueError, match=re.escape(f"edge_order {numbers} is not a permutation")):
        edge_order_from_numbers(numbers, 2)


def test_json_roundtrip(genus2_graph):
    doc = graph_to_json_dict(genus2_graph)
    assert graph_from_json(doc) == genus2_graph
    reordered = genus2_graph.with_edge_order([3, 1, 2, 0, 4, 5])
    doc2 = graph_to_json_dict(reordered)
    assert doc2["edge_order"] == [4, 2, 3, 1, 5, 6]
    assert graph_from_json(doc2) == reordered


def test_json_rejects_bad_documents():
    with pytest.raises(ValueError):
        graph_from_json({"sigma0": [[1, 2]]})
    # a document is parsed before it is read, so text is not a document
    for text in ("[1, 2]", json.dumps(graph_to_json_dict(build_ribbon_graph([[1, 2]], [[1, 2]])))):
        with pytest.raises(ValueError, match="graph document must be a JSON object"):
            graph_from_json(text)


def test_inherited_edge_order_after_delete(genus2_graph):
    reordered = genus2_graph.with_edge_order([5, 1, 2, 0, 4, 3])
    smaller = reordered.delete_edge(0)
    # surviving old ids (1,2,3,4,5) compress to (0,1,2,3,4)
    assert smaller.edge_order == (4, 0, 1, 3, 2)
