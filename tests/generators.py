"""Deterministic test-graph generators.

Everything takes an explicit :class:`random.Random` so that suites are
reproducible from a seed.  The planar generator grows a rotation system
that provably stays at genus zero: tree edges are attached anywhere
(bridges never raise genus) and every extra edge is inserted between two
corners of a single face, which splits that face and leaves the genus
unchanged.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

from ribbonpoly import RibbonGraph, build_ribbon_graph
from ribbonpoly.permutation import Perm


def perfect_matchings(labels: Sequence[int]) -> Iterator[list[tuple[int, int]]]:
    """All perfect matchings of an even label set, lowest label matched first."""
    labels = list(labels)
    if not labels:
        yield []
        return
    first = labels[0]
    for pos in range(1, len(labels)):
        partner = labels[pos]
        rest = labels[1:pos] + labels[pos + 1 :]
        for rest_matching in perfect_matchings(rest):
            yield [(first, partner)] + rest_matching


def one_vertex_graphs(loop_count: int) -> Iterator[RibbonGraph]:
    """Every one-vertex ribbon graph with the given number of loops.

    The rotation is normalized to (1, 2, ..., 2m); the matchings then give
    each one-vertex graph exactly once, (2m-1)!! in total.
    """
    labels = list(range(1, 2 * loop_count + 1))
    cycles = [labels] if labels else []
    for matching in perfect_matchings(labels):
        yield build_ribbon_graph(cycles, matching)


def all_one_vertex_graphs(max_loops: int) -> Iterator[RibbonGraph]:
    """One-vertex graphs with 0 up to ``max_loops`` loops."""
    for loops in range(max_loops + 1):
        yield from one_vertex_graphs(loops)


def random_connected_ribbon_graph(rng: random.Random, edge_count: int) -> RibbonGraph:
    """A uniformly random rotation system on a random matching, retried until connected."""
    if edge_count < 1:
        raise ValueError("need at least one edge")
    n2 = 2 * edge_count
    while True:
        images = list(range(1, n2 + 1))
        rng.shuffle(images)
        labels = list(range(1, n2 + 1))
        rng.shuffle(labels)
        pairs = [(labels[2 * i], labels[2 * i + 1]) for i in range(edge_count)]
        graph = build_ribbon_graph(Perm(images).orbits(), pairs)
        if graph.is_connected:
            return graph


def _face_corners(
    rotations: list[list[int]], pairs: list[tuple[int, int]]
) -> list[list[int]]:
    """Corners grouped by face, the corner after half-edge j on the face of
    ``sigma0(j)`` in the graph's one boundary walk.

    Faces come in the order in which a scan of the rotations first meets
    them, each with its corners in ascending order.
    """
    graph = build_ribbon_graph([r for r in rotations if r], pairs)
    _, face_of = graph.face_orbit_ids(range(graph.edge_count))
    corners: dict[int, list[int]] = {face_of[h]: [] for rotation in rotations for h in rotation}
    rotation = Perm.from_cycles(graph.vertices, graph.half_edge_count)
    for j, after in enumerate(rotation.images, start=1):
        corners[face_of[after]].append(j)
    return list(corners.values())


def _genus_of(rotations: list[list[int]], pairs: list[tuple[int, int]]) -> int:
    graph = build_ribbon_graph([r for r in rotations if r], pairs)
    return graph.counts().genus


def random_planar_ribbon_graph(
    rng: random.Random, vertex_count: int, extra_edges: int
) -> RibbonGraph:
    """A random connected genus-zero ribbon graph.

    Builds a random tree on ``vertex_count`` vertices with arbitrary
    rotation insertions, then adds ``extra_edges`` edges one at a time,
    each between two corners of a randomly chosen face (a loop when the
    corners coincide).  Genus zero is asserted after every insertion.
    """
    if vertex_count < 1:
        raise ValueError("need at least one vertex")
    rotations: list[list[int]] = [[] for _ in range(vertex_count)]
    pairs: list[tuple[int, int]] = []
    next_label = 1
    for new_vertex in range(1, vertex_count):
        anchor = rng.randrange(new_vertex)
        a, b = next_label, next_label + 1
        next_label += 2
        rotations[anchor].insert(rng.randrange(len(rotations[anchor]) + 1), a)
        rotations[new_vertex].append(b)
        pairs.append((a, b))

    for _ in range(extra_edges):
        a, b = next_label, next_label + 1
        next_label += 2
        if not pairs:
            rotations[0] = [a, b]  # first loop on a bare vertex
            pairs.append((a, b))
            continue
        face = rng.choice(_face_corners(rotations, pairs))
        j1 = rng.choice(face)
        j2 = rng.choice(face)
        placed = False
        for first, second in ((a, b), (b, a)):
            rotation1 = next(r for r in rotations if j1 in r)
            rotation1.insert(rotation1.index(j1) + 1, first)
            anchor2 = first if j1 == j2 else j2
            rotation2 = next(r for r in rotations if anchor2 in r)
            rotation2.insert(rotation2.index(anchor2) + 1, second)
            if _genus_of(rotations, pairs + [(a, b)]) == 0:
                placed = True
                break
            rotation1.remove(first)
            rotation2.remove(second)
        if not placed:
            raise AssertionError("no genus-preserving insertion at a common face")
        pairs.append((a, b))

    final = build_ribbon_graph([r for r in rotations if r], pairs)
    if final.counts().genus != 0:
        raise AssertionError("generator produced a positive-genus graph")
    return final
