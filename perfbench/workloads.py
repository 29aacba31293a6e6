"""Seeded graph families, the workload table and cross-method references.

Inputs are graph documents in the CLI's JSON format, made here from
stdlib ``random`` alone and never from ``ribbonpoly.generate``: a change
to the program must not change which graphs the benchmark times.

Each workload draws its graphs from one family and stratifies them by
their quasi-tree count, computed here without the program.  The count is
``det(I + M)`` where ``M`` is the signed interlace matrix of the chord
diagram read along the boundary walk of a spanning tree (Chmutov's
partial dual; for one vertex the tree is empty and the walk is the
rotation).  The family's counts below the cap are cut into ``STRATA``
equal-mass bands (the ``cuts`` tuples, from ``pin.py --calibrate``), and
operation ``i`` takes its graph from band ``_ORDER[i % STRATA]``.  Every
run, whatever its seed, therefore sees the same mix of small and large
graphs, so the spread between seeds comes from the graphs' structure and
not from how many large ones a seed happened to draw.  Graphs above the
cap (the family's largest 1 %) are skipped, so that one huge graph cannot
decide a run's throughput.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator

DEFAULT_SEED = 1
# Confirm a claimed gain on this seed too; do not tune a change against it.
HELD_OUT_SEED = 271828
STRATA = 32
# Bit-reversal order: every prefix of length L visits each band
# floor(L / STRATA) or one more times, and spreads the extra visits.
_ORDER = tuple(int(format(i, "05b")[::-1], 2) for i in range(STRATA))
_MAX_CANDIDATES = 200_000


# -- graph families ------------------------------------------------------


def chord_diagram(rng: random.Random, chords: int) -> dict:
    """One vertex with rotation ``1..2m`` and a uniformly random chord matching."""
    labels = list(range(1, 2 * chords + 1))
    rotation = labels[:]
    rng.shuffle(labels)
    pairs = sorted(sorted(labels[i : i + 2]) for i in range(0, len(labels), 2))
    return {"sigma0": [rotation], "sigma1": pairs}


def _cycles(images: list[int]) -> list[list[int]]:
    seen = [False] * (len(images) + 1)
    out = []
    for start in range(1, len(images) + 1):
        cycle = []
        h = start
        while not seen[h]:
            seen[h] = True
            cycle.append(h)
            h = images[h - 1]
        if cycle:
            out.append(cycle)
    return out


def random_map(rng: random.Random, vertices: int, edges: int) -> dict:
    """A uniformly random rotation and matching, kept when it is connected
    and has exactly ``vertices`` vertices."""
    n2 = 2 * edges
    while True:
        images = list(range(1, n2 + 1))
        rng.shuffle(images)
        labels = list(range(1, n2 + 1))
        rng.shuffle(labels)
        cycles = _cycles(images)
        pairs = sorted(sorted(labels[i : i + 2]) for i in range(0, n2, 2))
        if len(cycles) == vertices and _is_connected(cycles, pairs):
            return {"sigma0": cycles, "sigma1": pairs}


def _is_connected(cycles: list[list[int]], pairs: list[list[int]]) -> bool:
    vertex_of = {h: vi for vi, cycle in enumerate(cycles) for h in cycle}
    parent = list(range(len(cycles)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = len(cycles)
    for a, b in pairs:
        ra, rb = find(vertex_of[a]), find(vertex_of[b])
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return components == 1


def _face_count(rotations: list[list[int]], partner: dict[int, int]) -> tuple[int, dict, dict]:
    """Faces of the map, the rotation successor and each half-edge's face."""
    successor = {}
    for rotation in rotations:
        for pos, h in enumerate(rotation):
            successor[h] = rotation[(pos + 1) % len(rotation)]
    face_of: dict[int, int] = {}
    faces = 0
    for start in successor:
        if start in face_of:
            continue
        h = start
        while h not in face_of:
            face_of[h] = faces
            h = successor[partner[h]]
        faces += 1
    return faces, successor, face_of


def planar_map(rng: random.Random, vertices: int, extra_edges: int) -> dict:
    """A random connected genus-zero map.

    A random tree with random rotation insertions, then ``extra_edges``
    edges, each joining two corners of one randomly chosen face; an edge
    inside a face splits it, so the genus stays zero.
    """
    rotations: list[list[int]] = [[] for _ in range(vertices)]
    partner: dict[int, int] = {}
    label = 1
    for new_vertex in range(1, vertices):
        anchor = rng.randrange(new_vertex)
        a, b = label, label + 1
        label += 2
        rotations[anchor].insert(rng.randrange(len(rotations[anchor]) + 1), a)
        rotations[new_vertex].append(b)
        partner[a], partner[b] = b, a
    for _ in range(extra_edges):
        a, b = label, label + 1
        label += 2
        if not partner:
            rotations[0] = [a, b]
            partner[a], partner[b] = b, a
            continue
        faces, successor, face_of = _face_count(rotations, partner)
        corners: dict[int, list[int]] = {}
        for j in sorted(successor):
            corners.setdefault(face_of[successor[j]], []).append(j)
        face = corners[rng.randrange(faces)]
        j1, j2 = rng.choice(face), rng.choice(face)
        partner[a], partner[b] = b, a
        for first, second in ((a, b), (b, a)):
            at1 = next(r for r in rotations if j1 in r)
            at1.insert(at1.index(j1) + 1, first)
            anchor2 = first if j1 == j2 else j2
            at2 = next(r for r in rotations if anchor2 in r)
            at2.insert(at2.index(anchor2) + 1, second)
            if _face_count(rotations, partner)[0] == faces + 1:
                break
            at1.remove(first)
            at2.remove(second)
        else:
            raise AssertionError("no face-splitting insertion found")
    pairs = sorted([h, partner[h]] for h in partner if h < partner[h])
    return {"sigma0": [r for r in rotations if r], "sigma1": pairs}


# -- exact counts computed without the program ---------------------------


def _det(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in matrix]
    n = len(a)
    sign, previous = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[-1][-1] if n else 1


def quasi_tree_count(doc: dict) -> int:
    """Number of quasi-trees of a connected map: ``det(I + M)`` for the
    signed interlace matrix ``M`` of the partial dual along a spanning tree."""
    cycles, pairs = doc["sigma0"], doc["sigma1"]
    n2 = 2 * len(pairs)
    successor = [0] * (n2 + 1)
    vertex_of = [0] * (n2 + 1)
    for vi, cycle in enumerate(cycles):
        for pos, h in enumerate(cycle):
            successor[h] = cycle[(pos + 1) % len(cycle)]
            vertex_of[h] = vi
    partner = [0] * (n2 + 1)
    for a, b in pairs:
        partner[a], partner[b] = b, a
    parent = list(range(len(cycles)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    in_tree = [False] * (n2 + 1)
    for a, b in pairs:
        ra, rb = find(vertex_of[a]), find(vertex_of[b])
        if ra != rb:
            parent[ra] = rb
            in_tree[a] = in_tree[b] = True
    position = [0] * (n2 + 1)
    h = 1
    for step in range(n2):
        position[h] = step
        h = successor[partner[h]] if in_tree[h] else successor[h]
    spans = sorted(sorted((position[a], position[b])) for a, b in pairs)
    m = len(spans)
    matrix = [[int(i == j) for j in range(m)] for i in range(m)]
    for i, (a1, b1) in enumerate(spans):
        for j in range(i + 1, m):
            if a1 < spans[j][0] < b1 < spans[j][1]:
                matrix[i][j], matrix[j][i] = 1, -1
    return _det(matrix)


def spanning_tree_count(doc: dict) -> int:
    """Kirchhoff's matrix-tree count for the underlying multigraph."""
    vertex_of = {h: vi for vi, cycle in enumerate(doc["sigma0"]) for h in cycle}
    v = len(doc["sigma0"])
    laplacian = [[0] * v for _ in range(v)]
    for a, b in doc["sigma1"]:
        x, y = vertex_of[a], vertex_of[b]
        if x != y:
            laplacian[x][x] += 1
            laplacian[y][y] += 1
            laplacian[x][y] -= 1
            laplacian[y][x] -= 1
    return _det([row[1:] for row in laplacian[1:]])


# -- references: the expected output, by a method other than the timed one


def _poly_fields(poly) -> dict:
    return {"polynomial": str(poly), "terms": poly.to_json_terms()}


def _connected_subgraphs(poly) -> int:
    """C(1, 1, 1): spanning subgraphs with as many components as the graph.

    Equals Tutte's T(1, 2), so it is also the number of summands of the
    spanning-tree expansion and of the recursion's one-vertex base cases.
    """
    return sum(coeff for _, coeff in poly.items())


def _quasi_trees_in(poly) -> int:
    """Connected one-face subgraphs: terms of C(1, Y, Z) with n = 2g."""
    return sum(coeff for (_, y, z, _), coeff in poly.items() if y == 2 * z)


def _reference_chord(doc: dict) -> dict:
    from ribbonpoly.expansions import deletion_contraction
    from ribbonpoly.ribbon import graph_from_json

    # one vertex: the recursion is the plain subset sum over all loops
    poly = deletion_contraction(graph_from_json(doc)).polynomial
    return {
        "command": "compute",
        "method": "quasitree",
        **_poly_fields(poly),
        "term_count": _quasi_trees_in(poly),
    }


def _reference_count(doc: dict) -> dict:
    # genus zero: the quasi-trees are exactly the spanning trees
    trees = spanning_tree_count(doc)
    return {"command": "count", "polynomial": str(trees), "by_genus": {"0": trees}, "total": trees}


def _reference_verify(doc: dict) -> dict:
    from ribbonpoly.expansions import deletion_contraction
    from ribbonpoly.ribbon import graph_from_json

    poly = deletion_contraction(graph_from_json(doc)).polynomial
    text = str(poly)
    subsets = 1 << len(doc["sigma1"])
    connected = _connected_subgraphs(poly)
    quasi = _quasi_trees_in(poly)
    methods = {
        "statesum": subsets,
        "recursive": connected,
        "tree": connected,
        "quasitree": quasi,
    }
    return {
        "command": "verify",
        "methods": {m: {"polynomial": text, "term_count": n} for m, n in methods.items()},
        "equal": True,
        "tutte_specialization_ok": True,
        "quasi_tree_summands": quasi,
        "state_sum_summands": subsets,
    }


def _reference_recursive(doc: dict) -> dict:
    from ribbonpoly.expansions import quasi_tree_sum
    from ribbonpoly.ribbon import graph_from_json

    poly = quasi_tree_sum(graph_from_json(doc)).polynomial
    return {
        "command": "compute",
        "method": "recursive",
        **_poly_fields(poly),
        "term_count": _connected_subgraphs(poly),
    }


# -- the workload table -----------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    family: Callable[..., dict]
    size: tuple[int, ...]
    smoke_size: tuple[int, ...]
    cuts: tuple[int, ...]  # upper bound of each quasi-tree-count band; the last is the cap
    reference: Callable[[dict], dict]

    def make(self, rng: random.Random, smoke: bool = False) -> dict:
        return self.family(rng, *(self.smoke_size if smoke else self.size))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="chord-quasitree",
            argv=("compute", "--method", "quasitree"),
            family=chord_diagram,
            size=(13,),
            smoke_size=(5,),
            cuts=(
                95, 132, 163, 192, 219, 243, 270, 295, 320, 344, 370, 396, 421, 448,
                480, 507, 539, 570, 601, 636, 672, 710, 750, 793, 842, 900, 967, 1038,
                1122, 1225, 1356, 1598,
            ),
            reference=_reference_chord,
        ),
        Workload(
            name="planar-count",
            argv=("count",),
            family=planar_map,
            size=(10, 10),
            smoke_size=(4, 3),
            cuts=(
                3, 6, 8, 10, 13, 16, 19, 24, 27, 31, 36, 41, 48, 52, 60, 66, 75, 84, 96,
                106, 120, 136, 155, 176, 203, 234, 275, 324, 404, 528, 740, 1410,
            ),
            reference=_reference_count,
        ),
        Workload(
            name="map-verify",
            argv=("verify",),
            family=random_map,
            size=(3, 12),
            smoke_size=(2, 5),
            cuts=(
                27, 40, 48, 58, 66, 75, 84, 93, 100, 110, 119, 128, 136, 146, 158, 168,
                180, 192, 201, 216, 230, 247, 264, 283, 304, 326, 352, 384, 420, 479,
                566, 728,
            ),
            reference=_reference_verify,
        ),
        Workload(
            name="planar-recursive",
            argv=("compute", "--method", "recursive"),
            family=planar_map,
            size=(8, 10),
            smoke_size=(4, 3),
            cuts=(
                3, 4, 6, 8, 9, 12, 13, 15, 18, 20, 24, 26, 29, 32, 36, 40, 46, 51, 56,
                64, 72, 80, 90, 100, 114, 132, 154, 180, 220, 279, 380, 684,
            ),
            reference=_reference_recursive,
        ),
    )
}


def graphs(workload: Workload, seed: int, smoke: bool = False) -> Iterator[dict]:
    """The seed's endless, deterministic sequence of input documents.

    Smoke runs take plain draws at the small size, without bands.
    """
    rng = random.Random(f"{workload.name}/{seed}")
    if smoke:
        while True:
            yield workload.make(rng, smoke)
    queues: list[deque] = [deque() for _ in workload.cuts]
    index = 0
    while True:
        band = _ORDER[index % STRATA]
        drawn = 0
        while not queues[band]:
            drawn += 1
            if drawn > _MAX_CANDIDATES:
                raise RuntimeError(f"{workload.name}: band {band} is never hit")
            doc = workload.make(rng)
            slot = bisect_left(workload.cuts, quasi_tree_count(doc))
            if slot < len(queues):
                queues[slot].append(doc)
        yield queues[band].popleft()
        index += 1


# -- output comparison ---------------------------------------------------------


def normalise(payload):
    """The payload without its ``elapsed_ms`` fields, which vary run to run."""
    if isinstance(payload, dict):
        return {k: normalise(v) for k, v in payload.items() if k != "elapsed_ms"}
    if isinstance(payload, list):
        return [normalise(v) for v in payload]
    return payload


def digest(obj) -> str:
    """Short content digest of a JSON value (key order ignored)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def reference_payload(workload: Workload, doc: dict) -> dict:
    """The expected output as parsed from the CLI's JSON, without ``elapsed_ms``."""
    return json.loads(json.dumps(workload.reference(doc)))
