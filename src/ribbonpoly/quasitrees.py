"""Quasi-trees: enumeration, chord diagrams, activities and the weight expansion.

A quasi-tree of a connected ribbon graph is a connected spanning subgraph
with exactly one face; for genus zero these are precisely the spanning
trees.  The single boundary walk of a quasi-tree visits every half-edge
once, so it defines an ordered chord diagram: the walk is the circle, the
edge pairs are the chords.  Given a total edge order, a chord is *live*
when it crosses no lower-ordered chord and *dead* otherwise; combined
with membership this classifies every edge as internally/externally
live/dead (symbols L, D, ℓ, d).

Enumeration never scans all 2^e subsets.  It grows a binary resolution
tree over per-edge states {0, 1, *}: starting from all-unresolved, edges
are examined from the highest order downward.  Resolving an edge both
ways splits the search; an edge is *nugatory* - left unresolved - exactly
when one of its two resolutions can no longer complete to a one-face
subgraph.  That test, Γ, is a union-find: take the boundary components of
the included edges as nodes and link the two components touched by each
other unresolved edge; the resolution is viable iff this graph is
connected.  Every node's interval holds a quasi-tree, so this face graph,
with the node's own edge among the links, is connected, and only one
resolution can fail; the faces of the included edges say which, and each
node runs only that test.  If the edge joins two faces, including it
merges them, which contracts a link of a connected graph, so the
1-resolution passes and only the 0-resolution is tested: a union-find
over the faces in hand asks whether the edge's link is a bridge.  If both
its half-edges lie on one face, its link is a loop, so the 0-resolution
passes and only the 1-resolution, which splits that face, is tested, with
a walk of its faces.  Skipping an edge leaves the included edges as they
are, so a node walks their faces once and reads them for every edge it
skips.  When an edge is skipped, the resolution that failed stays
impossible below, so the edge takes the other value in the unique
quasi-tree of every leaf under it; the leaf's unresolved edges are
exactly that quasi-tree's live edges, so a leaf reads its activities from
its resolution, its ``states``.  The tests check them against
:func:`classify_activities`, the chord-crossing definition.

Each quasi-tree contributes the weight

    Y^nullity(D) * Z^genus(D) * (1+Y)^|external live| * T(X, 1+YZ)

where D is the spanning subgraph of internally dead edges and T is the
Tutte polynomial of the contracted graph whose vertices are the
components of D and whose edges are the internally live edges.  A leaf
enters its weight only through its key ``(n(D), g(D), |external live|,
k(D), shape)``; the shape, the component-index pairs of the internally
live edges, is the contracted graph up to edge ids, which T ignores.
:func:`ribbonpoly.expansions.quasi_tree_sum` tallies the leaves by key,
then groups the keys by ``(k(D), shape)``: each group's Tutte factor,
from :func:`shape_tutte_factor`, is expanded once and multiplies the
group's sum of ``count * Y^n(D) * Z^g(D) * (1+Y)^|external live|``.  The
sum equals the three-variable polynomial computed by the state sum over
all spanning subgraphs, with far fewer summands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .errors import NotQuasiTree, SplitRoot
from .mpoly import MPoly, ONE, Y, Z
from .multigraph import MultiGraph, _union_find
from .ribbon import RibbonGraph, _checked_edge_order, _genus_from


class Activity(Enum):
    """Per-edge classification with respect to a quasi-tree."""

    INTERNALLY_LIVE = "L"
    INTERNALLY_DEAD = "D"
    EXTERNALLY_LIVE = "ℓ"
    EXTERNALLY_DEAD = "d"


class ChordDiagram:
    """The marked boundary circle of a quasi-tree with edge pairs as chords."""

    __slots__ = ("cycle", "chords", "_position")

    def __init__(self, cycle: Sequence[int], chords: Sequence[tuple[int, int]]):
        self.cycle = tuple(cycle)
        self.chords = tuple(chords)
        self._position = {h: pos for pos, h in enumerate(self.cycle)}
        if len(self._position) != len(self.cycle):
            raise ValueError("boundary walk repeats a half-edge")

    def chord_span(self, edge_id: int) -> tuple[int, int]:
        a, b = self.chords[edge_id]
        p, q = self._position[a], self._position[b]
        return (p, q) if p < q else (q, p)

    def chords_intersect(self, edge_a: int, edge_b: int) -> bool:
        """True when the endpoints of the two chords alternate around the circle."""
        a1, a2 = self.chord_span(edge_a)
        b1, b2 = self.chord_span(edge_b)
        return (a1 < b1 < a2) != (a1 < b2 < a2)

    def __repr__(self) -> str:
        return f"ChordDiagram(({','.join(map(str, self.cycle))}))"


def chord_diagram(graph: RibbonGraph, edges: Iterable[int]) -> ChordDiagram:
    """The ordered chord diagram of a quasi-tree's single boundary walk.

    The walk starts at half-edge 1.  Raises
    :class:`~ribbonpoly.errors.NotQuasiTree` when the subgraph has more
    than one boundary component.
    """
    if graph.is_trivial:
        return ChordDiagram((), ())
    cycles = graph.boundary_components(edges)
    if len(cycles) != 1:
        raise NotQuasiTree(
            f"subgraph has {len(cycles)} boundary components, expected one"
        )
    return ChordDiagram(cycles[0], graph.edges)


def classify_activities(
    diagram: ChordDiagram, internal: Iterable[int], order: Sequence[int]
) -> tuple[Activity, ...]:
    """Live/dead status of every edge, combined with internal/external membership.

    An edge is live iff its chord crosses no chord of strictly lower order.
    Indexed by edge id, not by order position.  Raises ValueError unless
    ``order`` is a permutation of the edge ids.
    """
    internal_set = frozenset(internal)
    n = len(diagram.chords)
    rank = {eid: pos for pos, eid in enumerate(_checked_edge_order(order, n))}
    out: list[Activity] = []
    for eid in range(n):
        live = not any(
            diagram.chords_intersect(eid, other)
            for other in range(n)
            if rank[other] < rank[eid]
        )
        if eid in internal_set:
            out.append(Activity.INTERNALLY_LIVE if live else Activity.INTERNALLY_DEAD)
        else:
            out.append(Activity.EXTERNALLY_LIVE if live else Activity.EXTERNALLY_DEAD)
    return tuple(out)


def activity_string(activities: Sequence[Activity], order: Sequence[int]) -> str:
    """Symbols in order position (lowest-ordered edge first).

    Raises ValueError unless ``order`` is a permutation of the edge ids.
    """
    order = _checked_edge_order(order, len(activities))
    return "".join(activities[eid].value for eid in order)


WeightKey = tuple[int, int, int, int, tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class QuasiTree:
    """A leaf of the resolution tree: a quasi-tree with its resolution.

    Its resolution ``states`` holds 0, 1 or ``None`` (the unresolved ``*``)
    per edge id, and stands for the subsets that agree with it where resolved.
    The leaf has one face and so one component, which gives its genus by
    Euler's formula.  Its activities are read from its states; the tests
    check them against :func:`classify_activities`.  The chord diagram, a
    function of the parent and the edges, is built on each access, and the
    weight reads only :meth:`weight_key`.
    """

    parent: RibbonGraph = field(repr=False)
    edges: frozenset[int]
    genus: int
    states: tuple[int | None, ...]

    @property
    def diagram(self) -> ChordDiagram:
        """The chord diagram of the leaf's boundary walk, built on each access."""
        return chord_diagram(self.parent, self.edges)

    @property
    def activities(self) -> tuple[Activity, ...]:
        """Per edge id: state 1 is D, state 0 is d, and an unresolved edge is L or ℓ."""
        dead = (Activity.EXTERNALLY_DEAD, Activity.INTERNALLY_DEAD)
        live = (Activity.EXTERNALLY_LIVE, Activity.INTERNALLY_LIVE)
        states = enumerate(self.states)
        return tuple(dead[s] if s is not None else live[e in self.edges] for e, s in states)

    def weight_key(self) -> WeightKey:
        """``(n(D), g(D), |external live|, k(D), shape)`` for the dead subgraph D.

        One pass over the states sorts the edges into dead, internally live
        and externally live.  A union-find over D, which reads no edge on
        one vertex, numbers its components in order of first appearance.
        The shape is the sorted tuple of ``(min, max)`` component indices of
        the internally live edges: the contracted graph W up to edge ids.
        Joining those edges to D gives the leaf and adds
        n(W) = |internal live| - k(D) + 1 to the genus, so g(D) needs no face walk.
        """
        graph, edges, vertex_of = self.parent, self.parent.edges, self.parent._vertex_of
        dead: list[tuple[int, int]] = []
        internal: list[tuple[int, int]] = []
        external = 0
        for e, s in enumerate(self.states):
            if s is None:
                if e in self.edges:
                    internal.append(edges[e])
                else:
                    external += 1
            elif s:
                dead.append(edges[e])
        v = graph.vertex_count
        components, find = _union_find(v, dead, vertex_of)
        index: dict[int, int] = {}
        component = [index.setdefault(find(vi), len(index)) for vi in range(v)]
        shape = []
        for a, b in internal:
            u, w = component[vertex_of[a]], component[vertex_of[b]]
            shape.append((u, w) if u <= w else (w, u))
        shape.sort()
        nullity = len(dead) - v + components
        genus = self.genus - (len(internal) - components + 1)
        return nullity, genus, external, components, tuple(shape)

    def bitstring(self) -> str:
        return self.parent.bitstring(self.edges)

    def activity_string(self) -> str:
        return activity_string(self.activities, self.parent.edge_order)


def _build_quasi_tree(
    graph: RibbonGraph,
    edge_set: frozenset[int],
    states: Sequence[int | None],
) -> QuasiTree:
    # the leaf must have one face, and so one component, since every
    # component has a face
    faces = graph.face_count(edge_set)
    if faces != 1:
        raise NotQuasiTree(f"subgraph has {faces} boundary components, expected one")
    genus = _genus_from(1, graph.vertex_count, len(edge_set), 1)
    return QuasiTree(graph, edge_set, genus, tuple(states))


def enumerate_quasi_trees(graph: RibbonGraph) -> list[QuasiTree]:
    """All quasi-trees, one per leaf of the binary resolution tree.

    Edges are resolved from the highest in ``graph.edge_order`` down;
    nugatory edges are skipped once and never revisited.  A node walks the
    faces of its included edges once, and each edge it examines runs the
    one Γ test that can fail, by where its half-edges lie on those faces.
    On two faces, the 1-resolution merges them and passes, so only the
    0-resolution is tested, by a union-find over the faces in hand; when it
    fails the edge is *forced*, and every quasi-tree below it includes it,
    because intervals only shrink as the search descends.  On one face, the
    edge's link of the face graph is a loop, so the 0-resolution passes and
    only the 1-resolution is tested, with a walk; when it fails the edge is
    nugatory and stays out.  The tests keep the two-test rule, which tests
    the 0-resolution and, only if that passes, the 1-resolution, as the
    oracle.  A leaf's quasi-tree is its included edges plus its forced
    edges.  Leaves are emitted left (0-branch) to right, deterministically.
    Raises :class:`~ribbonpoly.errors.SplitRoot` on a disconnected graph.
    """
    if not graph.is_connected:
        raise SplitRoot("quasi-tree enumeration requires a connected graph")
    order = graph.edge_order
    edges = graph.edges
    out: list[QuasiTree] = []
    stack: list[tuple[tuple[int | None, ...], tuple[int, ...], int]] = [
        ((None,) * len(edges), (), len(edges) - 1)
    ]
    while stack:
        frozen_states, forced, pos = stack.pop()
        states = list(frozen_states)
        # skipping an edge leaves it unresolved, so the included edges and
        # their faces stay the same until the node branches
        included = [e for e, s in enumerate(states) if s == 1]
        count, ids = graph.face_orbit_ids(included)
        while pos >= 0:
            eid = order[pos]
            a, b = edges[eid]
            stars = [edges[e] for e, s in enumerate(states) if s is None and e != eid]
            if ids[a] != ids[b]:
                # the 1-resolution merges two faces, so only the 0-resolution
                # can fail, and a failed one forces the edge in
                branches = _union_find(count, stars, ids)[0] == 1
                if not branches:
                    forced += (eid,)
            else:
                # the star is a loop of the face graph, so only the
                # 1-resolution can fail, and a failed one leaves it nugatory;
                # it splits the face, so its faces need a walk
                split_count, split_ids = graph.face_orbit_ids(included + [eid])
                branches = _union_find(split_count, stars, split_ids)[0] == 1
            if branches:
                states[eid] = 1
                stack.append((tuple(states), forced, pos - 1))
                states[eid] = 0
                stack.append((tuple(states), forced, pos - 1))
                break
            # skipped: the edge stays unresolved
            pos -= 1
        else:
            out.append(_build_quasi_tree(graph, frozenset(included).union(forced), states))
    return out


def genus_histogram(quasi_trees: Iterable[QuasiTree]) -> dict[int, int]:
    """Number of quasi-trees of each genus."""
    hist: dict[int, int] = {}
    for qt in quasi_trees:
        hist[qt.genus] = hist.get(qt.genus, 0) + 1
    return dict(sorted(hist.items()))


@dataclass(frozen=True)
class QuasiTreeWeight:
    """The summand of the leaves sharing one weight key, in factored pieces and expanded."""

    nullity_dead: int
    genus_dead: int
    external_live_count: int
    tutte_factor: MPoly  # Tutte polynomial of the contracted graph at (X, 1+YZ)
    expanded: MPoly  # the product, times the number of leaves

    def factored_string(self) -> str:
        parts = []
        if self.nullity_dead:
            parts.append("Y" if self.nullity_dead == 1 else f"Y^{self.nullity_dead}")
        if self.genus_dead:
            parts.append("Z" if self.genus_dead == 1 else f"Z^{self.genus_dead}")
        if self.external_live_count:
            base = "(1+Y)"
            parts.append(
                base if self.external_live_count == 1 else f"{base}^{self.external_live_count}"
            )
        if self.tutte_factor != ONE:
            parts.append(f"({self.tutte_factor})")
        return "*".join(parts) if parts else "1"


def shape_tutte_factor(components: int, shape: Sequence[tuple[int, int]]) -> MPoly:
    """T(W; X, 1+YZ) for the contracted graph W of ``components`` vertices
    whose edges join the component-index pairs of ``shape``."""
    contracted = MultiGraph(components, tuple((u, v, i) for i, (u, v) in enumerate(shape)))
    return contracted.tutte_polynomial().substitute(y=ONE + Y * Z)


def key_weight(key: WeightKey, multiplicity: int = 1) -> QuasiTreeWeight:
    """The weight of ``multiplicity`` leaves with the weight key ``key``."""
    nullity, genus, external_live_count, components, shape = key
    tutte = shape_tutte_factor(components, shape)
    expanded = (
        MPoly.monomial(multiplicity, y=nullity, z=genus)
        * (ONE + Y) ** external_live_count
        * tutte
    )
    return QuasiTreeWeight(nullity, genus, external_live_count, tutte, expanded)


def quasi_tree_weight(qt: QuasiTree) -> QuasiTreeWeight:
    """One quasi-tree's weight: its key's weight with multiplicity 1."""
    return key_weight(qt.weight_key())
