"""Reference computations that only the tests use.

Each one computes something the library also computes, by a slower or
independent route, so that tests can compare the two:

* :func:`restrict` rebuilds a spanning subgraph as a standalone ribbon
  graph, an oracle for the boundary walk behind ``face_count``;
* :func:`completions`, :func:`contains` and :func:`resolution_string`
  spell out the interval of a partial resolution, a leaf's ``states``;
* :func:`quasi_trees_by_brute_force` scans every spanning subgraph for one
  face and one component, an oracle for the resolution-tree enumeration;
* :func:`completion_by_gamma` completes a leaf by re-testing each
  unresolved edge, an oracle for the edge values the enumeration fixes
  when it skips a nugatory edge;
* :func:`dead_subgraph` and :func:`contracted_graph` build a leaf's dead
  subgraph and contracted multigraph, and :func:`weight_by_subgraphs`
  takes a leaf's weight from them, an oracle for
  :func:`~ribbonpoly.quasi_tree_weight`;
* :func:`spanning_trees_by_combinations` tests every set of v - 1
  non-loop edges for a spanning tree and reads each tree's activities
  from its cuts and tree paths, an oracle for the Tutte recursion of
  :meth:`~ribbonpoly.MultiGraph.spanning_trees_with_activities`;
* :func:`tutte_by_subgraph_sum` is the defining sum of the Tutte
  polynomial, an oracle for deletion/contraction;
* :func:`interval_state_sum` is the state sum restricted to the interval
  of a partial resolution;
* :func:`delete_edge`, :func:`contract_edge` and
  :func:`connected_components` build minors from vertex cycles through
  ``build_ribbon_graph``, an oracle for the array splicing of
  :class:`~ribbonpoly.RibbonGraph`; :func:`disjoint_union` builds the
  disjoint union of two graphs the same way;
* :func:`sigma0`, :func:`sigma1` and :func:`sigma2` build the permutation
  triple as :class:`~ribbonpoly.permutation.Perm` objects from the public
  ``vertices`` and ``edges`` tuples alone; the faces are the cycles of
  ``sigma2^-1 = sigma0 * sigma1``, an oracle for the boundary walk that
  shares no code with it;
* :func:`dual_by_permutations` builds the dual from the orbits of
  ``sigma2`` and ``sigma1`` through ``build_ribbon_graph``, an oracle for
  the array inversion of :meth:`~ribbonpoly.RibbonGraph.dual`.

A few plain functions of the program's objects stand in for members the
program itself never calls: :func:`identity`, :func:`orbit_of` and
:func:`orbit_count` of a :class:`~ribbonpoly.permutation.Perm`,
:func:`unresolved`, :func:`included` and :func:`interval_size` of a
partial resolution, :func:`is_live` of an activity, and
:func:`live_internal` and :func:`live_external` of a quasi-tree.  A half-edge's vertex and edge are
read from the graph's public ``vertices`` and ``edges`` tuples.  Two
readers the program has no input for live here too: :func:`parse_poly`
reads the canonical text of an :class:`~ribbonpoly.MPoly` and
:func:`subset_from_bitstring` reads an edge subset from its bitstring.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

from ribbonpoly import (
    Activity,
    Disconnected,
    MPoly,
    MultiGraph,
    ONE,
    GraphCounts,
    QuasiTree,
    RibbonGraph,
    SpanningTreeActivities,
    X,
    Y,
    Z,
    build_ribbon_graph,
)
from ribbonpoly.expansions import _subgraph_sum
from ribbonpoly.mpoly import _VAR_INDEX, ExponentKey
from ribbonpoly.multigraph import Edge, _union_find
from ribbonpoly.permutation import Perm

# -- plain functions of the program's objects -----------------------------------


def identity(size: int) -> Perm:
    return Perm(tuple(range(1, size + 1)))


def orbit_of(p: Perm, i: int) -> tuple[int, ...]:
    """The cycle of ``p`` through ``i``, starting at ``i``."""
    cycle = [i]
    j = p(i)
    while j != i:
        cycle.append(j)
        j = p(j)
    return tuple(cycle)


def orbit_count(p: Perm) -> int:
    return len(p.orbits())


def sigma0(graph: RibbonGraph) -> Perm:
    """The vertex rotations, read from the graph's ``vertices``."""
    return Perm.from_cycles(graph.vertices, graph.half_edge_count)


def sigma1(graph: RibbonGraph) -> Perm:
    """The edge involution, read from the graph's ``edges``."""
    return Perm.from_cycles(graph.edges, graph.half_edge_count)


def sigma2(graph: RibbonGraph) -> Perm:
    """The face permutation ``(sigma0 * sigma1)^-1``."""
    return (sigma0(graph) * sigma1(graph)).inverse()


def unresolved(states: Sequence[int | None]) -> tuple[int, ...]:
    return tuple(e for e, s in enumerate(states) if s is None)


def included(states: Sequence[int | None]) -> frozenset[int]:
    return frozenset(e for e, s in enumerate(states) if s == 1)


def interval_size(states: Sequence[int | None]) -> int:
    """The number of full resolutions in the interval."""
    return 1 << len(unresolved(states))


def is_live(activity: Activity) -> bool:
    return activity in (Activity.INTERNALLY_LIVE, Activity.EXTERNALLY_LIVE)


def live_internal(q: QuasiTree) -> frozenset[int]:
    """The leaf's unresolved edges inside its quasi-tree."""
    return q.edges.intersection(unresolved(q.states))


def live_external(q: QuasiTree) -> frozenset[int]:
    """The leaf's unresolved edges outside its quasi-tree."""
    return frozenset(unresolved(q.states)).difference(q.edges)


def _vertex_of(graph: RibbonGraph) -> dict[int, int]:
    """The index of every half-edge's vertex, read from the vertex cycles."""
    return {h: vi for vi, cycle in enumerate(graph.vertices) for h in cycle}


def _edge_of(graph: RibbonGraph) -> dict[int, int]:
    """The index of every half-edge's edge, read from the edge pairs."""
    return {h: ei for ei, pair in enumerate(graph.edges) for h in pair}


def parse_poly(text: str) -> MPoly:
    """Parse the canonical syntax (any term order, tolerant of spacing)."""
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty polynomial text")
    if stripped == "0":
        return MPoly.zero()
    terms: dict[ExponentKey, int] = {}
    # terms alternate with operators, and a leading minus signs the first
    pieces = re.split(r"([+-])", stripped)
    signs, chunks = ["+", *pieces[1::2]], pieces[0::2]
    if stripped.startswith("-"):
        del signs[0], chunks[0]
    for sign, chunk in zip(signs, chunks):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty term in {text!r}")
        coeff = -1 if sign == "-" else 1
        exps = [0, 0, 0, 0]
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in term {chunk!r}")
            if factor[0].isdigit():
                coeff *= int(factor)
            else:
                name, caret, raw_exp = factor.partition("^")
                if name not in _VAR_INDEX:
                    raise ValueError(f"unknown variable {name!r} in {text!r}")
                if caret and not raw_exp.isdigit():
                    raise ValueError(f"exponent of {name} in {text!r} is not a digit string")
                exps[_VAR_INDEX[name]] += int(raw_exp) if caret else 1
        key = tuple(exps)
        new = terms.get(key, 0) + coeff
        if new:
            terms[key] = new
        else:
            terms.pop(key, None)
    return MPoly(terms)


def subset_from_bitstring(graph: RibbonGraph, bits: str) -> frozenset[int]:
    if len(bits) != len(graph.edges):
        raise ValueError(f"bitstring {bits!r} has wrong length for {len(graph.edges)} edges")
    if not set(bits) <= {"0", "1"}:
        raise ValueError(f"bitstring {bits!r} has a character other than 0 and 1")
    return frozenset(ei for ei, bit in zip(graph.edge_order, bits) if bit == "1")


# -- standalone restriction of a spanning subgraph ------------------------------


@dataclass(frozen=True)
class RestrictedSubgraph:
    """Standalone restriction of a spanning subgraph.

    ``graph`` is None when no edges were kept; ``isolated_vertices`` counts
    parent vertices whose half-edges were all removed (plus the trivial
    vertex itself, which has none).  Each isolated vertex contributes one
    face, one component and genus zero.
    """

    graph: RibbonGraph | None
    isolated_vertices: int
    relabeling: dict[int, int] = field(repr=False)

    @property
    def face_count(self) -> int:
        inner = self.graph.counts().faces if self.graph is not None else 0
        return inner + self.isolated_vertices

    @property
    def component_count(self) -> int:
        inner = self.graph.counts().components if self.graph is not None else 0
        return inner + self.isolated_vertices

    @property
    def genus(self) -> int:
        return self.graph.counts().genus if self.graph is not None else 0


def restrict(graph: RibbonGraph, edges: Iterable[int]) -> RestrictedSubgraph:
    """The spanning subgraph as a standalone ribbon graph plus isolated vertices.

    Half-edges of absent edges are spliced out of every vertex rotation;
    vertices left with no half-edges are returned as a count.  The face
    count of the restriction (faces of the standalone graph plus one per
    isolated vertex) is computed independently of the boundary walk.
    """
    chosen = frozenset(edges)
    edge_of = _edge_of(graph)
    kept = [h for h in range(1, graph.half_edge_count + 1) if edge_of[h] in chosen]
    relabel = {h: i for i, h in enumerate(kept, start=1)}
    cycles = []
    isolated = 1 if graph.is_trivial else 0
    for cycle in graph.vertices:
        sub = [relabel[h] for h in cycle if h in relabel]
        if sub:
            cycles.append(sub)
        else:
            isolated += 1
    pairs = [(relabel[a], relabel[b]) for a, b in graph.edges if a in relabel]
    if not kept:
        return RestrictedSubgraph(None, isolated, {})
    return RestrictedSubgraph(build_ribbon_graph(cycles, pairs), isolated, relabel)


# -- the interval of a partial resolution ---------------------------------------


def contains(states: Sequence[int | None], edge_set: Iterable[int]) -> bool:
    chosen = frozenset(edge_set)
    return all(s is None or (s == 1) == (e in chosen) for e, s in enumerate(states))


def completions(states: Sequence[int | None]) -> Iterator[frozenset[int]]:
    """All edge subsets in the interval of a partial resolution."""
    free = unresolved(states)
    base = included(states)
    for size in range(len(free) + 1):
        for extra in combinations(free, size):
            yield base | frozenset(extra)


def resolution_string(states: Sequence[int | None], order: Sequence[int]) -> str:
    """States in order position, with ``*`` for unresolved edges."""
    symbols = {0: "0", 1: "1", None: "*"}
    return "".join(symbols[states[eid]] for eid in order)


# -- quasi-trees ------------------------------------------------------------------


def quasi_trees_by_brute_force(graph: RibbonGraph) -> set[frozenset[int]]:
    """Edge sets of the spanning subgraphs with one face and one component."""
    found = set()
    for size in range(graph.edge_count + 1):
        for subset in combinations(range(graph.edge_count), size):
            counts = graph.subgraph_counts(subset)
            if counts.faces == 1 and counts.components == 1:
                found.add(frozenset(subset))
    return found


def _gamma_connected(graph: RibbonGraph, included: Iterable[int], stars: Iterable[int]) -> bool:
    """Whether the faces of ``included``, linked by the two faces each edge of
    ``stars`` touches, form one connected graph (searched, not union-found)."""
    face_of = {h: fi for fi, cycle in enumerate(graph.boundary_components(included)) for h in cycle}
    neighbours: dict[int, set[int]] = {fi: set() for fi in face_of.values()}
    for eid in stars:
        a, b = (face_of[h] for h in graph.edges[eid])
        neighbours[a].add(b)
        neighbours[b].add(a)
    seen, frontier = {0}, [0]
    while frontier:
        for nxt in neighbours[frontier.pop()] - seen:
            seen.add(nxt)
            frontier.append(nxt)
    return len(seen) == len(neighbours)


def completion_by_gamma(graph: RibbonGraph, states: Sequence[int | None]) -> frozenset[int]:
    """The quasi-tree of a leaf by the completion rule: include an unresolved
    edge iff setting it to 1, the other unresolved edges left free, keeps
    the linked boundary connected."""
    base = included(states)
    free = unresolved(states)
    return base | frozenset(
        eid
        for eid in free
        if _gamma_connected(graph, base | {eid}, (e for e in free if e != eid))
    )


def dead_subgraph(q: QuasiTree) -> tuple[frozenset[int], GraphCounts]:
    """The edge set of a leaf's internally dead edges and its counts as a
    spanning subgraph."""
    dead = included(q.states)
    return dead, q.parent.subgraph_counts(dead)


def contracted_graph(q: QuasiTree) -> MultiGraph:
    """Vertices are the components of the dead subgraph, found by a search
    over its edges; edges are the internally live ones, by edge id."""
    graph = q.parent
    vertex_of = _vertex_of(graph)
    neighbours: dict[int, set[int]] = {vi: set() for vi in range(graph.vertex_count)}
    for eid in included(q.states):
        a, b = (vertex_of[h] for h in graph.edges[eid])
        neighbours[a].add(b)
        neighbours[b].add(a)
    component: dict[int, int] = {}
    count = 0
    for start in range(graph.vertex_count):
        if start in component:
            continue
        component[start] = count
        frontier = [start]
        while frontier:
            for nxt in neighbours[frontier.pop()]:
                if nxt not in component:
                    component[nxt] = count
                    frontier.append(nxt)
        count += 1
    live = sorted(live_internal(q))
    edges = tuple(
        (*(component[vertex_of[h]] for h in graph.edges[eid]), eid) for eid in live
    )
    return MultiGraph(count, edges)


def weight_by_subgraphs(q: QuasiTree) -> tuple[int, int, int, MPoly, MPoly]:
    """``(n(D), g(D), |external live|, T(X, 1+YZ), expanded weight)`` of a
    leaf, from its dead subgraph and its contracted multigraph."""
    _, dead = dead_subgraph(q)
    external_live = len(live_external(q))
    tutte = contracted_graph(q).tutte_polynomial().substitute(y=ONE + Y * Z)
    expanded = (
        MPoly.monomial(1, y=dead.nullity, z=dead.genus) * (ONE + Y) ** external_live * tutte
    )
    return dead.nullity, dead.genus, external_live, tutte, expanded


# -- spanning trees ---------------------------------------------------------------


def spanning_trees_by_combinations(
    graph: MultiGraph, order: Sequence[int] | None = None
) -> list[SpanningTreeActivities]:
    """Every spanning tree with its activities: each set of v - 1 non-loop
    edges is tested with a union-find, then each tree edge's cut and each
    non-tree edge's tree path is read with one union-find of its own."""
    if not graph.is_connected:
        raise Disconnected("spanning trees require a connected multigraph")
    rank = graph._rank_of(order)
    non_loops = [e for e in graph.edges if e[0] != e[1]]
    trees = []
    vertices = range(graph.vertex_count)
    for combo in combinations(non_loops, graph.vertex_count - 1):
        if _union_find(graph.vertex_count, ((u, v) for u, v, _ in combo), vertices)[0] == 1:
            trees.append(combo)
    out = []
    for combo in trees:
        tree_ids = frozenset(eid for _, _, eid in combo)
        out.append(
            SpanningTreeActivities(
                tree_ids,
                _internally_active(graph, combo, rank),
                _externally_active(graph, combo, tree_ids, rank),
            )
        )
    return out


def _internally_active(
    graph: MultiGraph, tree: Sequence[Edge], rank: dict[int, int]
) -> frozenset[int]:
    """Tree edges t such that every edge ordered below t has both ends
    in one class of T - t, so t is the lowest edge of its cut."""
    vertices = range(graph.vertex_count)
    active = set()
    for _, _, t in tree:
        rest = ((u, v) for u, v, eid in tree if eid != t)
        _, find = _union_find(graph.vertex_count, rest, vertices)
        if all(find(u) == find(v) for u, v, eid in graph.edges if rank[eid] < rank[t]):
            active.add(t)
    return frozenset(active)


def _externally_active(
    graph: MultiGraph, tree: Sequence[Edge], tree_ids: frozenset[int], rank: dict[int, int]
) -> frozenset[int]:
    """Non-tree edges e whose endpoints the tree edges ordered above e
    join, so no edge of e's tree path is ordered below e (a loop's path
    is empty)."""
    vertices = range(graph.vertex_count)
    active = set()
    for u, v, e in graph.edges:
        if e in tree_ids:
            continue
        above = ((a, b) for a, b, t in tree if rank[t] > rank[e])
        _, find = _union_find(graph.vertex_count, above, vertices)
        if find(u) == find(v):
            active.add(e)
    return frozenset(active)


# -- subgraph sums ----------------------------------------------------------------


def tutte_by_subgraph_sum(graph: MultiGraph) -> MPoly:
    """The defining sum of the Tutte polynomial over all spanning subgraphs."""
    k_g = graph.component_count()
    x_minus_1 = X - 1
    y_minus_1 = Y - 1
    total = MPoly.zero()
    for size in range(len(graph.edges) + 1):
        for subset in combinations(graph.edges, size):
            k_w = MultiGraph(graph.vertex_count, subset).component_count()
            nullity = k_w - graph.vertex_count + len(subset)
            total = total + x_minus_1 ** (k_w - k_g) * y_minus_1**nullity
    return total


def interval_state_sum(
    graph: RibbonGraph, interval: Mapping[int, int] | tuple[int | None, ...]
) -> tuple[MPoly, int]:
    """(state sum, subgraph count) over the subgraphs inside ``interval``.

    ``interval`` fixes some edges to 0 (absent) or 1 (present), either as a
    mapping from edge index or as a leaf's ``states``; the other edges are
    free.
    """
    if isinstance(interval, tuple):
        fixed = {e: s for e, s in enumerate(interval) if s is not None}
    else:
        fixed = dict(interval)
    for eid, value in fixed.items():
        if not 0 <= eid < graph.edge_count or value not in (0, 1):
            raise ValueError(f"bad interval entry {eid}: {value}")
    free = [ei for ei in range(graph.edge_count) if ei not in fixed]
    base = [ei for ei, value in fixed.items() if value == 1]
    return _subgraph_sum(graph, base, free), 1 << len(free)


# -- minors built from vertex cycles ----------------------------------------------


def _rebuild(graph: RibbonGraph, cycles: list[list[int]], removed: set[int]) -> RibbonGraph:
    """Relabel surviving half-edges to 1..2m and inherit the edge order."""
    survivors = [h for h in range(1, graph.half_edge_count + 1) if h not in removed]
    relabel = {h: i for i, h in enumerate(survivors, start=1)}
    new_cycles = [[relabel[h] for h in c] for c in cycles if c]
    pairs = [(relabel[a], relabel[b]) for a, b in graph.edges if a in relabel]
    surviving_edges = [ei for ei, (a, b) in enumerate(graph.edges) if a in relabel]
    # relabelling is monotone, so surviving edges keep their relative ids
    new_id = {old: new for new, old in enumerate(surviving_edges)}
    new_order = [new_id[ei] for ei in graph.edge_order if ei in new_id]
    return build_ribbon_graph(new_cycles, pairs, edge_order=new_order)


def delete_edge(graph: RibbonGraph, edge_id: int) -> RibbonGraph:
    """The edge's half-edges removed from the vertex cycles."""
    a, b = graph.edges[edge_id]
    removed = {a, b}
    cycles = [[h for h in cycle if h not in removed] for cycle in graph.vertices]
    return _rebuild(graph, cycles, removed)


def contract_edge(graph: RibbonGraph, edge_id: int) -> RibbonGraph:
    """The cycles of the non-loop edge's endpoints, each opened at the edge, joined."""
    a, b = graph.edges[edge_id]
    vertex_of = _vertex_of(graph)
    va, vb = vertex_of[a], vertex_of[b]
    if va == vb:
        raise ValueError(f"edge {edge_id} is a loop")

    def opened(cycle: tuple[int, ...], at: int) -> list[int]:
        pos = cycle.index(at)
        return [cycle[(pos + j) % len(cycle)] for j in range(1, len(cycle))]

    merged = opened(graph.vertices[va], a) + opened(graph.vertices[vb], b)
    cycles = [list(cycle) for vi, cycle in enumerate(graph.vertices) if vi not in (va, vb)]
    cycles.append(merged)
    return _rebuild(graph, cycles, {a, b})


def connected_components(graph: RibbonGraph) -> list[RibbonGraph]:
    """Components found by a search over shared vertices, each rebuilt from its cycles."""
    if graph.is_trivial:
        return [graph]
    vertex_of = _vertex_of(graph)
    neighbours: dict[int, set[int]] = {vi: set() for vi in range(len(graph.vertices))}
    for a, b in graph.edges:
        va, vb = vertex_of[a], vertex_of[b]
        neighbours[va].add(vb)
        neighbours[vb].add(va)
    seen: set[int] = set()
    groups = []
    for start in range(len(graph.vertices)):
        if start in seen:
            continue
        group, frontier = {start}, [start]
        while frontier:
            for nxt in neighbours[frontier.pop()] - group:
                group.add(nxt)
                frontier.append(nxt)
        seen |= group
        groups.append(group)
    out = []
    for vis in sorted(groups, key=lambda g: min(graph.vertices[vi][0] for vi in g)):
        keep = {h for vi in vis for h in graph.vertices[vi]}
        removed = set(range(1, graph.half_edge_count + 1)) - keep
        out.append(_rebuild(graph, [list(graph.vertices[vi]) for vi in sorted(vis)], removed))
    return out


def disjoint_union(a: RibbonGraph, b: RibbonGraph) -> RibbonGraph:
    """The union rebuilt from both graphs' cycles, ``b``'s labels shifted above ``a``'s."""
    shift = a.half_edge_count
    cycles = [list(c) for c in a.vertices] + [[h + shift for h in c] for c in b.vertices]
    pairs = [list(p) for p in a.edges] + [[x + shift, y + shift] for x, y in b.edges]
    order = list(a.edge_order) + [ei + len(a.edges) for ei in b.edge_order]
    return build_ribbon_graph(cycles, pairs, edge_order=order)


def dual_by_permutations(graph: RibbonGraph) -> RibbonGraph:
    """The dual built from the orbits of ``sigma2`` and ``sigma1``, inheriting
    the edge order."""
    return build_ribbon_graph(
        sigma2(graph).orbits(), sigma1(graph).orbits(), edge_order=graph.edge_order
    )
