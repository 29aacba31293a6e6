"""Abstract multigraphs with loops and parallel edges.

These serve two roles: the underlying graph of a ribbon graph, and the
contracted graph attached to a quasi-tree (components of its internally
dead subgraph joined by the internally live edges).  The module computes
the two-variable Tutte polynomial by deletion/contraction (stored in the
X and Y slots of :class:`~ribbonpoly.mpoly.MPoly`) and all spanning trees
with Tutte's internal/external activities.  It also holds the package's
one union-find, which the ribbon-graph and quasi-tree code share; the
activities read cuts and tree paths from it as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .errors import Disconnected
from .mpoly import MPoly

Edge = tuple[int, int, int]  # endpoint, endpoint, edge id


def _union_find(
    size: int, links: Iterable[tuple[int, int]], label: Sequence[int]
) -> tuple[int, Callable[[int], int]]:
    """Partition ``0..size-1`` by joining ``label[a]`` and ``label[b]`` for each link ``(a, b)``.

    Returns the number of classes and ``find``, which maps an element to
    the representative of its class.  Linking stops as soon as a merge
    leaves a single class, because no further link can change the partition.
    """
    parent = list(range(size))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    count = size
    for a, b in links:
        ra, rb = find(label[a]), find(label[b])
        if ra != rb:
            parent[ra] = rb
            count -= 1
            if count == 1:
                break
    return count, find


@dataclass(frozen=True)
class SpanningTreeActivities:
    """A spanning tree with its Tutte-active edge sets.

    A tree edge is internally active when it is the lowest-ordered edge of
    the cut it determines; a non-tree edge is externally active when it is
    the lowest-ordered edge of the cycle it closes (a loop closes the
    one-edge cycle consisting of itself, so loops are always externally
    active).
    """

    edges: frozenset[int]
    internally_active: frozenset[int]
    externally_active: frozenset[int]

    @property
    def internal_count(self) -> int:
        return len(self.internally_active)

    @property
    def external_count(self) -> int:
        return len(self.externally_active)


@dataclass(frozen=True)
class MultiGraph:
    """An undirected multigraph on vertices ``0..vertex_count-1``.

    Each edge is ``(u, v, edge_id)``; loops have ``u == v``.  Edge ids give
    the default total order and tie activities back to the owning ribbon
    graph's edges.
    """

    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("a multigraph needs at least one vertex")
        ids = set()
        for u, v, eid in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u},{v}) endpoint out of range")
            if eid in ids:
                raise ValueError(f"duplicate edge id {eid}")
            ids.add(eid)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def component_count(self) -> int:
        links = ((u, v) for u, v, _ in self.edges)
        return _union_find(self.vertex_count, links, range(self.vertex_count))[0]

    @property
    def is_connected(self) -> bool:
        return self.component_count() == 1

    def _rank_of(self, order: Sequence[int] | None) -> dict[int, int]:
        ids = sorted(eid for _, _, eid in self.edges)
        if order is None:
            order = ids
        else:
            order = list(order)
            if any(type(eid) is not int for eid in order) or sorted(order) != ids:
                raise ValueError(f"order {order!r} is not a permutation of the edge ids")
        return {eid: pos for pos, eid in enumerate(order)}

    # -- Tutte polynomial ----------------------------------------------

    def tutte_polynomial(self) -> MPoly:
        """Tutte polynomial via deletion/contraction, in the X/Y slots.

        Runs on an explicit stack of (vertex count, edges, bridges), so the
        depth of Python's stack does not grow with the graph.  A node whose
        non-loop edges form a forest (their count is the vertex count minus
        the component count) contributes x^(bridges + forest) * y^loops.
        Any other node contracts its non-loop edge with the highest id, with
        one more bridge if one union-find finds it is a bridge, and adds its
        deletion if not.  The result does not depend on which edge is the
        pivot, so no edge order is taken.  Disconnected graphs give the
        product over their components (isolated vertices contribute the
        empty product 1).
        """
        # forest leaves tallied by their (X, Y, Z, t) exponents
        tally: dict[tuple[int, int, int, int], int] = {}
        stack = [(self.vertex_count, self.edges, 0)]
        while stack:
            vertex_count, edges, bridges = stack.pop()
            non_loops = [e for e in edges if e[0] != e[1]]
            loops = len(edges) - len(non_loops)
            vertices = range(vertex_count)
            links = ((u, v) for u, v, _ in non_loops)
            components = _union_find(vertex_count, links, vertices)[0]
            if len(non_loops) == vertex_count - components:  # the non-loop edges form a forest
                key = (bridges + len(non_loops), loops, 0, 0)
                tally[key] = tally.get(key, 0) + 1
                continue
            pivot = max(non_loops, key=lambda e: e[2])
            deleted = tuple(e for e in edges if e[2] != pivot[2])
            u0, v0 = pivot[0], pivot[1]
            merged = tuple(
                (u0 if u == v0 else u, u0 if v == v0 else v, eid) for u, v, eid in deleted
            )
            contracted = _drop_vertex(merged, v0)
            rest = ((u, v) for u, v, _ in deleted if u != v)
            if _union_find(vertex_count, rest, vertices)[0] > components:  # a bridge
                stack.append((vertex_count - 1, contracted, bridges + 1))
            else:
                stack.append((vertex_count - 1, contracted, bridges))
                stack.append((vertex_count, deleted, bridges))
        return MPoly(tally)

    # -- spanning trees and activities ------------------------------------

    def spanning_trees_with_activities(
        self, order: Sequence[int] | None = None
    ) -> list[SpanningTreeActivities]:
        """All spanning trees, each with its Tutte-active edge sets.

        The sum of x^(internal count) * y^(external count) over the result
        reproduces the Tutte polynomial.
        """
        if not self.is_connected:
            raise Disconnected("spanning trees require a connected multigraph")
        rank = self._rank_of(order)
        non_loops = [e for e in self.edges if e[0] != e[1]]
        trees = []
        vertices = range(self.vertex_count)
        for combo in combinations(non_loops, self.vertex_count - 1):
            if _union_find(self.vertex_count, ((u, v) for u, v, _ in combo), vertices)[0] == 1:
                trees.append(combo)
        out = []
        for combo in trees:
            tree_ids = frozenset(eid for _, _, eid in combo)
            out.append(
                SpanningTreeActivities(
                    tree_ids,
                    self._internally_active(combo, rank),
                    self._externally_active(combo, tree_ids, rank),
                )
            )
        return out

    def _internally_active(self, tree: Sequence[Edge], rank: dict[int, int]) -> frozenset[int]:
        """Tree edges t such that every edge ordered below t has both ends
        in one class of T - t, so t is the lowest edge of its cut."""
        vertices = range(self.vertex_count)
        active = set()
        for _, _, t in tree:
            rest = ((u, v) for u, v, eid in tree if eid != t)
            _, find = _union_find(self.vertex_count, rest, vertices)
            if all(find(u) == find(v) for u, v, eid in self.edges if rank[eid] < rank[t]):
                active.add(t)
        return frozenset(active)

    def _externally_active(
        self, tree: Sequence[Edge], tree_ids: frozenset[int], rank: dict[int, int]
    ) -> frozenset[int]:
        """Non-tree edges e whose endpoints the tree edges ordered above e
        join, so no edge of e's tree path is ordered below e (a loop's path
        is empty)."""
        vertices = range(self.vertex_count)
        active = set()
        for u, v, e in self.edges:
            if e in tree_ids:
                continue
            above = ((a, b) for a, b, t in tree if rank[t] > rank[e])
            _, find = _union_find(self.vertex_count, above, vertices)
            if find(u) == find(v):
                active.add(e)
        return frozenset(active)


def _drop_vertex(edges: tuple[Edge, ...], gone: int) -> tuple[Edge, ...]:
    """Compact vertex labels after merging ``gone`` away (labels above shift down)."""
    return tuple(
        (u - 1 if u > gone else u, v - 1 if v > gone else v, eid) for u, v, eid in edges
    )
