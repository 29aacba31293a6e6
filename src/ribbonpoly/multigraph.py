"""Abstract multigraphs with loops and parallel edges.

These serve two roles: the underlying graph of a ribbon graph, and the
contracted graph attached to a quasi-tree (components of its internally
dead subgraph joined by the internally live edges).  One deletion/contraction
recursion gives both the two-variable Tutte polynomial (stored in the X
and Y slots of :class:`~ribbonpoly.mpoly.MPoly`) and all spanning trees
with Tutte's internal/external activities: its leaves are the spanning
trees, and the activities are read from how each edge was resolved on
the way to a leaf.  The module also holds the package's one union-find,
which the recursion, the ribbon-graph and the quasi-tree code share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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
        if type(self.vertex_count) is not int or self.vertex_count < 1:
            raise ValueError(f"vertex count {self.vertex_count!r} is not a positive int")
        ids = set()
        for u, v, eid in self.edges:
            if type(u) is not int or type(v) is not int or type(eid) is not int:
                raise ValueError(f"edge ({u!r},{v!r},{eid!r}) is not three ints")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u},{v}) endpoint out of range")
            if eid in ids:
                raise ValueError(f"duplicate edge id {eid}")
            ids.add(eid)

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

    # -- Tutte's recursion ---------------------------------------------

    def _tutte_leaves(
        self, rank: Callable[[Edge], int]
    ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], list[int], list[int]]]:
        """Tutte's deletion/contraction recursion, one ``(active, inactive,
        forest, loops)`` of edge ids per leaf.

        Runs on an explicit stack, so the depth of Python's stack does not
        grow with the graph.  A node resolves the non-loop edge of highest
        ``rank``: a bridge is contracted and is internally active; any other
        edge is both deleted (externally inactive) and contracted
        (internally inactive).  Deleting or contracting other edges keeps
        loops loops and bridges bridges, so a node whose non-loop edges form
        a forest is a leaf: its forest edges are internally active and its
        loops externally active.  ``active`` and ``inactive`` are the edges
        contracted on the way to the leaf.  On a connected graph each leaf
        is one spanning tree with its activities (Tutte, 1954).

        Contraction keeps every vertex label: the one merged away stays as
        an isolated vertex, one more vertex and one more component, which
        changes neither the forest test nor the bridge test.
        """
        vertex_count = self.vertex_count
        vertices = range(vertex_count)
        stack = [(self.edges, (), ())]
        while stack:
            edges, active, inactive = stack.pop()
            non_loops = [e for e in edges if e[0] != e[1]]
            links = ((u, v) for u, v, _ in non_loops)
            components = _union_find(vertex_count, links, vertices)[0]
            if len(non_loops) == vertex_count - components:  # the non-loop edges form a forest
                loops = [eid for u, v, eid in edges if u == v]
                yield active, inactive, [eid for _, _, eid in non_loops], loops
                continue
            pivot = max(non_loops, key=rank)
            deleted = tuple(e for e in edges if e[2] != pivot[2])
            u0, v0 = pivot[0], pivot[1]
            contracted = tuple(
                (u0 if u == v0 else u, u0 if v == v0 else v, eid) for u, v, eid in deleted
            )
            rest = ((u, v) for u, v, _ in deleted if u != v)
            if _union_find(vertex_count, rest, vertices)[0] > components:  # a bridge
                stack.append((contracted, (*active, pivot[2]), inactive))
            else:
                stack.append((contracted, active, (*inactive, pivot[2])))
                stack.append((deleted, active, inactive))

    def tutte_polynomial(self) -> MPoly:
        """Tutte polynomial by Tutte's recursion, in the X/Y slots.

        Pivots on the highest edge id.  Each leaf contributes
        x^(contracted bridges + forest edges) * y^loops.  The result does
        not depend on which edge is the pivot, so no edge order is taken.
        Disconnected graphs give the product over their components
        (isolated vertices contribute the empty product 1).
        """
        # forest leaves tallied by their (X, Y, Z, t) exponents
        tally: dict[tuple[int, int, int, int], int] = {}
        for active, _, forest, loops in self._tutte_leaves(lambda e: e[2]):
            key = (len(active) + len(forest), len(loops), 0, 0)
            tally[key] = tally.get(key, 0) + 1
        return MPoly(tally)

    def spanning_trees_with_activities(
        self, order: Sequence[int] | None = None
    ) -> list[SpanningTreeActivities]:
        """All spanning trees, each with its Tutte-active edge sets under
        ``order`` (default: by edge id), one per leaf of Tutte's recursion.

        The sum of x^(internal count) * y^(external count) over the result
        reproduces the Tutte polynomial.
        """
        if not self.is_connected:
            raise Disconnected("spanning trees require a connected multigraph")
        rank = self._rank_of(order)
        return [
            SpanningTreeActivities(
                frozenset((*active, *inactive, *forest)),
                frozenset((*active, *forest)),
                frozenset(loops),
            )
            for active, inactive, forest, loops in self._tutte_leaves(lambda e: rank[e[2]])
        ]
