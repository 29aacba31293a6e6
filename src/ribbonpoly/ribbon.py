"""Oriented ribbon graphs as permutation triples.

A ribbon graph on ``2n`` half-edges is a triple of permutations
``(sigma0, sigma1, sigma2)`` of ``{1, ..., 2n}``: the orbits of ``sigma0``
are the vertices (counterclockwise order of half-edges at each vertex),
the orbits of the fixed-point-free involution ``sigma1`` are the edges,
and the orbits of ``sigma2`` are the faces.  The triple satisfies
``sigma0(sigma1(sigma2(i))) == i`` for every half-edge ``i``, so
``sigma2 = (sigma0 * sigma1)^-1``.

This data is equivalent to a cellular embedding of a multigraph in a
closed oriented surface; with ``v``, ``e``, ``f``, ``k`` the numbers of
vertices, edges, faces and connected components, the genus satisfies
``2g = 2k - v + e - f`` and the nullity is ``n = e - v + k``.  A graph and
each of its spanning subgraphs, which keep all its vertices, report these
numbers in one record, :class:`GraphCounts`.

The empty triple (``2n == 0``) represents the single-vertex graph with no
edges.  Other isolated vertices cannot be encoded by permutations.

A :class:`RibbonGraph` stores only the successor arrays of ``sigma0`` and
``sigma1``; :meth:`RibbonGraph._derive` builds every other table, the
vertices and faces coming from one walk, :meth:`RibbonGraph._boundary_walk`.
The orbits of ``sigma0`` and ``sigma1`` are the public :attr:`~RibbonGraph.vertices`
and :attr:`~RibbonGraph.edges` tuples, and those of ``sigma2`` are the
:meth:`~RibbonGraph.boundary_components` of the whole edge set; no
permutation object is built.  Input is checked once, where it enters:
:func:`build_ribbon_graph` (and :func:`graph_from_json`, which calls it)
checks cycle and pair data and hands the arrays it fills to ``_derive``.
An edge order is checked once: by :func:`build_ribbon_graph` and
:meth:`RibbonGraph.with_edge_order` as edge indices, and by
:func:`graph_from_json` and the command line's ``--order`` as the 1-based
numbers written, through :func:`edge_order_from_numbers`.  Calling the class
itself raises TypeError; minors, components and duals are valid by
construction.

All objects here are immutable after construction and every operation is
a pure function, so shared graphs are safe to use concurrently.
"""

from __future__ import annotations

from itertools import chain, groupby
from typing import Iterable, NamedTuple, Sequence

from .errors import Disconnected, LoopContraction, NotInvolution, NotPartition
from .multigraph import MultiGraph, _union_find


class GraphCounts(NamedTuple):
    """The invariants ``(v, e, f, k, g, n)`` of a graph or spanning subgraph."""

    vertices: int
    edges: int
    faces: int
    components: int
    genus: int
    nullity: int


def _genus_from(components: int, vertices: int, edges: int, faces: int) -> int:
    twice = 2 * components - vertices + edges - faces
    if twice < 0 or twice % 2:
        raise AssertionError(
            f"invalid Euler data: 2g = {twice} from (k={components}, v={vertices}, "
            f"e={edges}, f={faces})"
        )
    return twice // 2


class RibbonGraph:
    """Immutable oriented ribbon graph.

    Edges are the pairs ``{i, sigma1(i)}``, identified by their index in
    :attr:`edges`, which lists the pairs ``(min, max)`` sorted by their
    smaller half-edge.  :attr:`edge_order` is a tuple of edge indices from
    lowest-ordered to highest; the default order is by smaller half-edge.
    Every order-dependent computation (bitstrings, activities, the
    resolution tree) reads this order; :meth:`with_edge_order` gives the
    same graph under another one.

    Only the ``sigma0`` and ``sigma1`` successor arrays and the order are
    stored.  Graphs are built by :func:`build_ribbon_graph`, which validates
    its input, and derived from other graphs without being validated again.
    """

    __slots__ = (
        "half_edge_count",
        "vertices",
        "edges",
        "edge_order",
        "_vertex_of",
        "_edge_of",
        "_succ0",
        "_partner",
        "_succ2inv",
        "_component_count",
    )

    def __init__(self, *args, **kwargs):
        """Refuses: graphs come from :func:`build_ribbon_graph`, which checks its input."""
        raise TypeError("build a RibbonGraph with build_ribbon_graph or graph_from_json")

    def _derive(self, succ0: list[int], partner: list[int], order: tuple | None) -> RibbonGraph:
        """Store the successor arrays (slot 0 unused; never mutated, so graphs
        may share them) and derive every other table, checking nothing.  The
        walk over no edges follows ``sigma0``: its orbits are the vertices."""
        n2 = len(succ0) - 1
        self.half_edge_count = n2
        self._succ0 = succ0
        self._partner = partner
        self.edges = tuple((i, partner[i]) for i in range(1, n2 + 1) if i < partner[i])
        self.edge_order = tuple(range(len(self.edges))) if order is None else order
        edge_of = self._edge_of = [0] * (n2 + 1)
        for ei, (a, b) in enumerate(self.edges):
            edge_of[a] = edge_of[b] = ei
        self._succ2inv = [0] + [succ0[partner[i]] for i in range(1, n2 + 1)]
        walk: list[int] = []
        vertex_count, vertex_of = self._boundary_walk((), walk)
        # tuples from lists: tuple() of an iterator is resized from ten slots,
        # and the resized tuples fill the interpreter's per-size free lists
        self.vertices = tuple([tuple(list(c)) for _, c in groupby(walk, vertex_of.__getitem__)])
        self._vertex_of = vertex_of
        self._component_count = _union_find(vertex_count or 1, self.edges, vertex_of)[0]
        return self

    # -- basic counts ------------------------------------------------

    @property
    def is_trivial(self) -> bool:
        """True for the single-vertex graph with no edges (``2n == 0``)."""
        return self.half_edge_count == 0

    @property
    def vertex_count(self) -> int:
        return 1 if self.is_trivial else len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def component_count(self) -> int:
        return self._component_count

    @property
    def is_connected(self) -> bool:
        return self._component_count == 1

    def counts(self) -> GraphCounts:
        """The tuple ``(v, e, f, k, g, n)`` of standard invariants."""
        return self.subgraph_counts(range(len(self.edges)))

    @property
    def genus(self) -> int:
        return self.counts().genus

    def _edge(self, edge_id: int) -> tuple[int, int]:
        if type(edge_id) is not int or not 0 <= edge_id < len(self.edges):
            raise ValueError(f"edge index {edge_id} out of range for {len(self.edges)} edges")
        return self.edges[edge_id]

    def is_loop(self, edge_id: int) -> bool:
        a, b = self._edge(edge_id)
        return self._vertex_of[a] == self._vertex_of[b]

    # -- spanning subgraphs --------------------------------------------

    def _membership(self, edges: Iterable[int]) -> list[bool]:
        """Per-edge membership flags; raises ValueError on an index outside the edges."""
        count = len(self.edges)
        member = [False] * count
        for ei in edges:
            if type(ei) is not int or not 0 <= ei < count:
                raise ValueError(f"edge index {ei} out of range for {count} edges")
            member[ei] = True
        return member

    def _boundary_walk(
        self, edges: Iterable[int], order: list[int] | None = None
    ) -> tuple[int, list[int]]:
        """The one walk over the boundary of the spanning subgraph ``edges``.

        Follows ``sigma0`` across absent edges and ``sigma2^-1`` along
        present ones, starting each orbit at its smallest unvisited
        half-edge.  Returns the orbit count and the orbit index of every
        half-edge (slot 0 unused); appends the half-edges to ``order`` in
        walk order when it is given.
        """
        member = self._membership(edges)
        succ0, succ2i, edge_of = self._succ0, self._succ2inv, self._edge_of
        ids = [-1] * (self.half_edge_count + 1)
        count = 0
        for start in range(1, self.half_edge_count + 1):
            if ids[start] >= 0:
                continue
            i = start
            while ids[i] < 0:
                ids[i] = count
                if order is not None:
                    order.append(i)
                i = succ2i[i] if member[edge_of[i]] else succ0[i]
            count += 1
        return count, ids

    def face_count(self, edges: Iterable[int]) -> int:
        """Number of boundary components of the spanning subgraph ``edges``."""
        # the trivial graph has no half-edges to walk but one face
        return self._boundary_walk(edges)[0] or 1

    def boundary_components(self, edges: Iterable[int]) -> list[tuple[int, ...]]:
        """Boundary walks of the spanning subgraph, one cycle per face.

        Each cycle is rotated to start at its smallest half-edge; cycles are
        sorted by that label.  Every half-edge appears in exactly one cycle.
        """
        order: list[int] = []
        _, ids = self._boundary_walk(edges, order)
        return [tuple(cycle) for _, cycle in groupby(order, ids.__getitem__)]

    def face_orbit_ids(self, edges: Iterable[int]) -> tuple[int, list[int]]:
        """(face count, per-half-edge boundary-orbit index) for a subgraph.

        Two half-edges share an index exactly when they lie on the same
        boundary component of the spanning subgraph.  Slot 0 is unused.
        """
        return self._boundary_walk(edges)

    def subgraph_counts(self, edges: Iterable[int]) -> GraphCounts:
        """``(v, e, f, k, g, n)`` of the spanning subgraph with the given edges,
        which keeps every vertex of the graph; a repeated index counts once."""
        edges = list(edges)
        f = self.face_count(edges)  # checks every index, so set() below cannot fail
        v = self.vertex_count
        k = _union_find(v, map(self.edges.__getitem__, edges), self._vertex_of)[0]
        e_h = len(set(edges))
        return GraphCounts(v, e_h, f, k, _genus_from(k, v, e_h, f), e_h - v + k)

    def spanning_subgraph(self, edges: Iterable[int]) -> GraphCounts:
        """:meth:`subgraph_counts`; kept for perfbench's trace hook."""
        return self.subgraph_counts(edges)

    # -- edge-order helpers --------------------------------------------

    def bitstring(self, edges: Iterable[int]) -> str:
        """Membership string of an edge subset, one character per order position."""
        member = self._membership(edges)
        return "".join("1" if member[ei] else "0" for ei in self.edge_order)

    def with_edge_order(self, order: Sequence[int]) -> RibbonGraph:
        return self._reordered(_checked_edge_order(order, len(self.edges)))

    def _reordered(self, order: tuple[int, ...]) -> RibbonGraph:
        """The same graph under ``order``, a tuple of edge indices already
        checked; it shares every other table, since none depends on the order."""
        graph = object.__new__(RibbonGraph)
        for name in self.__slots__:
            setattr(graph, name, getattr(self, name))
        graph.edge_order = order
        return graph

    # -- derived graphs --------------------------------------------------

    def _splice(self, kept: list[int], succ: list[int]) -> RibbonGraph:
        """The graph on the half-edges ``kept`` (ascending), each followed by
        the next kept one along ``succ``.  Relabelling is in order, so the
        surviving edges keep their relative ids and the edge order."""
        label = [0] * (self.half_edge_count + 1)
        for new, h in enumerate(kept, start=1):
            label[h] = new
        succ0 = [0]
        for h in kept:
            nxt = succ[h]
            while not label[nxt]:
                nxt = succ[nxt]
            succ0.append(label[nxt])
        survivors = [ei for ei, (a, _) in enumerate(self.edges) if label[a]]
        new_id = {old: new for new, old in enumerate(survivors)}
        return object.__new__(RibbonGraph)._derive(
            succ0,
            [0, *(label[self._partner[h]] for h in kept)],
            tuple([new_id[ei] for ei in self.edge_order if ei in new_id]),  # see _derive
        )

    def delete_edge(self, edge_id: int) -> RibbonGraph:
        """Remove an edge, splicing its half-edges out of the ``sigma0`` array.

        Vertices left without half-edges disappear (they are not encodable);
        deleting the only loop of the one-vertex graph yields the trivial graph.
        """
        a, b = self._edge(edge_id)
        kept = [h for h in range(1, self.half_edge_count + 1) if h != a and h != b]
        return self._splice(kept, self._succ0)

    def contract_edge(self, edge_id: int) -> RibbonGraph:
        """Merge the endpoints of a non-loop edge ``(a, b)`` into one vertex.

        Swapping the ``sigma0`` successors of ``a`` and ``b``, then splicing
        both out, gives the merged rotation: the first vertex from
        ``sigma0(a)`` around to ``sigma0^-1(a)``, then the second from
        ``sigma0(b)`` around to ``sigma0^-1(b)``.  Preserves genus and
        component count; decrements vertex and edge counts by one.
        """
        a, b = self._edge(edge_id)
        if self._vertex_of[a] == self._vertex_of[b]:
            raise LoopContraction(f"edge {edge_id} ({a},{b}) is a loop")
        succ = self._succ0.copy()
        succ[a], succ[b] = succ[b], succ[a]
        kept = [h for h in range(1, self.half_edge_count + 1) if h != a and h != b]
        return self._splice(kept, succ)

    def dual(self) -> RibbonGraph:
        """The dual ribbon graph: vertices and faces exchanged, same edges.

        Uses ``sigma0* = sigma2`` and ``sigma1* = sigma1``; then
        ``sigma2* = sigma1 * sigma0 * sigma1`` is conjugate to ``sigma0``, so
        the vertex/face counts swap while edges, components and genus persist.
        """
        if not self.is_connected:
            raise Disconnected("dual requires a connected graph")
        succ2 = [0] * (self.half_edge_count + 1)
        for h, before in enumerate(self._succ2inv):
            succ2[before] = h
        return object.__new__(RibbonGraph)._derive(succ2, self._partner, self.edge_order)

    def connected_components(self) -> list[RibbonGraph]:
        """Standalone relabeled components, each with the inherited edge order.

        Half-edges are grouped by the union-find class of their vertex, and
        each group is spliced out on its own; components come in the order
        of their smallest half-edge.
        """
        if self.is_connected:
            return [self]
        _, find = _union_find(len(self.vertices), self.edges, self._vertex_of)
        groups: dict[int, list[int]] = {}
        for h in range(1, self.half_edge_count + 1):
            groups.setdefault(find(self._vertex_of[h]), []).append(h)
        return [self._splice(kept, self._succ0) for kept in groups.values()]

    def underlying_multigraph(self) -> MultiGraph:
        """The abstract multigraph: vertex indices joined by the edge pairs."""
        return MultiGraph(
            self.vertex_count,
            tuple(
                (self._vertex_of[a], self._vertex_of[b], ei)
                for ei, (a, b) in enumerate(self.edges)
            ),
        )

    # -- misc -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RibbonGraph)
            and self._succ0 == other._succ0
            and self._partner == other._partner
            and self.edge_order == other.edge_order
        )

    def __hash__(self) -> int:
        return hash((tuple(self._succ0), tuple(self._partner), self.edge_order))

    def __repr__(self) -> str:
        sigma0, sigma1 = _cycle_string(self.vertices), _cycle_string(self.edges)
        return f"RibbonGraph(sigma0={sigma0}, sigma1={sigma1})"


def _cycle_string(orbits: Iterable[tuple[int, ...]]) -> str:
    """Cycle notation of a permutation given by its orbits, fixed points left out."""
    return "".join("(" + ",".join(map(str, o)) + ")" for o in orbits if len(o) > 1) or "()"


def _checked_edge_order(order: Sequence[int], edge_count: int) -> tuple[int, ...]:
    order = tuple(order)
    if any(type(i) is not int for i in order) or sorted(order) != list(range(edge_count)):
        raise ValueError(f"edge_order {order!r} is not a permutation of the edge indices")
    return order


def build_ribbon_graph(
    sigma0_cycles: Iterable[Iterable[int]],
    sigma1_pairs: Iterable[Iterable[int]],
    edge_order: Sequence[int] | None = None,
) -> RibbonGraph:
    """Validate cycle/pair data and build a :class:`RibbonGraph`.

    ``sigma0_cycles`` must partition ``{1, ..., 2n}`` into plain ints exactly
    (vertices of degree one appear as singleton cycles); ``sigma1_pairs``
    must be a perfect matching of the same labels.  The empty inputs build the
    trivial one-vertex graph.  Disconnectedness is allowed and exposed as
    :attr:`RibbonGraph.is_connected`, not an error, so that polynomial
    multiplicativity over disjoint unions can apply.
    """
    pairs = [tuple(p) for p in sigma1_pairs]
    cycles = [list(c) for c in sigma0_cycles if list(c)]
    for label in chain(*pairs, *cycles):
        if type(label) is not int:
            raise ValueError(f"half-edge label {label!r} is not an integer")
    partner: dict[int, int] = {}
    for p in pairs:
        if len(p) != 2 or p[0] == p[1]:
            raise NotInvolution(f"pair {p!r} does not join two distinct half-edges")
        for label, other in (p, p[::-1]):
            if label in partner:
                raise NotInvolution(f"half-edge {label} appears in two pairs")
            partner[label] = other
    n2 = 2 * len(pairs)
    labels = set(range(1, n2 + 1))
    if partner.keys() != labels:
        raise NotInvolution(f"pairs must match exactly the labels 1..{n2}, got {sorted(partner)}")

    succ0: dict[int, int] = {}
    for cycle in cycles:
        for pos, label in enumerate(cycle):
            if label in succ0:
                raise NotPartition(f"half-edge {label} appears in two vertex cycles")
            succ0[label] = cycle[(pos + 1) % len(cycle)]
    if succ0.keys() != labels:
        missing = sorted(labels - succ0.keys())
        extra = sorted(succ0.keys() - labels)
        raise NotPartition(
            f"vertex cycles must partition 1..{n2}; missing {missing}, foreign {extra}"
        )

    order = None if edge_order is None else _checked_edge_order(edge_order, len(pairs))
    halves = range(1, n2 + 1)
    return object.__new__(RibbonGraph)._derive(
        [0, *map(succ0.get, halves)], [0, *map(partner.get, halves)], order
    )


def graph_from_json(data: dict) -> RibbonGraph:
    """Build a graph from a parsed document of the on-disk graph format.

    The document carries ``sigma0`` (list of cycles), ``sigma1`` (list of
    two-element lists) and optionally ``edge_order``, a list of 1-based edge
    numbers from lowest-ordered to highest.  Half-edge labels are 1-based.
    Every label and edge number must be a plain integer (JSON ``true`` and
    ``false`` are not); a document of any other shape raises ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError("graph document must be a JSON object")
    try:
        sigma0 = data["sigma0"]
        sigma1 = data["sigma1"]
    except KeyError as exc:
        raise ValueError(f"graph document is missing field {exc}") from None
    for name, cycles in (("sigma0", sigma0), ("sigma1", sigma1)):
        if not isinstance(cycles, list) or not all(isinstance(cycle, list) for cycle in cycles):
            raise ValueError(f"{name} must be a list of lists")
    order = data.get("edge_order")
    if order is not None:
        if not isinstance(order, list):
            raise ValueError("edge_order must be a list")
        order = edge_order_from_numbers(order, len(sigma1))
    graph = build_ribbon_graph(sigma0, sigma1)
    # the order was checked once, as the numbers written
    return graph if order is None else graph._reordered(order)


def edge_order_from_numbers(numbers: Sequence[int], edge_count: int) -> tuple[int, ...]:
    """Edge indices from 1-based edge numbers, lowest-ordered first.

    Raises ValueError, naming the numbers as given, unless they are plain
    ints and a permutation of ``1..edge_count``.
    """
    expected = list(range(1, edge_count + 1))
    if any(type(i) is not int for i in numbers) or sorted(numbers) != expected:
        raise ValueError(f"edge_order {list(numbers)} is not a permutation of 1..{edge_count}")
    return tuple([i - 1 for i in numbers])


def graph_to_json_dict(graph: RibbonGraph) -> dict:
    out: dict = {
        "sigma0": [list(c) for c in graph.vertices],
        "sigma1": [list(p) for p in graph.edges],
    }
    if graph.edge_order != tuple(range(len(graph.edges))):
        out["edge_order"] = [ei + 1 for ei in graph.edge_order]
    return out
