"""Reference computations of the three-variable ribbon-graph polynomial.

Four independent methods produce the same element of Z[X, Y, Z]:

* ``state_sum``: the defining sum of (X-1)^(k(H)-k) Y^n(H) Z^g(H) over all
  2^e spanning subgraphs;
* ``spanning_tree_expansion``: for each spanning tree of the underlying
  graph, X^(internally active) times the subgraph sum over subsets of the
  externally active edges;
* ``deletion_contraction``: delete/contract on the highest-ordered
  non-loop edge, with X for bridges and a direct subgraph sum once only
  one vertex remains, multiplicative over disjoint unions, run on an
  explicit stack;
* the quasi-tree expansion from :mod:`ribbonpoly.quasitrees`, with one
  summand per quasi-tree instead of one per subgraph.

The state sum, the inner sums of the spanning-tree expansion and the
one-vertex base case of the recursion all run one subgraph-sum kernel.
``verify_all`` runs every applicable method, insists on exact agreement,
and checks the Tutte specialization C(X, Y, 1) = T(X, 1+Y).
``duality_check`` confirms that quasi-trees of the dual are the edge
complements with complementary genus, and samples the polynomial duality
identity, on both graphs' quasi-tree sums, at exact rational points on the
surface (X-1)YZ = 1.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb
from typing import Sequence

from .errors import BijectionFailure, Disconnected, IdentityFailure, Mismatch, SizeLimit
from .mpoly import ExponentKey, MPoly, ONE, Y
from .multigraph import _union_find
from .quasitrees import QuasiTree, enumerate_quasi_trees, genus_histogram, shape_tutte_factor
from .ribbon import RibbonGraph

DEFAULT_SUBGRAPH_CAP = 24
# duality_check draws _SAMPLE_POINTS distinct (X, Y) pairs, each coordinate
# as Fraction(randint(*numerators), randint(*denominators))
_SAMPLE_POINTS = 20
_SAMPLE_NUMERATORS = (-6, 7)
_SAMPLE_DENOMINATORS = (1, 4)


class Method(str, Enum):
    STATE_SUM = "statesum"
    SPANNING_TREE = "tree"
    RECURSIVE = "recursive"
    QUASI_TREE = "quasitree"


@dataclass(frozen=True)
class BrtResult:
    """A computed polynomial plus how it was obtained.

    ``term_count`` counts summands in the method's own currency: spanning
    subgraphs for the state sum, (tree, external subset) pairs for the
    spanning-tree expansion, base-case subgraphs for the recursion, and
    quasi-trees for the quasi-tree expansion.
    """

    polynomial: MPoly
    method: Method
    term_count: int
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "polynomial": str(self.polynomial),
            "term_count": self.term_count,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
        }


def _subgraph_sum(graph: RibbonGraph, base: list[int], free: Sequence[int]) -> MPoly:
    """Sum of (X-1)^(k(H)-k) Y^n(H) Z^g(H) over H = base + S for every S within free.

    ``k`` is the component count of ``graph``.  Subgraphs are tallied by
    ``(k(H), n(H), g(H))`` first, so each power of (X-1) is expanded once
    per distinct key.
    """
    tally: dict[tuple[int, int, int], int] = {}
    for mask in range(1 << len(free)):
        subset = base + [free[i] for i in range(len(free)) if mask >> i & 1]
        counts = graph.subgraph_counts(subset)
        key = (counts.components, counts.nullity, counts.genus)
        tally[key] = tally.get(key, 0) + 1
    k_graph = graph.component_count
    terms: dict[tuple[int, int, int, int], int] = {}
    for (components, nullity, genus), multiplicity in tally.items():
        j = components - k_graph
        for a in range(j + 1):
            key = (a, nullity, genus, 0)
            terms[key] = terms.get(key, 0) + multiplicity * comb(j, a) * (-1) ** (j - a)
    return MPoly(terms)


def state_sum(graph: RibbonGraph, cap: int = DEFAULT_SUBGRAPH_CAP) -> BrtResult:
    """Sum over all spanning subgraphs.

    Works for disconnected graphs.  Raises
    :class:`~ribbonpoly.errors.SizeLimit` when more than 2^cap subgraphs
    would be expanded.
    """
    start = time.perf_counter()
    edge_count = graph.edge_count
    if edge_count > cap:
        raise SizeLimit(f"{edge_count} free edges exceed the cap of {cap}")
    polynomial = _subgraph_sum(graph, [], range(edge_count))
    return BrtResult(polynomial, Method.STATE_SUM, 1 << edge_count, time.perf_counter() - start)


@dataclass(frozen=True)
class SpanningTreeRow:
    """One spanning tree's contribution to the tree expansion.

    ``activity`` uses the same symbols as quasi-tree activities but means
    Tutte's active/inactive: L/D for tree edges, ℓ/d for the rest, in
    order position.  ``inner_weight`` is the sum of Y^n Z^g over subsets
    of the externally active edges joined to the tree.
    """

    edges: frozenset[int]
    activity: str
    internal_count: int
    external_count: int
    inner_weight: MPoly

    @property
    def x_factor(self) -> MPoly:
        return MPoly.monomial(1, x=self.internal_count)


def spanning_tree_rows(graph: RibbonGraph) -> list[SpanningTreeRow]:
    """Per-tree data of the spanning-tree expansion, in enumeration order.

    Activities are taken with respect to ``graph.edge_order``.
    """
    if not graph.is_connected:
        raise Disconnected("the spanning-tree expansion requires a connected graph")
    order = graph.edge_order
    trees = graph.underlying_multigraph().spanning_trees_with_activities(order)
    rows = []
    for tree in trees:
        inner = _subgraph_sum(graph, sorted(tree.edges), sorted(tree.externally_active))
        symbols = []
        for eid in order:
            if eid in tree.edges:
                symbols.append("L" if eid in tree.internally_active else "D")
            else:
                symbols.append("ℓ" if eid in tree.externally_active else "d")
        rows.append(
            SpanningTreeRow(
                edges=tree.edges,
                activity="".join(symbols),
                internal_count=len(tree.internally_active),
                external_count=len(tree.externally_active),
                inner_weight=inner,
            )
        )
    return rows


def spanning_tree_expansion(graph: RibbonGraph) -> BrtResult:
    """For every spanning tree T: X^i(T) times the subgraph sum over
    subsets of T's externally active edges (genus and nullity taken in the
    ribbon graph)."""
    start = time.perf_counter()
    total = MPoly.zero()
    summands = 0
    for row in spanning_tree_rows(graph):
        summands += 1 << row.external_count
        total = total + row.x_factor * row.inner_weight
    return BrtResult(total, Method.SPANNING_TREE, summands, time.perf_counter() - start)


def deletion_contraction(graph: RibbonGraph) -> BrtResult:
    """Deletion/contraction, multiplicative over connected components.

    Each component is reduced on an explicit stack of (minor, bridges
    contracted so far), so the depth of Python's stack does not grow with
    the graph.  A minor's pivot is its highest-ordered non-loop edge: a
    bridge is contracted and adds one factor X; any other pivot is both
    deleted and contracted.  A minor with a single vertex adds X^bridges
    times the direct subgraph sum over its loops.
    """
    start = time.perf_counter()
    base_summands = 0
    total = ONE
    for component in graph.connected_components():
        component_sum = MPoly.zero()
        stack = [(component, 0)]
        while stack:
            g, bridges = stack.pop()
            if g.vertex_count == 1:
                base_summands += 1 << g.edge_count
                loops = _subgraph_sum(g, [], range(g.edge_count))
                component_sum = component_sum + MPoly.monomial(1, x=bridges) * loops
                continue
            # connected with >= 2 vertices, so a non-loop edge exists
            pivot = next(ei for ei in reversed(g.edge_order) if not g.is_loop(ei))
            rest = [ei for ei in range(g.edge_count) if ei != pivot]
            links = map(g.edges.__getitem__, rest)
            if _union_find(g.vertex_count, links, g._vertex_of)[0] > 1:  # bridge
                stack.append((g.contract_edge(pivot), bridges + 1))
            else:
                stack.append((g.contract_edge(pivot), bridges))
                stack.append((g.delete_edge(pivot), bridges))
        total = total * component_sum
    return BrtResult(total, Method.RECURSIVE, base_summands, time.perf_counter() - start)


def quasi_tree_sum(graph: RibbonGraph) -> BrtResult:
    """The three-variable polynomial as the sum of one weight per quasi-tree.

    Leaves are tallied by :meth:`~ribbonpoly.QuasiTree.weight_key`, and
    the Tutte factor of each distinct contracted-graph shape is expanded
    once (see :func:`_weight_sum`).  The result does not depend on the
    edge order even though each weight does.  For one-vertex graphs every
    contracted graph is a bouquet of loops, so the Tutte factor
    degenerates to (1+YZ)^|internal live|.  ``term_count`` is the number
    of quasi-trees.  Raises :class:`~ribbonpoly.errors.SplitRoot` on a
    disconnected graph.
    """
    start = time.perf_counter()
    quasi_trees = enumerate_quasi_trees(graph)
    total = _weight_sum(quasi_trees)
    return BrtResult(total, Method.QUASI_TREE, len(quasi_trees), time.perf_counter() - start)


def _weight_sum(quasi_trees: Sequence[QuasiTree]) -> MPoly:
    """The sum of the leaves' weights, one Tutte factor per contracted-graph shape.

    The leaves are tallied by weight key, and the keys grouped by
    ``(k(D), shape)``.  Each group's P = Σ count·Y^n(D)·Z^g(D)·(1+Y)^|E|,
    with E the externally live edges, is one term dict, (1+Y)^|E| written
    out by binomial coefficients.  Its Tutte factor T(W; X, 1+YZ) is
    expanded once, by :func:`~ribbonpoly.quasitrees.shape_tutte_factor`,
    and T·P is added into one term dict, which becomes one polynomial.
    """
    tally = Counter(qt.weight_key() for qt in quasi_trees)
    groups: dict[tuple[int, tuple[tuple[int, int], ...]], dict[tuple[int, int], int]] = {}
    for (nullity, genus, external, components, shape), multiplicity in tally.items():
        rest = groups.setdefault((components, shape), {})  # (Y, Z) exponents -> coefficient
        for j in range(external + 1):
            yz = (nullity + j, genus)
            rest[yz] = rest.get(yz, 0) + multiplicity * comb(external, j)
    terms: dict[ExponentKey, int] = {}
    for (components, shape), rest in groups.items():
        for (x, y, z, _), coeff in shape_tutte_factor(components, shape).items():
            for (ry, rz), rcoeff in rest.items():
                key = (x, y + ry, z + rz, 0)
                terms[key] = terms.get(key, 0) + coeff * rcoeff
    return MPoly(terms)


def compute(
    graph: RibbonGraph, method: Method | str, cap: int = DEFAULT_SUBGRAPH_CAP
) -> BrtResult:
    method = Method(method)
    if method is Method.STATE_SUM:
        return state_sum(graph, cap)
    if method is Method.SPANNING_TREE:
        return spanning_tree_expansion(graph)
    if method is Method.RECURSIVE:
        return deletion_contraction(graph)
    return quasi_tree_sum(graph)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of running every applicable method on one graph."""

    results: dict[Method, BrtResult]

    def to_json_dict(self) -> dict:
        quasi = self.results.get(Method.QUASI_TREE)
        return {
            "methods": {m.value: r.to_json_dict() for m, r in self.results.items()},
            "equal": True,
            "tutte_specialization_ok": True,
            "quasi_tree_summands": quasi.term_count if quasi else None,
            "state_sum_summands": self.results[Method.STATE_SUM].term_count,
        }


def verify_all(graph: RibbonGraph, cap: int = DEFAULT_SUBGRAPH_CAP) -> VerifyReport:
    """Run all methods, demand exact agreement, and check the Tutte slice.

    The two expansion methods need a connected graph and are skipped
    otherwise.  Raises :class:`~ribbonpoly.errors.Mismatch` with both
    polynomials on any disagreement, including the specialization
    C(X, Y, 1) = T(X, 1+Y) against the underlying multigraph.
    """
    results: dict[Method, BrtResult] = {Method.STATE_SUM: state_sum(graph, cap)}
    results[Method.RECURSIVE] = deletion_contraction(graph)
    if graph.is_connected:
        results[Method.SPANNING_TREE] = spanning_tree_expansion(graph)
        results[Method.QUASI_TREE] = quasi_tree_sum(graph)
    reference = results[Method.STATE_SUM]
    for method, result in results.items():
        if result.polynomial != reference.polynomial:
            raise Mismatch(
                Method.STATE_SUM.value,
                str(reference.polynomial),
                method.value,
                str(result.polynomial),
            )
    sliced = reference.polynomial.substitute(z=1)
    tutte_slice = graph.underlying_multigraph().tutte_polynomial().substitute(y=ONE + Y)
    if sliced != tutte_slice:
        raise Mismatch("statesum at Z=1", str(sliced), "Tutte at (X, 1+Y)", str(tutte_slice))
    return VerifyReport(results)


@dataclass(frozen=True)
class DualityReport:
    """Outcome of the dual-graph checks (constructed only on success)."""

    dual: RibbonGraph
    genus_histogram: dict[int, int]
    dual_genus_histogram: dict[int, int]
    sample_points: tuple[tuple[Fraction, Fraction, Fraction], ...]

    def to_json_dict(self) -> dict:
        return {
            "genus_histogram": {str(g): c for g, c in self.genus_histogram.items()},
            "dual_genus_histogram": {
                str(g): c for g, c in self.dual_genus_histogram.items()
            },
            "sample_points": [[str(x), str(y), str(z)] for x, y, z in self.sample_points],
            "bijection_ok": True,
            "identity_ok": True,
        }


def duality_check(graph: RibbonGraph, seed: int = 0) -> DualityReport:
    """Validate the two duality statements for a connected graph.

    (a) complementing edge sets is a genus-reversing bijection between the
    quasi-trees of the graph and of its dual, so the genus histogram
    reverses; (b) duality exchanges the rank base (X-1) with the nullity
    variable Y: with g the graph's genus and C, C* the polynomials of the
    graph and dual, (X-1)^g C(X,Y,Z) equals Y^g C*(1+Y, X-1, Z) on the
    surface (X-1)YZ = 1, sampled at 20 exact rational points drawn from a
    generator seeded with ``seed`` (poles excluded).  (The loop/bridge dual
    pair, 1+Y vs X, shows a literal argument swap cannot hold.)  C and C*
    are the quasi-tree sums of the two enumerations the bijection check
    already holds, so no state sum runs and no size cap applies.
    """
    if not graph.is_connected:
        raise Disconnected("duality check requires a connected graph")
    total_genus = graph.genus
    originals = enumerate_quasi_trees(graph)
    dual_graph = graph.dual()
    duals = enumerate_quasi_trees(dual_graph)
    if len(originals) != len(duals):
        raise BijectionFailure(
            f"{len(originals)} quasi-trees vs {len(duals)} in the dual"
        )
    genus_by_edges = {qt.edges: qt.genus for qt in duals}
    all_edges = frozenset(range(graph.edge_count))
    for qt in originals:
        complement = all_edges - qt.edges
        partner_genus = genus_by_edges.get(complement)
        if partner_genus is None:
            raise BijectionFailure(
                f"complement of quasi-tree {qt.bitstring()} is not a dual quasi-tree"
            )
        if partner_genus != total_genus - qt.genus:
            raise BijectionFailure(
                f"quasi-tree {qt.bitstring()} of genus {qt.genus} pairs with dual "
                f"genus {partner_genus}, expected {total_genus - qt.genus}"
            )
    histogram = genus_histogram(originals)
    dual_histogram = genus_histogram(duals)

    poly = _weight_sum(originals)
    dual_poly = _weight_sum(duals)
    rng = random.Random(seed)
    points: list[tuple[Fraction, Fraction, Fraction]] = []
    seen: set[tuple[Fraction, Fraction]] = set()
    while len(points) < _SAMPLE_POINTS:
        x = Fraction(rng.randint(*_SAMPLE_NUMERATORS), rng.randint(*_SAMPLE_DENOMINATORS))
        y = Fraction(rng.randint(*_SAMPLE_NUMERATORS), rng.randint(*_SAMPLE_DENOMINATORS))
        if x == 1 or y == 0 or (x, y) in seen:
            continue
        seen.add((x, y))
        z = 1 / ((x - 1) * y)
        points.append((x, y, z))
    for x, y, z in points:
        lhs = (x - 1) ** total_genus * poly.evaluate(x=x, y=y, z=z)
        rhs = y**total_genus * dual_poly.evaluate(x=1 + y, y=x - 1, z=z)
        if lhs != rhs:
            raise IdentityFailure(
                f"duality identity fails at X={x}, Y={y}, Z={z}: {lhs} != {rhs}"
            )
    return DualityReport(
        dual=dual_graph,
        genus_histogram=histogram,
        dual_genus_histogram=dual_histogram,
        sample_points=tuple(points),
    )
