"""Outside-in per-layer tracing of the program, from the benchmark's side.

A layer is a module of ``ribbonpoly``.  ``Tracer.install`` wraps each
function named in ``HOOKS`` and rebinds the wrapper under every name the
function is bound to in any ``ribbonpoly`` module or class: ``expansions``
and ``cli`` hold their own references to ``enumerate_quasi_trees``, and
``MPoly.__radd__`` is ``MPoly.__add__``.  A hook whose target no longer
exists is recorded as absent and its metrics read ``None``; the program
itself is never edited and gains no option.

Each wrapper is a span.  Its self time is its duration minus the time of
the spans it encloses; calls and self time are summed per metric prefix,
so several hooks may share one prefix (all ``Perm`` methods roll up into
``permutation.Perm``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

HOOKS = (
    ("cli.main", "ribbonpoly.cli", "main"),
    ("ribbon.graph_from_json", "ribbonpoly.ribbon", "graph_from_json"),
    ("ribbon.build_ribbon_graph", "ribbonpoly.ribbon", "build_ribbon_graph"),
    ("ribbon.RibbonGraph", "ribbonpoly.ribbon", "RibbonGraph.__init__"),
    ("ribbon.face_orbit_ids", "ribbonpoly.ribbon", "RibbonGraph.face_orbit_ids"),
    ("ribbon.face_count", "ribbonpoly.ribbon", "RibbonGraph.face_count"),
    ("ribbon.boundary_components", "ribbonpoly.ribbon", "RibbonGraph.boundary_components"),
    ("ribbon.subgraph_counts", "ribbonpoly.ribbon", "RibbonGraph.subgraph_counts"),
    ("ribbon.spanning_subgraph", "ribbonpoly.ribbon", "RibbonGraph.spanning_subgraph"),
    ("ribbon.connected_components", "ribbonpoly.ribbon", "RibbonGraph.connected_components"),
    ("ribbon.minor.delete_edge", "ribbonpoly.ribbon", "RibbonGraph.delete_edge"),
    ("ribbon.minor.contract_edge", "ribbonpoly.ribbon", "RibbonGraph.contract_edge"),
    ("quasitrees.enumerate_quasi_trees", "ribbonpoly.quasitrees", "enumerate_quasi_trees"),
    ("quasitrees.chord_diagram", "ribbonpoly.quasitrees", "chord_diagram"),
    ("quasitrees.classify_activities", "ribbonpoly.quasitrees", "classify_activities"),
    ("quasitrees.quasi_tree_weight", "ribbonpoly.quasitrees", "quasi_tree_weight"),
    ("multigraph.tutte_polynomial", "ribbonpoly.multigraph", "MultiGraph.tutte_polynomial"),
    (
        "multigraph.spanning_trees_with_activities",
        "ribbonpoly.multigraph",
        "MultiGraph.spanning_trees_with_activities",
    ),
    ("mpoly.__add__", "ribbonpoly.mpoly", "MPoly.__add__"),
    ("mpoly.__mul__", "ribbonpoly.mpoly", "MPoly.__mul__"),
    ("mpoly.__pow__", "ribbonpoly.mpoly", "MPoly.__pow__"),
    ("mpoly.substitute", "ribbonpoly.mpoly", "MPoly.substitute"),
    ("mpoly.counting_substitution", "ribbonpoly.mpoly", "counting_substitution"),
    ("expansions.compute", "ribbonpoly.expansions", "compute"),
    ("expansions.state_sum", "ribbonpoly.expansions", "state_sum"),
    ("expansions.deletion_contraction", "ribbonpoly.expansions", "deletion_contraction"),
    ("expansions.spanning_tree_expansion", "ribbonpoly.expansions", "spanning_tree_expansion"),
    ("expansions.spanning_tree_rows", "ribbonpoly.expansions", "spanning_tree_rows"),
    ("expansions.quasi_tree_sum", "ribbonpoly.expansions", "quasi_tree_sum"),
    ("expansions.verify_all", "ribbonpoly.expansions", "verify_all"),
    ("permutation.Perm", "ribbonpoly.permutation", "Perm.__init__"),
    ("permutation.Perm", "ribbonpoly.permutation", "Perm.from_cycles"),
    ("permutation.Perm", "ribbonpoly.permutation", "Perm.__mul__"),
    ("permutation.Perm", "ribbonpoly.permutation", "Perm.inverse"),
    ("permutation.Perm", "ribbonpoly.permutation", "Perm.orbits"),
)


def _tutte_argument(graph, *args, **kwargs):
    """The multigraph up to edge ids, which the Tutte polynomial ignores."""
    return graph.vertex_count, tuple(sorted((min(u, v), max(u, v)) for u, v, _ in graph.edges))


# prefixes whose distinct arguments per operation are counted
ARGUMENT_KEYS = {"multigraph.tutte_polynomial": _tutte_argument}


class Tracer:
    """Spans around the hooked functions, summed per prefix."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.absent: list[str] = []
        self._stats: dict[str, list] = {}  # prefix -> [calls, self seconds]
        self._installed: set[str] = set()
        self._stack = [0.0]  # child time of each open span; slot 0 sums the outermost spans
        keyed = {prefix for prefix, _, _ in hooks} & ARGUMENT_KEYS.keys()
        self._op_keys: dict[str, set] = {prefix: set() for prefix in keyed}
        self._distinct = dict.fromkeys(keyed, 0)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, prefix: str, func):
        stat = self._stats.setdefault(prefix, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        key = ARGUMENT_KEYS.get(prefix)
        seen = self._op_keys.get(prefix)

        @functools.wraps(func)
        def span(*args, **kwargs):
            if key is not None:
                seen.add(key(*args, **kwargs))
            start = clock()
            stack.append(0.0)
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stack[-1] += elapsed

        return span

    def install(self) -> None:
        importlib.import_module("ribbonpoly.cli")
        wrappers: dict[int, tuple[object, object]] = {}
        for prefix, module_name, path in self.hooks:
            self._stats.setdefault(prefix, [0, 0.0])
            owner_path, _, name = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                raw = vars(owner)[name]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}:{path}")
                continue
            func = getattr(raw, "__func__", raw)  # unwrap classmethod/staticmethod
            wrappers[id(func)] = (func, self._wrap(prefix, func))
            self._installed.add(prefix)
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "ribbonpoly"]
        for module in modules:
            self._rebind(module, wrappers)
            for value in list(vars(module).values()):
                if isinstance(value, type) and value.__module__ == module.__name__:
                    self._rebind(value, wrappers)

    def _rebind(self, container, wrappers) -> None:
        for name, value in list(vars(container).items()):
            func = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
            found = wrappers.get(id(func))
            if found is None or found[0] is not func:
                continue
            wrapper = found[1]
            setattr(container, name, type(value)(wrapper) if func is not value else wrapper)
            self._undo.append((container, name, value))

    def restore(self) -> None:
        """Put every original binding back."""
        for container, name, value in reversed(self._undo):
            setattr(container, name, value)
        self._undo.clear()

    def end_op(self) -> None:
        """Close one operation: fold its distinct arguments into the totals."""
        for prefix, keys in self._op_keys.items():
            self._distinct[prefix] += len(keys)
            keys.clear()

    @property
    def covered_s(self) -> float:
        """Time inside outermost spans."""
        return self._stack[0]

    def metrics(self) -> dict[str, float | int | None]:
        out: dict[str, float | int | None] = {}
        for prefix, (calls, self_s) in self._stats.items():
            present = prefix in self._installed
            out[f"{prefix}.calls"] = calls if present else None
            out[f"{prefix}.self_s"] = self_s if present else None
        for prefix, distinct in self._distinct.items():
            calls = out[f"{prefix}.calls"]
            # distinct arguments within one operation, summed, per call; 0 with no calls
            share = None if calls is None else distinct / calls if calls else 0.0
            out[f"{prefix}.distinct_share"] = share
        return out
