"""Command-line front end.

Reads a graph document (``sigma0`` cycles, ``sigma1`` pairs, optional
1-based ``edge_order``) and runs the library's computations::

    ribbonpoly compute GRAPH.json --method quasitree
    ribbonpoly compute GRAPH.json --method all
    ribbonpoly quasitrees GRAPH.json --format json
    ribbonpoly count GRAPH.json
    ribbonpoly verify GRAPH.json
    ribbonpoly dual GRAPH.json --seed 1
    ribbonpoly spanning-trees GRAPH.json

Text and JSON output carry the same data.  Exit codes: 0 success, 1 bad
input (unreadable file, invalid permutation data, violated precondition),
2 verification mismatch, 3 state-sum size cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .errors import (
    BijectionFailure,
    IdentityFailure,
    Mismatch,
    RibbonPolyError,
    SizeLimit,
)
from .expansions import (
    DEFAULT_SUBGRAPH_CAP,
    Method,
    compute,
    duality_check,
    spanning_tree_rows,
    verify_all,
)
from .mpoly import MPoly
from .quasitrees import enumerate_quasi_trees, genus_histogram, key_weight
from .ribbon import (
    RibbonGraph,
    _cycle_string,
    edge_order_from_numbers,
    graph_from_json,
    graph_to_json_dict,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ribbonpoly",
        description="Ribbon-graph polynomial computations from permutation data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="path to the graph JSON document")
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            dest="output_format",
        )
        p.add_argument(
            "--order",
            default=None,
            help="comma-separated 1-based edge indices, lowest-ordered first",
        )
        p.add_argument("--cap", type=int, default=DEFAULT_SUBGRAPH_CAP)
        p.add_argument("--seed", type=int, default=0)

    p_compute = sub.add_parser("compute", help="evaluate the polynomial by one method")
    add_common(p_compute)
    p_compute.add_argument(
        "--method",
        choices=("statesum", "tree", "recursive", "quasitree", "all"),
        default="quasitree",
    )
    for name, help_text in (
        ("quasitrees", "list quasi-trees with diagrams, activities and weights"),
        ("count", "genus-graded quasi-tree count"),
        ("verify", "run all methods and cross-check them"),
        ("dual", "dual graph, histogram reversal and duality identity"),
        ("spanning-trees", "spanning trees with Tutte activities and weights"),
    ):
        add_common(sub.add_parser(name, help=help_text))
    return parser


def _parse_config(argv: Sequence[str] | None) -> argparse.Namespace:
    """The parsed arguments, with a given ``--order`` as a list of 1-based edge numbers."""
    cfg = _build_parser().parse_args(argv)
    if cfg.order is not None:
        try:
            cfg.order = [int(part) for part in cfg.order.split(",")] if cfg.order else []
        except ValueError as exc:
            print(f"error: bad --order value: {exc}", file=sys.stderr)
            raise SystemExit(1)
    if cfg.cap < 1:
        print("error: --cap must be at least 1", file=sys.stderr)
        raise SystemExit(1)
    return cfg


def _load_graph(cfg: argparse.Namespace) -> RibbonGraph:
    with open(cfg.input, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    graph = graph_from_json(document)
    if cfg.order is not None:
        graph = graph.with_edge_order(edge_order_from_numbers(cfg.order, graph.edge_count))
    return graph


def _emit(cfg: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if cfg.output_format == "json":
        print(json.dumps(payload, indent=2, ensure_ascii=False))
    else:
        for line in text_lines:
            print(line)


def _table_lines(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> list[str]:
    """The header and rows as left-aligned columns two spaces apart, right-trimmed."""
    table = [header, *rows]
    widths = [max(len(row[col]) for row in table) for col in range(len(header))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]


def _run_verify(cfg: argparse.Namespace, graph: RibbonGraph) -> int:
    report = verify_all(graph, cap=cfg.cap)
    payload = {"command": "verify", **report.to_json_dict()}
    lines = ["method      summands  ms        polynomial"]
    for method, result in report.results.items():
        lines.append(
            f"{method.value:<10}  {result.term_count:<8}  {result.elapsed * 1000:<8.2f}  "
            f"{result.polynomial}"
        )
    lines.append("all methods agree: yes")
    lines.append("C(X,Y,1) equals Tutte(X,1+Y): yes")
    quasi = report.results.get(Method.QUASI_TREE)
    if quasi is not None:
        subgraphs = report.results[Method.STATE_SUM].term_count
        lines.append(
            f"quasi-tree summands {quasi.term_count} <= state-sum summands {subgraphs}: "
            f"{'yes' if quasi.term_count <= subgraphs else 'no'}"
        )
    _emit(cfg, payload, lines)
    return 0


def _run_compute(cfg: argparse.Namespace, graph: RibbonGraph) -> int:
    if cfg.method == "all":
        return _run_verify(cfg, graph)
    result = compute(graph, Method(cfg.method), cap=cfg.cap)
    payload = {
        "command": "compute",
        "method": cfg.method,
        "polynomial": str(result.polynomial),
        "terms": result.polynomial.to_json_terms(),
        "term_count": result.term_count,
        "elapsed_ms": round(result.elapsed * 1000.0, 3),
    }
    _emit(cfg, payload, [str(result.polynomial)])
    return 0


def _run_quasitrees(cfg: argparse.Namespace, graph: RibbonGraph) -> int:
    quasi_trees = sorted(enumerate_quasi_trees(graph), key=lambda q: q.bitstring())
    weight_of = functools.cache(key_weight)  # each distinct weight key expanded once
    rows = []
    for qt in quasi_trees:
        weight = weight_of(qt.weight_key())
        rows.append(
            {
                "quasi_tree": qt.bitstring(),
                "boundary": list(qt.diagram.cycle),
                "activity": qt.activity_string(),
                "genus": qt.genus,
                "dead_nullity": weight.nullity_dead,
                "dead_genus": weight.genus_dead,
                "external_live": weight.external_live_count,
                "weight": str(weight.expanded),
                "weight_factored": weight.factored_string(),
            }
        )
    payload = {"command": "quasitrees", "count": len(rows), "rows": rows}
    header = ("Q", "boundary", "activity", "g", "n(D)", "g(D)", "|E|", "weight", "factored")
    table = [
        (
            r["quasi_tree"],
            "(" + ",".join(map(str, r["boundary"])) + ")",
            r["activity"],
            str(r["genus"]),
            str(r["dead_nullity"]),
            str(r["dead_genus"]),
            str(r["external_live"]),
            r["weight"],
            r["weight_factored"],
        )
        for r in rows
    ]
    _emit(cfg, payload, [f"{len(rows)} quasi-trees", *_table_lines(header, table)])
    return 0


def _run_count(cfg: argparse.Namespace, graph: RibbonGraph) -> int:
    by_genus = genus_histogram(enumerate_quasi_trees(graph))
    series = MPoly({(0, 0, 0, g): c for g, c in by_genus.items()})
    total = sum(by_genus.values())
    payload = {
        "command": "count",
        "polynomial": series.to_string(ascending=True),
        "by_genus": {str(g): c for g, c in by_genus.items()},
        "total": total,
    }
    _emit(cfg, payload, [series.to_string(ascending=True), f"total {total}"])
    return 0


def _run_dual(cfg: argparse.Namespace, graph: RibbonGraph) -> int:
    report = duality_check(graph, seed=cfg.seed)
    dual = report.dual
    payload = {"command": "dual", "dual": graph_to_json_dict(dual), **report.to_json_dict()}
    lines = [
        f"dual sigma0: {_cycle_string(dual.vertices)}",
        f"dual sigma1: {_cycle_string(dual.edges)}",
        f"genus histogram:      {report.genus_histogram}",
        f"dual genus histogram: {report.dual_genus_histogram}",
        "quasi-tree complement bijection: ok",
        f"duality identity at {len(report.sample_points)} rational points: ok",
    ]
    _emit(cfg, payload, lines)
    return 0


def _run_spanning_trees(cfg: argparse.Namespace, graph: RibbonGraph) -> int:
    rows_data = sorted(
        spanning_tree_rows(graph), key=lambda r: graph.bitstring(r.edges)
    )
    rows = [
        {
            "tree": graph.bitstring(row.edges),
            "activity": row.activity,
            "inner_weight": str(row.inner_weight),
            "x_factor": str(row.x_factor),
        }
        for row in rows_data
    ]
    payload = {"command": "spanning-trees", "count": len(rows), "rows": rows}
    header = ("T", "activity", "inner weight", "X^i")
    table = [(r["tree"], r["activity"], r["inner_weight"], r["x_factor"]) for r in rows]
    _emit(cfg, payload, [f"{len(rows)} spanning trees", *_table_lines(header, table)])
    return 0


_HANDLERS = {
    "compute": _run_compute,
    "quasitrees": _run_quasitrees,
    "count": _run_count,
    "verify": _run_verify,
    "dual": _run_dual,
    "spanning-trees": _run_spanning_trees,
}


def main(argv: Sequence[str] | None = None) -> int:
    cfg = _parse_config(argv)
    try:
        graph = _load_graph(cfg)
    except (OSError, json.JSONDecodeError, ValueError, RecursionError, RibbonPolyError) as exc:
        print(f"error: cannot load graph: {exc}", file=sys.stderr)
        return 1
    try:
        return _HANDLERS[cfg.command](cfg, graph)
    except SizeLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (Mismatch, BijectionFailure, IdentityFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RibbonPolyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
