"""Shared fixtures: reference graphs and their published invariants.

The three-vertex genus-2 graph is the main worked reference; its
polynomial, quasi-tree table and spanning-tree table are frozen below.
The printed boundary cycle for quasi-tree 001010 ends in a repeated 5 in
the source table; the computed cycle ends in 6 (every half-edge appears
exactly once).  Tests compare against the computed value and explicitly
surface the difference.
"""

from __future__ import annotations

import pytest

from ribbonpoly import build_ribbon_graph
from oracles import parse_poly


@pytest.fixture
def genus2_graph():
    return build_ribbon_graph(
        [[1, 3, 2, 5], [7, 9], [10, 4, 12, 8, 6, 11]],
        [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10], [11, 12]],
    )


@pytest.fixture
def planar_theta():
    return build_ribbon_graph([[1, 2, 3, 4], [5, 6]], [[1, 4], [2, 5], [3, 6]])


@pytest.fixture
def torus_theta():
    return build_ribbon_graph([[1, 2, 3, 4], [5, 6]], [[1, 3], [2, 6], [4, 5]])


@pytest.fixture
def one_loop():
    return build_ribbon_graph([[1, 2]], [[1, 2]])


@pytest.fixture
def two_interleaved_loops():
    return build_ribbon_graph([[1, 3, 2, 4]], [[1, 2], [3, 4]])


@pytest.fixture
def two_nested_loops():
    return build_ribbon_graph([[1, 2, 3, 4]], [[1, 2], [3, 4]])


@pytest.fixture
def bridge_graph():
    return build_ribbon_graph([[1], [2]], [[1, 2]])


GENUS2_POLY = parse_poly(
    "Y^4*Z^2 + 2*X*Y^3*Z + 4*Y^3*Z + X^2*Y^2 + 3*X*Y^2 + 3*X*Y^2*Z + 4*Y^2*Z"
    " + 2*Y^2 + 2*X^2*Y + 6*X*Y + 4*Y + X^2 + 2*X + 1"
)

# frozen from exhaustive enumeration of the 8 spanning subgraphs
TORUS_THETA_POLY = parse_poly("X*Y + X + Y^2*Z + 2*Y + 1")

# rows: bitstring, boundary cycle, activity, (g, n(D), g(D), |E|), expanded weight
GENUS2_QUASI_TREE_TABLE = [
    ("001010", (1, 3, 2, 5, 11, 10, 7, 9, 4, 12, 8, 6), "ℓdDdDd", (0, 0, 0, 1), "1 + Y"),
    ("001100", (1, 3, 2, 5, 11, 10, 4, 12, 8, 9, 7, 6), "ℓdDLdd", (0, 0, 0, 1), "X + X*Y"),
    ("001111", (1, 3, 2, 5, 11, 8, 9, 4, 12, 10, 7, 6), "ℓdDDDD", (1, 2, 1, 1), "Y^2*Z + Y^3*Z"),
    ("010010", (1, 3, 12, 8, 6, 11, 10, 7, 9, 4, 2, 5), "ℓLddDd", (0, 0, 0, 1), "X + X*Y"),
    ("010100", (1, 3, 12, 8, 9, 7, 6, 11, 10, 4, 2, 5), "ℓLdLdd", (0, 0, 0, 1), "X^2 + X^2*Y"),
    ("010111", (1, 3, 12, 10, 7, 6, 11, 8, 9, 4, 2, 5), "ℓLdDDD", (1, 2, 1, 1), "X*Y^2*Z + X*Y^3*Z"),
    ("011011", (1, 3, 12, 10, 7, 9, 4, 2, 5, 11, 8, 6), "ℓLLdDD", (1, 1, 0, 1),
     "X*Y + X*Y^2 + Y + Y^2 + Y^2*Z + Y^3*Z"),
    ("011101", (1, 3, 12, 10, 4, 2, 5, 11, 8, 9, 7, 6), "ℓLLLdD", (1, 1, 0, 1),
     "X^2*Y + X^2*Y^2 + X*Y + X*Y^2 + X*Y^2*Z + X*Y^3*Z"),
    ("011110", (1, 3, 12, 8, 9, 4, 2, 5, 11, 10, 7, 6), "ℓLLDDd", (1, 1, 0, 1),
     "X*Y + X*Y^2 + Y + Y^2 + Y^2*Z + Y^3*Z"),
    ("111010", (1, 5, 11, 10, 7, 9, 4, 2, 3, 12, 8, 6), "LDDdDd", (1, 1, 0, 0), "Y + Y^2*Z"),
    ("111100", (1, 5, 11, 10, 4, 2, 3, 12, 8, 9, 7, 6), "LDDLdd", (1, 1, 0, 0), "X*Y + X*Y^2*Z"),
    ("111111", (1, 5, 11, 8, 9, 4, 2, 3, 12, 10, 7, 6), "LDDDDD", (2, 3, 1, 0), "Y^3*Z + Y^4*Z^2"),
]

# the printed source row for 001010 repeats half-edge 5 at the end
PRINTED_001010_CYCLE = (1, 3, 2, 5, 11, 10, 7, 9, 4, 12, 8, 5)

# rows: bitstring, Tutte activity string, expanded inner weight, X exponent
GENUS2_SPANNING_TREE_TABLE = [
    ("001010", "ℓℓDℓDℓ",
     "1 + 4*Y + 2*Y^2 + 4*Y^2*Z + 4*Y^3*Z + Y^4*Z^2", 0),
    ("001100", "ℓℓDLdℓ", "1 + 3*Y + Y^2 + 2*Y^2*Z + Y^3*Z", 1),
    ("010010", "ℓLdℓDℓ", "1 + 3*Y + 2*Y^2 + Y^2*Z + Y^3*Z", 1),
    ("010100", "ℓLdLdℓ", "1 + 2*Y + Y^2", 2),
]
