import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ribbonpoly.cli import main
from conftest import GENUS2_POLY


@pytest.fixture
def genus2_file(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(
        json.dumps(
            {
                "sigma0": [[1, 3, 2, 5], [7, 9], [10, 4, 12, 8, 6, 11]],
                "sigma1": [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10], [11, 12]],
            }
        )
    )
    return str(path)


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"sigma0": [[1, 2]], "sigma1": [[1, 2]]}))
    return str(path)


def test_compute_text(genus2_file, capsys):
    assert main(["compute", genus2_file, "--method", "quasitree"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == str(GENUS2_POLY)


def test_compute_json_carries_same_data(genus2_file, capsys):
    assert main(["compute", genus2_file, "--method", "statesum", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["polynomial"] == str(GENUS2_POLY)
    assert payload["term_count"] == 64
    assert payload["method"] == "statesum"


def test_compute_trivial_loop(loop_file, capsys):
    assert main(["compute", loop_file]) == 0
    assert capsys.readouterr().out.strip() == "Y + 1"


def test_compute_all_runs_verify(genus2_file, capsys):
    assert main(["compute", genus2_file, "--method", "all"]) == 0
    out = capsys.readouterr().out
    assert "all methods agree: yes" in out
    assert "quasi-tree summands 12 <= state-sum summands 64: yes" in out


def test_count_output(genus2_file, capsys):
    assert main(["count", genus2_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "4 + 7*t + t^2"
    assert lines[1] == "total 12"


def test_count_json(genus2_file, capsys):
    assert main(["count", genus2_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 12
    assert payload["by_genus"] == {"0": 4, "1": 7, "2": 1}


def test_quasitrees_text_and_json_agree(genus2_file, capsys):
    assert main(["quasitrees", genus2_file]) == 0
    text = capsys.readouterr().out
    assert main(["quasitrees", genus2_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 12
    assert [r["quasi_tree"] for r in payload["rows"]] == sorted(
        r["quasi_tree"] for r in payload["rows"]
    )
    for row in payload["rows"]:
        assert row["quasi_tree"] in text
        assert row["activity"] in text
        assert "(" + ",".join(map(str, row["boundary"])) + ")" in text
        assert row["weight"] in text


def test_quasitrees_with_order_override(genus2_file, capsys):
    assert main(["quasitrees", genus2_file, "--order", "4,2,3,1,5,6"]) == 0
    out = capsys.readouterr().out
    assert "LLLDDD" in out  # the genus-2 quasi-tree under the swapped order


def test_quasitrees_one_loop_single_row(loop_file, capsys):
    assert main(["quasitrees", loop_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    row = payload["rows"][0]
    assert row["quasi_tree"] == "0"
    assert row["activity"] == "ℓ"
    assert row["weight"] == "Y + 1"


def test_spanning_trees_table(genus2_file, capsys):
    assert main(["spanning-trees", genus2_file]) == 0
    out = capsys.readouterr().out
    assert "4 spanning trees" in out
    assert "ℓℓDℓDℓ" in out
    assert "Y^4*Z^2 + 4*Y^3*Z + 4*Y^2*Z + 2*Y^2 + 4*Y + 1" in out


def test_dual_command(genus2_file, capsys):
    assert main(["dual", genus2_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bijection_ok"] and payload["identity_ok"]
    assert payload["genus_histogram"] == {"0": 4, "1": 7, "2": 1}
    assert payload["dual_genus_histogram"] == {"0": 1, "1": 7, "2": 4}
    assert len(payload["sample_points"]) == 20


def test_verify_json(genus2_file, capsys):
    assert main(["verify", genus2_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equal"] is True
    assert payload["tutte_specialization_ok"] is True


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["compute", str(bad)]) == 1
    missing = tmp_path / "missing.json"
    assert main(["compute", str(missing)]) == 1
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"sigma0": [[1, 2]], "sigma1": [[1, 1]]}))
    assert main(["compute", str(invalid)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "document",
    [
        {"sigma0": 5, "sigma1": 3},
        {"sigma0": [1, 2], "sigma1": [[1, 2]]},
        {"sigma0": [[1, 2]], "sigma1": [[1, 2.0]]},
        {"sigma0": [[True, 2]], "sigma1": [[1, 2]]},
        {"sigma0": [[1, 2]], "sigma1": [[1, 2]], "edge_order": 3},
        {"sigma0": [[1, 2]], "sigma1": [[1, 2]], "edge_order": [True]},
        {"sigma0": [[1, 2]], "sigma1": [[1, 2]], "edge_order": ["1"]},
    ],
)
def test_malformed_document_is_one_line_error(tmp_path, capsys, document):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(document))
    assert main(["compute", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load graph: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "document, message",
    [
        ({"sigma0": [[1, 2]], "sigma1": [[1, 1]]},
         "pair (1, 1) does not join two distinct half-edges"),
        ({"sigma0": [[1, 2]], "sigma1": [[1, 2, 3]]},
         "pair (1, 2, 3) does not join two distinct half-edges"),
        ({"sigma0": [[1, 2, 3, 4]], "sigma1": [[1, 2], [2, 3]]},
         "half-edge 2 appears in two pairs"),
        ({"sigma0": [[1, 2]], "sigma1": [[1, 3]]},
         "pairs must match exactly the labels 1..2, got [1, 3]"),
        ({"sigma0": [[1, 2], [2, 3]], "sigma1": [[1, 2], [3, 4]]},
         "half-edge 2 appears in two vertex cycles"),
        ({"sigma0": [[1, 2], [5]], "sigma1": [[1, 2], [3, 4]]},
         "vertex cycles must partition 1..4; missing [3, 4], foreign [5]"),
        ({"sigma0": [[1, 2]], "sigma1": [[1, 2.5]]},
         "half-edge label 2.5 is not an integer"),
        ({"sigma0": [[1, 2, 3, 4]], "sigma1": [[1, 2], [3, 4]], "edge_order": [2, 2]},
         "edge_order [2, 2] is not a permutation of 1..2"),
    ],
    ids=[
        "pair-of-one-label",
        "pair-of-three-labels",
        "label-in-two-pairs",
        "pairs-miss-a-label",
        "label-in-two-cycles",
        "cycles-miss-and-add-labels",
        "non-int-label",
        "bad-edge-order",
    ],
)
def test_malformed_document_message_and_exit_code(tmp_path, capsys, document, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(document))
    assert main(["count", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot load graph: {message}\n"


def test_exit_code_size_cap(genus2_file, capsys):
    assert main(["compute", genus2_file, "--method", "statesum", "--cap", "3"]) == 3
    capsys.readouterr()


def test_exit_code_disconnected_input(tmp_path, capsys):
    doc = {"sigma0": [[1, 2], [3, 4]], "sigma1": [[1, 2], [3, 4]]}
    path = tmp_path / "two_loops.json"
    path.write_text(json.dumps(doc))
    for command in (["count"], ["quasitrees"], ["compute", "--method", "quasitree"]):
        assert main([command[0], str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: quasi-tree enumeration requires a connected graph\n"


def test_deeply_nested_json_is_a_one_line_error(tmp_path, capsys):
    depth = 100_000
    path = tmp_path / "nested.json"
    path.write_text("[" * depth + "]" * depth)
    assert main(["count", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot load graph: ")


def test_bad_order_value(genus2_file, capsys):
    with pytest.raises(SystemExit) as info:
        main(["compute", genus2_file, "--order", "a,b"])
    assert info.value.code == 1
    assert main(["compute", genus2_file, "--order", "1,2"]) == 1  # wrong length
    capsys.readouterr()


GRAPHS = Path(__file__).resolve().parent.parent / "graphs"
TORUS_THETA = GRAPHS / "torus_theta.json"


@pytest.mark.parametrize(
    "order, document_order, written",
    [
        ("1,1,2", None, "[1, 1, 2]"),
        ("0,1,2", None, "[0, 1, 2]"),
        (None, [2, 3, 4], "[2, 3, 4]"),
        ("", None, "[]"),
    ],
)
def test_bad_edge_order_names_the_numbers_as_written(
    tmp_path, capsys, order, document_order, written
):
    path = TORUS_THETA
    if document_order is not None:
        document = json.loads(TORUS_THETA.read_text(encoding="utf-8"))
        document["edge_order"] = document_order
        path = tmp_path / "torus_theta.json"
        path.write_text(json.dumps(document))
    argv = ["count", str(path)] + (["--order", order] if order is not None else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: cannot load graph: edge_order {written} is not a permutation of 1..3\n"
    )


def test_recursion_on_a_long_path_is_not_limited_by_python_stack(tmp_path, capsys):
    # 1,000 bridges, one per deletion/contraction step: X^1000
    edges = 1000
    document = {
        "sigma0": [[1], *([2 * i, 2 * i + 1] for i in range(1, edges)), [2 * edges]],
        "sigma1": [[2 * i - 1, 2 * i] for i in range(1, edges + 1)],
    }
    path = tmp_path / "path.json"
    path.write_text(json.dumps(document))
    assert main(["compute", str(path), "--method", "recursive"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("X^1000\n", "")


def test_dual_runs_above_the_state_sum_cap(tmp_path, capsys):
    # a 25-edge cycle is above the default cap of 24 free edges, so its state
    # sum stops; dual takes both polynomials from the quasi-trees it
    # enumerates, the 25 spanning trees of the cycle and the 25 single edges
    # of its dual, all of genus 0
    edges = 25
    document = {
        "sigma0": [[2 * i - 1, 2 * ((i - 2) % edges) + 2] for i in range(1, edges + 1)],
        "sigma1": [[2 * i - 1, 2 * i] for i in range(1, edges + 1)],
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(document))
    assert main(["compute", str(path), "--method", "statesum"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: 25 free edges exceed the cap of 24\n"
    assert main(["dual", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[2:] == [
        "genus histogram:      {0: 25}",
        "dual genus histogram: {0: 25}",
        "quasi-tree complement bijection: ok",
        "duality identity at 20 rational points: ok",
    ]
    assert captured.err == ""


# -- hostile documents: the fixtures, mutated ---------------------------------------

FIXTURES = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(GRAPHS.glob("*.json"))]

COMMANDS = [
    *(["compute", "--method", m] for m in ("statesum", "tree", "recursive", "quasitree", "all")),
    *([name] for name in ("quasitrees", "count", "verify", "dual", "spanning-trees")),
]

# wrong types, and huge or negative ints
HOSTILE = st.sampled_from(
    [None, True, False, 0.5, 2.0, "1", "", {}, {"1": 2}, 0, -1, -(2**63), 2**64, 10**400]
)

BAD_ORDERS = st.one_of(
    st.lists(st.integers(-2, 8), max_size=8), st.lists(HOSTILE, max_size=3), HOSTILE
)


def _paths(node, prefix=()):
    """The key path of every value below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield (*prefix, key)
        yield from _paths(child, (*prefix, key))


@st.composite
def hostile_documents(draw):
    document = copy.deepcopy(draw(st.sampled_from(FIXTURES)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["replace", "empty", "nest", "delete", "duplicate", "extra key", "edge_order", "root"]
        ))
        if kind == "extra key":
            document[draw(st.sampled_from(["sigma2", "SIGMA0", "", "edge order"]))] = draw(HOSTILE)
        elif kind == "edge_order":
            document["edge_order"] = draw(BAD_ORDERS)
        elif kind == "root":
            return [document] if draw(st.booleans()) else draw(HOSTILE)
        elif paths := list(_paths(document)):
            *above, key = draw(st.sampled_from(paths))
            parent = reduce(getitem, above, document)
            if kind == "replace":
                parent[key] = draw(HOSTILE)
            elif kind == "empty":
                parent[key] = []
            elif kind == "nest":
                parent[key] = [parent[key]]
            elif kind == "delete":
                del parent[key]
            else:  # a copy of a sibling, inserted or written over the value
                siblings = list(parent) if isinstance(parent, dict) else range(len(parent))
                sibling = copy.deepcopy(parent[draw(st.sampled_from(siblings))])
                if isinstance(parent, list) and draw(st.booleans()):
                    parent.insert(key, sibling)
                else:
                    parent[key] = sibling
    return document


@settings(derandomize=True, max_examples=60, deadline=None)
@given(hostile_documents())
def test_hostile_documents_exit_cleanly_on_every_command(tmp_path_factory, document):
    path = tmp_path_factory.getbasetemp() / "hostile.json"
    path.write_text(json.dumps(document))
    for command in COMMANDS:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([command[0], str(path), *command[1:], "--cap", "12"])
        message = err.getvalue()
        assert code in (0, 1, 3), (command, document, message)
        assert "Traceback" not in message
        if code:
            assert message.count("\n") == 1 and message.endswith("\n"), (command, document)
