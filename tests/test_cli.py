"""Command-line surface: output bytes, formats, exit codes, determinism."""

from __future__ import annotations

import argparse
import errno
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from itertools import groupby
from pathlib import Path

import pytest

import plumbhom.cli as cli
import plumbhom.distinguisher as distinguisher
import plumbhom.exact_linalg as exact_linalg
from plumbhom.cli import run
from plumbhom.distinguisher import FillingEntry, filling_family
from plumbhom.exact_linalg import AbelianGroup, IntMatrix, snf
from plumbhom.plumbing import GradedGroup, PlumbingGraph, graph_from_json, graph_to_json
from plumbhom.presets import graph_preset
from plumbhom.twist_engine import parse_word

# t1 and t2 plumbed at three points in dimension 10^18 + 1
HUGE_DIM = Path(__file__).resolve().parent / "golden" / "a2-3pt-huge-dim.graph.json"

A2_N3_DOC = {
    "dimension": 3,
    "vertices": ["L1", "L2"],
    "edges": [{"between": ["L1", "L2"], "sign": 1}] * 3,
}


# a 24x24 matrix of entries in [-9, 9] with a 94-bit determinant; the pivot
# loop alone gave it transforms of 38,503 bits, past the 4,300-digit limit on
# int-to-str conversion
DENSE_24 = "[" + ",".join([
    "[-8,-7,-7,2,-4,0,-1,-3,-8,9,-4,4,3,7,2,8,5,7,-1,-8,-9,2,5,1]",
    "[3,4,7,-4,8,-4,-2,-2,-9,-4,1,-4,-5,7,7,2,7,8,-4,5,4,7,2,9]",
    "[2,2,5,-4,3,5,7,-2,6,-1,6,7,7,2,5,5,2,9,8,5,6,-2,1,-4]",
    "[-1,6,0,0,7,8,7,7,9,4,0,-3,6,7,2,-7,1,-9,-3,-6,-8,9,-8,-1]",
    "[9,-2,-6,7,-5,-1,-2,-3,-8,4,-8,-8,2,2,-4,-2,-9,-7,-6,-7,-9,-8,-9,2]",
    "[-1,-5,-4,-4,7,-9,3,9,-8,-2,-5,-8,-9,2,-6,0,1,6,-9,0,5,8,-8,-1]",
    "[3,-5,6,-2,-7,1,-6,-9,5,-5,7,9,3,6,7,1,-5,1,-1,-1,4,-9,8,-5]",
    "[-8,-1,-8,-5,-4,-4,-6,5,-2,7,-8,-2,-2,5,-7,-1,-7,9,-2,2,-1,4,-1,7]",
    "[-9,-5,-8,3,4,-4,-6,7,-7,-2,-6,-6,-9,-4,-2,-6,-3,-9,7,5,5,0,8,3]",
    "[-3,-3,4,4,7,-9,9,9,-8,4,7,9,-4,-6,6,2,-9,7,-6,2,0,2,0,-9]",
    "[4,-6,-6,0,-3,-9,5,-8,4,6,5,-3,9,-7,-9,0,-9,2,0,-7,-2,6,-3,-6]",
    "[9,2,3,5,-5,2,3,-6,-1,-6,-6,-7,1,3,-3,-6,-9,6,-8,6,0,2,5,-5]",
    "[2,-1,6,7,6,4,6,0,3,-2,-4,6,-1,8,4,-7,9,9,-6,-7,2,-4,8,-5]",
    "[4,-7,-7,-8,-5,0,3,-2,1,5,-4,7,0,-6,-5,8,4,-6,1,7,-2,7,-1,-4]",
    "[-4,5,-2,3,2,9,-5,5,5,-9,3,-4,3,7,-8,6,-1,3,-1,4,6,2,8,1]",
    "[-7,-2,8,-3,3,3,-9,1,5,7,5,-4,-6,-9,3,-3,9,3,-3,-6,3,8,-3,-1]",
    "[9,9,-3,6,-5,-9,4,6,-1,7,9,-4,5,-3,-7,2,-9,6,8,-7,9,6,1,5]",
    "[-1,7,5,-9,-7,2,-4,3,-1,-5,-8,-4,6,3,5,0,-5,-9,0,8,5,-9,2,-8]",
    "[8,3,9,5,-3,0,6,-5,6,8,0,-7,-1,1,0,1,0,3,7,-7,7,-3,3,7]",
    "[-5,7,-7,0,-8,-2,5,8,-2,7,-1,-8,-6,-6,3,2,-3,1,2,-7,1,5,2,-4]",
    "[6,5,0,5,-5,5,-3,-1,1,-4,-6,-2,6,-3,2,-4,2,-5,-5,-2,-1,8,3,3]",
    "[1,-1,7,9,1,3,0,8,-7,2,0,3,6,-4,-1,2,5,6,-7,-4,1,3,-5,-9]",
    "[-6,2,-4,2,-7,4,-9,8,1,-2,3,8,0,6,-5,2,1,-3,6,-6,-5,-3,1,-1]",
    "[-5,4,2,-1,-7,1,-3,-2,-2,-8,1,2,-8,-5,-4,-7,4,5,-1,-5,1,7,9,-6]",
]) + "]"

def _doc(**changes):
    # A2_N3_DOC as JSON text with some keys replaced; a value of None drops the key
    return json.dumps({k: v for k, v in dict(A2_N3_DOC, **changes).items() if v is not None})


_H1_DOC = {"dimension": 1, "vertices": ["L1", "L2"], "edges": A2_N3_DOC["edges"]}
# graph file text -> the one message it must produce, exactly
MALFORMED = [
    (_doc(h1_action={"L1": [1, 2]}, dimension=1),
     "h1_action for 'L1' must be a matrix (list of rows)"),
    (_doc(edges=[{"between": ["L1", "L2"], "sign": 1.0}]), "edge sign must be 1 or -1"),
    ("[1, 2]", "graph document must be a JSON object"),
    (_doc(edges=None), "graph document is missing 'edges'"),
    (_doc(dimension="3"), "dimension must be an integer"),
    (_doc(dimension=True), "dimension must be an integer"),
    (_doc(vertices=["L1", 2]), "vertices must be a list of labels"),
    (_doc(edges={}), "edges must be a list"),
    (_doc(edges=[{"between": ["L1"], "sign": 1}]),
     'edge "between" must be a pair of vertex labels'),
    (_doc(edges=[["L1", "L2", 1]]),
     'each edge must be an object with exactly "between" and "sign"'),
    (_doc(edges=[{"between": ["L1", "L2"], "sign": 1, "weight": 2}]),
     'each edge must be an object with exactly "between" and "sign"'),
    (_doc(dimension=1, h1_action=[]), "h1_action must map vertex labels to matrices"),
    (_doc(vertices=["L1", "L2", "L1"]), "invalid plumbing graph: duplicate vertex label 'L1'"),
    (_doc(**_H1_DOC, h1_action={"L3": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}),
     "invalid plumbing graph: h1_action for unknown vertex 'L3'"),
    (_doc(**_H1_DOC, h1_action={"L1": [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}),
     "invalid plumbing graph: h1_action for 'L1' is not unimodular"),
]


_ENOSPC = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _FullDevice:
    """A stdout whose every write fails as on a full disk."""

    def write(self, text):
        raise _ENOSPC

    def flush(self):
        pass


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTwist:
    def test_even_word_matrix_bytes(self, capsys):
        code, out, _ = invoke(capsys, "twist", "--preset", "a2-3pt-n2", "--word", "t1 t2")
        assert code == 0
        assert out == "[[8,3],[-3,-1]]\n"

    def test_power_word(self, capsys):
        code, out, _ = invoke(capsys, "twist", "--preset", "a2-3pt-n3", "--word", "t1^4")
        assert code == 0
        assert out == "[[1,-12],[0,1]]\n"

    def test_json_format(self, capsys):
        code, out, _ = invoke(
            capsys, "twist", "--preset", "a2-3pt-n2", "--word", "t1 t2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["degrees"] == [{"degree": 2, "matrix": [[8, 3], [-3, -1]]}]

    def test_unknown_vertex_in_word(self, capsys):
        code, _, err = invoke(capsys, "twist", "--preset", "a2-3pt-n3", "--word", "zz")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("word", ["t1^1_0", "t1^\u0663"])
    def test_exponent_outside_the_grammar_is_input_error(self, capsys, word):
        # int() would read these as 10 and 3
        for command in ("twist", "torus"):
            code, out, err = invoke(capsys, command, "--preset", "a2-3pt-n3", "--word", word)
            assert (code, out) == (1, "")
            assert err == f"error: bad exponent in token {word!r}\n"


class TestSnf:
    def test_table_output(self, capsys):
        code, out, _ = invoke(capsys, "snf", "--matrix", "[[0,-3],[0,0]]")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "S = [[3,0],[0,0]]"
        assert lines[1].startswith("U = ") and lines[2].startswith("V = ")

    def test_json_is_consistent_decomposition(self, capsys):
        code, out, _ = invoke(
            capsys, "snf", "--matrix", "[[7,3],[-3,-2]]", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["S"] == [[1, 0], [0, 5]]
        u, v = payload["U"], payload["V"]
        m = [[7, 3], [-3, -2]]
        prod = [
            [sum(u[i][a] * m[a][b] * v[b][j] for a in range(2) for b in range(2)) for j in range(2)]
            for i in range(2)
        ]
        assert prod == payload["S"]

    def test_csv_builds_no_transforms(self, capsys, monkeypatch):
        # S is unique, so csv prints it from the Smith invariants alone
        literals = ["[[0,-3],[0,0]]", "[[7,3],[-3,-2]]", "[[2,4,6],[0,0,9],[4,8,12]]",
                    "[[],[]]", "[]"]
        expected = {}
        for literal in literals:
            code, out, _ = invoke(capsys, "snf", "--matrix", literal, "--format", "json")
            assert code == 0
            expected[literal] = json.loads(out)["S"]
        expected[DENSE_24] = snf(exact_linalg.parse_matrix(DENSE_24)).S.to_rows()

        def no_snf(m):
            raise AssertionError("snf --format csv built transforms")

        monkeypatch.setattr(cli, "snf", no_snf)
        for literal, s in expected.items():
            code, out, err = invoke(capsys, "snf", "--matrix", literal, "--format", "csv")
            assert (code, err) == (0, "")
            assert out == "".join(",".join(map(str, row)) + "\n" for row in s)

    def test_dense_transforms_print(self, capsys):
        # the Hermite route keeps U and V near |det|, so table and json
        # print DENSE_24 under the 4,300-digit limit, with the S of csv
        code, out, err = invoke(capsys, "snf", "--matrix", DENSE_24, "--format", "csv")
        assert (code, err) == (0, "")
        s = [[int(e) for e in line.split(",")] for line in out.splitlines()]
        code, out, err = invoke(capsys, "snf", "--matrix", DENSE_24, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["S"] == s
        code, out, err = invoke(capsys, "snf", "--matrix", DENSE_24, "--format", "table")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "S = " + json.dumps(s, separators=(",", ":"))

    @pytest.mark.parametrize("literal, side", [
        ("[[7,3],[-3,-2]]", 0),  # the Hermite route, U
        ("[[7,3],[-3,-2]]", 1),  # the Hermite route, V
        ("[[2,4,6],[0,0,9]]", 1),  # rectangular: the pivot route, V
    ], ids=["hermite-row-side", "hermite-column-side", "rectangular-column-side"])
    def test_broken_witness_is_internal_error(self, capsys, monkeypatch, literal, side):
        # the real pivot step, with one entry of a transform changed after
        # the first step: U @ M @ V no longer equals S. snf passes the
        # transforms as [rows of U, columns of V]; on the column side a zero
        # entry of the pivot's column of V turns 1, which the check, skipping
        # V's zeros, must still see
        real = exact_linalg._eliminate_pivot
        steps = []

        def corrupt(block, sides):
            if steps:
                return real(block, sides)
            transform = sides[side]
            steps.append(real(block, sides))
            if side:
                column = transform[0]
                column[column.index(0)] = 1
            else:
                transform[-1][0] += 1
            return steps[0]

        monkeypatch.setattr(exact_linalg, "_eliminate_pivot", corrupt)
        code, out, err = invoke(capsys, "snf", "--matrix", literal, "--format", "json")
        assert (code, out) == (2, "")
        assert err == "internal error: Smith transforms fail U @ M @ V == S\n"

    def test_deeply_nested_literal_is_input_error(self, capsys):
        code, out, err = invoke(capsys, "snf", "--matrix", "[" * 100_000 + "]" * 100_000)
        assert (code, out) == (1, "")
        assert err.startswith("error: bad matrix literal: ") and err.count("\n") == 1

    def test_broken_divisor_chain_is_internal_error(self, capsys, monkeypatch):
        # the real pivot step, with its second pivot made to break the chain
        real = exact_linalg._eliminate_pivot
        pivots = []

        def off_by_one(block, sides):
            pivots.append(real(block, sides))
            return pivots[-1] + 1 if len(pivots) == 2 else pivots[-1]

        monkeypatch.setattr(exact_linalg, "_eliminate_pivot", off_by_one)
        with pytest.raises(RuntimeError, match="not a divisor chain"):
            snf(IntMatrix.from_rows([[2, 0], [0, 4]]))
        assert pivots == [2, 4]
        pivots.clear()
        code, out, err = invoke(capsys, "snf", "--matrix", "[[2,0],[0,4]]")
        assert (code, out) == (2, "")
        assert err == "internal error: Smith invariants are not a divisor chain\n"

    def test_bad_literal_is_input_error(self, capsys):
        code, _, err = invoke(capsys, "snf", "--matrix", "[[1,2],[3]]")
        assert code == 1
        assert "error" in err


class TestValidate:
    def test_preset_ok(self, capsys):
        code, out, _ = invoke(capsys, "validate", "--preset", "a2-3pt-n3")
        assert code == 0
        assert out == "ok\n"

    def test_graph_file(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(A2_N3_DOC))
        code, out, _ = invoke(capsys, "validate", "--graph", str(path))
        assert code == 0
        assert out == "ok\n"

    def test_invalid_graph_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dimension": 3, "vertices": ["a", "b"], "edges": []}))
        code, out, _ = invoke(capsys, "validate", "--graph", str(path))
        assert code == 1
        assert "disconnected" in out

    def test_unknown_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(A2_N3_DOC, extra=1)))
        code, out, _ = invoke(capsys, "validate", "--graph", str(path))
        assert code == 1
        assert "unknown key" in out

    def test_emit_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(A2_N3_DOC))
        code, out, _ = invoke(capsys, "validate", "--graph", str(path), "--emit")
        assert code == 0
        echoed = tmp_path / "echoed.json"
        echoed.write_text(out)
        code2, out2, _ = invoke(capsys, "validate", "--graph", str(echoed), "--emit")
        assert code2 == 0
        assert out2 == out

    @pytest.mark.parametrize(
        "bad", [pytest.param(case, id=f"bad{i}") for i, case in enumerate(MALFORMED)]
    )
    def test_malformed_values_are_input_errors(self, capsys, tmp_path, bad):
        text, message = bad
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, _ = invoke(capsys, "validate", "--graph", str(path), "--format", "json")
        assert code == 1
        assert json.loads(out) == {"ok": False, "errors": [message]}
        code, out, _ = invoke(capsys, "validate", "--graph", str(path), "--emit")
        assert (code, out) == (1, f"error: {message}\n")
        code, _, err = invoke(capsys, "twist", "--graph", str(path), "--word", "L1")
        assert (code, err) == (1, f"error: {message}\n")

    def test_every_violation_has_its_own_json_entry(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(_doc(vertices=["a", "a", "b"],
                             edges=[{"between": ["b", "b"], "sign": 1}]))
        code, out, _ = invoke(capsys, "validate", "--graph", str(path), "--format", "json")
        assert code == 1
        assert json.loads(out) == {"ok": False, "errors": [
            "invalid plumbing graph: duplicate vertex label 'a'",
            "invalid plumbing graph: self-loop at 'b'",
        ]}
        joined = "error: invalid plumbing graph: duplicate vertex label 'a'; self-loop at 'b'\n"
        code, out, _ = invoke(capsys, "validate", "--graph", str(path))
        assert (code, out) == (1, joined)
        code, out, err = invoke(capsys, "homology", "--graph", str(path), "--format", "json")
        assert (code, out, err) == (1, "", joined)

    def test_empty_vertex_label_is_rejected(self, capsys, tmp_path):
        path = tmp_path / "empty-label.json"
        path.write_text(_doc(vertices=["L1", ""], edges=[{"between": ["L1", ""], "sign": 1}]))
        message = "invalid plumbing graph: vertex label must be a non-empty string, got ''"
        code, out, _ = invoke(capsys, "validate", "--graph", str(path), "--format", "json")
        assert code == 1
        assert json.loads(out) == {"ok": False, "errors": [message]}
        code, out, err = invoke(capsys, "homology", "--graph", str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_deeply_nested_document_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = invoke(capsys, "validate", "--graph", str(path))
        assert (code, err) == (1, "")
        assert out.startswith("error: bad graph document: ") and out.count("\n") == 1
        code, out, _ = invoke(capsys, "validate", "--graph", str(path), "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["errors"][0].startswith("bad graph document: ")

    def test_missing_file(self, capsys):
        code, out, _ = invoke(capsys, "validate", "--graph", "/nonexistent/g.json")
        assert code == 1
        assert "cannot read graph file" in out


class TestFormAndHomology:
    def test_form_table(self, capsys):
        code, out, _ = invoke(capsys, "form", "--preset", "a2-3pt-n3")
        assert code == 0
        assert out == "[[0,3],[-3,0]]\n"

    def test_form_dimension_one_rejected(self, capsys):
        code, _, err = invoke(capsys, "form", "--preset", "a2-3pt-n1")
        assert code == 1
        assert "preset" in err or "h1_action" in err

    def test_homology_table(self, capsys):
        code, out, _ = invoke(capsys, "homology", "--preset", "a2-3pt-n3")
        assert code == 0
        assert out == "H_0 = Z^1\nH_1 = Z^2\nH_3 = Z^2\n"

    def test_homology_csv(self, capsys):
        code, out, _ = invoke(capsys, "homology", "--preset", "a2-3pt-n3", "--format", "csv")
        assert code == 0
        assert out == "degree,rank,invariant_factors\n0,1,\n1,2,\n3,2,\n"

    def test_torus_table(self, capsys):
        code, out, _ = invoke(capsys, "torus", "--preset", "a2-3pt-n3", "--word", "t1")
        assert code == 0
        assert out == "H_0 = Z^1\nH_1 = Z^3\nH_2 = Z^2\nH_3 = Z^1+Z/3\nH_4 = Z^1\n"


class TestFillings:
    def test_csv_schema_and_torsion_column(self, capsys):
        code, out, _ = invoke(
            capsys, "fillings", "--preset", "a2-3pt-n3", "--word", "t1",
            "--kmax", "5", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,degree,rank,invariant_factors,class"
        torsion_rows = [line for line in lines[1:] if line.split(",")[1] == "3"]
        assert [row.split(",")[3] for row in torsion_rows] == ["3", "6", "9", "12", "15"]
        assert [row.split(",")[4] for row in torsion_rows] == ["1", "2", "3", "4", "5"]

    def test_dimension_one_preset(self, capsys):
        code, out, _ = invoke(
            capsys, "fillings", "--preset", "a2-3pt-n1", "--word", "t1",
            "--kmax", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["torsion_degree"] == 1
        assert [e["torsion_factors"] for e in payload["entries"]] == [[], [2], [3]]
        assert payload["trivial_torsion_ks"] == [1]
        assert payload["distinct_classes"] == 3

    def test_table_summary(self, capsys):
        code, out, _ = invoke(
            capsys, "fillings", "--preset", "a2-1pt-n3", "--word", "t1", "--kmax", "4"
        )
        assert code == 0
        assert "distinct homology types: 4" in out
        assert "trivial torsion at k: 1" in out

    def test_boundary_flag_present(self, capsys):
        code, out, _ = invoke(
            capsys, "fillings", "--preset", "a2-3pt-n2", "--word", "t1 t2",
            "--kmax", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert all(e["boundary_ok"] for e in payload["entries"])

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    def test_each_distinct_group_is_rendered_once(self, monkeypatch, capsys, fmt):
        # phi = t1 moves degree 3 only: H3 changes with every k, and every
        # other degree's text is made once per family (H4 once per kernel
        # rank, and every member here has the same one)
        report = filling_family(graph_preset("a2-3pt-n3"), parse_word("t1"), 50)
        argv = ["fillings", "--preset", "a2-3pt-n3", "--word", "t1", "--kmax", "50",
                "--format", fmt]
        want = invoke(capsys, *argv)
        calls = Counter()

        def counting(k, g, _cell=cli._FILLINGS_CELL[fmt]):
            calls[k] += 1
            return _cell(k, g)

        monkeypatch.setitem(cli._FILLINGS_CELL, fmt, counting)
        assert invoke(capsys, *argv) == want
        assert dict(calls) == {0: 1, 1: 1, 2: 1, 3: 50, 4: 1}
        # each member shows its own groups, in degree order
        if fmt == "json":
            rows = [[(c["degree"], c["group"]) for c in e["homology"]]
                    for e in json.loads(want[1])["entries"]]
        elif fmt == "table":
            rows = [[(int(c[1:c.index("=")]), c.partition("=")[2]) for c in line.split()[3:]]
                    for line in want[1].splitlines() if line.startswith("k=")]
        else:
            lines = [line.split(",") for line in want[1].splitlines()[1:]]
            rows = [[(int(degree), str(AbelianGroup(int(rank), [int(d) for d in factors.split("|")
                                                                 if d])))
                     for _, degree, rank, factors, _ in group]
                    for _, group in groupby(lines, key=lambda line: line[0])]
        assert rows == [[(k, str(g)) for k, g in e.homology.items()] for e in report.entries]

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    def test_no_report_objects_per_member(self, monkeypatch, capsys, fmt):
        # the CLI formats each member from the family's generator, so a longer
        # family builds no more entries or graded groups; filling_family
        # builds one of each per member
        counts = Counter()
        spies = ((FillingEntry, "__init__"), (FillingEntry, "_unchecked"),
                 (GradedGroup, "_unchecked"))
        for cls, name in spies:
            method = getattr(cls, name)

            def counting(*args, _fn=getattr(method, "__func__", method),
                         _name=f"{cls.__name__}.{name}"):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(cls, name, classmethod(counting) if name == "_unchecked"
                                else counting)
        seen = []
        for k_max in (10, 30):
            counts.clear()
            assert invoke(capsys, "fillings", "--preset", "a2-3pt-n3", "--word", "t1",
                          "--kmax", str(k_max), "--format", fmt)[0] == 0
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        counts.clear()
        filling_family(graph_preset("a2-3pt-n3"), parse_word("t1"), 10)
        assert counts["FillingEntry.__init__"] == counts["GradedGroup._unchecked"] == 10

    def test_each_member_is_written_before_the_next_is_made(self, monkeypatch, capsys):
        argv = ["fillings", "--preset", "a2-3pt-n3", "--word", "t1", "--kmax", "4",
                "--format", "csv"]
        healthy = invoke(capsys, *argv)[1]
        events = []
        real = distinguisher._members

        def members(*args):
            for member in real(*args):
                events.append(("made", member[0]))
                yield member

        class Recorder:
            def write(self, text):
                events.append(("written", text))

            def flush(self):
                pass

        monkeypatch.setattr(distinguisher, "_members", members)
        monkeypatch.setattr(cli, "_BATCH", 1)  # a write per chunk
        monkeypatch.setattr(sys, "stdout", Recorder())
        assert run(argv) == 0
        # the head, then each member made and written, then the empty summary
        assert [kind for kind, _ in events] == ["written", *["made", "written"] * 4, "written"]
        assert [k for kind, k in events if kind == "made"] == [1, 2, 3, 4]
        assert "".join(text for kind, text in events if kind == "written") == healthy

    @pytest.mark.parametrize("fmt, third, skip", [
        ("csv", "\n3,", 1), ("table", "\nk=3 ", 1), ("json", ',\n    {\n      "k": 3,', 0),
    ])
    def test_a_failure_mid_family_exits_two_after_the_members_before_it(
            self, monkeypatch, capsys, tmp_path, fmt, third, skip):
        # a wrong Smith pair at k = 3 (d_1 = 4, det D = 6: see
        # test_checks_raise_on_a_wrong_pair); members written before it stay
        # written, on stdout and in an --out file alike
        argv = ["fillings", "--preset", "a2-3pt-n2", "--word", "t1 t2", "--kmax", "6",
                "--format", fmt]
        healthy = invoke(capsys, *argv)[1]
        real = distinguisher._recurrence

        def failing(*phi):
            good = real(*phi)
            yield next(good)
            yield next(good)
            yield 0, 3, 6 - 8 + 1

        monkeypatch.setattr(distinguisher, "_recurrence", failing)
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (2, "internal error: Smith invariants do not multiply to the gcd "
                                  "of the 2x2 minors\n")
        assert healthy.startswith(out)
        # one write per chunk: the head and members 1 and 2 are out before
        # the generator fails on member 3
        monkeypatch.setattr(cli, "_BATCH", 1)
        code, out, _ = invoke(capsys, *argv)
        assert code == 2 and out == healthy[:healthy.index(third) + skip]
        target = tmp_path / "out.txt"
        assert invoke(capsys, *argv, "--out", str(target))[:2] == (2, "")
        assert target.read_text() == out

    def test_output_passes_the_digit_limit(self, capsys):
        # with a 10^300 exponent the degree-3 torsion factors pass 4,300
        # digits by k = 16; every format prints them, and they agree
        e = 10**300
        argv = ["fillings", "--preset", "a2-3pt-n3", "--word", f"t1^{e} t2^-{e}", "--kmax", "16"]
        outputs = {}
        limit = sys.get_int_max_str_digits()
        for fmt in ("json", "csv", "table"):
            code, outputs[fmt], err = invoke(capsys, *argv, "--format", fmt)
            assert (code, err) == (0, "")
            assert sys.get_int_max_str_digits() == limit
        entries = json.loads(outputs["json"], parse_int=str)["entries"]
        factors = [e["torsion_factors"] for e in entries]
        assert max(len(d) for d in factors[-1]) > 4300
        assert len(entries[-1]["torsion_cardinality"]) > 4300
        csv_rows = [row.split(",") for row in outputs["csv"].splitlines()[1:]]
        assert [row[3].split("|") for row in csv_rows if row[1] == "3"] == factors
        table_rows = [row.split() for row in outputs["table"].splitlines() if row.startswith("k=")]
        assert [row[2] for row in table_rows] == [
            "torsion=" + "+".join(f"Z/{d}" for d in ds) for ds in factors]

    def test_snf_output_passes_the_digit_limit(self, capsys):
        # each entry parses under the limit; det = 10^5000 - 1 passes it
        b = 10**2500
        limit = sys.get_int_max_str_digits()
        outputs = {}
        for fmt in ("json", "csv", "table"):
            code, outputs[fmt], err = invoke(capsys, "snf", "--matrix", f"[[{b},1],[1,{b}]]",
                                             "--format", fmt)
            assert (code, err) == (0, "")
            assert sys.get_int_max_str_digits() == limit
        payload = json.loads(outputs["json"], parse_int=str)
        assert payload["S"] == [["1", "0"], ["0", "9" * 5000]]
        assert outputs["csv"] == "".join(",".join(r) + "\n" for r in payload["S"])
        assert outputs["table"] == "".join(
            f"{name} = [" + ",".join("[" + ",".join(r) + "]" for r in payload[name]) + "]\n"
            for name in "SUV")

    def test_twist_output_passes_the_digit_limit(self, capsys):
        # T1^E T2^-E = [[1 + 9E^2, -3E], [-3E, 1]]: 9E^2 has 8,001 digits
        e = 10**4000
        argv = ["twist", "--preset", "a2-3pt-n3", "--word", f"t1^{e} t2^-{e}"]
        limit = sys.get_int_max_str_digits()
        outputs = {}
        for fmt in ("json", "csv", "table"):
            code, outputs[fmt], err = invoke(capsys, *argv, "--format", fmt)
            assert (code, err) == (0, "")
            assert sys.get_int_max_str_digits() == limit
        rows = [["9" + "0" * 7999 + "1", "-3" + "0" * 4000], ["-3" + "0" * 4000, "1"]]
        payload = json.loads(outputs["json"], parse_int=str)
        assert payload["degrees"] == [{"degree": "3", "matrix": rows}]
        assert outputs["csv"] == "".join(",".join(r) + "\n" for r in rows)
        assert outputs["table"] == "[" + ",".join("[" + ",".join(r) + "]" for r in rows) + "]\n"

    def test_torus_output_passes_the_digit_limit(self, capsys):
        # M = T1^E T2^E has trace 2 - 9E^2, so coker(M^2 - I) has order
        # |4 - trace(M)^2| = 9E^2 (9E^2 - 4): Z/6E + Z/(3E (9E^2 - 4) / 2)
        e = 10**2000
        argv = ["torus", "--preset", "a2-3pt-n3", "--word", f"t1^{e} t2^{e} t1^{e} t2^{e}"]
        limit = sys.get_int_max_str_digits()
        outputs = {}
        for fmt in ("json", "csv", "table"):
            code, outputs[fmt], err = invoke(capsys, *argv, "--format", fmt)
            assert (code, err) == (0, "")
            assert sys.get_int_max_str_digits() == limit
        rows = json.loads(outputs["json"], parse_int=str)["homology"]
        factors = ["6" + "0" * 2000, "134" + "9" * 3998 + "4" + "0" * 2000]
        assert rows[-1] == {"degree": "3", "free_rank": "0", "invariant_factors": factors,
                            "group": f"Z/{factors[0]}+Z/{factors[1]}"}
        assert outputs["csv"] == "degree,rank,invariant_factors\n" + "".join(
            f"{r['degree']},{r['free_rank']},{'|'.join(r['invariant_factors'])}\n" for r in rows)
        assert outputs["table"] == "".join(f"H_{r['degree']} = {r['group']}\n" for r in rows)

    def test_input_keeps_the_digit_limit(self, capsys, tmp_path):
        big = "1" + "0" * 5000
        for fmt in ("table", "csv", "json"):
            code, out, err = invoke(capsys, "snf", "--matrix", f"[[{big}]]", "--format", fmt)
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and "limit" in err
        code, out, err = invoke(capsys, "twist", "--preset", "a2-3pt-n3", "--word", f"t1^{big}")
        assert (code, out) == (1, "")
        assert err.startswith("error: bad exponent in token")
        graph = tmp_path / "big.json"
        graph.write_text(_doc(dimension=0).replace('"dimension": 0', f'"dimension": {big}'))
        code, out, err = invoke(capsys, "fillings", "--graph", str(graph), "--word", "L1",
                                "--kmax", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "limit" in err

    @pytest.mark.parametrize("small", (5, 4))
    def test_huge_dimension_is_a_small_one_relabelled(self, capsys, tmp_path, small):
        # 10^18 + 1 and 10^18 agree with 5 and 4 mod 4, so the twist signs
        # agree; only the base's degrees enter, so degrees d and d + 1 are
        # renamed and nothing walks the degrees in between
        huge = 10**18 + small - 4
        texts = {}
        for dim in (small, huge):
            graph = PlumbingGraph(dim, ("t1", "t2"), [("t1", "t2", 1)] * 3)
            path = tmp_path / f"{dim}.graph.json"
            path.write_text(json.dumps(graph_to_json(graph)))
            if dim == 10**18 + 1:
                assert graph_from_json(json.loads(HUGE_DIM.read_text())) == graph
                path = HUGE_DIM
            for argv in (["torus"], ["fillings", "--kmax", "3"]):
                code, texts[dim, argv[0]], err = invoke(
                    capsys, *argv, "--graph", str(path), "--word", "t1", "--format", "csv")
                assert (code, err) == (0, "")

        def relabelled(text, column):
            lines = text.splitlines()
            for i, line in enumerate(lines[1:], 1):
                cells = line.split(",")
                if int(cells[column]) >= small:
                    cells[column] = str(int(cells[column]) - small + huge)
                lines[i] = ",".join(cells)
            return "\n".join(lines) + "\n"

        assert texts[huge, "torus"] == relabelled(texts[small, "torus"], 0)
        assert texts[huge, "fillings"] == relabelled(texts[small, "fillings"], 1)
        if small == 5:
            assert texts[5, "torus"] == "degree,rank,invariant_factors\n" + (
                "0,1,\n1,3,\n2,2,\n5,1,3\n6,1,\n")

    def test_kmax_required_and_validated(self, capsys):
        code, _, err = invoke(capsys, "fillings", "--preset", "a2-3pt-n3", "--word", "t1")
        assert code == 1
        code, _, err = invoke(
            capsys, "fillings", "--preset", "a2-3pt-n3", "--word", "t1", "--kmax", "0"
        )
        assert code == 1
        assert "kmax" in err


COMMANDS = ("validate", "form", "homology", "twist", "torus", "fillings", "snf")


class TestCliContract:
    def test_unknown_subcommand(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err
        # the invalid-choice error lists every command, so all were built
        assert [name for name in COMMANDS if repr(name) not in err] == []

    def test_named_command_builds_only_its_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        code, out, _ = invoke(capsys, "homology", "--preset", "a2-3pt-n3")
        assert (code, out) == (0, "H_0 = Z^1\nH_1 = Z^2\nH_3 = Z^2\n")
        # the top-level parser and the homology subparser, not the other six
        assert built == ["plumbhom", "plumbhom homology"]

    def test_unknown_flag(self, capsys):
        code, _, err = invoke(capsys, "form", "--preset", "a2-3pt-n3", "--frob")
        assert code == 1
        assert "usage" in err

    def test_graph_and_preset_are_exclusive(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(A2_N3_DOC))
        code, _, err = invoke(
            capsys, "form", "--preset", "a2-3pt-n3", "--graph", str(path)
        )
        assert code == 1

    def test_unknown_preset(self, capsys):
        code, _, err = invoke(capsys, "form", "--preset", "nope")
        assert code == 1
        assert "available" in err

    def test_output_to_file(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, out, _ = invoke(
            capsys, "form", "--preset", "a2-3pt-n3", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == "[[0,3],[-3,0]]\n"

    @pytest.mark.parametrize("argv", [
        ["validate", "--preset", "a2-3pt-n3"],
        ["form", "--preset", "a2-3pt-n3"],
        ["homology", "--preset", "a2-3pt-n3"],
        ["twist", "--preset", "a2-3pt-n3", "--word", "t1"],
        ["torus", "--preset", "a2-3pt-n3", "--word", "t1"],
        ["fillings", "--preset", "a2-3pt-n3", "--word", "t1", "--kmax", "2"],
        ["snf", "--matrix", "[[2]]"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_output_is_input_error(self, capsys, monkeypatch, tmp_path, argv):
        for target, reason in ((tmp_path / "missing" / "out.txt", "No such file"),
                               (tmp_path, "Is a directory")):
            code, out, err = invoke(capsys, *argv, "--out", str(target))
            assert (code, out) == (1, "")
            assert err.startswith("error: cannot write output: ")
            assert reason in err
            assert err.count("\n") == 1
        # stdout on a full device: the same one line, not a traceback
        monkeypatch.setattr(sys, "stdout", _FullDevice())
        code, _, err = invoke(capsys, *argv)
        assert (code, err) == (1, f"error: cannot write output: {_ENOSPC}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_stdout_on_full_device_exits_one(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "plumbhom", "homology", "--preset", "a2-3pt-n3"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            )
        assert (proc.returncode, proc.stderr) == (1, f"error: cannot write output: {_ENOSPC}\n")

    def test_byte_determinism(self, capsys):
        args = (
            "fillings", "--preset", "a2-3pt-n2", "--word", "t1 t2",
            "--kmax", "6", "--format", "json",
        )
        first = invoke(capsys, *args)
        second = invoke(capsys, *args)
        assert first == second

    def test_console_script_target(self, capsys, monkeypatch):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        root = Path(__file__).resolve().parent.parent
        with open(root / "pyproject.toml", "rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["plumbhom"]
        module, _, name = target.partition(":")
        entry = getattr(importlib.import_module(module), name)
        monkeypatch.setattr(sys, "argv", ["plumbhom", "snf", "--matrix", "[[2]]"])
        with pytest.raises(SystemExit) as exit_info:
            entry()
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("S = [[2]]\n")

    def test_module_entry_point(self):
        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "plumbhom", "twist", "--preset", "a2-3pt-n2",
             "--word", "t1 t2"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout == "[[8,3],[-3,-1]]\n"
