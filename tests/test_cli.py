"""Command-line surface: output bytes, formats, exit codes, determinism."""

from __future__ import annotations

import errno
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import plumbhom.cli as cli
import plumbhom.exact_linalg as exact_linalg
from plumbhom.cli import run
from plumbhom.distinguisher import filling_family
from plumbhom.exact_linalg import IntMatrix, snf
from plumbhom.presets import graph_preset
from plumbhom.twist_engine import parse_word

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

    def test_broken_witness_is_internal_error(self, capsys, monkeypatch):
        # the real pivot step, with one entry of the row-side transform
        # changed after the first step: U @ M @ V no longer equals S
        real = exact_linalg._eliminate_pivot
        steps = []

        def corrupt(block, sides):
            if not steps:
                steps.append(real(block, sides))
                sides[0][-1][0] += 1
                return steps[0]
            return real(block, sides)

        monkeypatch.setattr(exact_linalg, "_eliminate_pivot", corrupt)
        code, out, err = invoke(capsys, "snf", "--matrix", "[[7,3],[-3,-2]]", "--format", "json")
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

    def test_each_distinct_group_is_rendered_once(self):
        # phi = t1 moves degree 3 only: H3 changes with every k, and every
        # other degree keeps its group object, so its text is made once
        report = filling_family(graph_preset("a2-3pt-n3"), parse_word("t1"), 50)
        calls = Counter()

        def counting(k, g):
            calls[k] += 1
            return str(g)

        rows = [cells for _, cells in cli._cells(report.entries, counting)]
        assert dict(calls) == {0: 1, 1: 1, 2: 1, 3: 50, 4: 1}
        assert rows == [[str(g) for _, g in e.homology.items()] for e in report.entries]

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

    def test_kmax_required_and_validated(self, capsys):
        code, _, err = invoke(capsys, "fillings", "--preset", "a2-3pt-n3", "--word", "t1")
        assert code == 1
        code, _, err = invoke(
            capsys, "fillings", "--preset", "a2-3pt-n3", "--word", "t1", "--kmax", "0"
        )
        assert code == 1
        assert "kmax" in err


class TestCliContract:
    def test_unknown_subcommand(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err

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
