"""CLI outputs frozen byte for byte in ``tests/golden``.

The files were captured at the commit before the dimension-1 action preset,
the adjugate inverse and the repeated per-member reductions were removed, so
they pin that those removals changed no output; ``fillings-n2-t1t2-k40.csv``
was captured before the cokernels moved from ``snf`` to ``smith_invariants``,
``fillings-a8-chain-coxeter.*`` before the identity blocks of D_k were
dropped and the graph was validated once per word, and
``fillings-n5-1pt-t1t2-k7.*`` before the family stopped rebuilding the
degrees phi^k leaves fixed. The ``snf-*`` files were captured after ``snf``
moved onto the elimination step ``smith_invariants`` uses: S is unique, but
U and V are one valid pair among many and changed with that move, so they
pin the transforms as computed since then. The ``form-*``, ``homology-*`` and
``validate-*`` files were captured before twist words moved to their closed
form; before them no test ran ``form`` in csv or json. The ``twist-n2-*``,
``torus-n2-*``, ``validate-n3.{table,csv}`` and ``validate-bad-sign.*`` files
were captured before every command returned its text to one write in ``run``.
The two ``fillings-a20-chain-*.csv`` files (the A_20 growth words) were
captured before the Smith special cases of the third code diet were deleted;
no test here reads them: CI's growth-regime steps ``cmp`` the installed
command's output against them. ``fillings-a20-chain-coxeter-k84.csv``, the
Coxeter word of order 42 through two periods, was captured before the family
took its powers letter by letter from ``twist_engine._powers``.
Regenerate one with ``PYTHONPATH=src python -m plumbhom <argv> >
tests/golden/<name>`` only when an output is meant to change.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from plumbhom.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    # the dimension-1 family through the graph preset's h1_action entry
    "fillings-n1-t1": ["fillings", "--preset", "a2-3pt-n1", "--word", "t1", "--kmax", "12"],
    "fillings-n3-t1inv": ["fillings", "--preset", "a2-3pt-n3", "--word", "t1^-1", "--kmax", "12"],
    # negative exponents go through GradedAction.inverse
    "fillings-n2-t1inv3t2":
        ["fillings", "--preset", "a2-3pt-n2", "--word", "t1^-3 t2", "--kmax", "12"],
    "twist-n1-t1inv3": ["twist", "--preset", "a2-3pt-n1", "--word", "t1^-3"],
    "torus-n1-t1inv": ["torus", "--preset", "a2-3pt-n1", "--word", "t1^-1"],
    # dimension 2: each twist is a reflection (T^e = T^(e mod 2)), so t1^-3 acts as t1
    "twist-n2-t1inv3t2": ["twist", "--preset", "a2-3pt-n2", "--word", "t1^-3 t2"],
    "torus-n2-t1inv3t2": ["torus", "--preset", "a2-3pt-n2", "--word", "t1^-3 t2"],
    # phi of order 6: H5 vanishes at k = 1, 5, 7 and turns free at k = 6 (H6 Z^2 -> Z^4)
    "fillings-n5-1pt-t1t2-k7":
        ["fillings", "--preset", "a2-1pt-n5", "--word", "t1 t2", "--kmax", "7"],
    "snf-readme": ["snf", "--matrix", "[[0,-3],[0,0]]"],
    "form-n3": ["form", "--preset", "a2-3pt-n3"],
    "homology-n3": ["homology", "--preset", "a2-3pt-n3"],
    # dimension 1: sphere and arc classes merge into H_1 = Z^(E + 1)
    "homology-n1": ["homology", "--preset", "a2-3pt-n1"],
    "validate-n3": ["validate", "--preset", "a2-3pt-n3"],
    # a graph file that fails to parse: the error is the output, and the exit code is 1
    "validate-bad-sign":
        ["validate", "--graph", str(GOLDEN / "bad-sign-n3.graph.json")],
    # rank 3: the last row is r0 + 2 r1 - r2
    "snf-4x5-rank3":
        ["snf", "--matrix", "[[-2,3,3,0,2],[-2,2,2,0,-2],[4,4,0,5,-4],[-10,3,7,-5,2]]"],
}
CASES = {
    f"{name}.{fmt}": [*argv, "--format", fmt]
    for name, argv in COMMANDS.items()
    for fmt in ("table", "csv", "json")
}
# torsion orders past 64 bits (112 bits at k = 40); the kmax-12 files stay small
CASES["fillings-n2-t1t2-k40.csv"] = [
    "fillings", "--preset", "a2-3pt-n2", "--word", "t1 t2", "--kmax", "40", "--format", "csv",
]
# --emit writes the canonical graph JSON whatever --format says
CASES["validate-n1-emit.json"] = ["validate", "--preset", "a2-3pt-n1", "--emit"]
# a graph file: the A_8 chain in dimension 3 with its Coxeter word (8x8 products)
for fmt in ("table", "csv", "json"):
    CASES[f"fillings-a8-chain-coxeter.{fmt}"] = [
        "fillings", "--graph", str(GOLDEN / "a8-chain-n3.graph.json"),
        "--word", "v0 v1 v2 v3 v4 v5 v6 v7", "--kmax", "6", "--format", fmt,
    ]
# the A_20 Coxeter word, of order 42: two full periods
A20_COXETER = "fillings-a20-chain-coxeter-k84.csv"
CASES[A20_COXETER] = [
    "fillings", "--graph", str(GOLDEN / "a20-chain-n3.graph.json"),
    "--word", " ".join(f"v{i}" for i in range(20)), "--kmax", "84", "--format", "csv",
]
EXIT_CODES = {f"validate-bad-sign.{fmt}": 1 for fmt in ("table", "csv", "json")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(capsys, name):
    code = run(CASES[name])
    captured = capsys.readouterr()
    assert (code, captured.err) == (EXIT_CODES.get(name, 0), "")
    assert captured.out.encode("utf-8") == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("fmt", ("table", "csv", "json"))
def test_out_file_matches_golden(capsys, tmp_path, fmt):
    name = f"fillings-n3-t1inv.{fmt}"
    target = tmp_path / name
    assert run([*CASES[name], "--out", str(target)]) == 0
    assert capsys.readouterr() == ("", "")
    assert target.read_bytes() == (GOLDEN / name).read_bytes()


def test_coxeter_family_repeats_with_the_word_order():
    # phi has order 42, so member k + 42 repeats member k in every field but k;
    # member 42 is the one with phi^k = I, free in degrees 3 and 4
    members: dict[int, list[list[str]]] = {}
    header, *lines = (GOLDEN / A20_COXETER).read_text().splitlines()
    assert header == "k,degree,rank,invariant_factors,class"
    for line in lines:
        k, *fields = line.split(",")
        members.setdefault(int(k), []).append(fields)
    assert sorted(members) == list(range(1, 85))
    for k in range(1, 43):
        assert members[k + 42] == members[k]
    assert ["3", "20", "", "8"] in members[42]
    assert len({fields[-1][-1] for fields in members.values()}) == 8
