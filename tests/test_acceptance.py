"""Acceptance suite: the finite-prefix checks behind the headline results.

Everything is exact integer arithmetic; there are no numeric tolerances. Each
criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success) and asserts its stated runtime budget where one is stated.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from operator import sub

from oracles import cofactor_det, euler_characteristic, smith_diagonal
from plumbhom.bundle_homology import (
    Representation,
    mapping_torus_homology,
    surface_bundle_homology,
)
from plumbhom.distinguisher import filling_family, torsion_closed_form
from plumbhom.exact_linalg import (
    AbelianGroup,
    IntMatrix,
    cokernel_group,
    det,
    format_matrix,
    mat_mul,
    mat_pow,
    snf,
)
from plumbhom.plumbing import GradedGroup, base_homology, intersection_form
from plumbhom.presets import graph_preset
from plumbhom.twist_engine import (
    GradedAction,
    IDENTITY_ACTION,
    TwistWord,
    parse_word,
    word_action,
)
from test_plumbing import random_graph


@contextmanager
def criterion(label: str, budget_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"{label}: PASS ({elapsed:.3f} s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"{label} took {elapsed:.3f} s (budget {budget_seconds} s)"


def test_criterion_1_odd_dimension_family():
    with criterion("criterion 1 (odd case: torsion Z/3k, 50 distinct)", 1.0):
        report = filling_family(graph_preset("a2-3pt-n3"), parse_word("t1"), 50)
        for entry in report.entries:
            assert entry.torsion_factors == (3 * entry.k,)
            for degree, group in entry.homology.items():
                if degree != 3:
                    assert group.invariant_factors == ()
        assert report.distinct_classes == 50


def test_criterion_2_dimension_one_family():
    with criterion("criterion 2 (n=1 case: torsion Z/k, 50 distinct)", 1.0):
        report = filling_family(graph_preset("a2-3pt-n1"), parse_word("t1"), 50)
        for entry in report.entries:
            expected = (entry.k,) if entry.k >= 2 else ()
            assert entry.torsion_factors == expected
        assert report.trivial_torsion_ks == (1,)
        assert report.distinct_classes >= 49
        assert report.distinct_classes == 50  # all graded types differ, k = 1 included


def test_criterion_3_even_dimension_closed_form():
    with criterion("criterion 3 (even case: |2 - trace| closed form, k <= 30)", 2.0):
        graph = graph_preset("a2-3pt-n2")
        generator = word_action(graph, parse_word("t1 t2")).matrix(2)
        assert generator.to_rows() == [[8, 3], [-3, -1]]
        values = []
        for k in range(1, 31):
            difference = IntMatrix(2, 2, map(sub, mat_pow(generator, k).entries,
                                             IntMatrix.identity(2).entries))
            torsion = cokernel_group(difference).torsion_cardinality
            closed = torsion_closed_form(generator, k)
            assert torsion == closed
            values.append(closed)
        assert values[:3] == [5, 45, 320]
        for k in range(2, 30):
            assert values[k] > 6 * values[k - 1]


def test_criterion_4_single_plumbing_point():
    with criterion("criterion 4 (one plumbing point: coker = Z + Z/k)", 1.0):
        graph = graph_preset("a2-1pt-n3")
        twist = word_action(graph, TwistWord((("t1", 1),))).matrix(3)
        assert twist.to_rows() == [[1, -1], [0, 1]]
        for k in range(1, 51):
            difference = IntMatrix(2, 2, map(sub, mat_pow(twist, k).entries,
                                             IntMatrix.identity(2).entries))
            expected = AbelianGroup(1, (k,)) if k >= 2 else AbelianGroup(1)
            assert cokernel_group(difference) == expected


def test_criterion_5_matrix_fidelity():
    with criterion("criterion 5 (displayed twist matrices, byte-for-byte)"):
        odd = graph_preset("a2-3pt-n3")
        even = graph_preset("a2-3pt-n2")
        for graph, label, n, shown in ((odd, "t1", 3, "[[1,-3],[0,1]]"),
                                       (odd, "t2", 3, "[[1,0],[3,1]]"),
                                       (even, "t1", 2, "[[-1,-3],[0,1]]"),
                                       (even, "t2", 2, "[[1,0],[-3,-1]]")):
            assert format_matrix(word_action(graph, TwistWord(((label, 1),))).matrix(n)) == shown
        word = word_action(even, parse_word("t1 t2"))
        assert format_matrix(word.matrix(2)) == "[[8,3],[-3,-1]]"
        one = graph_preset("a2-3pt-n1")
        assert (
            format_matrix(word_action(one, parse_word("t1")).matrix(1))
            == "[[1,-3,-1,-1],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"
        )


def test_criterion_6a_snf_contract_bulk():
    with criterion("criterion 6a (SNF contract on 10^4 random matrices)"):
        rng = random.Random(0xA2)
        for _ in range(10_000):
            rows = rng.randint(0, 5)
            cols = rng.randint(0, 5)
            m = IntMatrix(rows, cols, [rng.randint(-9, 9) for _ in range(rows * cols)])
            u, s, v = snf(m)
            assert mat_mul(mat_mul(u, m), v) == s
            assert det(u) in (1, -1)
            assert det(v) in (1, -1)
            diag = smith_diagonal(s)
            assert all(d >= 0 for d in diag)
            for a, b in zip(diag, diag[1:]):
                assert (a == 0 and b == 0) or (a != 0 and b % a == 0)


def test_criterion_6b_form_preservation_bulk():
    with criterion("criterion 6b (T^t Q T = Q for 10^3 random words)"):
        rng = random.Random(0xA3)
        for _ in range(1_000):
            graph = random_graph(rng, dimensions=range(2, 8))
            q = intersection_form(graph)
            letters = tuple(
                (rng.choice(graph.vertices), rng.choice((-3, -2, -1, 1, 2, 3)))
                for _ in range(rng.randint(0, 5))
            )
            t = word_action(graph, TwistWord(letters)).matrix(graph.dimension)
            assert mat_mul(mat_mul(t.transpose(), q), t) == q


def test_criterion_6c_kunneth_identity_monodromy():
    with criterion("criterion 6c (Kunneth agreement for identity monodromies)"):
        rng = random.Random(0xA5)
        for _ in range(40):
            graph = random_graph(rng)
            base = base_homology(graph)
            torus = mapping_torus_homology(base, IDENTITY_ACTION)
            bundle = surface_bundle_homology(
                base, Representation(1, (IDENTITY_ACTION, IDENTITY_ACTION))
            )
            for k in range(graph.dimension + 2):
                assert torus.rank(k) == base.rank(k) + base.rank(k - 1)
                assert bundle.rank(k) == base.rank(k) + 2 * base.rank(k - 1)
                assert torus.group(k).invariant_factors == ()
                assert bundle.group(k).invariant_factors == ()


def test_criterion_6d_euler_characteristic_identities():
    with criterion("criterion 6d (Euler characteristic identities)"):
        rng = random.Random(0xA7)
        for _ in range(60):
            graph = random_graph(rng)
            base = base_homology(graph)
            letters = tuple(
                (rng.choice(graph.vertices), rng.choice((-2, -1, 1, 2)))
                for _ in range(rng.randint(0, 4))
            )
            phi = word_action(graph, TwistWord(letters))
            torus = mapping_torus_homology(base, phi)
            assert euler_characteristic(torus) == 0
            genus = rng.randint(1, 3)
            assignments = tuple(
                word_action(
                    graph,
                    TwistWord(
                        tuple(
                            (rng.choice(graph.vertices), rng.choice((-1, 1)))
                            for _ in range(rng.randint(0, 2))
                        )
                    ),
                )
                for _ in range(2 * genus)
            )
            bundle = surface_bundle_homology(base, Representation(genus, assignments))
            assert euler_characteristic(bundle) == (1 - 2 * genus) * euler_characteristic(base)


def test_criterion_6e_circle_map_oracle():
    with criterion("criterion 6e (degree-d circle map, d = 2..20)"):
        circle = GradedGroup({0: AbelianGroup(1), 1: AbelianGroup(1)})
        for d in range(2, 21):
            phi = GradedAction({1: IntMatrix.from_rows([[d]])})
            torus = mapping_torus_homology(circle, phi)
            expected = AbelianGroup(1, (d - 1,)) if d >= 3 else AbelianGroup(1)
            assert torus.group(1) == expected
            # cross-check the frozen closed form against plain cofactor arithmetic
            assert abs(cofactor_det([[d - 1]])) == (d - 1)
