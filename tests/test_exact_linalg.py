"""Exact linear algebra: frozen examples plus randomized contract checks.

Expected Smith forms and determinants were computed with the independent
brute-force oracles in ``oracles.py`` (determinantal divisors and cofactor
expansion) before being frozen here; the randomized checks re-derive them at
run time.
"""

from __future__ import annotations

import random
from math import gcd, prod
from operator import sub
from pathlib import Path

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # optional: the property test skips without it
    given = None

import plumbhom.exact_linalg as exact_linalg
import plumbhom.twist_engine as twist_engine
from oracles import cofactor_det, rank_by_minors, smith_diagonal, smith_diagonal_by_minors
from test_cli import DENSE_24
from plumbhom.exact_linalg import (
    AbelianGroup,
    IntMatrix,
    cokernel_group,
    det,
    det_adjugate,
    format_matrix,
    mat_mul,
    mat_pow,
    parse_matrix,
    smith_invariants,
    snf,
)
from plumbhom.distinguisher import filling_family
from plumbhom.plumbing import parse_graph
from plumbhom.presets import graph_preset
from plumbhom.twist_engine import GradedAction, parse_word, word_action


def _random_matrix(rng: random.Random, max_dim: int = 5, span: int = 9) -> IntMatrix:
    rows = rng.randint(0, max_dim)
    cols = rng.randint(0, max_dim)
    return IntMatrix(rows, cols, [rng.randint(-span, span) for _ in range(rows * cols)])


def _random_unimodular(rng: random.Random, n: int, steps: int = 12) -> IntMatrix:
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        for t in range(n):
            rows[i][t] += q * rows[j][t]
    return IntMatrix.from_rows(rows, cols=n)


class TestIntMatrix:
    def test_entry_count_must_match(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, [1, 2, 3])

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            IntMatrix(1, 1, [1.5])
        with pytest.raises(ValueError):
            IntMatrix(1, 1, [True])
        with pytest.raises(ValueError):
            IntMatrix(1, 1, [1.0])
        with pytest.raises(ValueError):
            IntMatrix(1, 1, ["1"])
        for rows, cols in ((1.0, 1), (1, 1.0), (True, 1), (1, True), ("1", 1)):
            with pytest.raises(ValueError, match="dimensions"):
                IntMatrix(rows, cols, [5])
        for cols in (2.0, True):
            with pytest.raises(ValueError, match="dimensions"):
                IntMatrix.from_rows([], cols=cols)

    def test_empty_matrices_allowed(self):
        assert IntMatrix(0, 0, []).shape == (0, 0)
        assert IntMatrix(2, 0, []).shape == (2, 0)
        assert IntMatrix(0, 3, []).shape == (0, 3)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_transpose_roundtrip(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().transpose() == m
        assert m.transpose().to_rows() == [[1, 4], [2, 5], [3, 6]]


class TestSnf:
    def test_identity_is_fixed(self):
        ident = IntMatrix.identity(2)
        assert snf(ident).S == ident

    def test_small_example(self):
        # oracle: minors gcd d1 = 1, d2 = |det| = 5
        m = IntMatrix.from_rows([[7, 3], [-3, -2]])
        assert smith_diagonal(snf(m).S) == [1, 5]
        assert smith_diagonal_by_minors(m.to_rows()) == [1, 5]

    def test_rank_one_example(self):
        m = IntMatrix.from_rows([[0, -3], [0, 0]])
        assert smith_diagonal(snf(m).S) == [3, 0]
        assert smith_diagonal_by_minors(m.to_rows()) == [3, 0]

    def test_empty_shapes(self):
        for shape in ((0, 0), (2, 0), (0, 3)):
            m = IntMatrix(*shape, [0] * (shape[0] * shape[1]))
            u, s, v = snf(m)
            assert s.shape == shape
            assert u.shape == (shape[0], shape[0])
            assert v.shape == (shape[1], shape[1])
            assert mat_mul(mat_mul(u, m), v) == s

    def test_contract_on_random_matrices(self):
        rng = random.Random(20260808)
        for _ in range(300):
            m = _random_matrix(rng)
            u, s, v = snf(m)
            assert mat_mul(mat_mul(u, m), v) == s
            assert abs(cofactor_det(u.to_rows())) == 1
            assert abs(cofactor_det(v.to_rows())) == 1
            diag = smith_diagonal(s)
            assert diag == smith_diagonal_by_minors(m.to_rows())
            assert all(d >= 0 for d in diag)
            for a, b in zip(diag, diag[1:]):
                assert (a == 0 and b == 0) or (a != 0 and b % a == 0)

    def test_determinant_equals_diagonal_product(self):
        rng = random.Random(7)
        found_nonsingular = 0
        for _ in range(200):
            n = rng.randint(1, 4)
            m = IntMatrix(n, n, [rng.randint(-9, 9) for _ in range(n * n)])
            d = det(m)
            if d == 0:
                continue
            found_nonsingular += 1
            product = 1
            for e in smith_diagonal(snf(m).S):
                product *= e
            assert product == abs(d)
        assert found_nonsingular > 100

    def test_transforms_stay_near_the_determinant(self):
        # the Hermite route keeps every entry of U and V within a small
        # multiple of |det M|'s bits; the loop alone reached 38,503 bits on
        # DENSE_24 and 23,366 on a 32x32 matrix like this one
        rng = random.Random(20261019)
        dense_32 = IntMatrix(32, 32, [rng.randint(-9, 9) for _ in range(32 * 32)])
        for m in (parse_matrix(DENSE_24), dense_32):
            bound = 3 * abs(det(m)).bit_length()
            u, _, v = snf(m)
            assert 0 < max(abs(e).bit_length() for e in u.entries + v.entries) <= bound

    def test_a_diagonal_off_the_determinant_is_internal_error(self, monkeypatch):
        # a doubled determinant still gives the Hermite form (any multiple of
        # |det| serves as the modulus) and witnesses with U @ M @ V == S, but
        # the Smith diagonal no longer multiplies to it
        real = exact_linalg.det_adjugate

        def doubled(m):
            d, adj = real(m)
            return 2 * d, [[2 * e for e in r] for r in adj]

        monkeypatch.setattr(exact_linalg, "det_adjugate", doubled)
        with pytest.raises(RuntimeError, match="do not multiply to"):
            snf(IntMatrix.from_rows([[7, 3], [-3, -2]]))

    def test_entry_growth_past_64_bits(self):
        power = mat_pow(IntMatrix.from_rows([[8, 3], [-3, -1]]), 30)
        m = IntMatrix(2, 2, map(sub, power.entries, IntMatrix.identity(2).entries))
        assert any(abs(e) > 2**63 for e in m.entries)
        diag = smith_diagonal(snf(m).S)
        assert diag[0] * diag[1] == abs(det(m))


def _invariant_cases(rng: random.Random):
    """Seeded matrices over the shapes the determinantal finish and the pivot
    steps meet: empty, one or two rows or columns, rank-deficient, and entries
    past 1,000 bits."""
    shapes = [(0, rng.randint(0, 4)), (rng.randint(0, 4), 0), (1, rng.randint(1, 6)),
              (2, rng.randint(1, 6)), (rng.randint(1, 6), 2),
              (rng.randint(3, 5), rng.randint(3, 5))]
    for rows, cols in shapes:
        span = rng.choice((1, 9, 2**1100))
        entries = [rng.randint(-span, span) if rng.random() < 0.8 else 0
                   for _ in range(rows * cols)]
        m = IntMatrix(rows, cols, entries)
        yield m
        if rows >= 2:
            # last row a combination of two others: rank below the row count
            grid = m.to_rows()
            grid[-1] = [3 * a - b for a, b in zip(grid[0], grid[-2])]
            yield IntMatrix.from_rows(grid, cols=cols)


class TestSmithInvariants:
    def test_matches_snf_diagonal(self):
        rng = random.Random(20261018)
        seen_big = seen_deficient = 0
        for _ in range(60):
            for m in _invariant_cases(rng):
                u, s, v = snf(m)
                assert mat_mul(mat_mul(u, m), v) == s
                assert abs(det(u)) == 1 and abs(det(v)) == 1
                expected = [d for d in smith_diagonal(s) if d]
                assert smith_invariants(m) == expected
                seen_big += any(e.bit_length() > 1000 for e in m.entries)
                seen_deficient += len(expected) < min(m.rows, m.cols)
        assert seen_big > 50 and seen_deficient > 50

    def test_matches_sympy_invariant_factors(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(20261019)
        for _ in range(25):
            for m in _invariant_cases(rng):
                if not m.rows or not m.cols:
                    continue
                factors = invariant_factors(sympy.Matrix(m.to_rows()), domain=sympy.ZZ)
                assert smith_invariants(m) == [abs(int(d)) for d in factors if d]

    def test_bezout_cofactor_is_balanced(self):
        rng = random.Random(20261021)
        for _ in range(400):
            span = rng.choice((9, 10**6, 2**1100))
            a, b = rng.randint(-span, span) or 1, rng.randint(-span, span) or -1
            x, y, g = exact_linalg._bezout(a, b)
            assert x * a + y * b == g == gcd(a, b)
            assert 2 * abs(x) <= abs(b // g)

    @pytest.mark.parametrize("bad, message", [
        ([0], "not positive"),
        ([3, 5], "divisor chain"),
        ([1, 1, 1], "more Smith invariants"),
    ])
    def test_guard_rejects_a_broken_finish(self, monkeypatch, bad, message):
        monkeypatch.setattr(exact_linalg, "_determinantal_invariants", lambda block: list(bad))
        with pytest.raises(RuntimeError, match=message):
            cokernel_group(IntMatrix.from_rows([[7, 3], [-3, -2]]))

    def test_fillings_path_builds_no_transforms(self, monkeypatch):
        def refuse(m):
            raise AssertionError("snf called on the fillings path")

        monkeypatch.setattr(exact_linalg, "snf", refuse)
        # inverses come from det_adjugate, so the twist engine holds no snf
        assert not hasattr(twist_engine, "snf")
        report = filling_family(graph_preset("a2-3pt-n2"), parse_word("t1 t2"), 12)
        assert [e.torsion_cardinality for e in report.entries][:3] == [5, 45, 320]


A20_CHAIN = Path(__file__).resolve().parent / "golden" / "a20-chain-n3.graph.json"
GROWTH_WORDS = {
    "squared": (" ".join(f"v{i}^2" for i in range(20)), 8),
    "alternating": (" ".join(f"v{i}^{(-1) ** i}" for i in range(20)), 25),
}
GROWTH_BITS = 64_000


class TestEntryGrowth:
    @pytest.mark.parametrize("name", GROWTH_WORDS)
    def test_pivot_steps_stay_near_the_invariants(self, monkeypatch, name):
        # D_k = phi^k - I on the A_20 chain: the orientation of the block
        # between pivot steps chooses the pivots, and a wrong one sends the
        # entries to hundreds of thousands of bits within a few k (the
        # transposing route peaks near 24k bits here)
        word, k_max = GROWTH_WORDS[name]
        phi = word_action(parse_graph(A20_CHAIN.read_text()), parse_word(word)).matrix(3)
        step = exact_linalg._eliminate_pivot

        def bounded(block, sides):
            pivot = step(block, sides)
            bits = max((abs(e).bit_length() for r in block for e in r), default=0)
            if bits > GROWTH_BITS:
                raise AssertionError(f"a pivot step left a {bits}-bit entry")
            return pivot

        monkeypatch.setattr(exact_linalg, "_eliminate_pivot", bounded)
        for k in range(1, k_max + 1):
            power = mat_pow(phi, k)
            d_k = IntMatrix(20, 20, map(sub, power.entries, IntMatrix.identity(20).entries))
            invariants = smith_invariants(d_k)
            if len(invariants) == 20:
                assert prod(invariants) == abs(det(d_k))


def _unit_sides(rows: int, cols: int) -> list[list[list[int]]]:
    # row i of the row side is e_i and row j of the column side is e_(rows + j),
    # so a side's first row names the row or column it came from
    n = rows + cols
    return [[[int(t == i) for t in range(n)] for i in range(rows)],
            [[int(t == rows + j) for t in range(n)] for j in range(cols)]]


class TestPivotStep:
    @pytest.mark.parametrize("rows, picked", [
        # a tie between rows: 2 at (0, 2), (1, 0) and (2, 1)
        ([[4, 8, 2], [2, 8, 10], [6, 2, 4]], (0, 2)),
        # the least entry is not a unit, and row 0 does not hold it
        ([[12, 8, 20], [4, 8, 4], [4, 12, 16]], (1, 0)),
        # a unit first found in the last row
        ([[4, 6, 8], [6, 9, 12], [10, 14, -1]], (2, 2)),
        # -1 comes before +1
        ([[2, -1, 1], [1, 3, 5], [4, -1, 7]], (0, 1)),
        # a unit pivot whose row has other nonzero entries
        ([[1, 2, 3], [4, 5, 6], [7, 8, 10]], (0, 0)),
        ([[3, 0, 5], [0, 0, 0], [7, 1, 1]], (2, 1)),
    ])
    def test_first_row_major_entry_of_least_value(self, rows, picked):
        # every pivot here divides its block, so no Bezout step or stray fix
        # touches the first row of either side
        block = [list(r) for r in rows]
        sides = _unit_sides(len(rows), len(rows[0]))
        least = min(abs(e) for r in rows for e in r if e)
        assert exact_linalg._eliminate_pivot(block, sides) == least
        (i,), (j,) = sorted([t for t, e in enumerate(side[0]) if e] for side in sides)
        assert (i, j - len(rows)) == picked
        assert abs(block[0][0]) == least
        assert not any(block[0][1:]) and not any(r[0] for r in block[1:])

    @pytest.mark.parametrize("rows, step_block, step_sides, transposed", [
        # the unit clears its own row: the block keeps its orientation
        ([[1, 2, 3], [4, 5, 6], [7, 8, 10]],
         [[1, 0, 0], [0, -3, -6], [0, -6, -11]],
         [[[1, 0, 0], [-4, 1, 0], [-7, 0, 1]], [[1, 0, 0], [-2, 1, 0], [-3, 0, 1]]], False),
        # row 0 is zero off the unit: one transpose, as before
        ([[1, 0, 0], [3, 5, 7], [2, 4, 9]],
         [[1, 0, 0], [0, 5, 4], [0, 7, 9]],
         [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [-3, 1, 0], [-2, 0, 1]]], True),
    ])
    def test_unit_pivot_matches_the_two_transpose_route(
            self, rows, step_block, step_sides, transposed):
        # frozen from the route that transposed the block before and after
        # clearing row 0 with column steps
        block = [list(r) for r in rows]
        sides = [IntMatrix.identity(n).to_rows() for n in (len(rows), len(rows[0]))]
        row_side = sides[0]
        assert exact_linalg._eliminate_pivot(block, sides) == 1
        assert (block, sides, sides[1] is row_side) == (step_block, step_sides, transposed)

    @pytest.mark.parametrize("rows, u, s, v", [
        ([[1, 2, 3], [4, 5, 6], [7, 8, 10]],
         [[-2, 6, -3], [1, -2, 1], [-2, 11, -6]], [[1, 0, 0], [0, 1, 0], [0, 0, 3]],
         [[1, 0, -2], [0, 0, 1], [0, 1, 0]]),
        ([[1, 0, 0], [3, 5, 7], [2, 4, 9]],
         [[1, 0, 0], [1, -3, 4], [2, -4, 5]], [[1, 0, 0], [0, 1, 0], [0, 0, 17]],
         [[1, 0, 0], [0, 1, -15], [0, 0, 1]]),
        ([[-1, 2, -3, 4], [5, 6, 7, 8], [9, 10, 11, 13], [2, 3, 5, 7]],
         [[0, -6, 3, 2], [1, -17, 8, 7], [0, -7, 3, 4], [1, -175, 76, 96]],
         [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 88]],
         [[1, 0, 2, -9], [0, 1, 18, -73], [0, 0, 3, -11], [0, 0, -1, 4]]),
        ([[2, 1, 3], [1, 4, -1]],
         [[1, 0], [-4, 1]], [[1, 0, 0], [0, 1, 0]], [[0, -2, 13], [1, 1, -5], [0, 1, -7]]),
    ])
    def test_snf_transforms_are_frozen(self, rows, u, s, v):
        # U and V depend on the tie rule and on the orientation each pivot
        # step leaves the block in; for the three nonsingular inputs the
        # steps run on the Hermite form, and U also holds its transform
        result = snf(IntMatrix.from_rows(rows))
        assert [m.to_rows() for m in result] == [u, s, v]


if given is None:
    def test_smith_contract_property():
        pytest.skip("hypothesis is not installed")
else:
    _ENTRIES = st.one_of(st.sampled_from((-1, 0, 0, 1)), st.integers(-6, 6))
    # any shape up to 5x5, and square ones up to 8x8: nonsingular squares take
    # the Hermite route, singular ones leave it at their first column without
    # a pivot, and the rest go through the pivot loop alone
    _SHAPES = st.one_of(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                        st.integers(6, 8).map(lambda n: (n, n)))
    _SMALL_MATRICES = _SHAPES.flatmap(
        lambda shape: st.lists(_ENTRIES, min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1]).map(
            lambda entries: IntMatrix(shape[0], shape[1], entries)))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_SMALL_MATRICES)
    def test_smith_contract_property(m):
        u, s, v = snf(m)
        assert mat_mul(mat_mul(u, m), v) == s
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        diag = smith_diagonal(s)
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
        if m.rows <= 5 and m.cols <= 5:  # the minors oracle is exponential in the size
            expected = [d for d in smith_diagonal_by_minors(m.to_rows()) if d]
        else:
            expected = [d for d in diag if d]
            assert det(m) == 0 or prod(expected) == abs(det(m))
        assert [d for d in diag if d] == expected
        assert smith_invariants(m) == expected


class TestCokernelAndKernel:
    def test_twist_difference(self):
        m = IntMatrix.from_rows([[0, -3], [0, 0]])
        assert cokernel_group(m) == AbelianGroup(1, (3,))

    def test_zero_map(self):
        assert cokernel_group(IntMatrix(2, 2, [0] * 4)) == AbelianGroup(2)

    def test_finite_cokernel(self):
        m = IntMatrix.from_rows([[54, 21], [-21, -9]])
        group = cokernel_group(m)
        assert group == AbelianGroup(0, (3, 15))
        assert group.torsion_cardinality == abs(cofactor_det(m.to_rows()))

    def test_empty_domain(self):
        # map from the trivial group into Z^2
        assert cokernel_group(IntMatrix(2, 0, [])) == AbelianGroup(2)

    def test_kernel_ranks(self):
        # the kernel rank is cols minus the number of Smith invariants
        for m, kernel in ((IntMatrix.from_rows([[0, -3], [0, 0]]), 1),
                          (IntMatrix(2, 2, [0] * 4), 2),
                          (IntMatrix.from_rows([[7, 3], [-3, -2]]), 0)):
            assert m.cols - len(smith_invariants(m)) == kernel

    def test_rank_nullity(self):
        rng = random.Random(11)
        for _ in range(200):
            m = _random_matrix(rng)
            rank = len(smith_invariants(m))
            assert rank == rank_by_minors(m.to_rows())
            # the last cols - rank columns of the unimodular V span the kernel
            _, _, v = snf(m)
            assert all(not any(r[rank:]) for r in mat_mul(m, v).to_rows())

    def test_cokernel_invariant_under_unimodular_factors(self):
        rng = random.Random(13)
        for _ in range(100):
            m = _random_matrix(rng, max_dim=4)
            left = _random_unimodular(rng, m.rows)
            right = _random_unimodular(rng, m.cols)
            assert cokernel_group(mat_mul(left, mat_mul(m, right))) == cokernel_group(m)


class TestDet:
    def test_examples(self):
        assert det(IntMatrix.from_rows([[8, 3], [-3, -1]])) == 1
        assert det(IntMatrix.from_rows([[7, 3], [-3, -2]])) == -5
        assert det(IntMatrix.identity(5)) == 1
        assert det(IntMatrix.identity(0)) == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="^determinant needs a square matrix, got 2x3$"):
            det(IntMatrix(2, 3, [0] * 6))

    def test_matches_cofactor_expansion(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(0, 5)
            m = IntMatrix(n, n, [rng.randint(-9, 9) for _ in range(n * n)])
            assert det(m) == cofactor_det(m.to_rows())

    def test_large_squares_match_smith_invariants(self):
        # past the cofactor oracle's reach: the pivot route of smith_invariants
        # builds no adjugate, so it is independent of the elimination in det
        rng = random.Random(20261019)
        singular = 0
        for _ in range(60):
            n = rng.randint(6, 12)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.4:
                # a row that combines two others
                i, j, t = rng.sample(range(n), 3)
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                rows[t] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
            m = IntMatrix.from_rows(rows)
            d, invariants = det(m), smith_invariants(m)
            assert (d == 0) == (len(invariants) < n)
            if d:
                assert abs(d) == prod(invariants)
            else:
                singular += 1
        assert 10 < singular < 50


class TestProducts:
    def test_even_twists_compose(self):
        a = IntMatrix.from_rows([[-1, -3], [0, 1]])
        b = IntMatrix.from_rows([[1, 0], [-3, -1]])
        assert mat_mul(a, b) == IntMatrix.from_rows([[8, 3], [-3, -1]])

    def test_unipotent_powers(self):
        m = IntMatrix.from_rows([[1, -3], [0, 1]])
        for k in range(8):
            assert mat_pow(m, k) == IntMatrix.from_rows([[1, -3 * k], [0, 1]])

    def test_zeroth_power_is_identity(self):
        m = IntMatrix.from_rows([[2, 1], [1, 1]])
        assert mat_pow(m, 0) == IntMatrix.identity(2)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mat_mul(IntMatrix(2, 3, [0] * 6), IntMatrix(2, 3, [0] * 6))

    def test_negative_power_rejected(self):
        for k in (-1, True):
            with pytest.raises(ValueError):
                mat_pow(IntMatrix.identity(2), k)

    def test_empty_product(self):
        assert mat_mul(IntMatrix(2, 0, []), IntMatrix(0, 3, [])) == IntMatrix(2, 3, [0] * 6)

    def test_matches_triple_loop(self):
        def naive(a, b):
            out = [[0] * b.cols for _ in range(a.rows)]
            for i in range(a.rows):
                for j in range(b.cols):
                    for t in range(a.cols):
                        out[i][j] += a.entry(i, t) * b.entry(t, j)
            return out

        rng = random.Random(20261020)
        shapes = [(0, 4, 3), (4, 0, 3), (2, 0, 3), (3, 4, 0), (0, 0, 0), (1, 1, 1)]
        shapes += [tuple(rng.randint(1, 6) for _ in range(3)) for _ in range(80)]
        for n, k, m in shapes:
            span = rng.choice((9, 2 ** 80))
            a = IntMatrix(n, k, [rng.randint(-span, span) for _ in range(n * k)])
            b = IntMatrix(k, m, [rng.randint(-span, span) for _ in range(k * m)])
            product = mat_mul(a, b)
            assert product.shape == (n, m)
            assert product.to_rows() == naive(a, b)
            assert product == IntMatrix.from_rows(naive(a, b), cols=m)


class TestDetAdjugate:
    def test_matches_cofactor_expansion(self):
        rng = random.Random(20261022)
        singular = 0
        for _ in range(300):
            n = rng.randint(0, 5)
            span = rng.choice((1, 2, 9, 2**70))
            m = IntMatrix(n, n, [rng.randint(-span, span) for _ in range(n * n)])
            d, adj = det_adjugate(m)
            assert d == cofactor_det(m.to_rows())
            if d == 0:
                # the elimination stops at the first column with no pivot
                assert adj == []
                singular += 1
                continue
            scalar = IntMatrix.from_rows([[d * (i == j) for j in range(n)] for i in range(n)],
                                         cols=n)
            adj = IntMatrix.from_rows(adj, cols=n)
            assert mat_mul(adj, m) == scalar == mat_mul(m, adj)
        assert singular > 30

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            det_adjugate(IntMatrix(2, 3, [0] * 6))


class TestInverse:
    """``GradedAction.inverse``, which inverts through ``det_adjugate``."""

    @staticmethod
    def _inverse(m: IntMatrix) -> IntMatrix:
        return GradedAction({1: m}).inverse().matrix(1)

    def test_inverse_of_unimodular(self):
        rng = random.Random(19)
        for _ in range(50):
            n = rng.randint(0, 4)
            m = _random_unimodular(rng, n)
            inv = self._inverse(m)
            assert mat_mul(m, inv) == IntMatrix.identity(n)
            assert mat_mul(inv, m) == IntMatrix.identity(n)

    def test_negative_determinant(self):
        m = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert self._inverse(m) == m
        m = IntMatrix.from_rows([[2, 1], [1, 0]])
        assert cofactor_det(m.to_rows()) == -1
        assert mat_mul(m, self._inverse(m)) == IntMatrix.identity(2)

    def test_non_unimodular_rejected(self):
        for rows in ([[2, 0], [0, 1]], [[1, 2], [2, 4]], [[3]]):
            with pytest.raises(ValueError, match="unimodular"):
                self._inverse(IntMatrix.from_rows(rows))

class TestAbelianGroup:
    def test_divisor_chain_enforced(self):
        with pytest.raises(ValueError):
            AbelianGroup(0, (4, 6))
        with pytest.raises(ValueError):
            AbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            AbelianGroup(-1)

    def test_rendering(self):
        assert str(AbelianGroup(0)) == "0"
        assert str(AbelianGroup(2)) == "Z^2"
        assert str(AbelianGroup(0, (3, 15))) == "Z/3+Z/15"
        assert str(AbelianGroup(1, (3,))) == "Z^1+Z/3"


class TestMatrixLiteral:
    def test_roundtrip(self):
        m = IntMatrix.from_rows([[7, 3], [-3, -2]])
        assert parse_matrix(format_matrix(m)) == m
        assert format_matrix(m) == "[[7,3],[-3,-2]]"

    def test_whitespace_is_free(self):
        assert parse_matrix(" [ [ 0 , -3 ] , [ 0 , 0 ] ] ").to_rows() == [[0, -3], [0, 0]]

    def test_empty(self):
        assert parse_matrix("[]").shape == (0, 0)

    @pytest.mark.parametrize("bad", ["[[1,2],[3]]", "[[1.5]]", "[1,2]", "[[true]]", "nope", "[[1,"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_matrix(bad)
