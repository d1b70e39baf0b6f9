"""Twist actions: the classical reflection matrices and word composition."""

from __future__ import annotations

import random
from operator import sub

import pytest

import plumbhom.exact_linalg as exact_linalg
import plumbhom.twist_engine as twist_engine
from oracles import cofactor_det
from plumbhom.exact_linalg import IntMatrix, mat_mul
from plumbhom.plumbing import PlumbingGraph, intersection_form
from plumbhom.presets import graph_preset
from plumbhom.twist_engine import (
    GradedAction,
    IDENTITY_ACTION,
    TwistWord,
    parse_word,
    word_action,
)
from test_plumbing import A2_3PT_N2, A2_3PT_N3, SINGLE_N3, random_graph


class TestTwistMatrix:
    def test_odd_dimension_pair(self):
        t1 = word_action(A2_3PT_N3, TwistWord((("L1", 1),)))
        t2 = word_action(A2_3PT_N3, TwistWord((("L2", 1),)))
        assert t1.matrix(3).to_rows() == [[1, -3], [0, 1]]
        assert t2.matrix(3).to_rows() == [[1, 0], [3, 1]]

    def test_even_dimension_pair(self):
        t1 = word_action(A2_3PT_N2, TwistWord((("L1", 1),)))
        t2 = word_action(A2_3PT_N2, TwistWord((("L2", 1),)))
        assert t1.matrix(2).to_rows() == [[-1, -3], [0, 1]]
        assert t2.matrix(2).to_rows() == [[1, 0], [-3, -1]]

    def test_same_matrices_in_higher_dimensions(self):
        # the reflection only depends on the parity of the sphere dimension
        a2_n5 = PlumbingGraph(5, ("L1", "L2"), (("L1", "L2", 1),) * 3)
        a2_n4 = PlumbingGraph(4, ("L1", "L2"), (("L1", "L2", 1),) * 3)
        odd = word_action(a2_n5, TwistWord((("L1", 1),)))
        even = word_action(a2_n4, TwistWord((("L1", 1),)))
        assert odd.matrix(5).to_rows() == [[1, -3], [0, 1]]
        assert even.matrix(4).to_rows() == [[-1, -3], [0, 1]]

    def test_single_vertex_odd_is_homologically_trivial(self):
        action = word_action(SINGLE_N3, TwistWord((("L1", 1),)))
        assert action.matrix(3).to_rows() == [[1]]
        assert action.is_identity()

    def test_identity_away_from_middle_degree(self):
        action = word_action(A2_3PT_N3, TwistWord((("L1", 1),)))
        assert action.degrees() == (3,)
        assert action.matrix(1, 2).is_identity()

    def test_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            word_action(A2_3PT_N3, TwistWord((("L9", 1),)))
        with pytest.raises(ValueError, match="^empty vertex label in word$"):
            word_action(A2_3PT_N3, TwistWord((("", 1),)))

    def test_dimension_one_needs_preset_or_h1_action(self):
        graph = PlumbingGraph(1, ("L1", "L2"), (("L1", "L2", 1),) * 3)
        with pytest.raises(ValueError, match="preset"):
            word_action(graph, TwistWord((("L1", 1),)))

    def test_determinant_is_parity_of_dimension(self):
        rng = random.Random(211)
        for _ in range(100):
            graph = random_graph(rng)
            vertex = rng.choice(graph.vertices)
            m = word_action(graph, TwistWord(((vertex, 1),))).matrix(graph.dimension)
            expected = 1 if graph.dimension % 2 else -1
            assert cofactor_det(m.to_rows()) == expected


class TestWordAction:
    def test_even_composition(self):
        action = word_action(A2_3PT_N2, parse_word("L1 L2"))
        assert action.matrix(2).to_rows() == [[8, 3], [-3, -1]]

    def test_odd_powers_are_linear(self):
        for k in range(1, 8):
            action = word_action(A2_3PT_N3, parse_word(f"L1^{k}"))
            assert action.matrix(3).to_rows() == [[1, -3 * k], [0, 1]]

    def test_empty_word_is_identity(self):
        action = word_action(A2_3PT_N3, TwistWord(()))
        assert action == IDENTITY_ACTION
        assert action.matrix(3).is_identity()
        assert action.degrees() == (3,)

    def test_negative_exponents_invert(self):
        action = word_action(A2_3PT_N2, parse_word("L1 L1^-1 L2^2 L2^-2"))
        assert action.is_identity()

    def test_word_with_inverse_word_cancels(self):
        word = parse_word("L1^2 L2^-1 L1")
        inverse = parse_word("L1^-1 L2 L1^-2")
        combined = word_action(A2_3PT_N2, TwistWord(word.letters + inverse.letters))
        assert combined.is_identity()

    def test_form_preservation(self):
        # twists are symplectomorphisms: T^t Q T == Q
        rng = random.Random(223)
        for _ in range(150):
            graph = random_graph(rng)
            q = intersection_form(graph)
            letters = tuple(
                (rng.choice(graph.vertices), rng.choice((-3, -2, -1, 1, 2, 3)))
                for _ in range(rng.randint(0, 5))
            )
            t = word_action(graph, TwistWord(letters)).matrix(graph.dimension)
            assert mat_mul(mat_mul(t.transpose(), q), t) == q

    def test_unimodular_in_every_degree(self):
        rng = random.Random(227)
        for _ in range(60):
            graph = random_graph(rng)
            letters = tuple(
                (rng.choice(graph.vertices), rng.choice((-2, -1, 1, 2)))
                for _ in range(rng.randint(1, 4))
            )
            action = word_action(graph, TwistWord(letters))
            for _, m in action.items():
                assert abs(cofactor_det(m.to_rows())) == 1

    def test_no_products_with_the_identity(self, monkeypatch):
        # A_20 Coxeter word: each letter is a rank-one update, no product at all
        labels = tuple(f"v{i}" for i in range(20))
        graph = PlumbingGraph(3, labels, tuple((a, b, 1) for a, b in zip(labels, labels[1:])))
        calls = []

        def counting(a, b):
            calls.append((a.shape, b.shape))
            return mat_mul(a, b)

        monkeypatch.setattr(exact_linalg, "mat_mul", counting)
        monkeypatch.setattr(twist_engine, "mat_mul", counting)
        action = word_action(graph, parse_word(" ".join(labels)))
        assert calls == []
        monkeypatch.undo()
        expected = IntMatrix.identity(20)
        for label in labels:
            expected = mat_mul(expected, word_action(graph, TwistWord(((label, 1),))).matrix(3))
        assert action.matrix(3) == expected

    def test_closed_form_takes_no_general_matrix_route(self, monkeypatch):
        # words in dimensions 2-7, exponents +-1..+-5, against the product of
        # GradedAction.power of one-letter reflections built here from the form
        rng = random.Random(20261018)
        cases = []
        for dimension in range(2, 8):
            for _ in range(10):
                graph = random_graph(rng, dimensions=(dimension,))
                letters = tuple(
                    (rng.choice(graph.vertices), rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)))
                    for _ in range(rng.randint(1, 6))
                )
                expected = IDENTITY_ACTION
                for label, exp in letters:
                    expected = expected.compose(_reflection(graph, label).power(exp))
                cases.append((graph, TwistWord(letters), expected))
        assert {e for _, word, _ in cases for _, e in word.letters} == {-5, -4, -3, -2, -1,
                                                                          1, 2, 3, 4, 5}

        def refuse(*args):
            raise AssertionError("general matrix route taken")

        for owner, name in ((exact_linalg, "snf"), (exact_linalg, "mat_pow"),
                            (exact_linalg, "mat_mul"), (twist_engine, "det_adjugate"),
                            (twist_engine, "mat_pow"), (twist_engine, "mat_mul"),
                            (GradedAction, "power"), (GradedAction, "inverse")):
            monkeypatch.setattr(owner, name, refuse)
        for graph, word, expected in cases:
            n = graph.dimension
            assert word_action(graph, word).matrix(n) == expected.matrix(n, len(graph.vertices))
            for label in graph.vertices:
                single = word_action(graph, TwistWord(((label, 1),)))
                assert single.matrix(n) == _reflection(graph, label).matrix(n)

    def test_rank_one_perturbation_is_nilpotent_for_odd_n(self):
        # T = I + N with N^2 = 0, so T^k = I + kN
        rng = random.Random(229)
        for _ in range(60):
            graph = random_graph(rng, dimensions=(3, 5, 7))
            vertex = rng.choice(graph.vertices)
            t = word_action(graph, TwistWord(((vertex, 1),))).matrix(graph.dimension)
            n = IntMatrix(t.rows, t.cols, map(sub, t.entries, IntMatrix.identity(t.rows).entries))
            assert mat_mul(n, n) == IntMatrix(t.rows, t.rows, [0] * (t.rows * t.rows))
            k = rng.randint(1, 9)
            power = word_action(graph, TwistWord(((vertex, k),))).matrix(graph.dimension)
            expected = IntMatrix(
                t.rows, t.cols,
                [i + k * d for i, d in zip(IntMatrix.identity(t.rows).entries, n.entries)],
            )
            assert power == expected


def _reflection(graph, vertex):
    # Picard-Lefschetz: column i of T is e_i + s <e_i, L> L, with L = e_v
    n = graph.dimension
    q = intersection_form(graph)
    v = graph.vertices.index(vertex)
    size = q.rows
    s = (-1) ** ((n + 1) * (n + 2) // 2)
    rows = [[int(i == j) + (s * q.entry(j, v) if i == v else 0) for j in range(size)]
            for i in range(size)]
    return GradedAction({n: IntMatrix.from_rows(rows)})


class TestPresetAction:
    """The ``a2-3pt-n1`` graph preset carries the H_1 action of t1."""

    graph = graph_preset("a2-3pt-n1")
    action = word_action(graph, parse_word("t1"))

    def test_matrix_as_displayed(self):
        assert self.graph.dimension == 1
        assert self.graph.edge_count == 3
        assert self.action.matrix(1).to_rows() == [
            [1, -3, -1, -1],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]

    def test_powers_scale_first_row(self):
        for k in range(1, 12):
            power = self.action.power(k)
            assert power.matrix(1).row(0) == (1, -3 * k, -k, -k)

    def test_unimodular(self):
        assert cofactor_det(self.action.matrix(1).to_rows()) == 1

    def test_word_action_resolves_h1_entries(self):
        assert word_action(self.graph, parse_word("t1^2")) == self.action.power(2)
        with pytest.raises(ValueError, match="h1_action"):
            word_action(self.graph, parse_word("t2"))


class TestWordGrammar:
    def test_tokens(self):
        word = parse_word("t1^3 t2^-1")
        assert word.letters == (("t1", 3), ("t2", -1))

    def test_bare_label_means_exponent_one(self):
        assert parse_word("t1 t2").letters == (("t1", 1), ("t2", 1))

    def test_empty_text(self):
        assert parse_word("").letters == ()

    @pytest.mark.parametrize("bad", ["t1^0", "t1^", "^2", "t1^x"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_word(bad)

    def test_str_roundtrip(self):
        word = parse_word("t1^3 t2^-1 t1")
        assert parse_word(str(word)) == word


class TestGradedAction:
    def test_absent_degrees_act_as_identity(self):
        action = GradedAction({3: IntMatrix.from_rows([[1, -3], [0, 1]])})
        assert action.matrix(2, 5).is_identity()
        with pytest.raises(KeyError):
            action.matrix(2)

    def test_equality_treats_identity_as_absent(self):
        assert GradedAction({3: IntMatrix.identity(2)}) == IDENTITY_ACTION
        a = GradedAction({3: IntMatrix.from_rows([[1, 1], [0, 1]])})
        assert a != IDENTITY_ACTION

    def test_compose_with_an_empty_action_returns_the_other(self):
        a = GradedAction({3: IntMatrix.from_rows([[1, 1], [0, 1]])})
        assert IDENTITY_ACTION.compose(a) is a
        assert a.compose(GradedAction({})) is a
        assert IDENTITY_ACTION.compose(IDENTITY_ACTION) is IDENTITY_ACTION

    def test_compose_size_mismatch(self):
        a = GradedAction({3: IntMatrix.identity(2)})
        b = GradedAction({3: IntMatrix.identity(3)})
        with pytest.raises(ValueError, match="size mismatch"):
            a.compose(b)

    def test_degrees_checked(self):
        for degree in (-1, True):
            with pytest.raises(ValueError, match=f"got {degree!r}$"):
                GradedAction({degree: IntMatrix.identity(1)})

    def test_inverse_requires_unimodular(self):
        with pytest.raises(ValueError, match="unimodular"):
            GradedAction({1: IntMatrix.from_rows([[2]])}).inverse()
