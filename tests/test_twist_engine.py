"""Twist actions: the classical reflection matrices and word composition."""

from __future__ import annotations

import random
import string
from operator import sub

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # optional: the property test skips without it
    given = None

import plumbhom.exact_linalg as exact_linalg
import plumbhom.twist_engine as twist_engine
from behaviour_corpus import CORPUS
from oracles import cofactor_det
from plumbhom.exact_linalg import IntMatrix, mat_mul
from plumbhom.plumbing import PlumbingGraph, intersection_form, parse_graph
from plumbhom.presets import GRAPH_PRESETS, graph_preset
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


class TestParseWord:
    """Exponents are ASCII ``[+-]?[0-9]+``, nonzero (the README's word grammar)."""

    @pytest.mark.parametrize("text, letters", [
        ("t1", (("t1", 1),)),
        ("t1^3 t2^-1", (("t1", 3), ("t2", -1))),
        ("t1^+2", (("t1", 2),)),
        ("t1^02", (("t1", 2),)),
        ("a^b^-3", (("a^b", -3),)),  # the last caret starts the exponent
    ])
    def test_accepted(self, text, letters):
        assert parse_word(text).letters == letters

    # int() alone reads the first three as 10, 3 (an Arabic-Indic three) and
    # 2 (a fullwidth two)
    @pytest.mark.parametrize("token", [
        "t1^1_0", "t1^\u0663", "t1^\uff12", "t1^\u00b2", "t1^", "t1^+", "t1^-", "t1^+-2",
        "t1^2.0", "t1^0x10",
    ])
    def test_rejected(self, token):
        with pytest.raises(ValueError) as excinfo:
            parse_word(f"t2 {token}")
        assert str(excinfo.value) == f"bad exponent in token {token!r}"

    @pytest.mark.parametrize("token", ["t1^0", "t1^-0", "t1^+00"])
    def test_zero_exponent(self, token):
        with pytest.raises(ValueError, match="zero exponent"):
            parse_word(token)


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
            transposed = IntMatrix.from_rows(zip(*t.to_rows()))
            assert mat_mul(mat_mul(transposed, q), t) == q

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
        # (mat_mul is the one product; mat_pow and GradedAction.power reach it)
        labels = tuple(f"v{i}" for i in range(20))
        graph = PlumbingGraph(3, labels, tuple((a, b, 1) for a, b in zip(labels, labels[1:])))
        calls = []

        def counting(a, b):
            calls.append((a.shape, b.shape))
            return mat_mul(a, b)

        monkeypatch.setattr(exact_linalg, "mat_mul", counting)
        action = word_action(graph, parse_word(" ".join(labels)))
        assert calls == []
        monkeypatch.undo()
        expected = IntMatrix.identity(20)
        for label in labels:
            expected = mat_mul(expected, word_action(graph, TwistWord(((label, 1),))).matrix(3))
        assert action.matrix(3) == expected

    def test_closed_form_takes_no_general_matrix_route(self, monkeypatch):
        # words in dimensions 2-7, exponents +-1..+-5, against the product of
        # GradedAction.power of one-letter reflections built here from the form,
        # taken in word order on the one degree a word moves
        rng = random.Random(20261018)
        cases = []
        for dimension in range(2, 8):
            for _ in range(10):
                graph = random_graph(rng, dimensions=(dimension,))
                letters = tuple(
                    (rng.choice(graph.vertices), rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)))
                    for _ in range(rng.randint(1, 6))
                )
                expected = IntMatrix.identity(len(graph.vertices))
                for label, exp in letters:
                    power = _reflection(graph, label).power(exp).matrix(dimension)
                    expected = mat_mul(expected, power)
                cases.append((graph, TwistWord(letters), expected))
        assert {e for _, word, _ in cases for _, e in word.letters} == {-5, -4, -3, -2, -1,
                                                                          1, 2, 3, 4, 5}

        def refuse(*args):
            raise AssertionError("general matrix route taken")

        for owner, name in ((exact_linalg, "snf"), (exact_linalg, "mat_pow"),
                            (exact_linalg, "mat_mul"), (twist_engine, "det_adjugate"),
                            (twist_engine, "mat_pow"), (GradedAction, "power"),
                            (GradedAction, "inverse")):
            monkeypatch.setattr(owner, name, refuse)
        for graph, word, expected in cases:
            n = graph.dimension
            assert word_action(graph, word).matrix(n) == expected
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


class TestPowers:
    """``_powers`` yields phi, phi^2, ... as one list of rows, advanced in place."""

    GRAPHS = (
        *GRAPH_PRESETS.values(),
        parse_graph((CORPUS.parent / "golden" / "a8-chain-n3.graph.json").read_text()),
        parse_graph((CORPUS / "a2-3pt-n1-two-actions.graph.json").read_text()),
    )

    @staticmethod
    def _words(graph, rng):
        # every letter that acts: in dimension 1, those with a stored h1_action
        labels = [v for v in graph.vertices
                  if graph.dimension > 1 or graph.h1_action(v) is not None]
        yield TwistWord(())
        yield TwistWord(((labels[0], 10**50), (labels[-1], -1)))
        for _ in range(4):
            yield TwistWord(tuple((rng.choice(labels), rng.choice((-3, -2, -1, 1, 2)))
                                  for _ in range(rng.randint(1, 5))))

    def test_yields_the_powers_of_the_word_action(self):
        rng = random.Random(25)
        for graph in self.GRAPHS:
            n = graph.dimension
            for word in self._words(graph, rng):
                phi = word_action(graph, word)
                powers = twist_engine._powers(graph, word)
                for k in range(1, 7):
                    assert next(powers) == phi.power(k).matrix(n).to_rows()

    def test_generators_on_one_word_are_independent(self):
        rng = random.Random(26)
        for graph in self.GRAPHS:
            for word in self._words(graph, rng):
                # the second runs one power behind the first, so neither list is shared
                first = twist_engine._powers(graph, word)
                second = twist_engine._powers(graph, word)
                behind = [r[:] for r in next(first)]
                for _ in range(6):
                    ahead = next(first)
                    assert next(second) == behind
                    behind = [r[:] for r in ahead]
                # one list, advanced in place
                assert next(first) is ahead

    @pytest.mark.parametrize("text", ["t1^2 t2", "t1^-2 t2", "t1^4 t2"])
    def test_even_powers_of_a_letter_act_as_the_identity_in_even_dimension(self, text):
        # T^2 = I in even n, so the t1 letter takes no step, yet each power is the word's
        graph = graph_preset("a2-3pt-n2")
        word = parse_word(text)
        phi = word_action(graph, word)
        assert phi == _reflection(graph, "t2")
        powers = twist_engine._powers(graph, word)
        for k in range(1, 11):
            assert next(powers) == phi.power(k).matrix(2).to_rows()


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


    def test_dimension_one_words_multiply_stored_powers(self):
        # two stored letters, in both orders and with negative exponents,
        # against GradedAction.power multiplied in word order
        a = self.action.matrix(1)
        graph = PlumbingGraph(1, self.graph.vertices, self.graph.edges,
                              (("t1", a), ("t2", IntMatrix.from_rows(zip(*a.to_rows())))))
        for text in ("t1^2 t2^-1 t1^-3", "t2^5 t1^-1 t2^-2", "t1 t2", "t2 t1", ""):
            expected = IntMatrix.identity(4)
            for label, exp in parse_word(text).letters:
                power = GradedAction({1: graph.h1_action(label)}).power(exp).matrix(1)
                expected = mat_mul(expected, power)
            action = word_action(graph, parse_word(text))
            assert action.degrees() == (1,)
            assert action.matrix(1) == expected
        assert word_action(graph, parse_word("t1 t2")) != word_action(graph, parse_word("t2 t1"))
        # a word acts in exactly one degree, which the family and `twist` unpack
        for preset in GRAPH_PRESETS.values():
            for text in ("", "t1", "t1^-2"):
                assert word_action(preset, parse_word(text)).degrees() == (preset.dimension,)


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


if given is None:
    def test_word_str_roundtrip_property():
        pytest.skip("hypothesis is not installed")
else:
    # exponents stay far under the digit limit that int() applies when parsing
    _EXPONENTS = st.one_of(st.integers(1, 10**100 - 1), st.integers(-(10**100) + 1, -1))
    # labels match [A-Za-z0-9_]+
    _LABELS = st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=12)
    _LETTERS = st.tuples(_LABELS, _EXPONENTS)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(_LETTERS, max_size=8))
    def test_word_str_roundtrip_property(letters):
        word = TwistWord(letters)
        assert parse_word(str(word)) == word


class TestGradedAction:
    def test_absent_degrees_act_as_identity(self):
        action = GradedAction({3: IntMatrix.from_rows([[1, -3], [0, 1]])})
        assert action.matrix(2, 5).is_identity()
        with pytest.raises(KeyError):
            action.matrix(2)

    def test_equality_treats_identity_as_absent(self):
        assert GradedAction({3: IntMatrix.identity(2)}) == IDENTITY_ACTION
        assert IDENTITY_ACTION == GradedAction({3: IntMatrix.identity(2)})
        a = GradedAction({3: IntMatrix.from_rows([[1, 1], [0, 1]])})
        assert a != IDENTITY_ACTION
        assert not IDENTITY_ACTION == a

    def test_degrees_checked(self):
        for degree in (-1, True):
            with pytest.raises(ValueError, match=f"got {degree!r}$"):
                GradedAction({degree: IntMatrix.identity(1)})

    def test_inverse_requires_unimodular(self):
        with pytest.raises(ValueError, match="unimodular"):
            GradedAction({1: IntMatrix.from_rows([[2]])}).inverse()
