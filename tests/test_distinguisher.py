"""Filling families, distinctness classification, and the trace recurrence."""

from __future__ import annotations

import random
from collections import Counter

import pytest

import plumbhom.bundle_homology as bundle_homology
import plumbhom.distinguisher as distinguisher
from behaviour_corpus import CORPUS
from oracles import classify_distinct, cofactor_det, pow_square
from plumbhom.bundle_homology import Representation, surface_bundle_homology
from plumbhom.distinguisher import filling_family, torsion_closed_form
from plumbhom.exact_linalg import AbelianGroup, IntMatrix, cokernel_rows, mat_pow
from plumbhom.plumbing import GradedGroup, PlumbingGraph, base_homology, parse_graph
from plumbhom.presets import GRAPH_PRESETS, graph_preset
from plumbhom.twist_engine import IDENTITY_ACTION, GradedAction, TwistWord, parse_word, word_action
from test_plumbing import A2_3PT_N2, A2_3PT_N3

A2_1PT_N3 = PlumbingGraph(3, ("L1", "L2"), (("L1", "L2", 1),))
EVEN_GENERATOR = IntMatrix.from_rows([[8, 3], [-3, -1]])


class TestTorsionClosedForm:
    def test_first_values(self):
        assert torsion_closed_form(EVEN_GENERATOR, 1) == 5
        assert torsion_closed_form(EVEN_GENERATOR, 2) == 45
        assert torsion_closed_form(EVEN_GENERATOR, 3) == 320

    def test_matches_direct_determinant(self):
        rows = EVEN_GENERATOR.to_rows()
        for k in range(1, 16):
            power = pow_square(rows, k)
            power[0][0] -= 1
            power[1][1] -= 1
            assert torsion_closed_form(EVEN_GENERATOR, k) == abs(cofactor_det(power))

    def test_parabolic_trace_two_degenerates(self):
        m = IntMatrix.from_rows([[1, 5], [0, 1]])
        for k in range(8):
            assert torsion_closed_form(m, k) == 0

    def test_k_zero(self):
        assert torsion_closed_form(EVEN_GENERATOR, 0) == 0

    def test_determinant_must_be_one(self):
        with pytest.raises(ValueError) as excinfo:
            torsion_closed_form(IntMatrix.from_rows([[1, 0], [0, -1]]), 1)
        assert str(excinfo.value) == "determinant must be 1, got -1"

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            torsion_closed_form(IntMatrix.identity(3), 1)

    @pytest.mark.parametrize("k", [-1, True])
    def test_exponent_checked(self, k):
        with pytest.raises(ValueError, match="k must be"):
            torsion_closed_form(EVEN_GENERATOR, k)

    def test_exponential_growth(self):
        values = [torsion_closed_form(EVEN_GENERATOR, k) for k in range(1, 31)]
        for k in range(2, 30):
            assert values[k] > 6 * values[k - 1]


class TestClassifyDistinct:
    def test_example_partition(self):
        g = GradedGroup({0: AbelianGroup(1)})
        h = GradedGroup({0: AbelianGroup(2)})
        assert classify_distinct([g, g, h]) == [1, 1, 2]

    def test_empty(self):
        assert classify_distinct([]) == []

    def test_numbering_by_first_occurrence(self):
        a = GradedGroup({1: AbelianGroup(1)})
        b = GradedGroup({2: AbelianGroup(1)})
        c = GradedGroup({3: AbelianGroup(1)})
        assert classify_distinct([b, a, b, c, a]) == [1, 2, 1, 3, 2]


class TestFillingFamily:
    def test_odd_family_torsion(self):
        report = filling_family(A2_3PT_N3, parse_word("L1"), 20)
        assert report.torsion_degree == 3
        for entry in report.entries:
            assert entry.torsion_factors == (3 * entry.k,)
            assert entry.boundary_ok
        assert report.distinct_classes == 20
        assert report.trivial_torsion_ks == ()

    def test_dimension_one_preset_family(self):
        report = filling_family(graph_preset("a2-3pt-n1"), parse_word("t1"), 20)
        assert report.torsion_degree == 1
        for entry in report.entries:
            expected = (entry.k,) if entry.k >= 2 else ()
            assert entry.torsion_factors == expected
        assert report.distinct_classes == 20
        assert report.trivial_torsion_ks == (1,)

    def test_single_edge_family(self):
        report = filling_family(A2_1PT_N3, parse_word("L1"), 20)
        for entry in report.entries:
            group = entry.homology.group(3)
            assert group.free_rank == 1
            assert group.invariant_factors == ((entry.k,) if entry.k >= 2 else ())
        assert report.distinct_classes == 20

    def test_empty_word_collapses_to_one_class(self):
        report = filling_family(A2_3PT_N3, TwistWord(()), 6)
        assert report.distinct_classes == 1
        assert all(e.class_id == 1 for e in report.entries)

    def test_monotone_distinctness(self):
        previous = 0
        for k_max in range(1, 12):
            report = filling_family(A2_3PT_N2, parse_word("L1 L2"), k_max)
            assert report.distinct_classes >= previous
            previous = report.distinct_classes

    def test_even_family_matches_closed_form(self):
        report = filling_family(A2_3PT_N2, parse_word("L1 L2"), 12)
        for entry in report.entries:
            assert entry.torsion_cardinality == torsion_closed_form(EVEN_GENERATOR, entry.k)

    def test_one_reduction_per_member(self, monkeypatch):
        # only the middle-degree block of D_k moves with k; the degrees where
        # both monodromies act as the identity need no reduction, and member k
        # reduces phi^k - I itself, every member as rows through _wang_piece
        graph = graph_preset("a2-3pt-n3")
        calls = []

        def counting(rows):
            calls.append([list(r) for r in rows])  # the reduction consumes its rows
            return cokernel_rows(rows)

        monkeypatch.setattr(bundle_homology, "cokernel_rows", counting)
        filling_family(graph, parse_word("t1"), 20)
        assert [(len(m), len(m[0])) for m in calls] == [(2, 2)] * 20
        t1 = word_action(graph, parse_word("t1")).matrix(3)
        for k, m in enumerate(calls, 1):
            rows = mat_pow(t1, k).to_rows()
            for i in range(2):
                rows[i][i] -= 1
            assert m == rows

    def test_checked_constructions_do_not_grow_with_k(self, monkeypatch):
        # each member's groups reuse checked Smith invariants, phi^k is kept as
        # rows rather than actions, and the word's powers and the base
        # homology are started once per family
        counts = Counter()
        for cls in (AbelianGroup, GradedAction, GradedGroup):
            def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                counts[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        for name in ("_powers", "base_homology"):
            def counting(*args, _fn=getattr(distinguisher, name), _name=name):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(distinguisher, name, counting)
        filling_family(graph_preset("a2-3pt-n3"), parse_word("t1"), 10)
        few = dict(counts)
        counts.clear()
        filling_family(graph_preset("a2-3pt-n3"), parse_word("t1"), 30)
        assert dict(counts) == few
        assert few["_powers"] == few["base_homology"] == 1

    def test_members_match_the_general_route(self):
        # each member against surface_bundle_homology on (phi^k, Id), with
        # phi^k from GradedAction.power; (phi^k, Id) always meets the boundary
        # condition, since [phi^k, Id] = Id
        rng = random.Random(353)
        seen = set()
        for graph, word in _family_cases(rng):
            k_max = rng.randint(1, 8)
            report = filling_family(graph, word, k_max)
            phi = word_action(graph, word)
            base = base_homology(graph)
            expected = []
            for entry in report.entries:
                rep = Representation(1, (phi.power(entry.k), IDENTITY_ACTION))
                homology = surface_bundle_homology(base, rep)
                torsion = homology.group(graph.dimension)
                assert entry.homology == homology
                assert entry.torsion_factors == torsion.invariant_factors
                assert entry.torsion_cardinality == torsion.torsion_cardinality
                assert entry.boundary_ok is True
                # the public constructor sorts and drops trivial groups
                public = {k: AbelianGroup(0) for k in range(graph.dimension + 3)}
                public.update(reversed(entry.homology.items()))
                public = GradedGroup(dict(reversed(public.items())))
                assert public == entry.homology
                assert hash(public) == hash(entry.homology)
                assert entry.homology.items() == public.items()
                expected.append(homology)
                if torsion.is_trivial():
                    seen.add("dropped")
                if entry.k > 1 and phi.power(entry.k - 1).is_identity():
                    seen.add("finite order")
            assert [e.class_id for e in report.entries] == classify_distinct(expected)
            if any(exp < 0 for _, exp in word.letters):
                seen.add("negative")
        assert seen == {"dropped", "finite order", "negative"}

    def test_members_share_the_upper_group_by_kernel_rank(self):
        # t1 t2 has order 6 on a2-1pt-n5: H_6 = Z^2 but at k = 6 and 12, where
        # phi^k = I and H_6 = Z^4; H_(d+1) is one object per kernel rank
        report = filling_family(graph_preset("a2-1pt-n5"), parse_word("t1 t2"), 13)
        uppers = [e.homology.group(6) for e in report.entries]
        assert [g.free_rank for g in uppers] == [4 if k % 6 == 0 else 2 for k in range(1, 14)]
        assert len({id(g) for g in uppers}) == 2
        assert report.distinct_classes == 4
        assert [e.class_id for e in report.entries] == [1, 2, 3, 2, 1, 4, 1, 2, 3, 2, 1, 4, 1]

    def test_kmax_validated(self):
        with pytest.raises(ValueError, match="k_max"):
            filling_family(A2_3PT_N3, parse_word("L1"), 0)
        with pytest.raises(ValueError, match="k_max"):
            filling_family(A2_3PT_N3, parse_word("L1"), True)

    def test_report_metadata(self):
        report = filling_family(A2_3PT_N3, parse_word("L1^2"), 3)
        assert report.word == "L1^2"
        assert report.k_max == 3
        assert "degree" in report.indexing_note
        assert report.graph == A2_3PT_N3


def _random_word(rng: random.Random, labels) -> TwistWord:
    return TwistWord(tuple(
        (rng.choice(labels), rng.choice((-2, -1, 1, 2, 3))) for _ in range(rng.randint(0, 4))
    ))


def _family_cases(rng: random.Random):
    """The presets, then A_n chains in dimensions 2 to 5, some with Coxeter words,
    then a dimension-1 graph whose words mix two stored H_1 actions."""
    for name in sorted(GRAPH_PRESETS):
        graph = graph_preset(name)
        labels = ("t1",) if graph.dimension == 1 else graph.vertices  # only t1 acts on H_1
        for _ in range(4):
            yield graph, _random_word(rng, labels)
    for _ in range(40):
        labels = tuple(f"v{i}" for i in range(rng.randint(1, 6)))
        edges = tuple((a, b, rng.choice((1, -1))) for a, b in zip(labels, labels[1:]))
        graph = PlumbingGraph(rng.randint(2, 5), labels, edges)
        if rng.random() < 0.3:
            yield graph, TwistWord(tuple((v, 1) for v in rng.sample(labels, len(labels))))
        else:
            yield graph, _random_word(rng, labels)
    graph = parse_graph((CORPUS / "a2-3pt-n1-two-actions.graph.json").read_text())
    yield graph, parse_word("t1^2 t2^-1 t1 t2^3")
    for _ in range(6):
        yield graph, _random_word(rng, ("t1", "t2"))


_METAMORPHIC_GRAPHS = (
    parse_graph((CORPUS.parent / "golden" / "a8-chain-n3.graph.json").read_text()),
    graph_preset("a2-3pt-n3"),
)


def _members(graph, n, letters):
    """Per member of the family to k = 8 on ``graph`` rebuilt in dimension n:
    torsion factors, H_d, H_(d+1) and class id."""
    report = filling_family(PlumbingGraph(n, graph.vertices, graph.edges), TwistWord(letters), 8)
    return [(e.torsion_factors, e.homology.group(n), e.homology.group(n + 1), e.class_id)
            for e in report.entries]


def test_metamorphic_relations():
    # a conjugate word (rotated) and the inverse word (reversed, exponents
    # negated) give the same torsion coker(phi^k - I) for every k; so does
    # dimension n + 4, where the twist sign and the form repeat, but H_d there
    # loses or gains Z^(2 rank H_(d-1)(V)), so H_d is compared by its factors
    for seed in range(100):
        rng = random.Random(seed)
        graph = rng.choice(_METAMORPHIC_GRAPHS)
        n = rng.randint(2, 5)
        letters = [(rng.choice(graph.vertices), rng.choice((-2, -1, 1, 2, 3)))
                   for _ in range(rng.randint(1, 6))]
        members = _members(graph, n, letters)
        assert _members(graph, n, letters[1:] + letters[:1]) == members
        assert _members(graph, n, [(label, -exp) for label, exp in reversed(letters)]) == members
        shifted = _members(graph, n + 4, letters)
        assert ([(t, h.invariant_factors, up, c) for t, h, up, c in shifted]
                == [(t, h.invariant_factors, up, c) for t, h, up, c in members])
