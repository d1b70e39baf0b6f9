"""Filling families, distinctness classification, and the trace recurrence."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from operator import sub

import pytest

import plumbhom.bundle_homology as bundle_homology
import plumbhom.distinguisher as distinguisher
from behaviour_corpus import CORPUS
from oracles import (
    classify_distinct,
    cofactor_det,
    pow_square,
    smith_diagonal_by_minors,
    wang_homology,
)
from plumbhom.bundle_homology import Representation, surface_bundle_homology, wang_pieces
from plumbhom.cli import run
from plumbhom.distinguisher import filling_family, torsion_closed_form
from plumbhom.exact_linalg import AbelianGroup, IntMatrix, cokernel_group, mat_pow, smith_invariants
from plumbhom.plumbing import GradedGroup, PlumbingGraph, base_homology, parse_graph
from plumbhom.presets import GRAPH_PRESETS, graph_preset
from plumbhom.twist_engine import IDENTITY_ACTION, GradedAction, TwistWord, parse_word, word_action
from test_plumbing import A2_3PT_N2, A2_3PT_N3

A2_1PT_N3 = PlumbingGraph(3, ("L1", "L2"), (("L1", "L2", 1),))
EVEN_GENERATOR = IntMatrix.from_rows([[8, 3], [-3, -1]])


def _minus_identity(m: IntMatrix) -> IntMatrix:
    return IntMatrix(m.rows, m.cols, map(sub, m.entries, IntMatrix.identity(m.rows).entries))


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

    def test_even_family_matches_the_smith_route(self):
        report = filling_family(A2_3PT_N2, parse_word("L1 L2"), 12)
        for entry in report.entries:
            difference = _minus_identity(mat_pow(EVEN_GENERATOR, entry.k))
            assert entry.torsion_cardinality == cokernel_group(difference).torsion_cardinality

    def test_one_reduction_per_member(self, monkeypatch):
        # only the middle-degree block of D_k moves with k; the degrees where
        # both monodromies act as the identity need no reduction, and member k
        # of a family with r > 2 reduces phi^k - I itself, every member as
        # rows through smith_rows (H_1 = Z^4 here)
        graph = graph_preset("a2-3pt-n1")
        calls = []

        def counting(rows, _fn=distinguisher.smith_rows):
            calls.append([list(r) for r in rows])  # the reduction consumes its rows
            return _fn(rows)

        monkeypatch.setattr(distinguisher, "smith_rows", counting)
        filling_family(graph, parse_word("t1"), 20)
        assert [(len(m), len(m[0])) for m in calls] == [(4, 4)] * 20
        t1 = word_action(graph, parse_word("t1")).matrix(1)
        for k, m in enumerate(calls, 1):
            assert m == _minus_identity(mat_pow(t1, k)).to_rows()

    def test_two_by_two_family_runs_no_reduction(self, monkeypatch):
        # r = 2: phi is read once, and every member's cokernel comes from the
        # trace recurrence, with no power of phi and no Smith reduction
        reductions, starts = [], []

        for module, name in ((distinguisher, "smith_rows"), (bundle_homology, "smith_rows")):
            def reducing(rows, _fn=getattr(module, name)):
                reductions.append(rows)
                return _fn(rows)

            monkeypatch.setattr(module, name, reducing)

        def starting(*args, _fn=distinguisher._powers):
            starts.append(args)
            return _fn(*args)

        monkeypatch.setattr(distinguisher, "_powers", starting)
        report = filling_family(graph_preset("a2-3pt-n3"), parse_word("t1"), 20)
        assert [e.torsion_factors for e in report.entries] == [(3 * k,) for k in range(1, 21)]
        assert reductions == []
        assert len(starts) == 1

    @pytest.mark.parametrize("preset", ["a2-3pt-n3", "a2-3pt-n1"])
    def test_checked_constructions_do_not_grow_with_k(self, monkeypatch, preset):
        # each member's groups reuse checked Smith invariants, phi^k is kept as
        # rows rather than actions, and the word's powers and the base
        # homology are started once per family; on both routes (r = 2 here,
        # r = 4 on a2-3pt-n1, through _powers and smith_rows)
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
        filling_family(graph_preset(preset), parse_word("t1"), 10)
        few = dict(counts)
        counts.clear()
        filling_family(graph_preset(preset), parse_word("t1"), 30)
        assert dict(counts) == few
        assert few["_powers"] == few["base_homology"] == 1

    @pytest.mark.parametrize("graph, text", [
        (graph_preset("a2-3pt-n2"), "t1 t2"), (graph_preset("a2-3pt-n1"), "t1"),
        (parse_graph((CORPUS / "cycle-3-n2.graph.json").read_text()), "a b c"),
    ], ids=["a2-3pt-n2", "a2-3pt-n1", "cycle-3-n2"])
    def test_one_group_per_member(self, monkeypatch, graph, text):
        # H_d is built once, as the cokernel on Z^(r + 2 r_(d-1)), on the 2x2
        # route (r = 2 here), the general one (r = 4 on a2-3pt-n1, r = 3 on
        # the cycle), and with the kernel summand Z^(2 r_(d-1)) nonzero
        # (Z^4, Z^2 and Z^2); every other group is made once per family
        assert base_homology(graph).rank(graph.dimension - 1)
        built = []

        def recording(cls, *values, _fn=AbelianGroup._unchecked.__func__):
            built.append(_fn(cls, *values))
            return built[-1]

        monkeypatch.setattr(AbelianGroup, "_unchecked", classmethod(recording))
        counts = []
        for k_max in (10, 30):
            built.clear()
            report = filling_family(graph, parse_word(text), k_max)
            counts.append(len(built))
        assert counts[1] - counts[0] == 20
        middles = {id(e.homology.group(graph.dimension)) for e in report.entries}
        assert middles <= {id(g) for g in built[-30:]}

    @pytest.mark.parametrize("graph, text", [
        (graph_preset("a2-3pt-n2"), "t1 t2"), (graph_preset("a2-3pt-n1"), "t1"),
        (parse_graph((CORPUS / "cycle-3-n2.graph.json").read_text()), "a b c"),
    ], ids=["a2-3pt-n2", "a2-3pt-n1", "cycle-3-n2"])
    def test_one_kernel_rank_convention(self, graph, text):
        # the kernel rank a member yields is that of the Wang block D_d = [phi^k - I | 0]
        # of the bundle on (phi^k, Id), on the 2x2 route (a2-3pt-n2) and the general
        # one, and H_(d+1) is free of that rank
        word, d = parse_word(text), graph.dimension
        base, phi = base_homology(graph), word_action(graph, parse_word(text))
        _, uppers, members = distinguisher._family(graph, word, 12)
        report = filling_family(graph, word, 12)
        for (k, _, kernel, _), entry in zip(members, report.entries, strict=True):
            assert kernel == wang_pieces(base, (phi.power(k), IDENTITY_ACTION))[d][1]
            assert uppers[kernel] == entry.homology.group(d + 1) == AbelianGroup(kernel)

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


class TestRankTwoRoute:
    """A 2x2 family's Smith diagonals from the trace recurrence, member by
    member, against the Smith route and the determinantal divisors of phi^k - I."""

    # two circles plumbed at one point: H_1 = Z^2, with a stored action for each
    DIMENSION_ONE = PlumbingGraph(1, ("t1", "t2"), (("t1", "t2", 1),), (
        ("t1", IntMatrix.from_rows([[1, 1], [0, 1]])),
        ("t2", IntMatrix.from_rows([[1, 0], [-1, 1]])),
    ))

    @staticmethod
    def _branches(graph, word, k_max):
        """Check members 1..k_max and name the branches they took."""
        n = graph.dimension
        assert base_homology(graph).rank(n) == 2
        phi = word_action(graph, word).matrix(n)
        branches = {"delta -1"} if cofactor_det(phi.to_rows()) == -1 else set()
        members = distinguisher._diagonals(graph, word, 2)
        for k, diag in zip(range(1, k_max + 1), members):
            difference = _minus_identity(mat_pow(phi, k))
            assert diag == smith_invariants(difference), (word, k)
            minors = smith_diagonal_by_minors(difference.to_rows())
            assert diag == [d for d in minors if d]
            branches.add(("nonsingular", "singular", "zero")[minors.count(0)])
        return branches

    @pytest.mark.parametrize("preset, text", [
        ("a2-3pt-n2", "t1"), ("a2-3pt-n2", "t2^-1"), ("a2-3pt-n2", "t1 t2 t1^3"),
        ("a2-3pt-n2", "t2 t1^-1 t2^3"),
    ])
    def test_odd_words_in_even_dimension_have_determinant_minus_one(self, preset, text):
        assert "delta -1" in self._branches(graph_preset(preset), parse_word(text), 40)

    @pytest.mark.parametrize("preset, text", [
        ("a2-3pt-n3", "t1"), ("a2-3pt-n3", "t2^-3"), ("a2-1pt-n3", "t1^2"),
    ])
    def test_parabolic_members_are_singular(self, preset, text):
        assert self._branches(graph_preset(preset), parse_word(text), 40) == {"singular"}

    def test_finite_order_members_are_zero(self):
        # t1 t2 has order 6 on a2-1pt-n5, so D_6 = D_12 = 0; the empty word gives D_k = 0
        graph = graph_preset("a2-1pt-n5")
        assert "zero" in self._branches(graph, parse_word("t1 t2"), 13)
        assert self._branches(graph, TwistWord(()), 5) == {"zero"}

    def test_dimension_one_graph_of_rank_two(self):
        graph = self.DIMENSION_ONE
        assert self._branches(graph, parse_word("t1"), 30) == {"singular"}
        assert "zero" in self._branches(graph, parse_word("t1 t2"), 12)  # order 6
        assert "nonsingular" in self._branches(graph, parse_word("t1^2 t2^-1"), 30)

    def test_seeded_sweep(self):
        rng = random.Random(27)
        graphs = [g for g in GRAPH_PRESETS.values() if g.dimension > 1] + [self.DIMENSION_ONE]
        seen = set()
        for _ in range(24):
            graph = rng.choice(graphs)
            word = TwistWord(tuple((rng.choice(graph.vertices), rng.choice((-3, -2, -1, 1, 2, 3)))
                                   for _ in range(rng.randint(1, 5))))
            seen |= self._branches(graph, word, 60)
        assert seen == {"delta -1", "nonsingular", "singular", "zero"}

    @pytest.mark.parametrize("pair, message", [
        ((4, 6), "do not multiply"), ((2, 6), "not a divisor chain"),
    ])
    def test_checks_raise_on_a_wrong_pair(self, monkeypatch, capsys, pair, message):
        # phi^k = u phi - s I with u = 0 gives d_1 = |s + 1| and det D = delta^k + 2 s + 1
        d1, det_k = pair
        monkeypatch.setattr(distinguisher, "_recurrence",
                            lambda *phi: iter([(0, d1 - 1, det_k - 2 * d1 + 1)]))
        with pytest.raises(RuntimeError, match=message):
            filling_family(graph_preset("a2-3pt-n2"), parse_word("t1 t2"), 1)
        assert run(["fillings", "--preset", "a2-3pt-n2", "--word", "t1 t2", "--kmax", "1"]) == 2
        assert message in capsys.readouterr().err


def _random_word(rng: random.Random, labels) -> TwistWord:
    return TwistWord(tuple(
        (rng.choice(labels), rng.choice((-2, -1, 1, 2, 3))) for _ in range(rng.randint(0, 4))
    ))


def _family_cases(rng: random.Random):
    """The presets, then A_n chains in dimensions 2 to 5, some with Coxeter words,
    then a dimension-1 graph whose words mix two stored H_1 actions, then a
    3-cycle in dimension 2 (H_1 = Z, so H_2 holds the kernel summand Z^2)."""
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
    graph = parse_graph((CORPUS / "cycle-3-n2.graph.json").read_text())
    yield graph, parse_word("a b c")
    for _ in range(4):
        yield graph, _random_word(rng, graph.vertices)


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


# the edges one pair of vertices may carry: none, one or two, of sign +-1
_PAIR_EDGES = ((), (1,), (-1,), (1, 1), (1, -1), (-1, -1))


def _small_graphs():
    """Every connected graph of up to 3 vertices with up to 2 edges per pair, as
    (labels, edges), one per class under relabelling the vertices and reversing
    a vertex's orientation: that negates every sign at the vertex, and conjugates
    phi by a diagonal sign matrix, since the twist along -S is the twist along S."""
    seen = set()
    for n in (1, 2, 3):
        labels, pairs = "abc"[:n], list(itertools.combinations(range(n), 2))
        for choice in itertools.product(_PAIR_EDGES, repeat=len(pairs)):
            edges = [(i, j, s) for (i, j), signs in zip(pairs, choice) for s in signs]
            reached = {0}
            for _ in range(n):
                reached |= {v for i, j, _ in edges if {i, j} & reached for v in (i, j)}
            key = min(tuple(sorted((min(p[i], p[j]), max(p[i], p[j]), s * f[i] * f[j])
                                   for i, j, s in edges))
                      for p in itertools.permutations(range(n))
                      for f in itertools.product((1, -1), repeat=n))
            if len(reached) == n and (n, key) not in seen:
                seen.add((n, key))
                yield labels, tuple((labels[i], labels[j], s) for i, j, s in edges)


def _small_words(labels):
    """Every word of 1 or 2 letters with exponents +-1 and +-2, and of 3 letters
    with exponents +-1, whose cyclically adjacent letters name different vertices
    (t^a t^b = t^(a + b)), one per class under rotation and inversion, which
    leave the members unchanged (``test_metamorphic_relations``)."""
    for length, exponents in ((1, (1, -1, 2, -2)), (2, (1, -1, 2, -2)), (3, (1, -1))):
        letters = [(v, e) for v in labels for e in exponents]
        for word in itertools.product(letters, repeat=length):
            if length > 1 and any(word[i][0] == word[i - 1][0] for i in range(length)):
                continue
            inverse = tuple((v, -e) for v, e in reversed(word))
            if word == min(w[i:] + w[:i] for w in (word, inverse) for i in range(length)):
                yield TwistWord(word)


def test_small_scope_exhaustive():
    # every member of every small family against the oracle's own assembly of
    # the Wang sequence, in dimensions 2 and 3 (n + 4 repeats them:
    # test_metamorphic_relations); the class ids against its groups
    families = 0
    for labels, edges in _small_graphs():
        for n in (2, 3):
            graph = PlumbingGraph(n, labels, edges)
            base = base_homology(graph)
            ranks = {k: base.rank(k) for k in base.degrees()}
            for word in _small_words(labels):
                report = filling_family(graph, word, 3)
                phi = word_action(graph, word).matrix(n).to_rows()
                expected = [tuple(wang_homology(ranks, {n: [pow_square(phi, e.k)]}, 2).items())
                            for e in report.entries]
                assert [tuple((k, (g.free_rank, g.invariant_factors))
                              for k, g in e.homology.items())
                        for e in report.entries] == expected, (labels, edges, n, word)
                assert [e.class_id for e in report.entries] == classify_distinct(expected)
                families += 1
    assert families == 1596
