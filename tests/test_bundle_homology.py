"""Mapping torus and surface-bundle homology against classical answers."""

from __future__ import annotations

import random
from operator import sub

import pytest

from oracles import adjugate_inverse, euler_characteristic, inv_2x2_det1, mul_2x2
from plumbhom.bundle_homology import (
    Representation,
    boundary_check,
    mapping_torus_homology,
    surface_bundle_homology,
    wang_pieces,
)
from plumbhom.exact_linalg import (
    AbelianGroup,
    IntMatrix,
    cokernel_group,
    det,
    mat_mul,
    smith_invariants,
)
from plumbhom.plumbing import GradedGroup, base_homology
from plumbhom.twist_engine import GradedAction, IDENTITY_ACTION, TwistWord, word_action
from test_exact_linalg import _random_unimodular
from test_plumbing import A2_3PT_N2, A2_3PT_N3, random_graph

CIRCLE = GradedGroup({0: AbelianGroup(1), 1: AbelianGroup(1)})


def degree_map(degree: int, rows) -> GradedAction:
    return GradedAction({degree: IntMatrix.from_rows(rows)})


class TestWangPieces:
    def test_identity_monodromy(self):
        base = base_homology(A2_3PT_N3)
        pieces = wang_pieces(base, [IDENTITY_ACTION])
        assert sorted(pieces) == list(base.degrees())
        for k in base.degrees():
            assert pieces[k] == (base.group(k), base.rank(k))

    def test_single_twist(self):
        base = base_homology(A2_3PT_N3)
        pieces = wang_pieces(base, [word_action(A2_3PT_N3, TwistWord((("L1", 1),)))])
        assert pieces[3] == (AbelianGroup(1, (3,)), 1)

    def test_two_monodromies(self):
        base = base_homology(A2_3PT_N3)
        phi = word_action(A2_3PT_N3, TwistWord((("L1", 1),)))
        pieces = wang_pieces(base, [phi, IDENTITY_ACTION])
        # block matrix [phi - I | 0] on Z^4: rank 1
        assert pieces[3] == (AbelianGroup(1, (3,)), 3)

    def test_block_order_irrelevant(self):
        base = base_homology(A2_3PT_N3)
        phi = word_action(A2_3PT_N3, TwistWord((("L1", 1),)))
        forward = wang_pieces(base, [phi, IDENTITY_ACTION])
        backward = wang_pieces(base, [IDENTITY_ACTION, phi])
        assert forward == backward

    def test_kernel_rank_matches_second_reduction(self):
        # wang_pieces reads the kernel rank off the cokernel; here a second
        # reduction of the block matrix D_k counts its Smith invariants
        rng = random.Random(307)
        for _ in range(40):
            graph = random_graph(rng)
            base = base_homology(graph)
            monodromies = [
                word_action(graph, TwistWord(tuple(
                    (rng.choice(graph.vertices), rng.choice((-1, 1, 2)))
                    for _ in range(rng.randint(0, 3))
                )))
                for _ in range(rng.randint(1, 3))
            ]
            pieces = wang_pieces(base, monodromies)
            for k, (_, ker) in pieces.items():
                r = base.rank(k)
                blocks = [
                    IntMatrix(r, r, map(sub, m.matrix(k, r).entries,
                                        IntMatrix.identity(r).entries)).to_rows()
                    for m in monodromies
                ]
                diff = IntMatrix.from_rows([sum(rows, []) for rows in zip(*blocks)])
                assert ker == diff.cols - len(smith_invariants(diff))

    def test_matches_explicit_block_matrix(self):
        # wang_pieces drops the zero blocks of absent degrees; here D_k is built
        # in full, absent degrees as I, with identity, subtraction and concatenation
        rng = random.Random(20261021)
        seen = {"all absent": 0, "stored identity": 0, "not unimodular": 0}
        for _ in range(150):
            ranks = {0: 1, **{k: rng.randint(1, 4) for k in rng.sample(range(1, 6), 2)}}
            base = GradedGroup({k: AbelianGroup(r) for k, r in ranks.items()})
            quiet = {k for k in ranks if rng.random() < 0.3}  # every monodromy absent
            monodromies = []
            for _ in range(2 * rng.randint(1, 3)):
                maps = {}
                for k, r in ranks.items():
                    kind = rng.choice(("absent", "identity", "unimodular", "any", "any"))
                    if k in quiet:
                        continue
                    if kind == "identity" or (k == 0 and kind != "absent"):
                        maps[k] = IntMatrix.identity(r)
                    elif kind == "unimodular":
                        maps[k] = _random_unimodular(rng, r)
                    elif kind == "any":
                        maps[k] = IntMatrix(r, r, [rng.randint(-4, 4) for _ in range(r * r)])
                        seen["not unimodular"] += det(maps[k]) not in (1, -1)
                if rng.random() < 0.2:
                    maps[9] = IntMatrix(0, 0, [])  # a degree the base does not have
                monodromies.append(GradedAction(maps))
            pieces = wang_pieces(base, monodromies)
            assert sorted(pieces) == sorted(ranks)
            for k, r in ranks.items():
                stored = [a.matrix(k) for a in monodromies if k in a.degrees()]
                seen["all absent"] += not stored
                seen["stored identity"] += any(m.is_identity() for m in stored)
                identity = IntMatrix.identity(r)
                blocks = [
                    IntMatrix(r, r, map(sub, a.matrix(k, r).entries, identity.entries)).to_rows()
                    for a in monodromies
                ]
                diff = IntMatrix.from_rows([sum(rows, []) for rows in zip(*blocks)])
                assert diff.shape == (r, r * len(monodromies))
                assert pieces[k] == (cokernel_group(diff), diff.cols - len(smith_invariants(diff)))
        assert min(seen.values()) > 30, seen

    def test_base_must_be_free(self):
        base = GradedGroup({1: AbelianGroup(1, (2,))})
        with pytest.raises(ValueError, match="free"):
            wang_pieces(base, [IDENTITY_ACTION])

    def test_rank_mismatch(self):
        base = base_homology(A2_3PT_N3)
        with pytest.raises(ValueError, match="rank mismatch"):
            wang_pieces(base, [degree_map(3, [[1]])])

    def test_degree_zero_must_be_fixed(self):
        base = base_homology(A2_3PT_N3)
        with pytest.raises(ValueError, match="degree 0"):
            wang_pieces(base, [degree_map(0, [[-1]])])

    def test_needs_a_monodromy(self):
        with pytest.raises(ValueError):
            wang_pieces(base_homology(A2_3PT_N3), [])


class TestMappingTorus:
    def test_identity_gives_kunneth(self):
        base = base_homology(A2_3PT_N3)
        got = mapping_torus_homology(base, IDENTITY_ACTION)
        for k in range(6):
            expected = base.rank(k) + base.rank(k - 1) if k else base.rank(0)
            assert got.rank(k) == expected
            assert got.group(k).invariant_factors == ()

    @pytest.mark.parametrize("d", range(2, 21))
    def test_circle_degree_d_map(self, d):
        # abelianized <a, t | t a t^-1 = a^d> gives Z (+) Z/(d-1)
        torus = mapping_torus_homology(CIRCLE, degree_map(1, [[d]]))
        expected = AbelianGroup(1, (d - 1,)) if d >= 3 else AbelianGroup(1)
        assert torus.group(1) == expected
        assert torus.group(0) == AbelianGroup(1)
        assert torus.group(2) == AbelianGroup(0)

    def test_single_twist_total_space(self):
        base = base_homology(A2_3PT_N3)
        got = mapping_torus_homology(base, word_action(A2_3PT_N3, TwistWord((("L1", 1),))))
        assert got.group(3) == AbelianGroup(1, (3,))
        assert got.group(4) == AbelianGroup(1)

    def test_euler_characteristic_vanishes(self):
        rng = random.Random(311)
        for _ in range(60):
            graph = random_graph(rng)
            letters = tuple(
                (rng.choice(graph.vertices), rng.choice((-2, -1, 1, 2)))
                for _ in range(rng.randint(0, 4))
            )
            phi = word_action(graph, TwistWord(letters))
            torus = mapping_torus_homology(base_homology(graph), phi)
            assert euler_characteristic(torus) == 0


class TestSurfaceBundle:
    def test_twist_powers_carry_growing_torsion(self):
        base = base_homology(A2_3PT_N3)
        phi = word_action(A2_3PT_N3, TwistWord((("L1", 1),)))
        for k in range(1, 12):
            rep = Representation(1, (phi.power(k), IDENTITY_ACTION))
            bundle = surface_bundle_homology(base, rep)
            assert bundle.group(3) == AbelianGroup(1, (3 * k,))

    def test_trivial_representation_gives_kunneth(self):
        # base surface is homotopy equivalent to a wedge of two circles
        base = base_homology(A2_3PT_N3)
        rep = Representation(1, (IDENTITY_ACTION, IDENTITY_ACTION))
        bundle = surface_bundle_homology(base, rep)
        for k in range(6):
            expected = base.rank(k) + 2 * base.rank(k - 1)
            assert bundle.rank(k) == expected
            assert bundle.group(k).invariant_factors == ()

    def test_even_dimension_torsion_matches_determinant(self):
        base = base_homology(A2_3PT_N2)
        phi = word_action(A2_3PT_N2, TwistWord((("L1", 1), ("L2", 1))))
        from oracles import cofactor_det, pow_square

        for k in range(1, 10):
            rep = Representation(1, (phi.power(k), IDENTITY_ACTION))
            bundle = surface_bundle_homology(base, rep)
            power = pow_square([[8, 3], [-3, -1]], k)
            power[0][0] -= 1
            power[1][1] -= 1
            expected = abs(cofactor_det(power))
            assert bundle.group(2).torsion_cardinality == expected

    def test_torsion_equals_cokernel_torsion(self):
        rng = random.Random(313)
        for _ in range(40):
            graph = random_graph(rng)
            base = base_homology(graph)
            letters = tuple(
                (rng.choice(graph.vertices), rng.choice((-2, -1, 1, 2)))
                for _ in range(rng.randint(0, 4))
            )
            phi = word_action(graph, TwistWord(letters))
            rep = Representation(1, (phi, IDENTITY_ACTION))
            pieces = wang_pieces(base, list(rep.assignments))
            bundle = surface_bundle_homology(base, rep)
            for k in range(graph.dimension + 2):
                assert (
                    bundle.group(k).invariant_factors
                    == pieces.get(k, (AbelianGroup(0), 0))[0].invariant_factors
                )

    def test_euler_characteristic_scales_with_genus(self):
        rng = random.Random(317)
        for _ in range(40):
            graph = random_graph(rng)
            base = base_homology(graph)
            genus = rng.randint(1, 3)
            assignments = []
            for _ in range(2 * genus):
                letters = tuple(
                    (rng.choice(graph.vertices), rng.choice((-1, 1)))
                    for _ in range(rng.randint(0, 2))
                )
                assignments.append(word_action(graph, TwistWord(letters)))
            rep = Representation(genus, tuple(assignments))
            bundle = surface_bundle_homology(base, rep)
            expected = (1 - 2 * genus) * euler_characteristic(base)
            assert euler_characteristic(bundle) == expected

    def test_conjugation_invariance(self):
        rng = random.Random(331)
        base = base_homology(A2_3PT_N3)
        phi = word_action(A2_3PT_N3, TwistWord((("L1", 1),))).power(3)
        reference = surface_bundle_homology(base, Representation(1, (phi, IDENTITY_ACTION)))
        for _ in range(25):
            u = _random_unimodular(rng, 2)
            conjugated = GradedAction(
                {3: mat_mul(mat_mul(u, phi.matrix(3)), _inverse_2x2(u))}
            )
            rep = Representation(1, (conjugated, IDENTITY_ACTION))
            assert surface_bundle_homology(base, rep) == reference


def _inverse_2x2(u: IntMatrix) -> IntMatrix:
    return IntMatrix.from_rows(inv_2x2_det1(u.to_rows()))


class TestBoundaryCheck:
    def test_identity_partner_always_passes(self):
        rng = random.Random(337)
        for _ in range(40):
            graph = random_graph(rng)
            letters = tuple(
                (rng.choice(graph.vertices), rng.choice((-2, -1, 1, 2)))
                for _ in range(rng.randint(0, 4))
            )
            phi = word_action(graph, TwistWord(letters))
            assert boundary_check(Representation(1, (phi, IDENTITY_ACTION))).ok

    def test_two_twists_fail(self):
        t1 = word_action(A2_3PT_N3, TwistWord((("L1", 1),)))
        t2 = word_action(A2_3PT_N3, TwistWord((("L2", 1),)))
        result = boundary_check(Representation(1, (t1, t2)))
        assert not result.ok
        assert result.failing_degrees == (3,)
        # independent 2x2 check of the commutator
        a, b = [[1, -3], [0, 1]], [[1, 0], [3, 1]]
        comm = mul_2x2(mul_2x2(a, b), mul_2x2(inv_2x2_det1(a), inv_2x2_det1(b)))
        assert comm != [[1, 0], [0, 1]]
        assert comm == [[73, -27], [-27, 10]]

    def test_genus_two_cancelling_pairs(self):
        # [A,B][B,A] is the identity because [B,A] = [A,B]^-1
        t1 = word_action(A2_3PT_N3, TwistWord((("L1", 1),)))
        t2 = word_action(A2_3PT_N3, TwistWord((("L2", 1),)))
        result = boundary_check(Representation(2, (t1, t2, t2, t1)))
        assert result.ok
        a, b = [[1, -3], [0, 1]], [[1, 0], [3, 1]]
        comm_ab = mul_2x2(mul_2x2(a, b), mul_2x2(inv_2x2_det1(a), inv_2x2_det1(b)))
        comm_ba = mul_2x2(mul_2x2(b, a), mul_2x2(inv_2x2_det1(b), inv_2x2_det1(a)))
        assert mul_2x2(comm_ab, comm_ba) == [[1, 0], [0, 1]]


    def test_matches_explicit_commutator_product(self):
        # prod [A_i, B_i] in the middle degree, inverses from the adjugate oracle
        rng = random.Random(347)
        outcomes = set()
        for _ in range(120):
            graph = random_graph(rng)
            n, size = graph.dimension, len(graph.vertices)
            genus = rng.randint(1, 3)

            def random_action():
                return word_action(graph, TwistWord(tuple(
                    (rng.choice(graph.vertices), rng.choice((-2, -1, 1, 2)))
                    for _ in range(rng.randint(0, 3))
                )))

            assignments: list[GradedAction] = []
            for i in range(genus):
                mode = rng.choice(("random", "commuting", "reversed"))
                a = random_action()
                if mode == "commuting":
                    assignments.extend([a, a.power(rng.randint(-2, 2))])
                elif mode == "reversed" and i:
                    # [B, A] after [A, B] cancels it
                    assignments.extend([assignments[-1], assignments[-2]])
                else:
                    assignments.extend([a, random_action()])
            total = IntMatrix.identity(size)
            for a, b in zip(assignments[::2], assignments[1::2]):
                a, b = a.matrix(n), b.matrix(n)
                a_inv = IntMatrix.from_rows(adjugate_inverse(a.to_rows()), cols=size)
                b_inv = IntMatrix.from_rows(adjugate_inverse(b.to_rows()), cols=size)
                total = mat_mul(total, mat_mul(mat_mul(a, b), mat_mul(a_inv, b_inv)))
            expected = () if total.is_identity() else (n,)
            result = boundary_check(Representation(genus, tuple(assignments)))
            assert (result.ok, result.failing_degrees) == (not expected, expected)
            outcomes.add((genus, result.ok))
        assert outcomes == {(g, ok) for g in (1, 2, 3) for ok in (True, False)}


class TestRepresentation:
    def test_assignment_count_checked(self):
        with pytest.raises(ValueError, match="2 assignments"):
            Representation(1, (IDENTITY_ACTION,))

    def test_genus_at_least_one(self):
        with pytest.raises(ValueError, match="genus"):
            Representation(0, ())
