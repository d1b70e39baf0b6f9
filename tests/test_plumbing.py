"""Plumbing graphs: validation, intersection forms, base homology, file format."""

from __future__ import annotations

import json
import random

import pytest

import plumbhom.plumbing as plumbing
from oracles import euler_characteristic
from plumbhom.distinguisher import filling_family
from plumbhom.exact_linalg import AbelianGroup, IntMatrix
from plumbhom.plumbing import (
    GradedGroup,
    InvalidGraph,
    PlumbingGraph,
    base_homology,
    graph_from_json,
    graph_to_json,
    intersection_form,
    parse_graph,
    validate,
)
from plumbhom.presets import GRAPH_PRESETS, graph_preset
from plumbhom.twist_engine import TwistWord, parse_word, word_action

A2_3PT_N3 = PlumbingGraph(3, ("L1", "L2"), (("L1", "L2", 1),) * 3)
A2_3PT_N2 = PlumbingGraph(2, ("L1", "L2"), (("L1", "L2", 1),) * 3)
SINGLE_N3 = PlumbingGraph(3, ("L1",), ())
SINGLE_N2 = PlumbingGraph(2, ("L1",), ())


def random_graph(rng: random.Random, dimensions=range(2, 8)) -> PlumbingGraph:
    """Connected plumbing graph with random signed multi-edges."""
    nv = rng.randint(1, 4)
    labels = tuple(f"v{i}" for i in range(nv))
    edges = []
    for i in range(1, nv):  # spanning tree keeps it connected
        j = rng.randrange(i)
        edges.append((labels[j], labels[i], rng.choice((1, -1))))
    for _ in range(rng.randint(0, 4)):
        if nv < 2:
            break
        i, j = rng.sample(range(nv), 2)
        edges.append((labels[i], labels[j], rng.choice((1, -1))))
    return PlumbingGraph(rng.choice(list(dimensions)), labels, tuple(edges))


def violations(*fields) -> list[str]:
    """What ``PlumbingGraph(*fields)`` raises, checking the message joins the list."""
    with pytest.raises(InvalidGraph) as excinfo:
        PlumbingGraph(*fields)
    errors = excinfo.value.errors
    assert str(excinfo.value) == "invalid plumbing graph: " + "; ".join(errors)
    return errors


class TestValidate:
    def test_a2_ok(self):
        assert validate(A2_3PT_N3) == []

    @pytest.mark.parametrize("name", sorted(GRAPH_PRESETS))
    def test_presets_ok(self, name):
        # presets are built, so checked, at import
        assert validate(graph_preset(name)) == []

    def test_single_vertex_ok(self):
        assert validate(SINGLE_N3) == []

    def test_disconnected(self):
        assert violations(3, ("a", "b"), ()) == ["disconnected graph"]

    def test_bad_dimension(self):
        for dimension in (0, 1.0, True):
            assert violations(dimension, ("a",), ()) == [
                f"dimension must be an integer >= 1, got {dimension!r}"
            ]

    def test_self_loop(self):
        assert any("self-loop" in e for e in violations(3, ("a",), (("a", "a", 1),)))

    def test_empty_vertex_list(self):
        assert any("empty vertex list" in e for e in violations(3, (), ()))

    def test_unknown_endpoint(self):
        assert any("not a vertex" in e for e in violations(3, ("a",), (("a", "b", 1),)))

    def test_bad_sign(self):
        for sign in (2, 1.0, True):
            assert any("sign" in e for e in violations(3, ("a", "b"), (("a", "b", sign),)))

    def test_h1_actions_only_for_dimension_one(self):
        matrix = IntMatrix.identity(4)
        errors = violations(3, ("a", "b"), (("a", "b", 1),) * 3, (("a", matrix),))
        assert any("dimension 1" in e for e in errors)

    def test_h1_action_size_checked(self):
        errors = violations(1, ("a", "b"), (("a", "b", 1),) * 3, (("a", IntMatrix.identity(3)),))
        assert any("4x4" in e for e in errors)

    def test_every_violation_listed(self):
        assert violations(3, ("a", "a", "b"), (("b", "b", 1),)) == [
            "duplicate vertex label 'a'", "self-loop at 'b'"
        ]

    @pytest.mark.parametrize("label", [1, "", None, ("a",), ["a"]])
    def test_labels_must_be_non_empty_strings(self, label):
        # a word cannot name such a vertex, nor a graph file hold it; the
        # edges at it are not reported again as unknown endpoints
        assert violations(3, ("a", label), (("a", label, 1),)) == [
            f"vertex label must be a non-empty string, got {label!r}"
        ]

    def test_each_bad_label_has_its_own_entry(self):
        assert violations(3, ("a", 1, "", "a"), (("a", 1, 1), ("", "b", 1))) == [
            "vertex label must be a non-empty string, got 1",
            "vertex label must be a non-empty string, got ''",
            "duplicate vertex label 'a'",
            "edge endpoint 'b' is not a vertex",
        ]

    @pytest.mark.parametrize("label", ["duplicate", "endpoint"])
    def test_label_text_does_not_hide_disconnection(self, label):
        # labels that occur in the messages of the checks that skip the walk
        assert violations(3, (label, "b"), ((label, label, 1),)) == [
            f"self-loop at {label!r}", "disconnected graph"
        ]

    def test_validated_once_when_made(self, monkeypatch):
        calls = []

        def counting(g):
            calls.append(g)
            return validate(g)

        monkeypatch.setattr(plumbing, "validate", counting)
        labels = tuple(f"v{i}" for i in range(20))
        graph = PlumbingGraph(3, labels, tuple((a, b, 1) for a, b in zip(labels, labels[1:])))
        assert calls == [graph]
        word = parse_word(" ".join(labels))
        word_action(graph, word)
        word_action(graph, TwistWord((("v0", 1),)))
        base_homology(graph)
        intersection_form(graph)
        filling_family(graph, word, 3)
        assert calls == [graph]
        assert parse_graph(json.dumps(graph_to_json(graph))) == graph
        assert len(calls) == 2


class TestIntersectionForm:
    def test_a2_odd(self):
        assert intersection_form(A2_3PT_N3).to_rows() == [[0, 3], [-3, 0]]

    def test_a2_even(self):
        assert intersection_form(A2_3PT_N2).to_rows() == [[-2, -3], [-3, -2]]

    def test_single_vertex_even(self):
        assert intersection_form(SINGLE_N2).to_rows() == [[-2]]

    def test_single_vertex_odd(self):
        assert intersection_form(SINGLE_N3).to_rows() == [[0]]

    def test_dimension_one_rejected(self):
        graph = PlumbingGraph(1, ("a", "b"), (("a", "b", 1),))
        with pytest.raises(ValueError, match="preset"):
            intersection_form(graph)

    def test_signs_add_up(self):
        graph = PlumbingGraph(
            3, ("a", "b"), (("a", "b", 1), ("a", "b", -1), ("a", "b", 1))
        )
        assert intersection_form(graph).to_rows() == [[0, 1], [-1, 0]]

    def test_parity_symmetry(self):
        rng = random.Random(101)
        for _ in range(100):
            graph = random_graph(rng)
            q = intersection_form(graph)
            sign = (-1) ** graph.dimension
            flipped = IntMatrix(
                q.rows, q.cols, [sign * e for e in q.transpose().entries]
            )
            assert flipped == q


class TestBaseHomology:
    def test_a2_odd(self):
        got = base_homology(A2_3PT_N3)
        assert got == GradedGroup({0: AbelianGroup(1), 1: AbelianGroup(2), 3: AbelianGroup(2)})

    def test_a2_dimension_one(self):
        graph = PlumbingGraph(1, ("L1", "L2"), (("L1", "L2", 1),) * 3)
        assert base_homology(graph) == GradedGroup({0: AbelianGroup(1), 1: AbelianGroup(4)})

    def test_single_sphere(self):
        assert base_homology(SINGLE_N3) == GradedGroup({0: AbelianGroup(1), 3: AbelianGroup(1)})

    def test_tree_has_no_degree_one(self):
        graph = PlumbingGraph(4, ("a", "b"), (("a", "b", 1),))
        assert base_homology(graph).degrees() == (0, 4)

    def test_euler_characteristic_formula(self):
        rng = random.Random(103)
        for _ in range(150):
            graph = random_graph(rng)
            nv, ne = len(graph.vertices), graph.edge_count
            expected = nv * (1 + (-1) ** graph.dimension) - ne
            assert euler_characteristic(base_homology(graph)) == expected

    def test_independent_of_vertex_order(self):
        rng = random.Random(107)
        for _ in range(50):
            graph = random_graph(rng)
            order = list(graph.vertices)
            rng.shuffle(order)
            permuted = PlumbingGraph(graph.dimension, tuple(order), graph.edges)
            assert base_homology(permuted) == base_homology(graph)


class TestGradedGroup:
    def test_trivial_degrees_dropped(self):
        graded = GradedGroup({0: AbelianGroup(1), 5: AbelianGroup(0)})
        assert graded.degrees() == (0,)
        assert graded.group(5) == AbelianGroup(0)

    def test_negative_degree_rejected(self):
        for degree in (-1, True):
            with pytest.raises(ValueError, match=f"got {degree!r}$"):
                GradedGroup({degree: AbelianGroup(1)})

    def test_equality_ignores_insertion_order(self):
        a = GradedGroup({0: AbelianGroup(1), 3: AbelianGroup(2)})
        b = GradedGroup({3: AbelianGroup(2), 0: AbelianGroup(1)})
        assert a == b and hash(a) == hash(b)


GRAPH_DOC = {
    "dimension": 3,
    "vertices": ["L1", "L2"],
    "edges": [
        {"between": ["L1", "L2"], "sign": 1},
        {"between": ["L1", "L2"], "sign": 1},
        {"between": ["L1", "L2"], "sign": 1},
    ],
}


class TestGraphFormat:
    def test_parse_example_document(self):
        graph = graph_from_json(GRAPH_DOC)
        assert graph == A2_3PT_N3

    def test_roundtrip(self):
        doc = graph_to_json(A2_3PT_N3)
        assert graph_from_json(doc) == A2_3PT_N3
        assert graph_from_json(json.loads(json.dumps(doc))) == A2_3PT_N3

    def test_unknown_key_rejected(self):
        doc = dict(GRAPH_DOC, color="blue")
        with pytest.raises(ValueError, match="unknown key"):
            graph_from_json(doc)

    def test_unknown_edge_key_rejected(self):
        doc = dict(GRAPH_DOC, edges=[{"between": ["L1", "L2"], "sign": 1, "weight": 2}])
        with pytest.raises(ValueError):
            graph_from_json(doc)

    def test_sign_restricted(self):
        for sign in (2, 1.0, -1.0, True):
            doc = dict(GRAPH_DOC, edges=[{"between": ["L1", "L2"], "sign": sign}])
            with pytest.raises(ValueError, match="sign"):
                graph_from_json(doc)

    def test_h1_action_rows_must_be_lists(self):
        doc = dict(GRAPH_DOC, dimension=1, h1_action={"L1": [1, 2]})
        with pytest.raises(ValueError, match="list of rows"):
            graph_from_json(doc)

    def test_h1_action_roundtrip(self):
        doc = {
            "dimension": 1,
            "vertices": ["L1", "L2"],
            "edges": [{"between": ["L1", "L2"], "sign": 1}] * 3,
            "h1_action": {
                "L1": [[1, -3, -1, -1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
            },
        }
        graph = graph_from_json(doc)
        assert graph.h1_action("L1").entry(0, 1) == -3
        assert graph_to_json(graph) == doc

    def test_invalid_graph_rejected_at_parse(self):
        doc = {"dimension": 3, "vertices": ["a", "b"], "edges": []}
        with pytest.raises(ValueError, match="disconnected"):
            graph_from_json(doc)

    def test_parse_graph_text(self):
        graph = parse_graph(json.dumps(GRAPH_DOC))
        assert graph == A2_3PT_N3
        with pytest.raises(ValueError, match="bad graph document"):
            parse_graph("{nope")
