"""The value-type contract of the nine immutable result and input classes.

Reprs, equality, hashing, immutability, keyword construction, copying and the
validation messages are pinned here, so the classes can change how they are
built without changing what callers see.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from plumbhom.bundle_homology import Representation
from plumbhom.distinguisher import INDEXING_NOTE, FillingEntry, FillingReport
from plumbhom.exact_linalg import AbelianGroup, IntMatrix
from plumbhom.plumbing import GradedGroup, PlumbingGraph
from plumbhom.presets import graph_preset
from plumbhom.twist_engine import IDENTITY_ACTION, GradedAction, TwistWord

H1 = IntMatrix.from_rows([[1, -3, -1, -1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
SPIN = GradedAction({3: IntMatrix.from_rows([[0, -1], [1, 0]])})
HOMOLOGY = GradedGroup({0: AbelianGroup(1), 3: AbelianGroup(1, (3,))})
N3 = graph_preset("a2-3pt-n3")
N3_REPR = (
    "PlumbingGraph(dimension=3, vertices=('t1', 't2'), edges=(('t1', 't2', 1), "
    "('t1', 't2', 1), ('t1', 't2', 1)), h1_actions=())"
)
ENTRY_REPR = (
    "FillingEntry(k=1, homology=GradedGroup({0: Z^1, 3: Z^1+Z/3}), torsion_factors=(3,), "
    "torsion_cardinality=3, boundary_ok=True, class_id=1)"
)


def _entry(**changes):
    fields = dict(k=1, homology=HOMOLOGY, torsion_factors=(3,), torsion_cardinality=3,
                  boundary_ok=True, class_id=1)
    fields.update(changes)
    return FillingEntry(**fields)


def _report(**changes):
    fields = dict(graph=N3, word="t1", k_max=1, torsion_degree=3, indexing_note=INDEXING_NOTE,
                  entries=(_entry(),), distinct_classes=1, trivial_torsion_ks=())
    fields.update(changes)
    return FillingReport(**fields)


# the public fields, in constructor order; GradedGroup and GradedAction keep one
# private dict of degrees each, built from their one constructor argument
FIELDS = {
    "AbelianGroup": ("free_rank", "invariant_factors"),
    "IntMatrix": ("rows", "cols", "entries"),
    "PlumbingGraph": ("dimension", "vertices", "edges", "h1_actions"),
    "TwistWord": ("letters",),
    "Representation": ("genus", "assignments"),
    "FillingEntry": ("k", "homology", "torsion_factors", "torsion_cardinality", "boundary_ok",
                     "class_id"),
    "FillingReport": ("graph", "word", "k_max", "torsion_degree", "indexing_note", "entries",
                      "distinct_classes", "trivial_torsion_ks"),
}

# name -> (positional construction, keyword construction, frozen repr, one differing object)
CASES = {
    "AbelianGroup": (
        lambda: AbelianGroup(1, [2, 4]),
        lambda: AbelianGroup(free_rank=1, invariant_factors=(2, 4)),
        "AbelianGroup(free_rank=1, invariant_factors=(2, 4))",
        lambda: AbelianGroup(1, (4,)),
    ),
    "IntMatrix": (
        lambda: IntMatrix(2, 2, [0, -1, 1, 0]),
        lambda: IntMatrix(rows=2, cols=2, entries=(0, -1, 1, 0)),
        "IntMatrix(2, 2, [0, -1, 1, 0])",
        lambda: IntMatrix(1, 4, [0, -1, 1, 0]),
    ),
    "GradedGroup": (
        lambda: GradedGroup({3: AbelianGroup(1, (3,)), 1: AbelianGroup(0), 0: AbelianGroup(1)}),
        lambda: GradedGroup(groups={0: AbelianGroup(1), 3: AbelianGroup(1, [3])}),
        "GradedGroup({0: Z^1, 3: Z^1+Z/3})",
        lambda: GradedGroup({0: AbelianGroup(1), 3: AbelianGroup(1)}),
    ),
    "GradedAction": (
        lambda: GradedAction({3: IntMatrix.from_rows([[0, -1], [1, 0]])}),
        lambda: GradedAction(degree_maps={3: IntMatrix(2, 2, [0, -1, 1, 0])}),
        "GradedAction({3: [[0,-1],[1,0]]})",
        lambda: GradedAction({3: IntMatrix.from_rows([[0, 1], [-1, 0]])}),
    ),
    "PlumbingGraph": (
        lambda: PlumbingGraph(1, ["t1", "t2"], [["t1", "t2", 1]] * 3, {"t1": H1}),
        lambda: PlumbingGraph(dimension=1, vertices=("t1", "t2"),
                              edges=(("t1", "t2", 1),) * 3, h1_actions=(("t1", H1),)),
        "PlumbingGraph(dimension=1, vertices=('t1', 't2'), edges=(('t1', 't2', 1), "
        "('t1', 't2', 1), ('t1', 't2', 1)), h1_actions=(('t1', IntMatrix(4, 4, "
        "[1, -3, -1, -1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1])),))",
        lambda: PlumbingGraph(1, ("t1", "t2"), (("t1", "t2", 1),) * 3),
    ),
    "TwistWord": (
        lambda: TwistWord([("t1", 2), ["t2", -1]]),
        lambda: TwistWord(letters=(("t1", 2), ("t2", -1))),
        "TwistWord(letters=(('t1', 2), ('t2', -1)))",
        lambda: TwistWord((("t1", 2),)),
    ),
    "Representation": (
        lambda: Representation(1, [SPIN, IDENTITY_ACTION]),
        lambda: Representation(genus=1, assignments=(SPIN, GradedAction({}))),
        "Representation(genus=1, assignments=(GradedAction({3: [[0,-1],[1,0]]}), "
        "GradedAction({})))",
        lambda: Representation(1, [IDENTITY_ACTION, SPIN]),
    ),
    "FillingEntry": (
        lambda: FillingEntry(1, HOMOLOGY, (3,), 3, True, 1),
        _entry,
        ENTRY_REPR,
        lambda: _entry(class_id=2),
    ),
    "FillingReport": (
        lambda: FillingReport(N3, "t1", 1, 3, INDEXING_NOTE, (_entry(),), 1, ()),
        _report,
        f"FillingReport(graph={N3_REPR}, word='t1', k_max=1, torsion_degree=3, "
        f"indexing_note={INDEXING_NOTE!r}, entries=({ENTRY_REPR},), distinct_classes=1, "
        "trivial_torsion_ks=())",
        lambda: _report(word="t1^1"),
    ),
}
NAMES = sorted(CASES)


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    positional, keyword, text, _ = CASES[name]
    assert repr(positional()) == text
    assert repr(keyword()) == text


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_equal_objects_and_hashes(name):
    positional, keyword, _, other = CASES[name]
    a, b = positional(), keyword()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other() and not a == other()
    assert len({a, b, other()}) == 2


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_fields_in_signature_order(name):
    a = CASES[name][0]()
    values = [getattr(a, field) for field in FIELDS[name]]
    assert type(a)(*values) == a
    assert type(a)(**dict(zip(FIELDS[name], values))) == a


@pytest.mark.parametrize("name", NAMES)
def test_other_classes_never_equal(name):
    a = CASES[name][0]()
    fields = {field: getattr(a, field) for field in type(a).__slots__}
    twin = type("LookAlike", (type(a),), {})(*fields.values())
    assert all(getattr(twin, field) == value for field, value in fields.items())
    assert a != twin and twin != a
    assert a != tuple(fields.values())
    assert a.__eq__(twin) is NotImplemented


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_raise(name):
    a = CASES[name][0]()
    field = type(a).__slots__[0]
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, before)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert getattr(a, field) is before


@pytest.mark.parametrize("name", NAMES)
def test_set_takes_one_value_per_field(name):
    a = CASES[name][0]()
    fields = [getattr(a, field) for field in type(a).__slots__]
    for values in (fields[:-1], fields + [None]):
        with pytest.raises(ValueError, match="fields"):
            object.__new__(type(a))._set(*values)
        # the one constructor that skips __init__ stores through the same _set
        with pytest.raises(ValueError, match="fields"):
            type(a)._unchecked(*values)
    twin = object.__new__(type(a))
    twin._set(*fields)
    assert twin == a
    assert type(a)._unchecked(*fields) == a


@pytest.mark.parametrize("name", NAMES)
def test_copy_and_pickle_round_trip(name):
    positional, _, text, _ = CASES[name]
    a = positional()
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and hash(twin) == hash(a) and repr(twin) == text


def test_hashes_read_the_fields():
    m = CASES["IntMatrix"][0]()
    assert hash(m) == hash((m.rows, m.cols, m.entries))
    assert hash(HOMOLOGY) == hash(HOMOLOGY.items())
    # a stored identity acts like a missing degree, in equality and hash alike
    padded = GradedAction({1: IntMatrix.identity(3), 3: SPIN.matrix(3)})
    assert padded == SPIN and hash(padded) == hash(SPIN)


def test_preset_matrices_cannot_be_rebound():
    matrix = graph_preset("a2-3pt-n1").h1_actions[0][1]
    before = (matrix.entries, hash(matrix))
    with pytest.raises(AttributeError):
        matrix.entries = (0,) * len(matrix.entries)
    assert graph_preset("a2-3pt-n1").h1_actions[0][1] is matrix
    assert (matrix.entries, hash(matrix)) == before


def test_defaults():
    assert AbelianGroup(2) == AbelianGroup(2, ())
    assert PlumbingGraph(3, ("t1",), ()).h1_actions == ()


def test_normalisation_makes_tuples():
    g = PlumbingGraph(1, ["t1", "t2"], [["t1", "t2", 1]] * 3, {"t1": H1})
    assert g.vertices == ("t1", "t2")
    assert g.edges == (("t1", "t2", 1),) * 3
    assert g.h1_actions == (("t1", H1),)
    assert AbelianGroup(0, [2]).invariant_factors == (2,)
    assert TwistWord([["t1", 1]]).letters == (("t1", 1),)
    assert Representation(1, [SPIN, SPIN]).assignments == (SPIN, SPIN)


@pytest.mark.parametrize("build, message", [
    (lambda: AbelianGroup(-1), "free rank must be a nonnegative integer, got -1"),
    (lambda: AbelianGroup(1.0), "free rank must be a nonnegative integer, got 1.0"),
    (lambda: AbelianGroup(True), "free rank must be a nonnegative integer, got True"),
    (lambda: AbelianGroup(0, (1,)), "invariant factors must be integers >= 2, got 1"),
    (lambda: AbelianGroup(0, (2.0,)), "invariant factors must be integers >= 2, got 2.0"),
    (lambda: AbelianGroup(0, [2, 3]), "invariant factors must form a divisor chain, got (2, 3)"),
    (lambda: TwistWord([("", 1)]), "empty vertex label in word"),
    (lambda: TwistWord([(1, 1)]), "vertex labels in words must be strings, got 1"),
    (lambda: TwistWord([(None, 1)]), "vertex labels in words must be strings, got None"),
    (lambda: TwistWord([("t1", 0)]), "word exponents must be nonzero integers, got 0"),
    (lambda: TwistWord([("t1", True)]), "word exponents must be nonzero integers, got True"),
    (lambda: TwistWord([("t1", 1.5)]), "word exponents must be nonzero integers, got 1.5"),
    (lambda: Representation(0, ()), "genus must be an integer >= 1, got 0"),
    (lambda: Representation("1", ()), "genus must be an integer >= 1, got '1'"),
    (lambda: Representation(True, [SPIN] * 2), "genus must be an integer >= 1, got True"),
    (lambda: Representation(2, [SPIN] * 3), "expected 4 assignments for genus 2, got 3"),
    (lambda: PlumbingGraph(0, ("t1",), ()),
     "invalid plumbing graph: dimension must be an integer >= 1, got 0"),
    (lambda: PlumbingGraph(1, ("t1", "t2"), (("t1", "t2", 1),), {"t1": H1}),
     "invalid plumbing graph: h1_action for 't1' must be 2x2, got 4x4"),
    (lambda: PlumbingGraph(1, ("a", "b"), [("a", "b", 1)], {"a": [[1, 0], [0, 1]]}),
     "invalid plumbing graph: h1_action for 'a' must be a square IntMatrix"),
    (lambda: PlumbingGraph(1, ("t1", "t2"), (("t1", "t2", 1),) * 3,
                           (("t1", H1), ("t1", IntMatrix.identity(4)))),
     "invalid plumbing graph: duplicate h1_action for 't1'"),
    # malformed entries are violations too, not unpacking errors
    (lambda: PlumbingGraph(3, ("a", "b"), [("a", "b")]),
     "invalid plumbing graph: edge must be a (vertex, vertex, sign) triple, got ('a', 'b')"),
    (lambda: PlumbingGraph(1, ("a", "b"), [("a", "b", 1)], [("a",)]),
     "invalid plumbing graph: h1_action entry must be a (vertex, matrix) pair, got ('a',)"),
    (lambda: PlumbingGraph(1, ("a", "b"), [("a", "b", 1)], [1]),
     "invalid plumbing graph: h1_action entry must be a (vertex, matrix) pair, got 1"),
    (lambda: GradedGroup({0: 5}), "degree 0 group must be an AbelianGroup"),
    # every key is checked before the keys are sorted, so no comparison fails first
    (lambda: GradedGroup({0: AbelianGroup(1), None: AbelianGroup(1)}),
     "degrees must be nonnegative integers, got None"),
    (lambda: GradedAction({1: IntMatrix.identity(2), "2": IntMatrix.identity(2)}),
     "degrees must be nonnegative integers, got '2'"),
    (lambda: GradedAction({3: [[1]]}), "degree 3 map must be a square IntMatrix"),
    (lambda: SPIN.power(1.5), "exponent must be an integer, got 1.5"),
    (lambda: SPIN.power(True), "exponent must be an integer, got True"),
    (lambda: IntMatrix.from_rows([[1, 2]], cols=3), "cols does not match row length"),
    (lambda: Representation(1, [1, 2]), "assignment 0 must be a GradedAction"),
    (lambda: Representation(1, [SPIN, None]), "assignment 1 must be a GradedAction"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message

