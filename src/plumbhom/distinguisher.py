"""The k-indexed family of filling candidates and its homology classification.

For a plumbing V with a twist word phi, the representation (phi^k, Id) of the
once-punctured torus group gives a V-bundle E_k for every k >= 1. The graded
integer homology of E_k carries torsion coker(phi^k_* - Id) in the middle
degree, so the family is distinguished by exact homology alone. The report
records, per k, the full graded group, the torsion in the distinguished
degree, and a distinctness class; ks with trivial torsion are flagged rather
than assumed distinct.

Member k = 1 goes through ``wang_pieces`` on (phi, Id), which checks phi
once. Later members differ from it only in the degrees d where phi stores a
matrix: there D_d = phi^k_d - I (the identity partner adds a zero block).
The running product phi^k_d is kept as rows, and phi_d's columns are sliced
once per family, so each member costs one small product per moving degree
(``row_product``) and one reduction of D_d, built as rows by the same
``_wang_piece`` as member 1. Only the changed degrees, d and d + 1 for each
moving d (cokernel in d, kernel rank one degree up), fixed once per family,
are rebuilt; every other degree keeps member 1's group object, and a
changed degree whose value stays keeps its object too, so the renderer
formats each distinct group once. A member's class is keyed on its changed
degrees' groups alone, a key that agrees with equality of the whole graded
group (``classify_distinct`` gives the same ids from the graded groups). The
boundary condition [phi^k, Id] = Id holds for every k, so it is checked once
and its outcome put on every entry.

``torsion_closed_form`` cross-checks the 2x2 determinant-1 case: with
eigenvalues l, 1/l the torsion cardinality is |det(M^k - I)| = |2 - t_k|,
where t_k = trace(M^k) satisfies t_k = t(M) t_{k-1} - t_{k-2}, t_0 = 2. The
recurrence stays in exact integers throughout.
"""

from __future__ import annotations

from collections.abc import Sequence

from .bundle_homology import (
    Representation,
    _changed_degrees,
    _total_groups,
    _wang_piece,
    boundary_check,
    wang_pieces,
)
from .exact_linalg import AbelianGroup, Frozen, IntMatrix, det, row_product
from .plumbing import GradedGroup, PlumbingGraph, base_homology
from .twist_engine import IDENTITY_ACTION, TwistWord, word_action

INDEXING_NOTE = (
    "cokernel torsion is reported in its own degree (mapping-cone orientation "
    "of the Wang sequence); the opposite reading places it one degree higher"
)


class FillingEntry(Frozen):
    __slots__ = ("k", "homology", "torsion_factors", "torsion_cardinality", "boundary_ok",
                 "class_id")

    def __init__(self, k: int, homology: GradedGroup, torsion_factors: tuple[int, ...],
                 torsion_cardinality: int, boundary_ok: bool, class_id: int):
        self._set(k, homology, torsion_factors, torsion_cardinality, boundary_ok, class_id)


class FillingReport(Frozen):
    """Per-k homology of the filling family plus distinctness classes."""

    __slots__ = ("graph", "word", "k_max", "torsion_degree", "indexing_note", "entries",
                 "distinct_classes", "trivial_torsion_ks")

    def __init__(self, graph: PlumbingGraph, word: str, k_max: int, torsion_degree: int,
                 indexing_note: str, entries: tuple[FillingEntry, ...], distinct_classes: int,
                 trivial_torsion_ks: tuple[int, ...]):
        self._set(graph, word, k_max, torsion_degree,
                  indexing_note, entries, distinct_classes, trivial_torsion_ks)


def filling_family(graph: PlumbingGraph, word: TwistWord, k_max: int) -> FillingReport:
    """Build the family E_k, k = 1..k_max, and classify by graded homology.

    ``word`` is a TwistWord over the graph; phi^k is kept as a running product.
    """
    if not isinstance(k_max, int) or isinstance(k_max, bool) or k_max < 1:
        raise ValueError(f"k_max must be an integer >= 1, got {k_max!r}")
    generator = word_action(graph, word)
    base = base_homology(graph)
    degree = graph.dimension
    # member k = 1 checks phi and gives the pieces every later member reuses
    ok = boundary_check(Representation(1, (generator, IDENTITY_ACTION))).ok
    pieces = wang_pieces(base, [generator, IDENTITY_ACTION])
    groups: dict[int, AbelianGroup] = {}
    _total_groups(pieces, _changed_degrees(pieces), groups)
    # phi^k_d as rows, advanced by phi_d's columns, sliced once
    powers = {d: m.to_rows() for d, m in generator.items() if d in pieces}
    columns = {d: list(zip(*rows)) for d, rows in powers.items()}
    changed = _changed_degrees(powers)
    classes: dict[tuple[AbelianGroup, ...], int] = {}
    entries = []
    for k in range(1, k_max + 1):
        if k > 1:
            for d, cols in columns.items():
                power = powers[d] = row_product(powers[d], cols)
                # the identity partner stores no block: m = 2 with phi^k_d alone
                pieces[d] = _wang_piece((power,), len(power), 2)
            _total_groups(pieces, changed, groups)
        # every other degree holds member 1's group, so this key is graded equality
        class_id = classes.setdefault(tuple([groups[d] for d in changed]), len(classes) + 1)
        homology = GradedGroup._unchecked(groups)
        torsion = homology.group(degree)
        entries.append(FillingEntry(k, homology, torsion.invariant_factors,
                                    torsion.torsion_cardinality, ok, class_id))
    return FillingReport(
        graph=graph,
        word=str(word),
        k_max=k_max,
        torsion_degree=degree,
        indexing_note=INDEXING_NOTE,
        entries=tuple(entries),
        distinct_classes=len(classes),
        trivial_torsion_ks=tuple(e.k for e in entries if e.torsion_cardinality == 1),
    )


def classify_distinct(reports: Sequence[GradedGroup]) -> list[int]:
    """Class ids (1-based, numbered by first occurrence) under exact equality."""
    seen: dict[GradedGroup, int] = {}
    return [seen.setdefault(group, len(seen) + 1) for group in reports]


def torsion_closed_form(action: IntMatrix, k: int) -> int:
    """|2 - trace(M^k)| for a 2x2 determinant-1 matrix, by integer recurrence.

    Equals |det(M^k - I)|, the torsion cardinality of the cokernel of
    M^k - I when that matrix is nonsingular. No irrational arithmetic: the
    eigenvalues enter only through trace(M) and det(M) = 1.
    """
    if action.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {action.rows}x{action.cols}")
    if det(action) != 1:
        raise ValueError(f"determinant must be 1, got {det(action)}")
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    trace = action.entry(0, 0) + action.entry(1, 1)
    t_prev, t_cur = 2, trace
    if k == 0:
        return 0
    for _ in range(k - 1):
        t_prev, t_cur = t_cur, trace * t_cur - t_prev
    return abs(2 - t_cur)
