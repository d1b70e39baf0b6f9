"""The k-indexed family of filling candidates and its homology classification.

For a plumbing V with a twist word phi, the representation (phi^k, Id) of the
once-punctured torus group gives a V-bundle E_k for every k >= 1. The graded
integer homology of E_k carries torsion coker(phi^k_* - Id) in the middle
degree, so the family is distinguished by exact homology alone. The report
records, per k, the full graded group, the torsion in the distinguished
degree, and a distinctness class; ks with trivial torsion are flagged rather
than assumed distinct.

A twist word moves exactly one degree d, the graph's dimension, so a member
differs from the base only there: D_d = phi^k_d - I, and every other degree
has D_j = 0 (the identity partner adds a zero block, and phi stores none
off d), so coker D_j = Z^(r_j) and its kernel rank is 2 r_j, r_j = rank
H_j(V). So the degrees below d are those of the bundle with monodromies
(Id, Id), read once per family from ``_total_space_homology``, the one
assembly of the Wang sequence, with no reduction; and D_(d-1) contributes
Z^(2 r_(d-1)) to H_d. Every member, k = 1 included, takes the same step.
phi^k_d comes as rows from ``twist_engine._powers``, which applies the
word's letters to phi^(k-1)_d by the rule ``word_action`` uses, so each
member costs one pass over the word and one reduction of D_d, built as
rows by ``_wang_piece``. The base lives in degrees up to d, so only H_d =
coker D_d + Z^(2 r_(d-1)) and H_(d+1) = Z^(kernel rank of D_d) change, and
that kernel rank is r_d plus the free rank of coker D_d. A member's graded
group is the lower degrees, wrapped once per family, plus these two, built
through ``_unchecked`` from the member's own reduction alone: H_d is the
member's own object, and H_(d+1) comes from a per-family table of one
object per possible kernel rank, so every degree but d holds one object
per value and the renderer formats each of those once. H_d fixes the
kernel rank, so a member's class is keyed on the fields of H_d alone, a
key that agrees with equality of the whole graded group (numbering the
whole graded groups by first occurrence gives the same ids, which the
tests check).
``test_members_match_the_general_route`` checks every member against
``surface_bundle_homology`` on (phi^k, Id), the general assembly of the
Wang sequence. The boundary condition holds by construction: (phi^k, Id)
sends the boundary word [a, b] to [phi^k, Id] = Id for every k, so
``boundary_ok`` is true on every entry.

``torsion_closed_form`` cross-checks the 2x2 determinant-1 case: with
eigenvalues l, 1/l the torsion cardinality is |det(M^k - I)| = |2 - t_k|,
where t_k = trace(M^k) satisfies t_k = t(M) t_{k-1} - t_{k-2}, t_0 = 2. The
recurrence stays in exact integers throughout.
"""

from math import prod

from .bundle_homology import _total_space_homology, _wang_piece
from .exact_linalg import AbelianGroup, Frozen, IntMatrix, det
from .plumbing import GradedGroup, PlumbingGraph, base_homology
from .twist_engine import IDENTITY_ACTION, TwistWord, _powers

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

    ``word`` is a TwistWord over the graph; phi^k is advanced letter by letter.
    """
    if not isinstance(k_max, int) or isinstance(k_max, bool) or k_max < 1:
        raise ValueError(f"k_max must be an integer >= 1, got {k_max!r}")
    d = graph.dimension
    base = base_homology(graph)
    # the identity partner stores no block, and phi none off d, so D_j = 0 there:
    # below d, H_j is that of the bundle with monodromies (Id, Id)
    lower = {j: g for j, g in _total_space_homology(base, (IDENTITY_ACTION,) * 2).items()
             if j < d}
    below = 2 * base.rank(d - 1)
    # the base lives in degrees up to d, so a member changes d and d + 1 alone;
    # H_(d+1) = Z^(r + f) for coker D_d of free rank f <= r, one object per f
    r = base.rank(d)
    uppers = [AbelianGroup._unchecked(r + f, ()) for f in range(r + 1)]
    classes: dict[tuple, int] = {}
    entries = []
    for k, power in zip(range(1, k_max + 1), _powers(graph, word)):
        coker, _ = _wang_piece((power,), r, 2)
        free, factors = coker.free_rank + below, coker.invariant_factors
        middle = AbelianGroup._unchecked(free, factors) if below else coker
        upper = uppers[coker.free_rank]
        # H_d fixes H_(d+1), and the family every other degree, so this key is
        # graded equality
        class_id = classes.setdefault((free, factors), len(classes) + 1)
        homology = GradedGroup._unchecked({**lower, d: middle, d + 1: upper} if free or factors
                                          else {**lower, d + 1: upper})
        # (phi^k, Id) sends [a, b] to [phi^k, Id] = Id, so the boundary condition holds
        entries.append(FillingEntry(k, homology, factors, prod(factors), True, class_id))
    return FillingReport(
        graph=graph,
        word=str(word),
        k_max=k_max,
        torsion_degree=d,
        indexing_note=INDEXING_NOTE,
        entries=tuple(entries),
        distinct_classes=len(classes),
        trivial_torsion_ks=tuple(e.k for e in entries if e.torsion_cardinality == 1),
    )


def torsion_closed_form(action: IntMatrix, k: int) -> int:
    """|2 - trace(M^k)| for a 2x2 determinant-1 matrix, by integer recurrence.

    Equals |det(M^k - I)|, the torsion cardinality of the cokernel of
    M^k - I when that matrix is nonsingular. No irrational arithmetic: the
    eigenvalues enter only through trace(M) and det(M) = 1.
    """
    if action.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {action.rows}x{action.cols}")
    determinant = det(action)
    if determinant != 1:
        raise ValueError(f"determinant must be 1, got {determinant}")
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    trace = action.entry(0, 0) + action.entry(1, 1)
    t_prev, t_cur = 2, trace
    if k == 0:
        return 0
    for _ in range(k - 1):
        t_prev, t_cur = t_cur, trace * t_cur - t_prev
    return abs(2 - t_cur)
