"""The k-indexed family of filling candidates and its homology classification.

For a plumbing V with a twist word phi, the representation (phi^k, Id) of the
once-punctured torus group gives a V-bundle E_k for every k >= 1. The graded
integer homology of E_k carries torsion coker(phi^k_* - Id) in the middle
degree, so the family is distinguished by exact homology alone. The report
records, per k, the full graded group, the torsion in the distinguished
degree, and a distinctness class; ks with trivial torsion are flagged rather
than assumed distinct.

A twist word moves one degree d, the graph's dimension: D_d = phi^k_d - I,
and every other D_j = 0 (the identity partner adds a zero block, and phi
stores none off d). So the degrees below d are those of the bundle with
monodromies (Id, Id), read once per family from ``_total_space_homology``;
the base lives in degrees up to d, so only H_d and H_(d+1) = Z^(kernel rank
of D_d) change with k, both from the Wang rule of ``bundle_homology`` with
m = 2. ``_diagonals`` gives the nonzero Smith diagonal of each D_d by one of
two routes:
- r_d = 2: phi = [[a, b], [c, e]] is read once from ``twist_engine._powers``.
  With t = a + e, delta = det phi and u_(-1) = 0, u_0 = 1, u_k = t u_(k-1) -
  delta u_(k-2), phi^k = u_(k-1) phi - delta u_(k-2) I (Cayley-Hamilton), so
  D_d has entry gcd d_1 = gcd(u_(k-1) g, u_(k-1) a - delta u_(k-2) - 1), g =
  gcd(b, c, a - e), and det D_d = delta^k - trace(phi^k) + 1, with no power
  and no reduction. The Smith engine's two-divisor rule,
  ``exact_linalg._divisor_pair``, turns d_1 and |det D_d| into the diagonal
  and checks it (else exit code 2); a singular D_d has the one invariant
  d_1, none if d_1 = 0.
- else ``_powers`` applies the word's letters to phi^(k-1)_d by the rule
  ``word_action`` uses, and ``smith_rows`` reduces D_d as rows.

The one member generator, ``_members``, yields k, H_d and the kernel rank of
D_d (``_wang_degree`` on that diagonal), and a class id;
``_family`` makes the degrees below d and H_(d+1) by kernel rank once beside
it. ``filling_family`` and the CLI consume it. H_d fixes the kernel rank, so a
class is keyed on H_d alone, which agrees with equality of the whole graded
group (the tests number those by first occurrence and get the same ids, and
check every member against ``surface_bundle_homology`` on (phi^k, Id) and an
oracle's own Wang assembly).
(phi^k, Id) sends the boundary word [a, b] to [phi^k, Id] = Id, so
``boundary_ok`` is true on every entry. ``torsion_closed_form`` reads the
recurrence: |det(M^k - I)| = |2 - trace(M^k)| when det M = 1.
"""

from collections.abc import Iterator
from math import gcd, prod

from .bundle_homology import _difference_blocks, _total_space_homology, _wang_degree
from .exact_linalg import AbelianGroup, Frozen, IntMatrix, _divisor_pair, det, smith_rows
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

    ``word`` is a TwistWord over the graph; the members come from ``_family``.
    """
    lower, uppers, members = _family(graph, word, k_max)
    d = graph.dimension
    entries = tuple(FillingEntry(k, GradedGroup._unchecked(
        {**lower, d + 1: uppers[f]} if h.is_trivial() else {**lower, d: h, d + 1: uppers[f]}),
        h.invariant_factors, prod(h.invariant_factors), True, class_id)
        for k, h, f, class_id in members)
    return FillingReport(graph, str(word), k_max, d, INDEXING_NOTE, entries,
                         max(e.class_id for e in entries),
                         tuple(e.k for e in entries if e.torsion_cardinality == 1))


def _family(graph: PlumbingGraph, word: TwistWord, k_max: int) -> tuple:
    """H_j for j < d by degree, H_(d+1) by kernel rank, and ``_members``; d = graph.dimension."""
    if not isinstance(k_max, int) or isinstance(k_max, bool) or k_max < 1:
        raise ValueError(f"k_max must be an integer >= 1, got {k_max!r}")
    d = graph.dimension
    base = base_homology(graph)
    # the identity partner stores no block, and phi none off d, so D_j = 0 there:
    # below d, H_j is that of the bundle with monodromies (Id, Id)
    lower = {j: g for j, g in _total_space_homology(base, (IDENTITY_ACTION,) * 2).items()
             if j < d}
    # the base lives in degrees up to d, so a member changes d and d + 1 alone;
    # H_(d+1) = Z^f for D_d (r x 2r) of kernel rank r <= f <= 2r, one object per f
    r = base.rank(d)
    uppers = {f: AbelianGroup._unchecked(f, ()) for f in range(r, 2 * r + 1)}
    return lower, uppers, _members(r, 2 * base.rank(d - 1), _diagonals(graph, word, r), k_max)


def _members(r: int, below: int, diagonals: Iterator[list[int]], k_max: int) -> Iterator[tuple]:
    """(k, H_d, kernel rank of D_d, class id) for k = 1..k_max."""
    classes: dict[tuple, int] = {}
    for k, diag in zip(range(1, k_max + 1), diagonals):
        h, kernel = _wang_degree(2, r, below, diag)  # the key: module docstring
        yield k, h, kernel, classes.setdefault((h.free_rank, h.invariant_factors),
                                               len(classes) + 1)


def _diagonals(graph: PlumbingGraph, word: TwistWord, r: int) -> Iterator[list[int]]:
    """Nonzero Smith diagonal of phi^k_d - I for k = 1, 2, ..., where r = rank H_d(V).

    By the recurrence when r = 2, else by ``smith_rows`` (module docstring).
    """
    powers = _powers(graph, word)
    if r != 2:
        return (smith_rows(_difference_blocks((power,), r)) for power in powers)
    (a, b), (c, e) = next(powers)
    g = gcd(b, c, a - e)  # d_1 and |det D_k| from phi^k = u phi - s I
    return (_divisor_pair(gcd(u * g, u * a - s - 1), abs(delta_k - (a + e) * u + 2 * s + 1))
            for u, s, delta_k in _recurrence(a + e, a * e - b * c))


def _recurrence(t: int, delta: int) -> Iterator[tuple[int, int, int]]:
    """(u, s, delta^k) with phi^k = u phi - s I, k = 1, 2, ..., for trace t, det delta."""
    u, s, delta_k = 1, 0, delta  # u_(k-1) and s = delta u_(k-2) at k = 1
    while True:
        yield u, s, delta_k
        u, s, delta_k = t * u - s, delta * u, delta_k * delta


def torsion_closed_form(action: IntMatrix, k: int) -> int:
    """|2 - trace(M^k)| = |det(M^k - I)| for a 2x2 determinant-1 matrix.

    The torsion cardinality of coker(M^k - I) when M^k - I is nonsingular,
    by the 2x2 families' integer recurrence (eigenvalues never enter).
    """
    if action.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {action.rows}x{action.cols}")
    determinant = det(action)
    if determinant != 1:
        raise ValueError(f"determinant must be 1, got {determinant}")
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    t = action.entry(0, 0) + action.entry(1, 1)
    u, s = 0, -1  # M^0 = 0 M + I
    for _, (u, s, _) in zip(range(k), _recurrence(t, 1)):
        pass
    return abs(2 - t * u + 2 * s)
