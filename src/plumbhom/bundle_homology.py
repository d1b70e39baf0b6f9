"""Exact homology of mapping tori and of fiber bundles over punctured surfaces.

For a fiber V with free graded homology and monodromies phi^1, ..., phi^m
(one per circle in a wedge the base retracts to; a genus-g surface with one
boundary component gives m = 2g), form in each degree k the block difference
map

    D_k = [ phi^1_k - I | phi^2_k - I | ... | phi^m_k - I ],

an r_k x (m r_k) integer matrix, r_k = rank H_k(V). The mapping-cone long
exact sequence then splits the total-space homology as

    H_k(E) = coker(D_k)  (+)  Z^(kernel rank of D_{k-1}),

with no extension problem: the kernel term is a subgroup of a free group,
hence free. D_k has kernel rank m r_k - rank D_k, its rank being the length
of its nonzero Smith diagonal: ``_wang_degree``, the rule for every bundle
here and every filling-family member. Note the orientation of the sequence:
the cokernel contributes in its own degree, the kernel one degree up.
(Reading the Wang sequence the other way shifts the torsion up by one; the
mapping torus of a degree-d circle map, with H_1 = Z + Z/(d-1), pins the
orientation used here.)
"""

from collections.abc import Iterable, Sequence

from .exact_linalg import AbelianGroup, Frozen, _cokernel, smith_rows
from .plumbing import GradedGroup
from .twist_engine import GradedAction


class Representation(Frozen):
    """Assignments for the 2g free generators a_1, b_1, ..., a_g, b_g."""

    __slots__ = ("genus", "assignments")

    def __init__(self, genus: int, assignments: Iterable[GradedAction]):
        assignments = tuple(assignments)
        if not isinstance(genus, int) or isinstance(genus, bool) or genus < 1:
            raise ValueError(f"genus must be an integer >= 1, got {genus!r}")
        if len(assignments) != 2 * genus:
            raise ValueError(
                f"expected {2 * genus} assignments for genus {genus}, "
                f"got {len(assignments)}"
            )
        for i, action in enumerate(assignments):
            if not isinstance(action, GradedAction):
                raise ValueError(f"assignment {i} must be a GradedAction")
        self._set(genus, assignments)


def wang_pieces(
    base: GradedGroup, monodromies: Sequence[GradedAction]
) -> dict[int, tuple[AbelianGroup, int]]:
    """``{k: (coker D_k, kernel rank of D_k)}`` for every degree where the base lives.

    The Wang rule with no kernel below: at most one Smith reduction per degree.
    """
    m = len(monodromies)
    return {k: _wang_degree(m, base.rank(k), 0, diag)
            for k, diag in _smith_diagonals(base, monodromies).items()}


def _smith_diagonals(base: GradedGroup, monodromies: Sequence[GradedAction]) -> dict:
    """{k: D_k's nonzero Smith diagonal} for every degree k where the base lives.

    A monodromy with no matrix stored in degree k acts as the identity, so its
    block of D_k is zero: D_k is reduced from the stored blocks alone (their
    diagonals lowered by 1), and is not reduced where none is stored.

    The base must be free (true for every plumbing). Monodromies must respect
    the base ranks and fix degree 0, where connectivity forces the identity.
    """
    if not monodromies:
        raise ValueError("at least one monodromy is required")
    if not base.is_free():
        raise ValueError("base homology must be free in every degree")
    stored: dict[int, list[list[list[int]]]] = {}
    for action in monodromies:
        maps = action.items()
        for k, m in maps:
            if m.rows != base.rank(k):
                raise ValueError(
                    f"rank mismatch in degree {k}: base has rank {base.rank(k)}, "
                    f"action stores a {m.rows}x{m.cols} matrix"
                )
            stored.setdefault(k, []).append(m.to_rows())
        zero = dict(maps).get(0)
        if zero is not None and not zero.is_identity():
            raise ValueError("monodromies must act as the identity on degree 0")
    return {k: smith_rows(_difference_blocks(stored[k], base.rank(k))) if k in stored else []
            for k in base.degrees()}


def _wang_degree(m: int, r: int, below: int, diag: list[int]) -> tuple[AbelianGroup, int]:
    """(H_k, kernel rank of D_k) from D_k's nonzero Smith diagonal, D_k being
    r x (m r), and the kernel rank ``below`` of D_(k-1)."""
    return _cokernel(r + below, diag), m * r - len(diag)


def _difference_blocks(maps: Sequence[list[list[int]]], r: int) -> list[list[int]]:
    """The rows of [m_1 - I | m_2 - I | ...] for r x r matrices given as rows."""
    out = []
    for i in range(r):
        row: list[int] = []
        for m in maps:
            row += m[i]
            row[i - r] -= 1  # entry i of the block just appended
        out.append(row)
    return out


def _total_space_homology(base: GradedGroup, monodromies: Sequence[GradedAction]) -> GradedGroup:
    """H_k(E) = coker D_k + Z^(kernel rank of D_(k-1)), in the nonzero degrees.

    One ascending pass over the degrees where the base lives builds each H_k
    once by the Wang rule; a kernel rank left where the base does not live is
    that degree's group. A degree with no homology costs nothing, and
    ``GradedGroup`` drops the trivial degrees.
    """
    m = len(monodromies)
    groups: dict[int, AbelianGroup] = {}
    kernels: dict[int, int] = {}
    for k, diag in _smith_diagonals(base, monodromies).items():
        groups[k], kernels[k + 1] = _wang_degree(m, base.rank(k), kernels.pop(k, 0), diag)
    groups.update((k, AbelianGroup._unchecked(kernel, ())) for k, kernel in kernels.items())
    return GradedGroup(groups)


def mapping_torus_homology(base: GradedGroup, phi: GradedAction) -> GradedGroup:
    """Homology of the mapping torus of phi (the m = 1 case)."""
    return _total_space_homology(base, [phi])


def surface_bundle_homology(base: GradedGroup, rep: Representation) -> GradedGroup:
    """Homology of the V-bundle over a genus-g one-boundary surface.

    Only the homotopy type of the base enters: the surface retracts to a wedge
    of 2g circles, whose monodromies are the representation's assignments.
    """
    return _total_space_homology(base, list(rep.assignments))

