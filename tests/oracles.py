"""Independent brute-force oracles for the test suite.

Nothing here imports plumbhom: the expected values frozen into the tests were
computed with these routines, and the suite re-derives them at run time so the
two routes stay separate.

* ``cofactor_det`` expands along the first row, no elimination tricks.
* ``smith_diagonal_by_minors`` recovers the Smith diagonal from determinantal
  divisors: d_k = gcd of all k x k minors, k-th diagonal entry = d_k / d_{k-1}.
  Exponential in the matrix size, which is fine for the small inputs used here.
* ``wang_homology`` assembles the Wang sequence of a bundle with m
  monodromies from plain ranks and matrix rows: it writes out every block of
  D_k, identity blocks included, and reads ranks and torsion off
  ``smith_diagonal_by_minors``.

Three readers of plumbhom's own values take them as plain arguments, so this
module still imports nothing from it:

* ``smith_diagonal`` reads the diagonal of an ``IntMatrix`` S, zeros included.
* ``euler_characteristic`` is the alternating sum of a ``GradedGroup``'s free
  ranks.
* ``classify_distinct`` numbers graded groups 1, 2, ... by first occurrence
  under exact equality: the class ids ``filling_family`` must give.
"""

from __future__ import annotations

import itertools
from math import gcd


def cofactor_det(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("square input required")
    if n == 1:
        return rows[0][0]
    total = 0
    for j, top in enumerate(rows[0]):
        if top == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = top * cofactor_det(minor)
        total += -term if j % 2 else term
    return total


def smith_diagonal_by_minors(rows: list[list[int]]) -> list[int]:
    m = len(rows)
    n = len(rows[0]) if m else 0
    size = min(m, n)
    diag: list[int] = []
    prev = 1
    for k in range(1, size + 1):
        g = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, cofactor_det(sub))
        if g == 0:
            diag.extend([0] * (size - k + 1))
            return diag
        diag.append(g // prev)
        prev = g
    return diag


def wang_homology(ranks: dict[int, int], stored: dict[int, list[list[list[int]]]],
                  m: int) -> dict[int, tuple[int, tuple[int, ...]]]:
    """{k: (free rank, torsion factors)} of the bundle's nonzero H_k.

    ``ranks`` maps each degree to the fiber's rank there; ``stored`` maps a
    degree to the rows of the monodromies that move it, and the other m minus
    that many act as the identity. D_k = [phi^1_k - I | ... | phi^m_k - I], and
    H_k = coker D_k + Z^(m r_(k-1) - rank D_(k-1)).
    """
    cokernels, kernels = {}, {}
    for k, r in ranks.items():
        blocks = stored.get(k, [])
        blocks = blocks + [[[int(i == j) for j in range(r)] for i in range(r)]] * (m - len(blocks))
        rows = [[e - (i == j) for block in blocks for j, e in enumerate(block[i])]
                for i in range(r)]
        diag = [d for d in smith_diagonal_by_minors(rows) if d]
        cokernels[k] = (r - len(diag), tuple(d for d in diag if d > 1))
        kernels[k + 1] = m * r - len(diag)
    out = {}
    for k in sorted(set(cokernels) | set(kernels)):
        free, torsion = cokernels.get(k, (0, ()))
        free += kernels.get(k, 0)
        if free or torsion:
            out[k] = (free, torsion)
    return out


def rank_by_minors(rows: list[list[int]]) -> int:
    return sum(1 for d in smith_diagonal_by_minors(rows) if d != 0)


def smith_diagonal(s) -> list[int]:
    return [s.entry(i, i) for i in range(min(s.rows, s.cols))]


def euler_characteristic(graded) -> int:
    return sum((-1) ** k * g.free_rank for k, g in graded.items())


def classify_distinct(groups) -> list[int]:
    seen: dict = {}
    return [seen.setdefault(group, len(seen) + 1) for group in groups]


def inv_2x2_det1(a):
    assert a[0][0] * a[1][1] - a[0][1] * a[1][0] == 1
    return [[a[1][1], -a[0][1]], [-a[1][0], a[0][0]]]


def pow_square(rows, k):
    n = len(rows)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = [
            [sum(out[i][t] * rows[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return out
