"""Independent brute-force oracles for the test suite.

Nothing here imports plumbhom: the expected values frozen into the tests were
computed with these routines, and the suite re-derives them at run time so the
two routes stay separate.

* ``cofactor_det`` expands along the first row, no elimination tricks.
* ``adjugate_inverse`` inverts a determinant +-1 matrix as its adjugate.
* ``smith_diagonal_by_minors`` recovers the Smith diagonal from determinantal
  divisors: d_k = gcd of all k x k minors, k-th diagonal entry = d_k / d_{k-1}.
  Exponential in the matrix size, which is fine for the small inputs used here.
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


def adjugate_inverse(rows: list[list[int]]) -> list[list[int]]:
    n = len(rows)
    d = cofactor_det(rows)
    if d not in (1, -1):
        raise ValueError("determinant +-1 required")

    def cofactor(i: int, j: int) -> int:
        minor = [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]
        return (-1) ** (i + j) * cofactor_det(minor)

    # inverse = adjugate / det, and the adjugate is the transposed cofactor matrix
    return [[d * cofactor(j, i) for j in range(n)] for i in range(n)]


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


def rank_by_minors(rows: list[list[int]]) -> int:
    return sum(1 for d in smith_diagonal_by_minors(rows) if d != 0)


def mul_2x2(a, b):
    return [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]


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
