"""Inputs and output checks for the benchmark workloads.

Every workload turns a seeded ``random.Random`` into a reproducible list of
distinct CLI invocations (``cases`` in ``workloads.json``). The program only ever sees the generated argv
(and, for fillings-chain, the generated graph file). Each invocation carries a
check that verifies its stdout by routes that do not use the program's Smith
engine: integer recurrences, the benchmark's own twist matrices and its own
Bareiss determinant. Parameters live in ``workloads.json``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
NAMES = tuple(name for name in SPEC if name != "layers")


class CheckFailed(Exception):
    """The program's output disagrees with the independent route."""


@dataclass(frozen=True)
class Case:
    argv: list[str]
    items: int  # family members for fillings, matrices for snf
    check: Callable[[str], None]


@dataclass(frozen=True)
class Workload:
    setup_argv: list[str]
    cases: list[Case]  # the seed's distinct inputs
    trace_cases: int  # the traced run uses the first ones


def make(name: str, rng: Random, work_dir: Path) -> Workload:
    spec = SPEC[name]
    build = {
        "fillings-hyperbolic": _fillings_preset,
        "fillings-parabolic": _fillings_preset,
        "fillings-chain": _fillings_chain,
        "snf-dense": _snf_dense,
    }[name]
    setup_argv, cases = build(spec["generator"], rng, work_dir)
    return Workload(setup_argv, list(itertools.islice(cases, spec["cases"])), spec["trace_cases"])


# --- exact integer helpers, independent of the program -----------------------

def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def det(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant; det of the 0x0 matrix is 1."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def twist(dimension: int, size: int, edges, vertex: int, exponent: int) -> list[list[int]]:
    """Matrix of T_vertex^exponent on H_n of a plumbing, n = dimension >= 2.

    T_v sends c to c + s <c, L_v> L_v with s = (-1)^((n+1)(n+2)/2); the form
    pairs distinct spheres by their signed edge count times (-1)^(n(n+1)/2)
    and is symmetric for even n, antisymmetric for odd n.
    """
    n = dimension
    half, parity = (-1) ** (n * (n + 1) // 2), (-1) ** n
    form = [[half * (1 + parity) if i == j else 0 for j in range(size)] for i in range(size)]
    for i, j, sign in edges:
        i, j = min(i, j), max(i, j)
        form[i][j] += half * sign
        form[j][i] += parity * half * sign
    s = (-1) ** ((n + 1) * (n + 2) // 2)
    # (I + c e_v f^T)^-1 = I - c / (1 + c f_v) e_v f^T, with f = column v of the form.
    denominator = 1 + s * form[vertex][vertex]
    if denominator not in (1, -1):
        raise ValueError("twist is not invertible over Z")
    coeff = s if exponent > 0 else -s * denominator
    step = identity(size)
    for i in range(size):
        step[vertex][i] += coeff * form[i][vertex]
    out = identity(size)
    for _ in range(abs(exponent)):
        out = mat_mul(out, step)
    return out


def word_matrix(dimension: int, size: int, edges, letters) -> list[list[int]]:
    """Product of twists, leftmost letter applied last."""
    out = identity(size)
    for vertex, exponent in letters:
        out = mat_mul(out, twist(dimension, size, edges, vertex, exponent))
    return out


def spell(letters, labels) -> str:
    return " ".join(labels[v] if e == 1 else f"{labels[v]}^{e}" for v, e in letters)


def parse_fillings_csv(text: str) -> dict[int, dict[int, tuple[int, tuple[int, ...], int]]]:
    """k -> degree -> (free rank, invariant factors, class id)."""
    lines = text.splitlines()
    if not lines or lines[0] != "k,degree,rank,invariant_factors,class":
        raise CheckFailed("fillings CSV header missing")
    family: dict[int, dict[int, tuple[int, tuple[int, ...], int]]] = {}
    for line in lines[1:]:
        k, degree, rank, factors, class_id = line.split(",")
        parsed = tuple(int(d) for d in factors.split("|")) if factors else ()
        family.setdefault(int(k), {})[int(degree)] = (int(rank), parsed, int(class_id))
    return family


def _check_shape(family, kmax: int) -> None:
    if sorted(family) != list(range(1, kmax + 1)):
        raise CheckFailed("family does not list k = 1 .. kmax")
    ranks = {d: g[0] for d, g in family[1].items()}
    for k, groups in family.items():
        if {d: g[0] for d, g in groups.items()} != ranks:
            raise CheckFailed(f"free ranks change at k={k}")


# --- fillings on a 2-vertex preset: 2x2 monodromy ---------------------------

def _fillings_preset(gen: dict, rng: Random, work_dir: Path):
    graph = gen["graph"]
    dimension, size, edges = graph["dimension"], graph["vertices"], graph["edges"]
    labels, length, kmax = gen["alphabet"], gen["length"], gen["kmax"]
    setup = ["homology", "--preset", gen["preset"]]

    def cases():
        while True:
            start = rng.randrange(len(labels))
            vertices = [(start + i) % len(labels) for i in range(length)]
            letters = [(v, rng.choice(gen["exponents"])) for v in vertices]
            word = spell(letters, labels)
            m = word_matrix(dimension, size, edges, letters)
            argv = ["fillings", "--preset", gen["preset"], "--word", word,
                    "--kmax", str(kmax), "--format", "csv"]
            yield Case(argv, kmax, lambda out, m=m: _check_2x2_family(out, m, kmax, dimension))

    return setup, cases()


def _check_2x2_family(out: str, m: list[list[int]], kmax: int, degree: int) -> None:
    """Torsion of coker(M^k - I) for a 2x2 determinant-1 M, k = 1 .. kmax.

    |det(M^k - I)| = |2 - t_k| with t_k = trace(M^k) = t t_{k-1} - t_{k-2};
    the first invariant factor is the gcd d1 of the entries of M^k - I, the
    second |det| / d1. A singular M^k - I keeps d1 only.
    """
    if det(m) != 1:
        raise CheckFailed("monodromy does not have determinant 1")
    family = parse_fillings_csv(out)
    _check_shape(family, kmax)
    trace = m[0][0] + m[1][1]
    t_prev, t_cur = 2, trace
    power = m
    for k in range(1, kmax + 1):
        if k > 1:
            t_prev, t_cur = t_cur, trace * t_cur - t_prev
            power = mat_mul(power, m)
        d1 = math.gcd(power[0][0] - 1, power[0][1], power[1][0], power[1][1] - 1)
        cardinality = abs(2 - t_cur)
        expected = (d1, cardinality // d1) if cardinality else (d1,)
        expected = tuple(d for d in expected if d > 1)
        groups = family[k]
        torsion = {d: factors for d, (_, factors, _) in groups.items() if factors}
        if torsion != ({degree: expected} if expected else {}):
            raise CheckFailed(f"k={k}: torsion {torsion}, expected {expected} in degree {degree}")
        if any(class_id != k for _, _, class_id in groups.values()):
            raise CheckFailed(f"k={k}: class ids are not 1 .. kmax, so classes are not distinct")


# --- fillings on a generated A_n chain ---------------------------------------

def _fillings_chain(gen: dict, rng: Random, work_dir: Path):
    n, dimension, kmax = gen["vertices"], gen["dimension"], gen["kmax"]
    labels = [f"v{i}" for i in range(n)]
    expected = (HERE / "expected" / "fillings-chain.csv").read_text(encoding="utf-8")

    def graph_file(index: int, signs: list[int]) -> str:
        path = work_dir / f"chain-{index}.json"
        edges = [{"between": [labels[i], labels[i + 1]], "sign": s} for i, s in enumerate(signs)]
        path.write_text(json.dumps({"dimension": dimension, "vertices": labels, "edges": edges}),
                        encoding="utf-8")
        return str(path)

    setup = ["homology", "--graph", graph_file(0, [1] * (n - 1))]

    def cases():
        index = 0
        while True:
            index += 1
            signs = [rng.choice((1, -1)) for _ in range(n - 1)]
            order = list(range(n))
            rng.shuffle(order)
            edges = [(i, i + 1, s) for i, s in enumerate(signs)]
            m = word_matrix(dimension, n, edges, [(v, 1) for v in order])
            argv = ["fillings", "--graph", graph_file(index, signs),
                    "--word", spell([(v, 1) for v in order], labels),
                    "--kmax", str(kmax), "--format", "csv"]
            yield Case(argv, kmax,
                       lambda out, m=m: _check_chain(out, expected, m, kmax, dimension))

    return setup, cases()


def _check_chain(out: str, expected: str, m, kmax: int, degree: int) -> None:
    if out != expected:
        raise CheckFailed("chain family differs from the reference for signs +1 in natural order")
    family = parse_fillings_csv(out)
    power = identity(len(m))
    for k in range(1, kmax + 1):
        power = mat_mul(power, m)
        minus = [[e - (i == j) for j, e in enumerate(row)] for i, row in enumerate(power)]
        d = abs(det(minus))
        factors = family[k].get(degree, (0, (), 0))[1]
        if d and math.prod(factors) != d:
            raise CheckFailed(f"k={k}: torsion {factors} does not multiply to |det| = {d}")


# --- Smith form of dense matrices --------------------------------------------

def _snf_dense(gen: dict, rng: Random, work_dir: Path):
    low, high = gen["entries"]
    setup = ["snf", "--matrix", f"[[{rng.randint(low, high)}]]", "--format", "json"]

    def cases():
        while True:
            n = rng.randint(*gen["sizes"])
            m = [[rng.randint(low, high) for _ in range(n)] for _ in range(n)]
            literal = json.dumps(m, separators=(",", ":"))
            yield Case(["snf", "--matrix", literal, "--format", "json"], 1,
                       lambda out, m=m: _check_snf(out, m))

    return setup, cases()


def _check_snf(out: str, m: list[list[int]]) -> None:
    doc = json.loads(out)
    u, s, v = doc["U"], doc["S"], doc["V"]
    n = len(m)
    if any(s[i][j] for i in range(n) for j in range(n) if i != j):
        raise CheckFailed("S is not diagonal")
    diagonal = [s[i][i] for i in range(n)]
    if any(d < 0 for d in diagonal):
        raise CheckFailed("S has a negative diagonal entry")
    for a, b in zip(diagonal, diagonal[1:]):
        if (a == 0 and b != 0) or (a and b % a):
            raise CheckFailed("S diagonal is not a divisor chain")
    if mat_mul(mat_mul(u, m), v) != s:
        raise CheckFailed("U*M*V != S")
    if math.prod(diagonal) != abs(det(m)):
        raise CheckFailed("product of the Smith diagonal differs from |det M|")
