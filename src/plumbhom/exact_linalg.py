"""Arbitrary-precision integer matrices, Smith normal form, and cokernels.

Everything downstream (intersection forms, twist actions, torsion of bundle
homology) reduces to exact computations over the integers, so this module is
deliberately plain: dense matrices of Python ints, no floats, and no modular
reduction of entries except in the Hermite form below, whose modulus is an
exact determinant. Torsion orders in the applications grow exponentially,
which rules out fixed-width arithmetic from the start.

One pivot step, ``_eliminate_pivot``, does all Smith elimination. It takes
the nonzero entry of smallest absolute value in the working block, ties
broken by the first in row-major order of the block as it lies at that
moment (both callers may hold it transposed against the input); the search
runs row by row on builtins and stops at the first row holding a unit. It
clears the pivot's column with row steps (exact quotients, or Bezout steps
whose cofactors are balanced, |x| <= |b/g|/2), transposes the block, clears
the old row the same way, and adds a row to the pivot row until the pivot
divides the rest of the block. Every row operation is also applied to the
rows of a transform that the caller passes, and every transpose of the
block swaps the row-side and column-side transforms.

A unit pivot divides everything, so it skips that divisibility scan, and
once its column is clear the steps that clear its row change only that row
and the column-side transform: they run in place, not between two
transposes that cancel (one transpose stays when the row is already clear).
The tie rule and this pattern of transposes are kept because ``snf``'s U
and V depend on them: S is unique, but another pivot or orientation gives
another valid pair of transforms, and the CLI prints them.

``snf`` returns its transforms as witnesses (``U @ M @ V == S``); only the
CLI ``snf`` command in table and json format needs them (csv prints S alone,
from ``smith_form``). On a singular or rectangular M the pivot steps run on
M itself with identity transforms, and their entries can grow far past the
input's. A nonsingular square M takes another route, whose entries stay
near |det M|: ``det_adjugate`` gives d = det M and adj M by fraction-free
Gauss-Jordan (stopping at once on a singular M), ``_hermite_mod`` gives the
row Hermite form H = W M working modulo |d|, and W = H adj(M) / d is an
exact division. The pivot steps then run on the triangular H with W as the
row-side transform, so U is W after their row steps. A negative pivot is
made positive by negating its row of ``U``, so the signs go into ``U``.
Before returning, ``snf`` checks ``U @ M @ V == S`` and, on the Hermite
route, that the diagonal of S multiplies to |d|; together these force
det U, det V = +-1. A failed check raises ``RuntimeError``.
``smith_rows`` passes zero-width transforms and returns only the nonzero
Smith diagonal of a matrix given as rows; ``cokernel_rows`` reads a cokernel
from it. ``smith_invariants`` and ``cokernel_group`` (and through the first
``smith_form``, which lays the invariants on a diagonal; a rank is their
count) hand them an ``IntMatrix``'s rows; the Wang pieces of
``bundle_homology`` (every filling-family member among them) hand their
difference blocks over as rows directly. A block with at most two rows or
two columns goes on entry to the determinantal finish (gcd of the entries,
gcd of the 2x2 minors). A larger one is transposed between pivot steps,
dropping zero rows and columns: the tie rule reads the block as it lies, so
its orientation chooses the pivots, and with them how far the entries grow.

One elimination gives every determinant: ``det_adjugate``, fraction-free
Gauss-Jordan, exact at every step with polynomially bounded intermediates.
``det`` reads det m from it, the Hermite route of ``snf`` reads d and adj M,
and ``GradedAction.inverse`` reads m^-1 = det(m) adj(m).

Entries are checked where they enter the program: the public ``IntMatrix``
constructor, ``IntMatrix.from_rows``, ``parse_matrix`` and graph files (through
``from_rows``) reject anything but plain ints. Results computed from matrices
that were already checked (``mat_mul``, ``transpose``, ``identity``, the
Smith diagonal of ``smith_form``, the word actions and inverses of
``twist_engine``) hold ints by construction and are built through
``IntMatrix._unchecked``, which skips the per-entry check.

``Frozen`` is the one base of the package's ten immutable value types
(``IntMatrix`` and ``AbelianGroup`` here; ``PlumbingGraph``, ``GradedGroup``,
``TwistWord``, ``GradedAction``, ``Representation``, ``BoundaryCheck``,
``FillingEntry`` and ``FillingReport`` downstream): equality, hash and repr
read the fields named in the subclass's ``__slots__``, and assignment raises
``AttributeError``. ``IntMatrix`` and the two graded types print their own
reprs; the graded types hash their one dict of degrees as a tuple, and
``GradedAction`` equality treats a missing degree as the identity. Each input
type (all but the three result types, ``BoundaryCheck`` and the two filling
ones) checks its fields in ``__init__``, so an object that exists is valid and
no caller checks it again; ``__init__`` then stores the fields with one
``_set`` call. The ``_unchecked`` constructors of ``IntMatrix``,
``AbelianGroup`` and ``GradedGroup`` wrap values that were already checked (a
Smith diagonal, or the pieces of a group built before) and skip the checks.
Both assign through the slots' own setters, which ``Frozen`` keeps per class.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from math import gcd, prod
from operator import attrgetter, mul


class Frozen:
    """Immutable value whose fields are the subclass's ``__slots__``, in order.

    Objects are equal only to objects of the same class with equal fields;
    the hash and the ``Name(field=value, ...)`` repr read the same fields.
    Assignment and deletion raise ``AttributeError``, so ``__init__`` stores
    its checked fields through ``_set``, which calls each slot's own setter.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # an attrgetter is not a method: self._key(self) reads the fields
        cls._key = attrgetter(*cls.__slots__)
        # the slot descriptors' own setters, which bypass __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def _set(self, *values: object) -> None:
        """Assign ``values`` to the slots, in ``__slots__`` order."""
        setters = self._setters
        if len(values) != len(setters):
            raise ValueError(f"expected {len(setters)} fields, got {len(values)}")
        for setter, value in zip(setters, values):
            setter(self, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since slots cannot be assigned
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


class IntMatrix(Frozen):
    """Dense integer matrix, stored row-major, immutable."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        entries = tuple(entries)
        for n in (rows, cols):
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise ValueError(f"matrix dimensions must be nonnegative integers, got {n!r}")
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
                f"got {len(entries)}"
            )
        for e in entries:
            if not isinstance(e, int) or isinstance(e, bool):
                raise ValueError(f"matrix entries must be integers, got {e!r}")
        self._set(rows, cols, entries)

    @classmethod
    def _unchecked(cls, rows: int, cols: int, entries: tuple[int, ...]) -> "IntMatrix":
        """Wrap a tuple of ``rows * cols`` ints computed from checked matrices."""
        m = object.__new__(cls)
        set_rows, set_cols, set_entries = cls._setters
        set_rows(m, rows)
        set_cols(m, cols)
        set_entries(m, entries)
        return m

    @classmethod
    def from_rows(cls, data: Iterable[Iterable[int]], cols: int | None = None) -> "IntMatrix":
        """Build from nested rows; ``cols`` disambiguates zero-row matrices."""
        rows = [list(r) for r in data]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("rows have unequal lengths")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row length")
        else:
            width = 0 if cols is None else cols
        return cls(len(rows), width, [e for r in rows for e in r])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        entries = tuple([1 if i == j else 0 for i in range(n) for j in range(n)])
        return cls._unchecked(n, n, entries)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.rows}x{self.cols} matrix")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def _columns(self) -> list[tuple[int, ...]]:
        return [self.entries[j::self.cols] for j in range(self.cols)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix._unchecked(
            self.cols, self.rows, tuple([e for col in self._columns() for e in col])
        )

    def is_identity(self) -> bool:
        return self.is_square and all(
            self.entries[i * self.cols + j] == (1 if i == j else 0)
            for i in range(self.rows) for j in range(self.cols)
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return mat_mul(self, other)

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}, {self.cols}, {list(self.entries)!r})"

    def __str__(self) -> str:
        return format_matrix(self)


SnfResult = namedtuple("SnfResult", ("U", "S", "V"))
SnfResult.__doc__ = "Smith decomposition ``U @ M @ V == S`` with unimodular U, V."


class AbelianGroup(Frozen):
    """Finitely generated abelian group in canonical form.

    ``invariant_factors`` is the divisor chain d_1 | d_2 | ... presenting the
    torsion subgroup; factors 0 and 1 never appear (zeros are absorbed into
    the free rank, ones are dropped).
    """

    __slots__ = ("free_rank", "invariant_factors")

    def __init__(self, free_rank: int, invariant_factors: Iterable[int] = ()):
        factors = tuple(invariant_factors)
        if not isinstance(free_rank, int) or isinstance(free_rank, bool) or free_rank < 0:
            raise ValueError(f"free rank must be a nonnegative integer, got {free_rank!r}")
        for d in factors:
            if not isinstance(d, int) or d < 2:
                raise ValueError(f"invariant factors must be integers >= 2, got {d!r}")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors must form a divisor chain, got {factors}")
        self._set(free_rank, factors)

    @classmethod
    def _unchecked(cls, free_rank: int, invariant_factors: tuple[int, ...]) -> "AbelianGroup":
        """Wrap a free rank and a divisor chain of factors >= 2 checked before."""
        g = object.__new__(cls)
        set_free_rank, set_factors = cls._setters
        set_free_rank(g, free_rank)
        set_factors(g, invariant_factors)
        return g

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    @property
    def torsion_cardinality(self) -> int:
        return prod(self.invariant_factors)

    def __str__(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return "+".join(parts) if parts else "0"


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form of an integer matrix of any shape.

    Returns ``SnfResult(U, S, V)`` with ``U @ m @ V == S``, ``U`` and ``V``
    unimodular, ``S`` diagonal with nonnegative entries, and each diagonal
    entry dividing the next. Empty matrices pass through (their transforms
    are empty or identity as the shape dictates). A nonsingular square m is
    reduced through its Hermite form (module docstring). The witnesses are
    checked before they are returned: a failed check raises ``RuntimeError``.
    """
    d, adj = det_adjugate(m) if m.is_square else (0, [])
    if d:
        # H = W m with W unimodular, so W = H m^-1 = H adj(m) / d exactly;
        # the row steps on H then act on W's rows, giving U
        block = _hermite_mod(m.to_rows(), abs(d))
        u = [[e // d for e in r] for r in row_product(block, list(zip(*adj)))]
    else:
        block, u = m.to_rows(), IntMatrix.identity(m.rows).to_rows()
    vt = IntMatrix.identity(m.cols).to_rows()
    sides = [u, vt]
    diag: list[int] = []
    done_u: list[list[int]] = []
    done_vt: list[list[int]] = []
    while any(map(any, block)):
        diag.append(_eliminate_pivot(block, sides))
        # u[0] is the pivot's row of U whichever way the block now lies
        if block[0][0] < 0:
            u[0] = [-e for e in u[0]]
        done_u.append(u.pop(0))
        done_vt.append(vt.pop(0))
        block = [r[1:] for r in block[1:]]
    _check_invariants(diag, min(m.rows, m.cols))
    u, vt = done_u + u, done_vt + vt
    s = _diagonal(diag, m.rows, m.cols)
    # the rows of V^T are the columns of V
    if row_product(row_product(u, m._columns()), vt) != s.to_rows():
        raise RuntimeError("Smith transforms fail U @ M @ V == S")
    if d and prod(diag) != abs(d):
        # with U @ M @ V == S this forces det U, det V = +-1
        raise RuntimeError("Smith invariants do not multiply to |det M|")
    return SnfResult(IntMatrix.from_rows(u, cols=m.rows), s,
                     IntMatrix.from_rows(vt, cols=m.cols).transpose())


def det_adjugate(m: IntMatrix) -> tuple[int, list[list[int]]]:
    """det m and the rows of adj m, by fraction-free Gauss-Jordan inversion.

    Step k takes the pivot p_k = a_kk and turns every other row into
    (p_k row - a_ik row_k) / p_(k-1), an exact division since the entries
    are minors of [m | I]. The block holds that augmented matrix in n
    columns: before step k, column k of I is still a multiple of e_k and is
    not stored; after it, column k of m is, and column k of I takes its
    place (-a_ik off the pivot row, p_(k-1) on it). The result is
    p (P m)^-1 for the last pivot p = det(P m), P the row swaps; undoing
    the swaps on the columns gives adj m. A column with no pivot stops the
    elimination: a singular m gives ``(0, [])``.
    """
    if not m.is_square:
        raise ValueError(f"adjugate needs a square matrix, got {m.rows}x{m.cols}")
    a = m.to_rows()
    swaps = []
    prev = 1
    for k in range(m.rows):
        pi = next((i for i in range(k, m.rows) if a[i][k]), None)
        if pi is None:
            return 0, []
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            swaps.append((k, pi))
        top = a[k]
        p = top[k]
        for i, row in enumerate(a):
            if i != k:
                f = row[k]
                row[:] = [(p * x - f * y) // prev for x, y in zip(row, top)]
                row[k] = -f
        top[k], prev = prev, p
    for k, pi in reversed(swaps):
        for row in a:
            row[k], row[pi] = row[pi], row[k]
    sign = -1 if len(swaps) % 2 else 1
    return sign * prev, [[sign * e for e in row] for row in a]


def _hermite_mod(block: list[list[int]], d: int) -> list[list[int]]:
    """Row Hermite form of a square block whose determinant is +-d, d > 0.

    The form is upper triangular with a positive diagonal, and each entry
    above the diagonal lies in [0, the diagonal entry of its column). The
    rows of the block span a lattice L that holds d Z^n (d I = +-adj(M) M),
    and the vectors of L that vanish before column c hold r Z^(n-c), with r
    = d over the diagonal entries found before c. So the rows still to be
    reduced are kept mod r, from column c on, and the diagonal entry of
    column c is gcd(pivot, r) (Domich, Kannan and Trotter 1987; Cohen, *A
    Course in Computational Algebraic Number Theory*, Alg. 2.4.8).
    """
    r = d
    rows = [[e % r for e in row] for row in block]
    h: list[list[int]] = []
    for c in range(len(block)):
        top = rows[0]
        for i in range(1, len(rows)):
            row = rows[i]
            b = row[0]
            if b and top[0] and b % top[0] == 0:
                q = b // top[0]
                rows[i] = [(y - q * x) % r for x, y in zip(top, row)]
            elif b:
                x, y, g = _bezout(top[0], b)
                ag, bg = top[0] // g, b // g
                top, rows[i] = ([(x * p + y * q) % r for p, q in zip(top, row)],
                                [(ag * q - bg * p) % r for p, q in zip(top, row)])
        x, _, g = _bezout(top[0], r)
        new = [g] + [x * e % r for e in top[1:]]
        for above in h:
            q = above[c] // g
            if q:
                above[c:] = [e - q * f for e, f in zip(above[c:], new)]
        h.append([0] * c + new)
        r //= g
        rows = [row[1:] for row in rows[1:]]
    return h


def smith_form(m: IntMatrix) -> IntMatrix:
    """The S of ``snf(m)`` alone: S is unique, so no transforms are built."""
    return _diagonal(smith_invariants(m), m.rows, m.cols)


def _diagonal(diag: list[int], rows: int, cols: int) -> IntMatrix:
    entries = [0] * (rows * cols)
    for t, d in enumerate(diag):
        entries[t * (cols + 1)] = d
    return IntMatrix._unchecked(rows, cols, tuple(entries))


def smith_invariants(m: IntMatrix) -> list[int]:
    """Nonzero Smith diagonal of m in divisor-chain order, without transforms.

    The length is the rank of m. This is ``smith_rows`` on a copy of m's rows.
    """
    return smith_rows(m.to_rows())


def smith_rows(block: list[list[int]]) -> list[int]:
    """``smith_invariants`` of the matrix with these rows; the rows are consumed.

    A block with at most two rows or two columns (every 2x2 input) goes
    straight to the determinantal finish. A larger one loses its zero rows
    and columns on entry. Each pivot step takes the nonzero entry of smallest
    absolute value, clears its row and column, and makes it divide the rest
    of the block, so the pivots form a divisor chain and the finish
    continues it. Between steps the rest loses its zero rows and is
    transposed, losing its zero columns. The invariants ignore orientation,
    but the pivots do not, and so neither does entry growth: on phi^k - I
    for v0^2 ... v19^2 on the A_20 chain this route peaks at 23,521 bits for
    k <= 8, while the block left as it lies reached 210,718 at k = 3.
    """
    bound = min(len(block), len(block[0])) if block else 0
    out: list[int] = []
    if bound > 2:
        block = [r for r in block if any(r)]
        if len(block) > 2:
            cols = [c for c in zip(*block) if any(c)]
            if len(cols) < len(block[0]):
                block = [list(r) for r in zip(*cols)]
        while len(block) > 2 and len(block[0]) > 2:
            out.append(_eliminate_pivot(block, [[[] for _ in block], [[] for _ in block[0]]]))
            rows = [r for r in (r[1:] for r in block[1:]) if any(r)]
            block = [list(c) for c in zip(*rows) if any(c)]
    out += _determinantal_invariants(block)
    _check_invariants(out, bound)
    return out


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    # (x, y, g) with x*a + y*b == g == gcd(a, b) > 0 and |x| <= |b/g|/2,
    # for b nonzero; the balanced cofactor keeps the combined rows small.
    g = gcd(a, b)
    n = abs(b // g)
    x = pow(a // g, -1, n)
    if 2 * x > n:
        x -= n
    return x, (g - x * a) // b, g


def _eliminate_pivot(block: list[list[int]], sides: list[list[list[int]]]) -> int:
    """Clear the first row and column around the smallest entry, return |pivot|.

    ``sides`` holds two lists of rows, aligned with the block's rows and with
    its columns; each row operation on the block is applied to ``sides[0]``,
    and each transpose of the block reverses ``sides``. Works in place and may
    leave the block transposed. On return the pivot divides every other entry
    of the block.
    """
    # the first row-major entry of least |value|; no entry beats a unit
    least = pi = 0
    for i, r in enumerate(block):
        v = min(filter(None, map(abs, r)), default=0)
        if v and (v < least or not least):
            least, pi = v, i
            if v == 1:
                break
    pj = list(map(abs, block[pi])).index(least)
    rows, cols = sides
    block[0], block[pi] = block[pi], block[0]
    rows[0], rows[pi] = rows[pi], rows[0]
    for r in block:
        r[0], r[pj] = r[pj], r[0]
    cols[0], cols[pj] = cols[pj], cols[0]
    while True:
        # row steps clear column 0; the transpose then turns row 0 into column 0
        for i in range(1, len(block)):
            a, b = block[0][0], block[i][0]
            if b == 0:
                continue
            if b % a == 0:
                q = b // a
                for mat in (block, sides[0]):
                    mat[i] = [y - q * x for x, y in zip(mat[0], mat[i])]
            else:
                x, y, g = _bezout(a, b)
                ag, bg = a // g, b // g
                for mat in (block, sides[0]):
                    top, row = mat[0], mat[i]
                    mat[0] = [x * p + y * q for p, q in zip(top, row)]
                    mat[i] = [ag * q - bg * p for p, q in zip(top, row)]
        top = block[0]
        p = top[0]
        if (p == 1 or p == -1) and any(top[1:]):
            # column 0 is zero below a unit pivot, so the column steps that
            # clear row 0 change only row 0 and the column side: no transposes
            cols = sides[1]
            for j in range(1, len(top)):
                if top[j]:
                    q = top[j] * p
                    cols[j] = [y - q * x for x, y in zip(cols[0], cols[j])]
            top[1:] = [0] * (len(top) - 1)
            return 1
        block[:] = [list(c) for c in zip(*block)]
        sides.reverse()
        if any(r[0] for r in block[1:]):
            continue
        if p == 1 or p == -1:
            return 1
        stray = next((i for i in range(1, len(block)) if any(map(p.__rmod__, block[i]))), None)
        if stray is None:
            return abs(p)
        for mat in (block, sides[0]):
            mat[0] = [x + y for x, y in zip(mat[0], mat[stray])]


def _determinantal_invariants(block: list[list[int]]) -> list[int]:
    """Nonzero Smith diagonal of a block with at most two rows or two columns.

    Zero rows are dropped first; d1 is the gcd of the entries and d1*d2 the
    gcd of the 2x2 minors.
    """
    block = [r for r in block if any(r)]
    if len(block) > 2:
        block = list(zip(*block))
    if not block:
        return []
    if len(block) == 1:
        return [gcd(*block[0])]
    top, bottom = block
    d1 = gcd(*top, *bottom)
    n = len(top)
    d12 = gcd(*[top[i] * bottom[j] - top[j] * bottom[i]
                for i in range(n) for j in range(i + 1, n)])
    return [d1, d12 // d1] if d12 else [d1]


def _check_invariants(diag: list[int], bound: int) -> None:
    """Raise unless diag is a divisor chain of at most ``bound`` positive ints."""
    if len(diag) > bound:
        raise RuntimeError("more Smith invariants than the matrix has rows or columns")
    last = 1
    for d in diag:
        if d <= 0:
            raise RuntimeError("Smith invariant is not positive")
        if d % last:
            raise RuntimeError("Smith invariants are not a divisor chain")
        last = d


def cokernel_group(m: IntMatrix) -> AbelianGroup:
    """Z^rows / image(m) in canonical form, from ``smith_invariants`` alone.

    The free rank is rows - rank(m); the invariant factors are the Smith
    invariants that exceed 1, already in divisor-chain order. No transforms
    are built.
    """
    return cokernel_rows(m.to_rows())


def cokernel_rows(block: list[list[int]]) -> AbelianGroup:
    """``cokernel_group`` of the matrix with these rows; the rows are consumed."""
    rows = len(block)
    diag = smith_rows(block)
    return AbelianGroup._unchecked(rows - len(diag), tuple([d for d in diag if d > 1]))


def det(m: IntMatrix) -> int:
    """Exact determinant, read from ``det_adjugate``; det of the 0x0 matrix is 1."""
    if not m.is_square:
        raise ValueError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    return det_adjugate(m)[0]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    product = row_product(map(a.row, range(a.rows)), b._columns())
    return IntMatrix._unchecked(a.rows, b.cols, tuple([e for row in product for e in row]))


def row_product(rows: Iterable[Sequence[int]],
                cols: Sequence[Sequence[int]]) -> list[list[int]]:
    """The rows of A B, from A's rows and B's columns (sliced once by the caller)."""
    # a 2x0 times 0x3 gives empty columns, so zeros
    return [[sum(map(mul, row, col)) for col in cols] for row in rows]


def mat_pow(a: IntMatrix, k: int) -> IntMatrix:
    if not a.is_square:
        raise ValueError("matrix power needs a square matrix")
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
    result, base = IntMatrix.identity(a.rows), a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return result


def parse_matrix(text: str) -> IntMatrix:
    """Parse a bracketed matrix literal such as ``[[7,3],[-3,-2]]``.

    Whitespace is free; entries are decimal integers with an optional leading
    minus. ``[]`` denotes the empty 0x0 matrix.
    """
    import json

    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"bad matrix literal: {exc}") from None
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise ValueError("matrix literal must be a bracketed list of rows")
    for r in data:
        for e in r:
            if isinstance(e, bool) or not isinstance(e, int):
                raise ValueError(f"matrix entries must be plain integers, got {e!r}")
    return IntMatrix.from_rows(data)


def format_matrix(m: IntMatrix) -> str:
    """Render in the same literal syntax ``parse_matrix`` accepts."""
    return "[" + ",".join("[" + ",".join(str(e) for e in m.row(i)) + "]" for i in range(m.rows)) + "]"
