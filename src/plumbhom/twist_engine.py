"""Twist actions on the homology of a plumbing.

A twist along one of the plumbing spheres L acts on middle homology by the
Picard-Lefschetz reflection

    c  |->  c + (-1)^((n+1)(n+2)/2) <c, [L]> [L]

and by the identity in every other degree; <.,.> is the intersection form from
the plumbing graph. Words in the twists compose like functions: the word
"t1 t2" means the twist along t1 applied after the twist along t2, so its
matrix is the product T1 @ T2 in the vertex-order basis (columns are images of
basis vectors).

In that basis the twist along sphere v is T = I + s e_v f^T, with s the sign
above and f column v of the form. N = e_v f^T has N^2 = f_v N, f_v = <L, L>:
for odd n the form is antisymmetric, so N^2 = 0 and T^e = I + e s N for every
integer e; for even n, f_v = -2s, so T^2 = I and T^e = T^(e mod 2). A letter
t^e therefore costs no more than t: no power, inverse or product is formed.

Dimension-1 graphs have no derived intersection data; their degree-1 actions
come from ``h1_actions`` entries on the graph (the ``a2-3pt-n1`` preset in
``presets`` carries one for t1). A stored matrix may be any unimodular matrix,
so a dimension-1 letter t^e multiplies by the e-th power of its matrix.
Either way a word acts in exactly one degree, the graph's dimension:
``_powers`` yields phi, phi^2, ... there by these letter rules, and
``word_action`` stores its first yield there and nowhere else.
"""

from collections.abc import Iterable, Iterator, Mapping

from .exact_linalg import Frozen, IntMatrix, det_adjugate, mat_pow, row_product
from .plumbing import PlumbingGraph, _sorted_degrees, intersection_form


class TwistWord(Frozen):
    """Word in twist generators; leftmost letter is applied last."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[tuple[str, int]]):
        letters = tuple((label, exp) for label, exp in letters)
        for label, exp in letters:
            if not isinstance(label, str):
                raise ValueError(f"vertex labels in words must be strings, got {label!r}")
            if not label:
                raise ValueError("empty vertex label in word")
            if not isinstance(exp, int) or isinstance(exp, bool) or exp == 0:
                raise ValueError(f"word exponents must be nonzero integers, got {exp!r}")
        self._set(letters)

    def __str__(self) -> str:
        return " ".join(
            label if exp == 1 else f"{label}^{exp}" for label, exp in self.letters
        )


def parse_word(text: str) -> TwistWord:
    """Parse the word grammar: whitespace-separated ``label`` or ``label^exp``.

    An exponent is ASCII ``[+-]?[0-9]+``: ``int`` alone would also read
    ``1_0`` and other scripts' digits.
    """
    letters = []
    for token in text.split():
        label, caret, tail = token.rpartition("^")
        if caret:
            digits = tail[1:] if tail[:1] in ("+", "-") else tail
            try:
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError
                exp = int(tail)  # past the digit limit, this raises too
            except ValueError:
                raise ValueError(f"bad exponent in token {token!r}") from None
            if not label:
                raise ValueError(f"missing vertex label in token {token!r}")
            if exp == 0:
                raise ValueError(f"zero exponent in token {token!r}")
            letters.append((label, exp))
        else:
            letters.append((token, 1))
    return TwistWord(tuple(letters))


class GradedAction(Frozen):
    """Degree-indexed square integer matrices; absent degrees act as identity.

    Twist-generated actions are always unimodular, but the class accepts any
    square integer matrix so that non-invertible self-maps (e.g. a degree-d
    circle map) can feed the same mapping-torus machinery. ``inverse`` is only
    defined when every stored matrix is unimodular.
    """

    __slots__ = ("_maps",)

    def __init__(self, degree_maps: Mapping[int, IntMatrix]):
        cleaned: dict[int, IntMatrix] = {}
        for k in _sorted_degrees(degree_maps):
            m = degree_maps[k]
            if not isinstance(m, IntMatrix) or not m.is_square:
                raise ValueError(f"degree {k} map must be a square IntMatrix")
            cleaned[k] = m
        self._set(cleaned)

    def degrees(self) -> tuple[int, ...]:
        return tuple(self._maps)

    def items(self) -> tuple[tuple[int, IntMatrix], ...]:
        return tuple(self._maps.items())

    def matrix(self, degree: int, size: int | None = None) -> IntMatrix:
        m = self._maps.get(degree)
        if m is None:
            if size is None:
                raise KeyError(f"no stored matrix in degree {degree} and no size given")
            return IntMatrix.identity(size)
        return m

    def power(self, k: int) -> "GradedAction":
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValueError(f"exponent must be an integer, got {k!r}")
        base = self if k >= 0 else self.inverse()
        e = abs(k)
        return GradedAction({d: mat_pow(m, e) for d, m in base._maps.items()})

    def inverse(self) -> "GradedAction":
        """Exact inverse: m^-1 = det(m) adj(m) when det(m) = +-1."""
        out: dict[int, IntMatrix] = {}
        for d, m in self._maps.items():
            det, adj = det_adjugate(m)
            if det not in (1, -1):
                raise ValueError(f"degree {d} map is not unimodular")
            out[d] = IntMatrix._unchecked(m.rows, m.rows, tuple([det * e for r in adj for e in r]))
        return GradedAction(out)

    def is_identity(self) -> bool:
        return all(m.is_identity() for m in self._maps.values())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # each stored matrix against the other side's, the identity where it stores none
        return all(m == b.matrix(k, m.rows)
                   for a, b in ((self, other), (other, self)) for k, m in a._maps.items())

    def __hash__(self) -> int:
        return hash(tuple((k, m) for k, m in self._maps.items() if not m.is_identity()))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {m}" for k, m in self._maps.items())
        return f"GradedAction({{{body}}})"


IDENTITY_ACTION = GradedAction({})


def word_action(graph: PlumbingGraph, word: TwistWord) -> GradedAction:
    """Composite action of a twist word, leftmost letter applied last.

    The first power from ``_powers``, stored in the graph's dimension alone.
    """
    rows = next(_powers(graph, word))
    size = len(rows)
    return GradedAction({graph.dimension: IntMatrix._unchecked(
        size, size, tuple([e for r in rows for e in r]))})


def _powers(graph: PlumbingGraph, word: TwistWord) -> Iterator[list[list[int]]]:
    """phi, phi^2, ... in the graph's dimension, as rows.

    Yields one list, advanced in place, which the caller must copy to keep.
    The letters are prepared once; each power takes them in word order, each
    on the right. For n >= 2 a letter t^e is a rank-one update (module
    docstring); a dimension-1 letter multiplies by the columns of its stored
    matrix's power from ``GradedAction.power``.
    """
    n = graph.dimension
    index = {label: i for i, label in enumerate(graph.vertices)}
    size = len(index) if n > 1 else graph.edge_count + 1
    form = intersection_form(graph) if n > 1 else None
    sign = (-1) ** ((n + 1) * (n + 2) // 2)
    steps = []
    for label, exp in word.letters:
        v = index.get(label)
        if v is None:
            raise ValueError(f"unknown vertex {label!r}")
        if n == 1:
            stored = graph.h1_action(label)
            if stored is None:
                raise ValueError(
                    f"dimension-1 twist action for {label!r} is not derived from the graph; "
                    "use the built-in preset or an h1_action entry in the graph file"
                )
            steps.append((None, GradedAction({1: stored}).power(exp).matrix(1)._columns()))
        else:
            # T^e = I + c e_v f^T with f column v of the form, so row r gains c r[v] f;
            # a letter with no nonzero update (c = 0 for even e in even n) is no step
            c = sign * (exp if n % 2 else exp % 2)
            if update := [(j, c * f) for j, f in enumerate(form.entries[v::size]) if c * f]:
                steps.append((v, update))
    rows = IntMatrix.identity(size).to_rows()
    while True:
        for v, step in steps:
            if v is None:
                rows[:] = row_product(rows, step)
                continue
            for r in rows:
                t = r[v]
                if t:
                    for j, cf in step:
                        r[j] += t * cf
        yield rows
