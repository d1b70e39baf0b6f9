"""Plumbings of cotangent sphere bundles as signed graphs.

A plumbing of copies of T*S^n is encoded by its plumbing graph: one vertex
per Lagrangian sphere, one signed edge per plumbing point (multi-edges allowed,
self-loops not). The graph determines

* the intersection form on middle homology H_n, with the orientation
  convention fixed so that the induced twist operators match the classical
  reflection matrices (see ``twist_engine``), and
* the full graded integer homology of the plumbing, which is free: the space
  deformation-retracts onto spheres glued at points, a wedge of |V| n-spheres
  and E - V + 1 circles.

For n = 1 the middle homology mixes sphere and arc classes and no intersection
form is derived from the graph; degree-1 twist actions are supplied on the
graph as ``h1_actions`` (the ``a2-3pt-n1`` preset in ``presets`` carries one).

Like every ``Frozen`` type, a ``PlumbingGraph`` checks itself once, in
``__init__``: ``validate`` lists the violations and any violation raises
``InvalidGraph``. A graph that exists is valid, so nothing that takes one
checks it again.
"""

from collections.abc import Iterable, Mapping

from .exact_linalg import AbelianGroup, Frozen, IntMatrix, det


class InvalidGraph(ValueError):
    """A graph that breaks its invariants; ``errors`` lists each violation."""

    def __init__(self, errors: list[str]):
        super().__init__("invalid plumbing graph: " + "; ".join(errors))
        self.errors = errors


class PlumbingGraph(Frozen):
    """Signed plumbing graph with ambient sphere dimension.

    Vertices are unique non-empty string labels, the names twist words use.
    ``h1_actions`` optionally carries, for dimension-1 graphs only, the matrix
    of a twist's action on H_1 for selected vertices (rank E + 1, unimodular).
    Construction raises ``InvalidGraph`` if ``validate`` finds a violation.
    """

    __slots__ = ("dimension", "vertices", "edges", "h1_actions")

    def __init__(self, dimension: int, vertices: Iterable[str],
                 edges: Iterable[tuple[str, str, int]],
                 h1_actions: Mapping[str, IntMatrix] | Iterable[tuple[str, IntMatrix]] = ()):
        if isinstance(h1_actions, Mapping):
            h1_actions = h1_actions.items()
        # list entries become tuples, so the graph hashes; validate checks each shape
        edges, h1_actions = (tuple(tuple(e) if isinstance(e, list) else e for e in entries)
                             for entries in (edges, h1_actions))
        self._set(dimension, tuple(vertices), edges, h1_actions)
        errors = validate(self)
        if errors:
            raise InvalidGraph(errors)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def h1_action(self, vertex: str) -> IntMatrix | None:
        for label, matrix in self.h1_actions:
            if label == vertex:
                return matrix
        return None


_TRIVIAL = AbelianGroup(0)


def _sorted_degrees(by_degree: Mapping[object, object]) -> list[int]:
    """The keys in ascending order; every key is checked before any is compared."""
    for k in by_degree:
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise ValueError(f"degrees must be nonnegative integers, got {k!r}")
    return sorted(by_degree)


class GradedGroup(Frozen):
    """Degree-indexed abelian groups; degrees not stored are trivial."""

    __slots__ = ("_groups",)

    def __init__(self, groups: Mapping[int, AbelianGroup]):
        cleaned: dict[int, AbelianGroup] = {}
        for k in _sorted_degrees(groups):
            g = groups[k]
            if not isinstance(g, AbelianGroup):
                raise ValueError(f"degree {k} group must be an AbelianGroup")
            if not g.is_trivial():
                cleaned[k] = g
        self._set(cleaned)

    def group(self, degree: int) -> AbelianGroup:
        return self._groups.get(degree, _TRIVIAL)

    def rank(self, degree: int) -> int:
        return self.group(degree).free_rank

    def degrees(self) -> tuple[int, ...]:
        return tuple(self._groups)

    def items(self) -> tuple[tuple[int, AbelianGroup], ...]:
        return tuple(self._groups.items())

    def is_free(self) -> bool:
        return all(not g.invariant_factors for g in self._groups.values())

    def __hash__(self) -> int:
        return hash(tuple(self._groups.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {g}" for k, g in self._groups.items())
        return f"GradedGroup({{{body}}})"


def validate(graph: PlumbingGraph) -> list[str]:
    """Check the graph invariants; returns a list of violations (empty = ok)."""
    errors: list[str] = []
    dimension = graph.dimension
    if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
        errors.append(f"dimension must be an integer >= 1, got {dimension!r}")
    if not graph.vertices:
        errors.append("empty vertex list")
    # the connectivity walk needs unique labels and edges between known vertices
    walkable = True
    known: set[str] = set()
    for label in graph.vertices:
        if not isinstance(label, str) or not label:
            # no twist word can name it, and graph files hold only strings
            errors.append(f"vertex label must be a non-empty string, got {label!r}")
            walkable = False
        elif label in known:
            errors.append(f"duplicate vertex label {label!r}")
            walkable = False
        else:
            known.add(label)
    adjacency: dict[str, set[str]] = {v: set() for v in known}
    for edge in graph.edges:
        if not isinstance(edge, tuple) or len(edge) != 3:
            errors.append(f"edge must be a (vertex, vertex, sign) triple, got {edge!r}")
            walkable = False
            continue
        a, b, sign = edge
        for end in (a, b):
            # an end at a vertex with a bad label is reported once, as the label
            if not (isinstance(end, str) and end in known) and end not in graph.vertices:
                errors.append(f"edge endpoint {end!r} is not a vertex")
                walkable = False
        if a == b:
            errors.append(f"self-loop at {a!r}")
        if not isinstance(sign, int) or isinstance(sign, bool) or sign not in (1, -1):
            errors.append(f"edge sign must be 1 or -1, got {sign!r}")
        if walkable and a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    if graph.vertices and walkable:
        stack = [graph.vertices[0]]
        reached = {graph.vertices[0]}
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in reached:
                    reached.add(nxt)
                    stack.append(nxt)
        if len(reached) != len(graph.vertices):
            errors.append("disconnected graph")
    errors.extend(_validate_h1_actions(graph))
    return errors


def _validate_h1_actions(graph: PlumbingGraph) -> list[str]:
    errors: list[str] = []
    if not graph.h1_actions:
        return errors
    if graph.dimension != 1:
        errors.append("h1_action entries only apply to dimension 1")
        return errors
    size = graph.edge_count + 1
    seen = []  # a list: a bad label need not be hashable
    for entry in graph.h1_actions:
        if not isinstance(entry, tuple) or len(entry) != 2:
            errors.append(f"h1_action entry must be a (vertex, matrix) pair, got {entry!r}")
            continue
        label, matrix = entry
        if label not in graph.vertices:
            errors.append(f"h1_action for unknown vertex {label!r}")
        elif label in seen:
            # h1_action would read the first entry and graph_to_json keep the last
            errors.append(f"duplicate h1_action for {label!r}")
        elif not isinstance(matrix, IntMatrix):
            errors.append(f"h1_action for {label!r} must be a square IntMatrix")
        elif not matrix.is_square or matrix.rows != size:
            errors.append(
                f"h1_action for {label!r} must be {size}x{size}, got {matrix.rows}x{matrix.cols}"
            )
        elif det(matrix) not in (1, -1):
            errors.append(f"h1_action for {label!r} is not unimodular")
        seen.append(label)
    return errors


def intersection_form(graph: PlumbingGraph) -> IntMatrix:
    """Intersection pairing on H_n in the vertex-order basis, n >= 2.

    Off-diagonal entries are the signed edge counts times (-1)^(n(n+1)/2);
    the pairing is symmetric for n even and antisymmetric for n odd, and the
    self-intersection of a sphere class is (-1)^(n(n+1)/2) (1 + (-1)^n).
    """
    if graph.dimension == 1:
        raise ValueError(
            "no intersection form is derived for dimension 1; "
            "use a preset or supply h1_action matrices in the graph file"
        )
    n = graph.dimension
    half_sign = (-1) ** (n * (n + 1) // 2)
    parity = (-1) ** n
    index = {label: i for i, label in enumerate(graph.vertices)}
    size = len(graph.vertices)
    rows = [[0] * size for _ in range(size)]
    for i, row in enumerate(rows):
        row[i] = half_sign * (1 + parity)
    for a, b, sign in graph.edges:
        i, j = sorted((index[a], index[b]))
        rows[i][j] += half_sign * sign
        rows[j][i] += parity * half_sign * sign
    return IntMatrix.from_rows(rows, cols=size)


def base_homology(graph: PlumbingGraph) -> GradedGroup:
    """Graded integer homology of the plumbing (free in every degree).

    For n >= 2: H_0 = Z, H_1 = Z^(E - V + 1), H_n = Z^V. For n = 1 the two
    middle contributions merge: H_1 = Z^(E + 1).
    """
    nv = len(graph.vertices)
    ne = graph.edge_count
    n = graph.dimension
    groups = {0: AbelianGroup(1)}
    if n == 1:
        groups[1] = AbelianGroup(ne + 1)
    else:
        groups[1] = AbelianGroup(ne - nv + 1)
        groups[n] = AbelianGroup(nv)
    return GradedGroup(groups)


def graph_to_json(graph: PlumbingGraph) -> dict:
    """Canonical JSON-shaped dict for the graph file format."""
    data: dict = {
        "dimension": graph.dimension,
        "vertices": list(graph.vertices),
        "edges": [{"between": [a, b], "sign": sign} for a, b, sign in graph.edges],
    }
    if graph.h1_actions:
        data["h1_action"] = {label: m.to_rows() for label, m in graph.h1_actions}
    return data


def graph_from_json(data: object) -> PlumbingGraph:
    """Parse the graph file format; unknown keys are rejected."""
    if not isinstance(data, dict):
        raise ValueError("graph document must be a JSON object")
    allowed = {"dimension", "vertices", "edges", "h1_action"}
    for key in data:
        if key not in allowed:
            raise ValueError(f"unknown key {key!r} in graph document")
    for key in ("dimension", "vertices", "edges"):
        if key not in data:
            raise ValueError(f"graph document is missing {key!r}")
    dimension = data["dimension"]
    if not isinstance(dimension, int) or isinstance(dimension, bool):
        raise ValueError("dimension must be an integer")
    vertices = data["vertices"]
    if not isinstance(vertices, list) or any(not isinstance(v, str) for v in vertices):
        raise ValueError("vertices must be a list of labels")
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise ValueError("edges must be a list")
    edges = []
    for e in raw_edges:
        if not isinstance(e, dict) or set(e) != {"between", "sign"}:
            raise ValueError('each edge must be an object with exactly "between" and "sign"')
        between = e["between"]
        if (
            not isinstance(between, list)
            or len(between) != 2
            or any(not isinstance(v, str) for v in between)
        ):
            raise ValueError('edge "between" must be a pair of vertex labels')
        sign = e["sign"]
        if not isinstance(sign, int) or isinstance(sign, bool) or sign not in (1, -1):
            raise ValueError("edge sign must be 1 or -1")
        edges.append((between[0], between[1], sign))
    h1_actions = []
    if "h1_action" in data:
        raw = data["h1_action"]
        if not isinstance(raw, dict):
            raise ValueError("h1_action must map vertex labels to matrices")
        for label, rows in raw.items():
            if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
                raise ValueError(f"h1_action for {label!r} must be a matrix (list of rows)")
            h1_actions.append((label, IntMatrix.from_rows(rows)))
    return PlumbingGraph(dimension, vertices, edges, h1_actions)


def parse_graph(text: str) -> PlumbingGraph:
    import json

    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"bad graph document: {exc}") from None
    return graph_from_json(data)
