"""Built-in plumbing graphs addressable from the command line.

Vertices are named after their twist generators (t1, t2) so word strings like
"t1 t2" resolve directly against the graph.
"""

from .exact_linalg import IntMatrix
from .plumbing import PlumbingGraph


def _a2(dimension: int, points: int) -> PlumbingGraph:
    return PlumbingGraph(
        dimension, ("t1", "t2"), tuple(("t1", "t2", 1) for _ in range(points))
    )


# Two circles plumbed at three points. Nothing is derived in dimension 1, so
# the graph carries the action of the twist along t1 on H_1 = Z^4, in the
# basis of the two circle classes and two cycle classes glued from arcs.
_A2_3PT_N1 = PlumbingGraph(
    1,
    ("t1", "t2"),
    (("t1", "t2", 1),) * 3,
    (("t1", IntMatrix.from_rows(
        [
            [1, -3, -1, -1],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]
    )),),
)


GRAPH_PRESETS: dict[str, PlumbingGraph] = {
    "a2-3pt-n3": _a2(3, 3),
    "a2-3pt-n2": _a2(2, 3),
    "a2-3pt-n1": _A2_3PT_N1,
    "a2-1pt-n3": _a2(3, 1),
    "a2-1pt-n5": _a2(5, 1),
}


def graph_preset(name: str) -> PlumbingGraph:
    try:
        return GRAPH_PRESETS[name]
    except KeyError:
        available = ", ".join(sorted(GRAPH_PRESETS))
        raise ValueError(f"unknown preset {name!r} (available: {available})") from None
