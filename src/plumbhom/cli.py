"""Command-line surface.

Subcommands: validate, form, homology, twist, torus, fillings, snf. Output is
byte-deterministic for a fixed invocation. Exit codes: 0 success, 1 input
error or a failed write (to stdout or --out), 2 internal invariant violation.

The first two paragraphs are the --help text. ``exact_linalg``, ``plumbing``
and ``presets`` load with this module; the handlers that run ``twist_engine``,
``bundle_homology`` or ``distinguisher`` import it, so ``snf``, ``validate``,
``form`` and ``homology`` never compile those. ``presets`` stays eager:
building it validates its five graphs, so deferring it would give a command's
first run in a process work that its later runs skip.

A renderer returns the text or yields it in chunks: ``fillings`` one chunk
per member, as ``distinguisher._family``'s generator makes it, with each
degree below d formatted once per family and H_(d+1) once per kernel rank.
``_write`` joins chunks into batches of about 64 KB (under PYTHONUNBUFFERED
each write is a system call), so an exit 2 mid-family can follow output.
"""

import argparse
import sys
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from itertools import chain
from math import prod

from .exact_linalg import AbelianGroup, format_matrix, parse_matrix, smith_form, snf
from .plumbing import (
    GradedGroup,
    InvalidGraph,
    PlumbingGraph,
    base_homology,
    graph_to_json,
    intersection_form,
    parse_graph,
)
from .presets import graph_preset


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract reserves 2
    # for internal invariant violations.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser(argv: list[str]) -> _Parser:
    """The parser, with only the subparser that argv names.

    Any other argv (none, --help, an unknown name) builds every subparser,
    which the top-level help and the invalid-choice error list.
    """
    # None under -OO, which strips docstrings
    help_text = __doc__ and "\n\n".join(__doc__.split("\n\n")[:2])
    parser = _Parser(prog="plumbhom", description=help_text)
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    named = [c for c in _COMMANDS if argv and c[0] == argv[0]] or _COMMANDS
    for name, summary, handler, options in named:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if "graph" in options:
            src = p.add_mutually_exclusive_group(required=True)
            src.add_argument("--graph", metavar="PATH", help="graph file (JSON)")
            src.add_argument("--preset", metavar="NAME", help="built-in graph preset")
        if "word" in options:
            p.add_argument("--word", required=True, help='twist word, e.g. "t1^3 t2^-1"')
        if "kmax" in options:
            p.add_argument("--kmax", required=True, type=int, help="largest k in the family")
        if "matrix" in options:
            p.add_argument("--matrix", required=True, metavar="LITERAL",
                           help='matrix literal, e.g. "[[7,3],[-3,-2]]"')
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
        if "emit" in options:
            p.add_argument("--emit", action="store_true", help="echo the canonical graph JSON")
    return parser


def _load_graph(args) -> PlumbingGraph:
    if args.preset is not None:
        return graph_preset(args.preset)
    try:
        with open(args.graph, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read graph file: {exc}") from None
    return parse_graph(text)


def _write(out_path: str | None, render, *args) -> None:
    """Write ``render(*args)``, its text or chunks, with Python's int-to-str digit limit lifted.

    Every command writes through here, from the values its handler returns.
    Outputs pass the 4,300-digit limit (3.10.7 on) as entries grow: torsion
    with k, twist and mapping-torus entries with exponents, Smith transforms
    with the input. The input was parsed under the limit, so it is lifted
    only while the output is made and written. No file is opened before the
    first batch is made.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = render(*args)
        batches = _batches((text,) if isinstance(text, str) else text)
        first = next(batches)
        try:
            with nullcontext(sys.stdout) if out_path is None else open(
                    out_path, "w", encoding="utf-8", newline="") as handle:
                for text in chain((first,), batches):
                    handle.write(text)
                    handle.flush()
        except OSError as exc:
            raise ValueError(f"cannot write output: {exc}") from None
    finally:
        sys.set_int_max_str_digits(limit)


_BATCH = 1 << 16


def _batches(chunks: Iterable[str]) -> Iterator[str]:
    batch, size = [], 0
    for chunk in chunks:
        batch.append(chunk)
        size += len(chunk)
        if size >= _BATCH:
            yield "".join(batch)
            batch, size = [], 0
    yield "".join(batch)


def _json_dumps(obj) -> str:
    import json  # only json output needs it, so csv and table runs never load it

    return json.dumps(obj, indent=2) + "\n"


def _json_cell(k: int, g: AbelianGroup) -> dict:
    """The json object of group g in degree k."""
    return {"degree": k, "free_rank": g.free_rank,
            "invariant_factors": list(g.invariant_factors), "group": str(g)}


def _csv_cell(k: int, g: AbelianGroup) -> str:
    """The ``degree,rank,invariant_factors`` cells of group g in degree k."""
    return f"{k},{g.free_rank},{'|'.join(map(str, g.invariant_factors))}"


def _graded_text(graded: GradedGroup, fmt: str) -> str:
    if fmt == "table":
        return "".join(f"H_{k} = {g}\n" for k, g in graded.items())
    if fmt == "csv":
        return "degree,rank,invariant_factors\n" + "".join(
            f"{_csv_cell(k, g)}\n" for k, g in graded.items())
    return _json_dumps({"homology": [_json_cell(k, g) for k, g in graded.items()]})


def _matrix_csv(m) -> str:
    return "".join(",".join(str(e) for e in m.row(i)) + "\n" for i in range(m.rows))


def _matrix_text(m, fmt: str, payload: dict) -> str:
    if fmt == "table":
        return format_matrix(m) + "\n"
    if fmt == "csv":
        return _matrix_csv(m)
    return _json_dumps(payload)


def _cmd_validate(args) -> tuple:
    try:
        graph = _load_graph(args)
    except ValueError as exc:
        if args.preset is not None:  # an unknown preset name goes to stderr
            raise
        if args.format == "json":
            # one entry per violation, each worded as if it were the only one
            errors = ([str(InvalidGraph([e])) for e in exc.errors]
                      if isinstance(exc, InvalidGraph) else [str(exc)])
            return 1, _json_dumps, {"ok": False, "errors": errors}
        return 1, str, f"error: {exc}\n"
    if args.emit:
        return 0, _json_dumps, graph_to_json(graph)
    if args.format == "json":
        return 0, _json_dumps, {"ok": True, "errors": []}
    return 0, str, "ok\n"


def _cmd_form(args) -> tuple:
    graph = _load_graph(args)
    form = intersection_form(graph)
    payload = {"dimension": graph.dimension, "vertices": list(graph.vertices),
               "matrix": form.to_rows()}
    return 0, _matrix_text, form, args.format, payload


def _cmd_homology(args) -> tuple:
    return 0, _graded_text, base_homology(_load_graph(args)), args.format


def _cmd_twist(args) -> tuple:
    from .twist_engine import parse_word, word_action

    graph = _load_graph(args)
    # a word acts in exactly one degree
    (degree, matrix), = word_action(graph, parse_word(args.word)).items()
    payload = {"word": args.word, "degrees": [{"degree": degree, "matrix": matrix.to_rows()}]}
    return 0, _matrix_text, matrix, args.format, payload


def _cmd_torus(args) -> tuple:
    from .bundle_homology import mapping_torus_homology
    from .twist_engine import parse_word, word_action

    graph = _load_graph(args)
    action = word_action(graph, parse_word(args.word))
    return 0, _graded_text, mapping_torus_homology(base_homology(graph), action), args.format


def _fillings_text(graph, word, k_max: int, family: tuple, fmt: str) -> Iterator[str]:
    """The fillings report in chunks, one per member (module docstring), then the summary."""
    from .distinguisher import INDEXING_NOTE

    lower, uppers, members = family
    d, cell = graph.dimension, _FILLINGS_CELL[fmt]
    fixed, upper_cells, classes, trivial = [cell(j, g) for j, g in lower.items()], {}, 0, []
    if fmt == "table":
        yield (f"graph: dimension={d} vertices={','.join(graph.vertices)} edges={graph.edge_count}"
               f"\nword: {word}\ntorsion degree: {d}\nnote: {INDEXING_NOTE}\n")
    elif fmt == "csv":
        yield "k,degree,rank,invariant_factors,class\n"
    else:  # the payload up to its entries: "entries": [] less "]\n}\n"
        yield _json_dumps({"graph": graph_to_json(graph), "word": str(word), "k_max": k_max,
                           "torsion_degree": d, "indexing_note": INDEXING_NOTE,
                           "entries": []})[:-4]
    for k, middle, f, class_id in members:
        if f not in upper_cells:
            upper_cells[f] = cell(d + 1, uppers[f])
        factors = middle.invariant_factors
        upper = upper_cells[f]
        cells = [*fixed, cell(d, middle), upper] if factors or middle.free_rank else [*fixed, upper]
        if class_id > classes:  # ids count up from 1 by first occurrence
            classes = class_id
        if not factors:
            trivial.append(k)
        if fmt == "csv":  # one line per degree
            head, tail = f"{k},", f",{class_id}\n"
            yield f"{head}{(tail + head).join(cells)}{tail}"
        elif fmt == "table":
            torsion = "+".join(f"Z/{t}" for t in factors) or "0"
            yield f"k={k} class={class_id} torsion={torsion} {' '.join(cells)}\n"
        else:  # the entry's dump, indented to its depth: JSON strings hold no raw newline
            entry = {"k": k, "class": class_id, "boundary_ok": True,  # [phi^k, Id] = Id
                     "torsion_factors": list(factors), "torsion_cardinality": prod(factors),
                     "homology": cells}
            yield ("," if k > 1 else "") + "\n    " + _json_dumps(entry)[:-1].replace(
                "\n", "\n    ")
    if fmt == "table":
        ks = f"trivial torsion at k: {','.join(map(str, trivial))}\n" if trivial else ""
        yield f"distinct homology types: {classes}\n{ks}"
    elif fmt == "json":
        yield "\n  ]," + _json_dumps({"distinct_classes": classes,
                                      "trivial_torsion_ks": trivial})[1:]


_FILLINGS_CELL = {"table": lambda k, g: f"H{k}={g}", "csv": _csv_cell, "json": _json_cell}


def _cmd_fillings(args) -> tuple:
    if args.kmax < 1:
        raise ValueError("--kmax must be at least 1")
    from .distinguisher import _family
    from .twist_engine import parse_word

    graph, word = _load_graph(args), parse_word(args.word)
    return 0, _fillings_text, graph, word, args.kmax, _family(graph, word, args.kmax), args.format


def _snf_text(m, fmt: str) -> str:
    if fmt == "csv":  # S alone, with no transforms built
        return _matrix_csv(smith_form(m))
    result = snf(m)
    parts = {"S": result.S, "U": result.U, "V": result.V}
    if fmt == "table":
        return "".join(f"{name} = {format_matrix(x)}\n" for name, x in parts.items())
    return _json_dumps({name: x.to_rows() for name, x in parts.items()})


def _cmd_snf(args) -> tuple:
    return 0, _snf_text, parse_matrix(args.matrix), args.format


# name, summary, handler, and the options beyond --format and --out
_COMMANDS = (
    ("validate", "check a graph and optionally echo it", _cmd_validate, ("graph", "emit")),
    ("form", "intersection form of the plumbing", _cmd_form, ("graph",)),
    ("homology", "graded homology of the plumbing", _cmd_homology, ("graph",)),
    ("twist", "homology action of a twist word", _cmd_twist, ("graph", "word")),
    ("torus", "homology of the mapping torus of a word", _cmd_torus, ("graph", "word")),
    ("fillings", "k-indexed filling family report", _cmd_fillings, ("graph", "word", "kmax")),
    ("snf", "Smith normal form of a matrix literal", _cmd_snf, ("matrix",)),
)


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        # each handler parses its input and returns (code, render, *values)
        code, render, *values = args.handler(args)
        _write(args.out, render, *values)  # the one place output leaves the program
        return code
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (RuntimeError, AssertionError) as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())
