"""Command-line surface.

Subcommands: validate, form, homology, twist, torus, fillings, snf. Output is
byte-deterministic for a fixed invocation. Exit codes: 0 success, 1 input
error or a failed write (to stdout or --out), 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys

from .bundle_homology import mapping_torus_homology
from .distinguisher import FillingReport, filling_family
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
from .twist_engine import parse_word, word_action


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract reserves 2
    # for internal invariant violations.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="plumbhom", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def add_common(name, summary, handler, graph=True, word=False, kmax=False, matrix=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if graph:
            src = p.add_mutually_exclusive_group(required=True)
            src.add_argument("--graph", metavar="PATH", help="graph file (JSON)")
            src.add_argument("--preset", metavar="NAME", help="built-in graph preset")
        if word:
            p.add_argument("--word", required=True, help='twist word, e.g. "t1^3 t2^-1"')
        if kmax:
            p.add_argument("--kmax", required=True, type=int, help="largest k in the family")
        if matrix:
            p.add_argument("--matrix", required=True, metavar="LITERAL",
                           help='matrix literal, e.g. "[[7,3],[-3,-2]]"')
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
        return p

    p = add_common("validate", "check a graph and optionally echo it", _cmd_validate)
    p.add_argument("--emit", action="store_true", help="echo the canonical graph JSON")
    add_common("form", "intersection form of the plumbing", _cmd_form)
    add_common("homology", "graded homology of the plumbing", _cmd_homology)
    add_common("twist", "homology action of a twist word", _cmd_twist, word=True)
    add_common("torus", "homology of the mapping torus of a word", _cmd_torus, word=True)
    add_common("fillings", "k-indexed filling family report", _cmd_fillings, word=True, kmax=True)
    add_common("snf", "Smith normal form of a matrix literal", _cmd_snf, graph=False, matrix=True)
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


def _write(text: str, out_path: str | None) -> None:
    try:
        if out_path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(out_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write output: {exc}") from None


def _render(render, *args) -> str:
    """``render(*args)`` with Python's int-to-str digit limit lifted.

    Outputs pass the 4,300-digit limit (3.10.7 on) as entries grow: torsion
    with k, twist entries with exponents, Smith transforms with the input.
    The input was parsed under the limit, so it is lifted only to render.
    """
    if not hasattr(sys, "get_int_max_str_digits"):
        return render(*args)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return render(*args)
    finally:
        sys.set_int_max_str_digits(limit)


def _json_dumps(obj) -> str:
    import json  # only json output needs it, so csv and table runs never load it

    return json.dumps(obj, indent=2) + "\n"


def _group_json(group: AbelianGroup) -> dict:
    return {
        "free_rank": group.free_rank,
        "invariant_factors": list(group.invariant_factors),
        "group": str(group),
    }


def _graded_rows(graded: GradedGroup) -> list[dict]:
    return [{"degree": k, **_group_json(g)} for k, g in graded.items()]


def _graded_text(graded: GradedGroup, fmt: str) -> str:
    if fmt == "table":
        return "".join(f"H_{k} = {g}\n" for k, g in graded.items())
    if fmt == "csv":
        lines = ["degree,rank,invariant_factors"]
        for k, g in graded.items():
            lines.append(f"{k},{g.free_rank},{'|'.join(str(d) for d in g.invariant_factors)}")
        return "\n".join(lines) + "\n"
    return _json_dumps({"homology": _graded_rows(graded)})


def _matrix_csv(m) -> str:
    return "".join(",".join(str(e) for e in m.row(i)) + "\n" for i in range(m.rows))


def _matrix_text(m, fmt: str, payload: dict) -> str:
    if fmt == "table":
        return format_matrix(m) + "\n"
    if fmt == "csv":
        return _matrix_csv(m)
    return _json_dumps(payload)


def _cmd_validate(args) -> tuple[int, str]:
    try:
        graph = _load_graph(args)
    except ValueError as exc:
        if args.preset is not None:  # an unknown preset name goes to stderr
            raise
        if args.format == "json":
            # one entry per violation, each worded as if it were the only one
            errors = ([str(InvalidGraph([e])) for e in exc.errors]
                      if isinstance(exc, InvalidGraph) else [str(exc)])
            return 1, _json_dumps({"ok": False, "errors": errors})
        return 1, f"error: {exc}\n"
    if args.emit:
        return 0, _json_dumps(graph_to_json(graph))
    if args.format == "json":
        return 0, _json_dumps({"ok": True, "errors": []})
    return 0, "ok\n"


def _cmd_form(args) -> tuple[int, str]:
    graph = _load_graph(args)
    form = intersection_form(graph)
    payload = {"dimension": graph.dimension, "vertices": list(graph.vertices),
               "matrix": form.to_rows()}
    return 0, _matrix_text(form, args.format, payload)


def _cmd_homology(args) -> tuple[int, str]:
    return 0, _graded_text(base_homology(_load_graph(args)), args.format)


def _cmd_twist(args) -> tuple[int, str]:
    graph = _load_graph(args)
    # a word acts in exactly one degree
    (degree, matrix), = word_action(graph, parse_word(args.word)).items()
    payload = {"word": args.word, "degrees": [{"degree": degree, "matrix": matrix.to_rows()}]}
    return 0, _render(_matrix_text, matrix, args.format, payload)


def _cmd_torus(args) -> tuple[int, str]:
    graph = _load_graph(args)
    action = word_action(graph, parse_word(args.word))
    return 0, _graded_text(mapping_torus_homology(base_homology(graph), action), args.format)


def _fillings_table(report: FillingReport) -> str:
    lines = [
        f"graph: dimension={report.graph.dimension} "
        f"vertices={','.join(report.graph.vertices)} edges={report.graph.edge_count}",
        f"word: {report.word}",
        f"torsion degree: {report.torsion_degree}",
        f"note: {report.indexing_note}",
    ]
    for e, cells in _cells(report.entries, lambda k, g: f"H{k}={g}"):
        torsion = "+".join(f"Z/{d}" for d in e.torsion_factors) or "0"
        lines.append(f"k={e.k} class={e.class_id} torsion={torsion} {' '.join(cells)}")
    lines.append(f"distinct homology types: {report.distinct_classes}")
    if report.trivial_torsion_ks:
        ks = ",".join(str(k) for k in report.trivial_torsion_ks)
        lines.append(f"trivial torsion at k: {ks}")
    return "\n".join(lines) + "\n"


def _fillings_csv(report: FillingReport) -> str:
    lines = ["k,degree,rank,invariant_factors,class"]
    def cell(k: int, g: AbelianGroup) -> str:
        return f"{k},{g.free_rank},{'|'.join(map(str, g.invariant_factors))}"

    for e, cells in _cells(report.entries, cell):
        head, tail = f"{e.k},", f",{e.class_id}"
        lines.extend([head + c + tail for c in cells])
    return "\n".join(lines) + "\n"


def _cells(entries, fmt):
    """Yield each entry with ``fmt(k, g)`` for its degrees k and groups g, in order.

    A degree whose group is the object the entry before held keeps its text;
    the family keeps a degree's object while its value stays (identity, not
    equality: hashing a group costs more than formatting it).
    """
    held: dict[int, tuple[AbelianGroup, str]] = {}
    for e in entries:
        cells = []
        for k, g in e.homology._groups.items():
            last = held.get(k)
            if last is None or last[0] is not g:
                last = held[k] = g, fmt(k, g)
            cells.append(last[1])
        yield e, cells


def _fillings_json(report: FillingReport) -> str:
    payload = {
        "graph": graph_to_json(report.graph),
        "word": report.word,
        "k_max": report.k_max,
        "torsion_degree": report.torsion_degree,
        "indexing_note": report.indexing_note,
        "entries": [
            {
                "k": e.k,
                "class": e.class_id,
                "boundary_ok": e.boundary_ok,
                "torsion_factors": list(e.torsion_factors),
                "torsion_cardinality": e.torsion_cardinality,
                "homology": _graded_rows(e.homology),
            }
            for e in report.entries
        ],
        "distinct_classes": report.distinct_classes,
        "trivial_torsion_ks": list(report.trivial_torsion_ks),
    }
    return _json_dumps(payload)


_FILLINGS_TEXT = {"table": _fillings_table, "csv": _fillings_csv, "json": _fillings_json}


def _cmd_fillings(args) -> tuple[int, str]:
    if args.kmax < 1:
        raise ValueError("--kmax must be at least 1")
    report = filling_family(_load_graph(args), parse_word(args.word), args.kmax)
    return 0, _render(_FILLINGS_TEXT[args.format], report)


def _snf_text(m, fmt: str) -> str:
    if fmt == "csv":  # S alone, with no transforms built
        return _matrix_csv(smith_form(m))
    result = snf(m)
    parts = {"S": result.S, "U": result.U, "V": result.V}
    if fmt == "table":
        return "".join(f"{name} = {format_matrix(x)}\n" for name, x in parts.items())
    return _json_dumps({name: x.to_rows() for name, x in parts.items()})


def _cmd_snf(args) -> tuple[int, str]:
    return 0, _render(_snf_text, parse_matrix(args.matrix), args.format)


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code, text = args.handler(args)
        _write(text, args.out)  # the one place a command's output leaves the program
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
