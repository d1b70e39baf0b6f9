"""Command-line surface.

Subcommands: validate, form, homology, twist, torus, fillings, snf. Output is
byte-deterministic for a fixed invocation. Exit codes: 0 success, 1 input
error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bundle_homology import mapping_torus_homology
from .distinguisher import FillingReport, filling_family
from .exact_linalg import AbelianGroup, format_matrix, parse_matrix, snf
from .plumbing import (
    GradedGroup,
    PlumbingGraph,
    base_homology,
    graph_to_json,
    intersection_form,
    parse_graph,
    validate,
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

    def add_common(p, graph=True, word=False, kmax=False, matrix=False):
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

    p = sub.add_parser("validate", help="check a graph and optionally echo it")
    add_common(p)
    p.add_argument("--emit", action="store_true", help="echo the canonical graph JSON")

    add_common(sub.add_parser("form", help="intersection form of the plumbing"))
    add_common(sub.add_parser("homology", help="graded homology of the plumbing"))
    add_common(sub.add_parser("twist", help="homology action of a twist word"), word=True)
    add_common(sub.add_parser("torus", help="homology of the mapping torus of a word"), word=True)
    add_common(sub.add_parser("fillings", help="k-indexed filling family report"),
               word=True, kmax=True)
    add_common(sub.add_parser("snf", help="Smith normal form of a matrix literal"),
               graph=False, matrix=True)
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
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write output: {exc}") from None


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _group_json(group: AbelianGroup) -> dict:
    return {
        "free_rank": group.free_rank,
        "invariant_factors": list(group.invariant_factors),
        "group": str(group),
    }


def _graded_rows(graded: GradedGroup) -> list[dict]:
    return [{"degree": k, **_group_json(g)} for k, g in graded.items()]


def _graded_table(graded: GradedGroup) -> str:
    return "".join(f"H_{k} = {g}\n" for k, g in graded.items())


def _graded_csv(graded: GradedGroup) -> str:
    lines = ["degree,rank,invariant_factors"]
    for k, g in graded.items():
        lines.append(f"{k},{g.free_rank},{'|'.join(str(d) for d in g.invariant_factors)}")
    return "\n".join(lines) + "\n"


def _matrix_csv(m) -> str:
    return "".join(",".join(str(e) for e in m.row(i)) + "\n" for i in range(m.rows))


def _emit_graded(graded: GradedGroup, fmt: str, out, json_key: str) -> None:
    if fmt == "table":
        _write(_graded_table(graded), out)
    elif fmt == "csv":
        _write(_graded_csv(graded), out)
    else:
        _write(_json_dumps({json_key: _graded_rows(graded)}), out)


def _cmd_validate(args) -> int:
    if args.preset is not None:
        graph = graph_preset(args.preset)
        errors = validate(graph)
    else:
        try:
            graph = _load_graph(args)
            errors = []
        except ValueError as exc:
            graph = None
            errors = [str(exc)]
    if errors:
        if args.format == "json":
            _write(_json_dumps({"ok": False, "errors": errors}), args.out)
        else:
            _write("".join(f"error: {e}\n" for e in errors), args.out)
        return 1
    if args.emit:
        _write(_json_dumps(graph_to_json(graph)), args.out)
    elif args.format == "json":
        _write(_json_dumps({"ok": True, "errors": []}), args.out)
    else:
        _write("ok\n", args.out)
    return 0


def _cmd_form(args) -> int:
    graph = _load_graph(args)
    form = intersection_form(graph)
    if args.format == "table":
        _write(format_matrix(form) + "\n", args.out)
    elif args.format == "csv":
        _write(_matrix_csv(form), args.out)
    else:
        payload = {
            "dimension": graph.dimension,
            "vertices": list(graph.vertices),
            "matrix": form.to_rows(),
        }
        _write(_json_dumps(payload), args.out)
    return 0


def _cmd_homology(args) -> int:
    graph = _load_graph(args)
    _emit_graded(base_homology(graph), args.format, args.out, "homology")
    return 0


def _cmd_twist(args) -> int:
    graph = _load_graph(args)
    # a word acts in exactly one degree
    (degree, matrix), = word_action(graph, parse_word(args.word)).items()
    if args.format == "table":
        _write(format_matrix(matrix) + "\n", args.out)
    elif args.format == "csv":
        _write(_matrix_csv(matrix), args.out)
    else:
        payload = {"word": args.word, "degrees": [{"degree": degree, "matrix": matrix.to_rows()}]}
        _write(_json_dumps(payload), args.out)
    return 0


def _cmd_torus(args) -> int:
    graph = _load_graph(args)
    action = word_action(graph, parse_word(args.word))
    homology = mapping_torus_homology(base_homology(graph), action)
    _emit_graded(homology, args.format, args.out, "homology")
    return 0


def _fillings_table(report: FillingReport) -> str:
    lines = [
        f"graph: dimension={report.graph.dimension} "
        f"vertices={','.join(report.graph.vertices)} edges={report.graph.edge_count}",
        f"word: {report.word}",
        f"torsion degree: {report.torsion_degree}",
        f"note: {report.indexing_note}",
    ]
    for e in report.entries:
        torsion = "+".join(f"Z/{d}" for d in e.torsion_factors) or "0"
        homology = " ".join(f"H{k}={g}" for k, g in e.homology.items())
        lines.append(f"k={e.k} class={e.class_id} torsion={torsion} {homology}")
    lines.append(f"distinct homology types: {report.distinct_classes}")
    if report.trivial_torsion_ks:
        ks = ",".join(str(k) for k in report.trivial_torsion_ks)
        lines.append(f"trivial torsion at k: {ks}")
    return "\n".join(lines) + "\n"


def _fillings_csv(report: FillingReport) -> str:
    lines = ["k,degree,rank,invariant_factors,class"]
    for e in report.entries:
        for k, g in e.homology.items():
            factors = "|".join(str(d) for d in g.invariant_factors)
            lines.append(f"{e.k},{k},{g.free_rank},{factors},{e.class_id}")
    return "\n".join(lines) + "\n"


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


def _cmd_fillings(args) -> int:
    if args.kmax < 1:
        raise ValueError("--kmax must be at least 1")
    graph = _load_graph(args)
    report = filling_family(graph, parse_word(args.word), args.kmax)
    if args.format == "table":
        _write(_fillings_table(report), args.out)
    elif args.format == "csv":
        _write(_fillings_csv(report), args.out)
    else:
        _write(_fillings_json(report), args.out)
    return 0


def _cmd_snf(args) -> int:
    matrix = parse_matrix(args.matrix)
    result = snf(matrix)
    if args.format == "table":
        text = (
            f"S = {format_matrix(result.S)}\n"
            f"U = {format_matrix(result.U)}\n"
            f"V = {format_matrix(result.V)}\n"
        )
        _write(text, args.out)
    elif args.format == "csv":
        _write(_matrix_csv(result.S), args.out)
    else:
        payload = {
            "S": result.S.to_rows(),
            "U": result.U.to_rows(),
            "V": result.V.to_rows(),
        }
        _write(_json_dumps(payload), args.out)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "form": _cmd_form,
    "homology": _cmd_homology,
    "twist": _cmd_twist,
    "torus": _cmd_torus,
    "fillings": _cmd_fillings,
    "snf": _cmd_snf,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
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
