#!/usr/bin/env python3
"""Benchmark of the plumbhom command line, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fillings-hyperbolic --seed 1 --seconds 25 --trace 0

``--trace 0`` runs ``python -m plumbhom`` from ``./src`` as child processes,
one at a time (a closed loop with a single client), cycling through the
seed's inputs until the children have used ``--seconds`` of wall time, and
reports the end-to-end metrics. ``--trace 1`` runs the first few of the same
inputs in-process through ``plumbhom.cli.run``, alternating a pass with every
layer wrapped in spans and a pass without, and reports the per-layer metrics.
Every output is checked (see ``workloads.py``). The last line of stdout is the result object;
the line before it is metadata: sample counts, error rate, failure reasons
and the ``src/`` line count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import workloads
from tracer import Tracer

SETUP_REPEATS = 9
REFERENCE_NOMINAL_S = 0.025  # the reference routine's time at nominal host speed; sets the scale
CHILD_LIMIT_S = 100.0  # a child still running after this is killed and counted as failed
KNOWN_DEFECT = "Exceeds the limit (4300 digits) for integer string conversion"


def _bits(matrices) -> int:
    entries = (e for m in matrices for e in getattr(m, "entries", ()))
    return max((abs(e).bit_length() for e in entries), default=0)


def _measure_snf(tracer: Tracer, args, result) -> None:
    m = args[0]
    outputs = result if isinstance(result, tuple) else (result,)
    name = "exact_linalg.snf"
    tracer.maxima[f"{name}.in_bits_max"] = max(tracer.maxima[f"{name}.in_bits_max"], _bits([m]))
    tracer.maxima[f"{name}.out_bits_max"] = max(tracer.maxima[f"{name}.out_bits_max"],
                                                _bits(outputs))
    tracer.counts[f"{name}.cells"] += m.rows * m.cols


# (module, attribute, measure) for every span; the span is named module.attribute.
SPANS = (
    ("exact_linalg", "snf", _measure_snf),
    ("exact_linalg", "det", None),
    ("exact_linalg", "inverse_unimodular", None),
    ("exact_linalg", "mat_mul", None),
    ("exact_linalg", "mat_pow", None),
    ("exact_linalg", "cokernel_group", None),
    ("exact_linalg", "rank", None),
    ("exact_linalg", "parse_matrix", None),
    ("plumbing", "validate", None),
    ("plumbing", "parse_graph", None),
    ("twist_engine", "twist_matrix", None),
    ("twist_engine", "word_action", None),
    ("twist_engine", "GradedAction.power", None),
    ("bundle_homology", "wang_pieces", None),
    ("bundle_homology", "surface_bundle_homology", None),
    ("bundle_homology", "boundary_check", None),
    ("distinguisher", "filling_family", None),
    ("distinguisher", "classify_distinct", None),
    ("cli", "run", None),
)
COUNTERS = (("plumbing", "GradedGroup.__eq__", "distinguisher.classify_distinct.eq_calls"),)

END_TO_END = {"items_per_s": "1/s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{m}.{a}.{kind}": unit for m, a, _ in SPANS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "exact_linalg.snf.in_bits_max": "bits",
    "exact_linalg.snf.out_bits_max": "bits",
    "exact_linalg.snf.cells": "count",
    "exact_linalg.snf.calls_per_item": "1/item",
    "distinguisher.classify_distinct.eq_calls": "count",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class Tally:
    """Outcome of each distinct input of a run, and why inputs failed.

    Every input counts once in ``attempted`` and at most once in ``failed``,
    however often it runs, so both depend only on the seed. The first run of
    an input is checked; every later run must end with the same exit code and
    the same stdout.
    """

    def __init__(self):
        self.first: dict[int, tuple[int, bytes]] = {}  # input index -> (exit code, stdout digest)
        self.reasons: dict[int, str] = {}
        self.wrong: set[int] = set()  # inputs whose output failed a check

    def record(self, index: int, case: workloads.Case, code: int, out: str, err: str) -> bool:
        """Returns whether this run counts as a verified success."""
        outcome = (code, hashlib.sha256(out.encode("utf-8")).digest())
        if index in self.first:
            if outcome != self.first[index]:
                self._fail(index, "output differs from the first run of the same input", True)
            return index not in self.reasons
        self.first[index] = outcome
        if code != 0:
            self._fail(index, "int-str-digits-limit" if KNOWN_DEFECT in err else f"exit {code}")
            return False
        try:
            case.check(out)
        except (workloads.CheckFailed, ValueError, TypeError, KeyError, IndexError) as exc:
            self._fail(index, f"wrong output: {exc}"[:200], True)
            return False
        return True

    def _fail(self, index: int, reason: str, wrong: bool = False) -> None:
        self.reasons.setdefault(index, reason)
        if wrong:
            self.wrong.add(index)

    @property
    def attempted(self) -> int:
        return len(self.first)

    @property
    def failed(self) -> int:
        return len(self.reasons)

    def result(self, metrics: dict, units: dict) -> dict:
        return {
            "correct": not self.wrong,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }

    def info(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "error_rate": self.failed / max(self.attempted, 1),
                "failures": dict(Counter(self.reasons.values()))}


def reference_s() -> float:
    """Wall time of a fixed pure-Python routine that calls no program code.

    It does the kind of work the program does (a Bareiss determinant with
    growing integers, 2x2 integer matrix powers, dict updates on tuple keys),
    so it slows down with a shared host as the program does.
    """
    start = time.perf_counter()
    for _ in range(3):
        rng = random.Random(0)
        workloads.det([[rng.randint(-9, 9) for _ in range(18)] for _ in range(18)])
        power = step = [[8, 3], [-3, -1]]
        for _ in range(400):
            power = workloads.mat_mul(power, step)
        table: dict[tuple[int, int], int] = {}
        for i in range(20000):
            table[i % 97, i % 13] = table.get((i % 97, i % 13), 0) + i
    return time.perf_counter() - start


class Outcome(NamedTuple):
    number: int  # the child's place in the run, for Child.slowdown
    code: int
    out: str
    err: str
    wall: float
    cpu: float
    rss_mb: float


class Child:
    """Runs ``python -m plumbhom`` from the checkout and waits for it."""

    def __init__(self, root: Path, out, err):
        self.root, self.out, self.err = root, out, err
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.reference: list[float] = []  # reference_s() before each child, and after the last

    def slowdown(self, number: int) -> float:
        """How much slower than nominal the host ran around child ``number``."""
        return (self.reference[number] + self.reference[number + 1]) / (2 * REFERENCE_NOMINAL_S)

    def run(self, argv: list[str]) -> Outcome:
        """Times the reference routine, then runs the CLI on argv and waits for it."""
        for f in (self.out, self.err):
            f.seek(0)
            f.truncate()
        self.reference.append(reference_s())
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "plumbhom", *argv], cwd=self.root,
                                env=self.env, stdout=self.out, stderr=self.err)
        watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # wait4 gives this child's own usage
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        texts = []
        for f in (self.out, self.err):
            f.seek(0)
            texts.append(f.read().decode("utf-8", errors="replace"))
        return Outcome(len(self.reference) - 1, proc.returncode, texts[0], texts[1], wall,
                       usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def timed_run(workload: workloads.Workload, root: Path, seconds: float) -> tuple[dict, dict]:
    tally = Tally()
    # Samples are (child number, value), so each can be rescaled by the
    # host's slowdown around that child.
    setup, rates, cpus, rss = [], [], [], []
    with tempfile.TemporaryFile(dir=root) as out, tempfile.TemporaryFile(dir=root) as err:
        child = Child(root, out, err)

        def set_up() -> tuple[int, float]:
            outcome = child.run(workload.setup_argv)
            if outcome.code != 0:
                raise SystemExit(f"perfbench: set-up invocation failed ({outcome.code}): "
                                 f"{outcome.err.strip()}")
            return outcome.number, outcome.wall

        set_up()  # untimed: byte-compiles ./src on the first run in a checkout
        busy = 0.0
        cases = workload.cases
        # The seed's inputs run in turn, again and again, until the children
        # have used the run's seconds, and each at least once.
        for invocation in itertools.count():
            # Set-up samples are spread over the run so that they see the same
            # machine as the invocations they are compared with.
            if busy >= len(setup) * seconds / SETUP_REPEATS:
                setup.append(set_up())
            index = invocation % len(cases)
            outcome = child.run(cases[index].argv)
            busy += outcome.wall
            cpus.append((outcome.number, outcome.cpu))
            rss.append(outcome.rss_mb)
            if tally.record(index, cases[index], outcome.code, outcome.out, outcome.err):
                rates.append((outcome.number, cases[index].items / outcome.wall))
            if busy >= seconds and invocation + 1 >= len(cases):
                break
        while len(setup) < SETUP_REPEATS:
            setup.append(set_up())
        child.reference.append(reference_s())
    slowdown = child.slowdown
    metrics = {
        "items_per_s": statistics.median(v * slowdown(n) for n, v in rates) if rates else 0.0,
        "cpu_s": statistics.median(v / slowdown(n) for n, v in cpus),
        "setup_s": statistics.median(v / slowdown(n) for n, v in setup),
        "peak_rss_mb": statistics.median(rss),
    }
    raw = {name: statistics.median(v for _, v in samples) if samples else 0.0
           for name, samples in (("items_per_s", rates), ("cpu_s", cpus), ("setup_s", setup))}
    info = {**tally.info(), "invocations": len(cpus),
            "samples": {"items_per_s": len(rates), "cpu_s": len(cpus),
                        "setup_s": len(setup), "peak_rss_mb": len(rss)},
            "peak_rss_mb_max": max(rss), "reference_s": statistics.median(child.reference),
            "raw": raw}
    return tally.result(metrics, END_TO_END), info


def _import_program(root: Path):
    sys.path.insert(0, str(root / "src"))
    import plumbhom.cli

    if Path(plumbhom.__file__).resolve().parent != (root / "src" / "plumbhom").resolve():
        raise SystemExit(f"perfbench: imported plumbhom from {plumbhom.__file__}, not ./src")
    return {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
            if name == "plumbhom" or name.startswith("plumbhom.")}


def _in_process(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def traced_run(workload: workloads.Workload, root: Path, seconds: float) -> tuple[dict, dict]:
    """Alternate traced and untraced in-process passes over the same cases.

    Counts come from the first traced pass and must repeat exactly in every
    later one; times are medians over the passes.
    """
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    modules = _import_program(root)
    spans = [(modules[m], attr, f"{m}.{attr}", measure) for m, attr, measure in SPANS
             if m in modules]
    counters = [(modules[m], attr, name) for m, attr, name in COUNTERS if m in modules]
    cases = workload.cases[:workload.trace_cases]
    items = sum(case.items for case in cases)
    tracer, tally = Tracer(), Tally()
    passes, traced_walls, plain_walls = [], [], []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        tracer.reset()
        with tracer.installed(modules.values(), spans, counters):
            begin = time.perf_counter()
            outputs = [_in_process(modules["cli"], case.argv) for case in cases]
            traced_walls.append(time.perf_counter() - begin)
        for index, (case, (code, stdout, stderr)) in enumerate(zip(cases, outputs)):
            tally.record(index, case, code, stdout, stderr)
        counts = {f"{name}.calls": n for name, n in tracer.calls.items()}
        counts.update(tracer.counts)
        counts.update(tracer.maxima)
        counts["cli.output_bytes"] = sum(len(out.encode("utf-8")) for _, out, _ in outputs)
        passes.append((counts, dict(tracer.self_s)))
        begin = time.perf_counter()
        for case in cases:
            _in_process(modules["cli"], case.argv)
        plain_walls.append(time.perf_counter() - begin)

    counts = passes[0][0]
    repeat = all(later == counts for later, _ in passes[1:])
    metrics = {name: 0 for name in PER_LAYER}
    metrics.update(counts)
    for name in {n for _, selfs in passes for n in selfs}:
        metrics[f"{name}.self_s"] = statistics.median(selfs.get(name, 0.0) for _, selfs in passes)
    metrics["exact_linalg.snf.calls_per_item"] = metrics["exact_linalg.snf.calls"] / items
    metrics["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                       / statistics.median(plain_walls))
    result = tally.result(metrics, PER_LAYER)
    result["correct"] = result["correct"] and repeat
    info = {**tally.info(), "passes": len(passes), "counts_repeat": repeat,
            "cases_per_pass": len(cases), "items_per_pass": items}
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "plumbhom" / "__init__.py").is_file():
        print("perfbench: no ./src/plumbhom here; run from the root of a plumbhom checkout",
              file=sys.stderr)
        return 2
    src_lines = sum(len(p.read_bytes().splitlines()) for p in (root / "src").rglob("*.py"))
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as work:
        workload = workloads.make(args.workload, random.Random(args.seed), Path(work))
        run = traced_run if args.trace else timed_run
        result, info = run(workload, root, args.seconds)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "src_lines": src_lines,
            "python": sys.version.split()[0], **info}
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
