"""Standing behaviour corpus: every CLI invocation in ``corpus/argv.jsonl``
pinned by exit code and the SHA-256 of its stdout and stderr.

``corpus/argv.jsonl`` holds one invocation per line as a JSON array of
arguments; graph paths in it are relative to the repository root. Most lines
start with a subcommand; the last few pin help and usage text (``--help``
for the program and each subcommand, no subcommand, an unknown one, and a
missing required flag).
``corpus/digest.txt`` holds, line for line, ``<exit code> <sha256 of stdout>
<sha256 of stderr>``. ``test_behaviour_corpus.py`` runs every line in-process
through ``plumbhom.cli.run`` and compares. A deliberate output change is made
by regenerating the digest, which prints each line that moved, and listing
those lines with the change:

    PYTHONPATH=src python tests/behaviour_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "corpus"
ARGV = CORPUS / "argv.jsonl"
DIGEST = CORPUS / "digest.txt"


def load_argv() -> list[list[str]]:
    return [json.loads(line) for line in ARGV.read_text(encoding="utf-8").splitlines()]


def load_digest() -> list[str]:
    return DIGEST.read_text(encoding="ascii").splitlines()


def digest_line(argv: list[str]) -> str:
    """Run one invocation in-process from the repository root and digest it.

    ``COLUMNS`` is pinned to 80, since argparse wraps help and usage text to
    the terminal width.
    """
    from plumbhom.cli import run

    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return " ".join([str(code), *(
        hashlib.sha256(s.getvalue().encode("utf-8")).hexdigest() for s in (out, err)
    )])


def main() -> None:
    """Rewrite the digest from the argv list, printing each line that moved."""
    cases = load_argv()
    old = load_digest()
    new = [digest_line(case) for case in cases]
    for i, line in enumerate(new):
        was = old[i] if i < len(old) else "(none)"
        if line != was:
            print(f"line {i + 1}: {json.dumps(cases[i])}\n  was {was}\n  now {line}")
    DIGEST.write_text("".join(f"{line}\n" for line in new), encoding="ascii")
    print(f"wrote {len(new)} lines to {DIGEST.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
