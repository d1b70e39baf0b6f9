"""The README's examples run and print what the README shows.

The ``## Library`` block is executed as it stands; each ``# ...`` comment in
it is the line the ``print`` before it (or on its line) writes. Each
``$ plumbhom ...`` example under ``## Command line`` runs through
``plumbhom.cli.run``; its shown output is compared line for line, up to a
closing ``...`` where the README cuts it short.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
import tokenize
from pathlib import Path

from test_cli import invoke

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, fence: str) -> str:
    """The first fenced block of the given language after a heading."""
    section = README[README.index(heading):]
    return re.search(rf"```{fence}\n(.*?)```", section, re.S).group(1)


def test_library_block_prints_its_comments():
    source = _block("## Library", "python")
    comments = [tok.string[2:] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md", "exec"), {})
    assert len(comments) == 2
    assert out.getvalue().splitlines() == comments


def test_command_line_examples_print_the_shown_output(capsys):
    examples = _block("Examples:", "sh").strip().split("\n\n")
    assert len(examples) == 3
    for example in examples:
        command, *shown = example.splitlines()
        argv = shlex.split(command.removeprefix("$ "))
        assert argv[0] == "plumbhom"
        code, out, err = invoke(capsys, *argv[1:])
        assert (code, err) == (0, "")
        lines = out.splitlines()
        if shown[-1] == "...":
            shown = shown[:-1]
            assert len(lines) > len(shown)
            lines = lines[:len(shown)]
        assert lines == shown, command
