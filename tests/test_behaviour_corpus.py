"""Every invocation of the standing behaviour corpus gives the digested bytes.

The corpus and its regeneration step are described in ``behaviour_corpus.py``.
"""

from __future__ import annotations

import json

from behaviour_corpus import digest_line, load_argv, load_digest


def test_corpus_matches_digest():
    cases, digest = load_argv(), load_digest()
    assert len(cases) == len(digest)
    moved = [f"line {i + 1}: {json.dumps(argv)}\n  was {want}\n  now {got}"
             for i, (argv, want) in enumerate(zip(cases, digest))
             if (got := digest_line(argv)) != want]
    assert not moved, f"{len(moved)} of {len(cases)} invocations moved:\n" + "\n".join(moved[:10])


def test_corpus_covers_every_subcommand_and_format():
    cases = load_argv()
    subcommands = {"validate", "form", "homology", "twist", "torus", "fillings", "snf"}
    # the help and usage lines start with a flag, an unknown name or nothing
    commands = {argv[0] for argv in cases if argv and argv[0] in subcommands}
    assert commands == subcommands
    for command in commands:
        formats = {argv[argv.index("--format") + 1] for argv in cases
                   if argv[:1] == [command] and "--format" in argv}
        assert formats == {"table", "csv", "json"}, command
    assert len(set(map(tuple, cases))) == len(cases)


def test_out_files_hold_the_bytes_stdout_would():
    # each {tmp} line's fourth field against the stdout digest of its line without --out
    cases, digest = load_argv(), load_digest()
    stdout = {tuple(argv): line.split()[1] for argv, line in zip(cases, digest)}
    written = [(argv, line.split()) for argv, line in zip(cases, digest)
               if any("{tmp}" in arg for arg in argv)]
    assert written
    for argv, fields in written:
        i = argv.index("--out")
        assert fields[3] == stdout[tuple(argv[:i] + argv[i + 2:])]
