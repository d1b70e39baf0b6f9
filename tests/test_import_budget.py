"""What importing the package and running each command loads.

Every command pays for its imports at interpreter start, so the package keeps
to modules the interpreter and ``argparse`` load anyway, and each command
loads only the program modules it runs: ``import plumbhom`` resolves its
names on first use, ``import plumbhom.cli`` loads ``exact_linalg``,
``plumbing`` and ``presets``, and the handlers that need ``twist_engine``,
``bundle_homology`` or ``distinguisher`` import them. Each check runs in a
fresh ``python -S`` interpreter, since this one has loaded everything.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
SUBMODULES = ("exact_linalg", "plumbing", "presets", "twist_engine", "bundle_homology",
              "distinguisher", "cli")
CLI_MODULES = {"cli", "exact_linalg", "plumbing", "presets"}
# json loads only where json is read or written, so csv and table runs skip it
HEAVY_MODULES = ("dataclasses", "inspect", "json", "typing")
# the program modules each command loads beyond CLI_MODULES
COMMANDS = {
    "validate": (["validate", "--preset", "a2-3pt-n3"], set()),
    "form": (["form", "--preset", "a2-3pt-n3"], set()),
    "homology": (["homology", "--preset", "a2-3pt-n3"], set()),
    "twist": (["twist", "--preset", "a2-3pt-n3", "--word", "t1 t2"], {"twist_engine"}),
    "torus": (["torus", "--preset", "a2-3pt-n3", "--word", "t1 t2"],
              {"twist_engine", "bundle_homology"}),
    "fillings": (["fillings", "--preset", "a2-3pt-n3", "--word", "t1", "--kmax", "3"],
                 {"twist_engine", "bundle_homology", "distinguisher"}),
    "snf": (["snf", "--matrix", "[[7,3],[-3,-2]]"], set()),
}

# prints the plumbhom submodules and the other modules loaded, as a literal
_REPORT = (
    "import sys as _sys\n"
    "_names = sorted(_sys.modules)\n"
    "print(repr([[n[9:] for n in _names if n.startswith('plumbhom.')],\n"
    "            [n for n in _names if not n.startswith('plumbhom')]]))\n"
)


def _run(code: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-S", "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout


def _loaded(code: str) -> tuple[set[str], set[str]]:
    program, other = ast.literal_eval(_run(code + _REPORT).splitlines()[-1])
    return set(program), set(other)


def test_package_import_loads_no_submodule():
    program, _ = _loaded("import plumbhom\n")
    assert program == set()


def test_cli_import_loads_no_heavy_modules_and_only_the_eager_modules():
    program, other = _loaded("import plumbhom.cli\n")
    assert [name for name in HEAVY_MODULES if name in other] == []
    assert program == CLI_MODULES


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_what_it_runs(command):
    argv, extra = COMMANDS[command]
    program, _ = _loaded(
        "import io, sys\n"
        "import plumbhom.cli\n"
        "sys.stdout = io.StringIO()\n"
        f"code = plumbhom.cli.run({argv!r})\n"
        "sys.stdout = sys.__stdout__\n"
        "assert code == 0, code\n"
    )
    assert program == CLI_MODULES | extra


def test_every_name_resolves_after_a_bare_import():
    # plumbhom.exact_linalg worked when __init__ imported every submodule
    code = (
        "import sys\n"
        "import plumbhom\n"
        f"submodules = {SUBMODULES!r}\n"
        "missing = [n for n in (*plumbhom.__all__, *submodules) if not hasattr(plumbhom, n)]\n"
        "homes = {n: sys.modules[f'plumbhom.{plumbhom._HOME[n]}'] for n in plumbhom.__all__}\n"
        "wrong = [n for n, home in homes.items() if getattr(plumbhom, n) is not getattr(home, n)]\n"
        "unlisted = {*plumbhom.__all__, *submodules} - set(dir(plumbhom))\n"
        "print(missing, wrong, sorted(unlisted))\n"
    )
    assert _run(code) == "[] [] []\n"


# wraps every public module-level function of the loaded program modules in
# a call counter, replacing every binding of it in those modules as the
# benchmark's per-layer tracer does, then runs each argv twice and prints
# the counts of both runs
_COUNT_TWICE = """
import collections, io, json, sys, types
import plumbhom.cli

modules = [m for n, m in list(sys.modules.items()) if n.startswith("plumbhom")]
counts = collections.Counter()

def counting(name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper

for module in modules:
    for key, fn in list(vars(module).items()):
        if (isinstance(fn, types.FunctionType) and not key.startswith("_")
                and fn.__module__ == module.__name__):
            wrapper = counting(f"{module.__name__}.{key}", fn)
            for holder in modules:
                for bound, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, bound, wrapper)

runs = []
for argv in json.loads(sys.argv[1]):
    for _ in range(2):
        counts.clear()
        sys.stdout = io.StringIO()
        code = plumbhom.cli.run(argv)
        sys.stdout = sys.__stdout__
        runs.append([argv, code, dict(counts)])
print(json.dumps(runs))
"""


def test_a_commands_first_run_counts_the_same_work_as_its_second():
    # the benchmark's per-layer trace takes its counts from the first pass
    # and needs every later pass to repeat them: a module imported on first
    # use must call no public function of the modules loaded before it
    argvs = [
        ["fillings", "--preset", "a2-3pt-n3", "--word", "t1", "--kmax", "3"],
        ["fillings", "--graph", str(GOLDEN / "a8-chain-n3.graph.json"),
         "--word", "v0 v1 v2 v3 v4 v5 v6 v7", "--kmax", "3"],
        ["torus", "--preset", "a2-3pt-n2", "--word", "t1 t2"],
        ["twist", "--preset", "a2-3pt-n3", "--word", "t1 t2"],
    ]
    runs = json.loads(_run(_COUNT_TWICE, json.dumps(argvs)))
    assert [code for _, code, _ in runs] == [0] * 2 * len(argvs)
    for (argv, _, first), (_, _, second) in zip(runs[::2], runs[1::2]):
        assert first["plumbhom.cli.run"] == 1, argv  # the counters see the calls
        assert first == second, argv
