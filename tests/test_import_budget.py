"""What importing the command line loads.

Every command pays for its imports at interpreter start, so the package keeps
to modules the interpreter and ``argparse`` load anyway. The per-layer trace
of the benchmark patches the program modules already in ``sys.modules`` after
``import plumbhom.cli``, so the CLI must import all of them eagerly.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PROGRAM_MODULES = ("exact_linalg", "plumbing", "twist_engine", "bundle_homology",
                   "distinguisher", "cli")
# json loads only where json is read or written, so csv and table runs skip it
HEAVY_MODULES = ("dataclasses", "inspect", "json", "typing")


def test_cli_import_loads_no_heavy_modules_and_every_program_module():
    code = (
        "import sys\n"
        "import plumbhom.cli\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(done.stdout.split())
    assert [name for name in HEAVY_MODULES if name in loaded] == []
    assert [name for name in PROGRAM_MODULES if f"plumbhom.{name}" not in loaded] == []
