"""Properties of the package source itself."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import p6fold

PACKAGE = Path(p6fold.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no runtime check may be one.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_import_leaves_out_concurrent_futures():
    # The scan runs in one process; importing the package must not pay for
    # the process-pool machinery.
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, p6fold; print('concurrent.futures' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
