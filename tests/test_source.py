"""Properties of the package source itself."""

from __future__ import annotations

import ast
import dataclasses
import doctest
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import p6fold
from p6fold import cli
from p6fold.invariants import InvariantTuple
from p6fold.scan import ScanBox

PACKAGE = Path(p6fold.__file__).resolve().parent


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"),
                              filename=str(path))


def test_every_docstring_example_runs():
    # Each module's examples print what they show, and doctest tries one
    # example per ">>>" line, so none is skipped unseen.
    tried, shown, failed = {}, {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "p6fold" if path.stem == "__init__" else f"p6fold.{path.stem}"
        result = doctest.testmod(importlib.import_module(name), report=False)
        tried[name] = result.attempted
        shown[name] = sum(line.lstrip().startswith(">>>") for line in
                          path.read_text(encoding="utf-8").splitlines())
        if result.failed:
            failed.append(name)
    assert failed == []
    assert tried == shown


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no runtime check may be one.
    found = [f"{path.name}:{node.lineno}" for path, tree in _trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_nothing_the_package_imports_or_defines_goes_unused():
    # A deletion that leaves an import or a private helper behind fails
    # here: each top-level import is read in its module (or named in its
    # __all__), and each top-level private name is read somewhere in the
    # package, as a name, an attribute or an import.
    trees = dict(_trees())
    read, anywhere = {}, set()
    for path, tree in trees.items():
        here = read[path.name] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                here.add(node.id)
            elif isinstance(node, ast.Attribute):
                anywhere.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                anywhere.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                here.update(e.value for e in node.value.elts)
        anywhere |= here
    found = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) != "__future__":
                    found += [f"{path.name}: import {name}" for name in (
                        (a.asname or a.name).partition(".")[0]
                        for a in node.names) if name not in read[path.name]]
                continue
            for target in getattr(node, "targets", [node]):
                name = getattr(target, "id", getattr(target, "name", ""))
                if (name.startswith("_") and not name.startswith("__")
                        and name not in anywhere):
                    found.append(f"{path.name}: {name}")
    assert found == []


# Integer in, integer out; math.ceil rounds the lifting threshold, a
# Fraction, once, in bounds.degree_bound.
MATH_NAMES = {"isqrt", "prod"}


def float_uses(tree):
    """Each node of ``tree`` that divides with /, spells a float or complex
    literal, calls float, complex or round, or names a math function
    outside MATH_NAMES, as ``(function, what)``, function being the name
    of the innermost def around it, or ''."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        what = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div):
            what = "/"
        elif isinstance(node, ast.Constant) and type(node.value) in (
                float, complex):
            what = repr(node.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex", "round")):
            what = f"{node.func.id}("
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in MATH_NAMES):
            what = f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            what = ", ".join(f"math.{alias.name}" for alias in node.names
                             if alias.name not in MATH_NAMES) or None
        if what:
            found.append((where, what))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


def test_no_float_enters_the_package():
    # Exact arithmetic: a rewrite that slips in ceil(x / y) or a float
    # literal fails here.
    found = {path.name: float_uses(tree) for path, tree in _trees()}
    assert {name: uses for name, uses in found.items() if uses} == {
        "bounds.py": [("degree_bound", "math.ceil")]}


@pytest.mark.parametrize("line, what", [
    ("x = a / b", "/"), ("x /= 2", "/"), ("x = 0.5", "0.5"), ("x = 2j", "2j"),
    ("x = float(a)", "float("), ("x = round(a)", "round("),
    ("x = math.sqrt(a)", "math.sqrt"), ("x = math.log(a)", "math.log"),
    ("from math import sqrt, isqrt", "math.sqrt"),
    ("x = math.ceil(a)", "math.ceil")])
def test_each_float_use_is_found(line, what):
    assert float_uses(ast.parse(f"def f():\n    {line}\n")) == [("f", what)]


def test_integer_checks_do_not_use_isinstance():
    # isinstance(x, int) admits True and False; the modules that decide
    # whether an argument is an integer test type(x) is int.
    gated = ("invariants.py", "constraints.py", "scan.py", "bounds.py",
             "ring.py")
    found = [
        f"{path.name}:{node.lineno}" for path, tree in _trees()
        if path.name in gated for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance" and len(node.args) == 2
        and any(isinstance(n, ast.Name) and n.id == "int"
                for n in ast.walk(node.args[1]))]
    assert found == []


def test_the_axis_names_are_spelled_once():
    # InvariantTuple's fields are the one list of the five axis names; a
    # tuple, list or text that spells them again would drift from it.
    axes = InvariantTuple._fields
    text = ",".join(axes)
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            spelled = (
                isinstance(node, (ast.Tuple, ast.List))
                and tuple(getattr(e, "value", None) for e in node.elts) == axes
                or isinstance(node, ast.Constant)
                and isinstance(node.value, str) and text in node.value)
            if spelled:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_scan_box_fields_are_the_invariant_axes():
    # ScanBox declares the axes as its own fields; they must stay
    # InvariantTuple's, in its order.
    fields = tuple(f.name for f in dataclasses.fields(ScanBox))
    assert fields == InvariantTuple._fields


# A record with no behaviour is a NamedTuple; a class that validates or
# caches is a dataclass.
RECORDS = ("constraints.ConstraintReport", "constraints.ConstraintValue",
           "bounds.BoundReport", "scan.ScanResult",
           "identities.IdentityResult", "identities.Comparison")


def test_plain_records_are_named_tuples_and_three_classes_dataclasses():
    modules = [importlib.import_module(
        "p6fold" if path.stem == "__init__" else f"p6fold.{path.stem}")
        for path in PACKAGE.glob("*.py")]
    classes = {f"{module.__name__.removeprefix('p6fold.')}.{name}": cls
               for module in modules for name, cls in vars(module).items()
               if isinstance(cls, type) and cls.__module__ == module.__name__}
    for name in RECORDS:
        cls = classes[name]
        assert issubclass(cls, tuple) and NamedTuple in cls.__orig_bases__, \
            name
    assert sorted(name for name, cls in classes.items()
                  if dataclasses.is_dataclass(cls)) == [
        "constraints.HypothesisConfig", "invariants.Profile", "scan.ScanBox"]


def test_import_leaves_out_concurrent_futures():
    # The scan runs in one process; importing the package must not pay for
    # the process-pool machinery.
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, p6fold; print('concurrent.futures' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_import_loads_the_modules_the_benchmark_times():
    # bench/worker.py's _parse_importtime reads the -X importtime line of
    # each of these modules and raises KeyError if one is missing, which
    # ends every --trace 1 run (the FOUND line on _parse_importtime in
    # CHANGES.md).  A lazy import of any of them (ROADMAP item 11) needs
    # that parser fixed first (ROADMAP item 1(a)).
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    names = ("p6fold.scan", "p6fold.identities", "p6fold.bounds")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, p6fold; print([n in sys.modules for n in {names}])"],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[True, True, True]\n"), (
        "import p6fold must import p6fold.scan, p6fold.identities and "
        "p6fold.bounds until bench/worker.py's _parse_importtime reports a "
        "missing module as absent (CHANGES.md FOUND line on "
        "_parse_importtime; ROADMAP item 1(a))", proc.stderr)


def test_every_exported_name_resolves():
    names = p6fold.__all__
    assert [n for n in names if not hasattr(p6fold, n)] == []
    assert len(set(names)) == len(names)


def test_readme_quick_start_runs_and_prints_its_comments():
    # The README's library block runs as written, and each print line's
    # trailing comment is what it prints.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```",
                      readme.read_text(encoding="utf-8"), re.S).group(1)
    shown = [line.partition("# ")[2] for line in block.splitlines()
             if line.startswith("print(")]
    assert shown == ["(8, 4, 12, 0, 8, 16)", "True", "39304"]
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", block], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout.splitlines()) == (0, shown), \
        proc.stderr


DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos")
               .glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0(demo):
    # Each demo runs under this interpreter's -O and -W options, so a demo
    # that an API change breaks fails here and not only in CI.
    flags = ["-O"] * sys.flags.optimize + [f"-W{w}" for w in sys.warnoptions]
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, *flags, str(demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _readme_cli_lines():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```",
                      readme.read_text(encoding="utf-8"), re.S).group(1)
    return block.splitlines()


README_CLI_LINES = _readme_cli_lines()


@pytest.mark.parametrize("line", README_CLI_LINES)
def test_readme_cli_line_exits_0_and_prints_its_comment(line, capsys):
    # Each line of the README's CLI block runs through cli.main as written;
    # a comment that names the final bound is what the line prints.
    command, _, comment = line.partition("#")
    program, *argv = shlex.split(command)
    assert program == "p6fold"
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    shown = re.search(r"final_bound (\d+)", comment)
    if shown:
        assert f'"final_bound": {shown.group(1)}' in out


def test_readme_cli_block_shows_the_paper_bound():
    shown = [line.partition("#") for line in README_CLI_LINES
             if "final_bound" in line]
    assert [(command.split(), comment.strip())
            for command, _, comment in shown] == [
        ("p6fold bound --s 34 --kappa 9".split(),
         "JSON report: final_bound 39304")]
