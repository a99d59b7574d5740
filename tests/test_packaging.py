"""Packaging guards: the sources parse as the oldest supported Python,
import nothing outside the standard library, and `pyproject.toml` keeps
zero runtime dependencies and takes its version from the package."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import coverramsey

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "coverramsey").glob("*.py"))
OLDEST = (3, 10)


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_as_oldest_supported_python(path):
    # best effort: ast.parse rejects newer syntax such as `except*`, but
    # not every newer construct (nor any newer library call)
    ast.parse(path.read_text(), str(path), feature_version=OLDEST)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_the_package(path):
    outside = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [name for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names
                    and name.split(".")[0] != "coverramsey"]
    assert outside == []


def test_pyproject_has_no_dependencies_and_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        meta = tomllib.load(fh)
    assert meta["project"]["dependencies"] == []
    assert meta["project"]["requires-python"] == ">={}.{}".format(*OLDEST)
    assert meta["project"]["dynamic"] == ["version"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "coverramsey.__version__"}
    assert re.fullmatch(r"\d+\.\d+\.\d+", coverramsey.__version__)


def fresh_interpreter(code):
    """The stripped stdout of `code` run by a fresh interpreter that
    imports the package from this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=60, check=True)
    return done.stdout.strip()


def test_cli_import_loads_no_process_pool():
    # a fresh interpreter's `import coverramsey.cli` (the start-up cost of
    # every run) leaves the pool modules to the sharded runs that use them
    code = ("import sys, coverramsey.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    assert fresh_interpreter(code) == "[]"


def test_cli_import_loads_no_hashlib():
    # `hashlib` (and OpenSSL's `_hashlib`) is imported when an input file
    # is read for its manifest digest, not when the CLI starts
    code = ("import sys; before = set(sys.modules); import coverramsey.cli; "
            "print(sorted({'hashlib', '_hashlib'} - before "
            "& set(sys.modules)))")
    assert fresh_interpreter(code) == "[]"


def test_cli_import_generates_no_code():
    # the record types are named tuples: importing the CLI loads neither
    # `dataclasses` nor the `inspect` it pulls in.  Only modules the import
    # adds count, so a start-up hook that loads them cannot fail this.
    code = ("import sys; before = set(sys.modules); import coverramsey.cli; "
            "print(sorted({'dataclasses', 'inspect'} - before "
            "& set(sys.modules)))")
    assert fresh_interpreter(code) == "[]"
