"""Packaging guards: the sources parse as the oldest supported Python,
import nothing outside the standard library, and `pyproject.toml` keeps
zero runtime dependencies and takes its version from the package.  The
start-up guards check, in fresh interpreters, which modules importing
the CLI and running a subcommand load."""

import ast
import importlib
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


def test_version_is_a_literal_assignment():
    # setuptools reads `attr: coverramsey.__version__` from the source when
    # it is a literal, without importing the package or its `__getattr__`
    init = ROOT / "src" / "coverramsey" / "__init__.py"
    tree = ast.parse(init.read_text())
    values = [node.value for node in tree.body if isinstance(node, ast.Assign)
              and [ast.unparse(t) for t in node.targets] == ["__version__"]]
    assert len(values) == 1 and isinstance(values[0], ast.Constant)
    assert values[0].value == coverramsey.__version__


# The names `coverramsey` exported before its submodules were loaded
# lazily, by defining module.
EXPORTED = {
    "berge": ("BergeCertificate", "complete_graph", "contains_mono_berge",
              "cycle_graph", "find_berge", "matching_for_assignment",
              "parse_target", "path_graph", "verify_certificate"),
    "bounds": ("BoundReport", "NoValidNError", "asymptotic_lower",
               "lll_inequality_holds", "lll_threshold_n",
               "sufficiency_inequality_holds", "thm1_upper_bound"),
    "designs": ("ResolvableDesign", "UnsupportedParametersError",
                "construct_resolvable_bibd", "design_to_hypergraph",
                "format_design", "parse_design", "verify_resolvable_bibd"),
    "hypergraph": ("EdgeColoring", "Hypergraph", "complete_host",
                   "format_coloring", "format_hypergraph",
                   "minimal_covering_subhypergraph", "parse_coloring",
                   "parse_hypergraph"),
    "reductions": ("ProductReduction", "ScatterSample", "TraceColoring",
                   "find_mono_subgraph", "lift_mono_subgraph",
                   "lift_trace_subgraph", "multicolor_product_reduction",
                   "sample_scattered_subset", "scatter_failure_bound",
                   "scatter_rejection_trials", "trace_coloring"),
    "search": ("AVOIDABLE", "BadEvent", "LimitExceededError",
               "LowerBoundCertificate", "MTRun", "UNAVOIDABLE",
               "UnavoidabilityResult", "VerificationFailure",
               "classical_ramsey_small", "lower_bound_certificate",
               "moser_tardos_coloring", "scan_bad_events", "unavoidable",
               "unavoidable_sharded"),
}


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_exported_names_resolve_to_their_submodule(module):
    owner = importlib.import_module("coverramsey." + module)
    for name in EXPORTED[module]:
        namespace = {}
        exec(f"from coverramsey import {name}", namespace)
        assert namespace[name] is getattr(owner, name), name
        assert name in dir(coverramsey), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError,
                       match="module 'coverramsey' has no attribute 'nope'"):
        coverramsey.nope


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


LIBRARY = {"berge", "bounds", "designs", "hypergraph", "reductions", "search"}


def loaded_by(code):
    """The library modules that `code` loads in a fresh interpreter that
    has already imported the CLI and built its parser."""
    code = ("import contextlib, io, sys\n"
            "import coverramsey.cli as cli\n"
            "cli.build_parser()\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    {code}\n"
            "print(' '.join(sorted(m.split('.')[1] for m in set(sys.modules)"
            " - before if m.startswith('coverramsey.'))))")
    return set(fresh_interpreter(code).split())


def test_cli_import_and_parser_load_no_library_module():
    code = ("import sys; before = set(sys.modules); import coverramsey.cli; "
            "coverramsey.cli.build_parser(); print(' '.join(sorted("
            "set(sys.modules) - before)))")
    added = set(fresh_interpreter(code).split())
    assert "coverramsey.cli" in added
    assert added & {"coverramsey." + m for m in LIBRARY} == set()


@pytest.mark.parametrize("argv,modules", [
    (["bound", "thm1", "3", "6"], {"bounds"}),
    (["gen-design", "9", "3"], {"designs", "hypergraph"}),
    (["find-berge", "HOST", "TARGET"], {"berge", "hypergraph"})],
    ids=["bound", "gen-design", "find-berge"])
def test_subcommand_loads_only_what_it_calls(tmp_path, argv, modules):
    host, target = tmp_path / "k4.hg", tmp_path / "k3.g"
    host.write_text("4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    target.write_text("3 3\n1 2\n1 3\n2 3\n")
    argv = [{"HOST": str(host), "TARGET": str(target)}.get(a, a)
            for a in argv]
    assert loaded_by(f"assert cli.main({argv!r}) == 0") == modules
