"""The benchmark's tracer (perfbench/tracer.py) wraps public names of the
package by module and attribute; a renamed or deleted name would break
`perfbench/run.py --trace 1`.  This keeps the two in step.  The tracer
finds each module it wraps in `sys.modules`, so the modules must be
loaded before it installs; a workload pass loads them by running
`verify`."""

import importlib
import importlib.util
from pathlib import Path

import coverramsey.cli

from test_packaging import fresh_interpreter

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    # looked up as `Tracer.install` does, in the module's own dict, and for
    # a method in its class's own dict, so an inherited method fails here
    tracer = load_tracer()
    for mod, attr, _ in tracer.WRAPPED:
        owner = vars(importlib.import_module("coverramsey." + mod))
        name = attr
        if "." in attr:
            cls_name, name = attr.split(".")
            owner = vars(owner[cls_name])
        assert callable(owner.get(name)), f"{mod}.{attr}"
    for sub in tracer.SUBCOMMANDS:
        assert callable(vars(coverramsey.cli).get(
            "cmd_" + sub.replace("-", "_"))), sub


def test_install_and_uninstall_restore_the_package():
    tracer = load_tracer()
    for mod, _, _ in tracer.WRAPPED:
        importlib.import_module("coverramsey." + mod)
    main = coverramsey.cli.main
    tr = tracer.Tracer()
    tr.install()
    try:
        assert coverramsey.cli.main is not main
    finally:
        tr.uninstall()
    assert coverramsey.cli.main is main


def test_one_verify_loads_every_wrapped_module(tmp_path):
    # a bound-report record needs only `bounds` to check, so the other
    # modules are loaded by `verify` itself
    record = tmp_path / "bound.json"
    assert coverramsey.cli.main(["bound", "thm1", "3", "6", "--format",
                                 "structured", "-o", str(record)]) == 0
    code = (
        "import contextlib, importlib.util, io, sys\n"
        f"spec = importlib.util.spec_from_file_location('t', '{TRACER}')\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "import coverramsey.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert cli.main(['verify', {str(record)!r}]) == 0\n"
        "missing = sorted({m for m, _, _ in tracer.WRAPPED\n"
        "                  if 'coverramsey.' + m not in sys.modules})\n"
        "tr = tracer.Tracer()\n"
        "tr.install()\n"
        "tr.uninstall()\n"
        "print(missing)")
    assert fresh_interpreter(code) == "[]"
