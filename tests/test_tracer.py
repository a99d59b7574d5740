"""The benchmark's tracer (perfbench/tracer.py) wraps public names of the
package by module and attribute; a renamed or deleted name would break
`perfbench/run.py --trace 1`.  This keeps the two in step."""

import importlib
import importlib.util
from pathlib import Path

import coverramsey.cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    tracer = load_tracer()
    for mod, attr, _ in tracer.WRAPPED:
        owner = importlib.import_module("coverramsey." + mod)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{mod}.{attr}"
    for sub in tracer.SUBCOMMANDS:
        assert callable(getattr(coverramsey.cli,
                                "cmd_" + sub.replace("-", "_")))


def test_install_and_uninstall_restore_the_package():
    main = coverramsey.cli.main
    tr = load_tracer().Tracer()
    tr.install()
    try:
        assert coverramsey.cli.main is not main
    finally:
        tr.uninstall()
    assert coverramsey.cli.main is main
