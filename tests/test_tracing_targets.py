"""The benchmark's tracer patches names that the package must still have."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_target_resolves():
    """Each (module, attribute) that ``Tracer.install`` rebinds exists: a
    function on its module, a ``Class.method`` in the class's own dict."""
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for mod_name, attr, _ in tracing.TARGETS:
        mod = importlib.import_module("fusioncat." + mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), (mod_name, attr)
        else:
            assert callable(getattr(mod, attr, None)), (mod_name, attr)
