"""The benchmark's tracer patches names that the package must still have,
and the benchmark's own scripts and the plain h3 run read names and pass
keywords that it must still accept."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"
PLAIN_RUN = BENCH.parent / "tools" / "h3_plain_run.py"
SCRIPTS = ("workloads.py", "micro.py", "setup_child.py", "run.py",
           "make_pins.py")


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


def _package_aliases(tree) -> dict:
    """Name -> module for every ``from fusioncat import X [as Y]``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fusioncat":
            for alias in node.names:
                mod = importlib.import_module("fusioncat." + alias.name)
                name = alias.asname or alias.name
                assert aliases.setdefault(name, mod) is mod, name
    return aliases


def _names_and_keywords(path: Path) -> tuple[set, set]:
    """Read with ``ast``, never run: every name a script imports from a
    package module and every attribute it reads on one exist, and every call
    of one binds its arguments to the callee's signature (all of them when
    no ``*``/``**`` is passed, else its keywords alone).  Returns the
    attributes read and the keywords passed."""
    read, passed = set(), set()
    tree = ast.parse(path.read_text("utf-8"), path.name)
    aliases = _package_aliases(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("fusioncat.")):
            mod = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(mod, alias.name), (path.name, node.lineno,
                                                  alias.name)
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            where = (path.name, node.lineno, node.value.id, node.attr)
            assert hasattr(aliases[node.value.id], node.attr), where
            read.add(node.attr)
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in aliases):
            continue
        func = getattr(aliases[node.func.value.id], node.func.attr)
        sig = inspect.signature(func)
        keywords = {kw.arg: None for kw in node.keywords if kw.arg}
        where = (path.name, node.lineno, node.func.attr, sorted(keywords))
        try:
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or len(keywords) < len(node.keywords)):
                sig.bind_partial(**keywords)
            else:
                sig.bind(*node.args, **keywords)
        except TypeError as exc:
            raise AssertionError(f"{where}: {exc}") from None
        passed.update(keywords)
    return read, passed


def test_benchmark_scripts_use_names_and_keywords_that_exist():
    read, passed = set(), set()
    for script in SCRIPTS:
        script_read, script_passed = _names_and_keywords(BENCH / script)
        read |= script_read
        passed |= script_passed
    assert read and {"with_report", "jobs", "rule"} <= passed


def test_plain_run_script_uses_names_that_exist():
    """The plain h3 run reads solver internals that a rename would break."""
    read, _ = _names_and_keywords(PLAIN_RUN)
    assert {"_is_one_dim", "_verified", "_MAX_BRANCH_NODES"} <= read
