"""Spans around calls into fusioncat, recorded from the benchmark's side.

While a traced pass runs, the public functions listed in ``TARGETS`` are
rebound, in every ``fusioncat`` module that holds them, to wrappers that
record a span; ``uninstall`` puts the originals back.  The program itself is
not changed.  A span keeps its name, start, end, parent span and the id of
its operation: an operation is one call from the benchmark into the program,
and every span that call causes shares its id.  Spans stay in memory until
the run writes them out.

Span names are ``<module>.<function>``.  A call on a ring other than h3 gets
the ring as a suffix (``pentagon.verify_all[ising]``), so that per-layer
numbers for the H3 workloads are not mixed with the small oracle rings.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

SHORT_RING = {"h3": "h3", "z3_pointed": "z3", "fibonacci": "fib",
              "ising": "ising"}


class Span:
    __slots__ = ("op", "id", "parent", "name", "start", "end")

    def __init__(self, op, span_id, parent, name):
        self.op = op
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = self.end = 0

    def as_dict(self) -> dict:
        return {"op": self.op, "id": self.id, "parent": self.parent,
                "name": self.name, "start_ns": self.start, "end_ns": self.end}


def _ring_name(obj) -> str:
    from fusioncat import fusionring
    if isinstance(obj, str):
        return fusionring.builtin_ring(obj).name
    if isinstance(obj, fusionring.FusionRing):
        return obj.name
    return obj.ring.name      # FSymbolTable, PartialTable


def _on_ring(base: str):
    """Namer for functions whose first argument is a ring, table or state."""
    def namer(first, *args, **kwargs):
        ring = _ring_name(first)
        return base if ring == "h3" else f"{base}[{SHORT_RING[ring]}]"
    return namer


def _fixed(name: str):
    return lambda *args, **kwargs: name


def _verify_all_name(table, jobs=1, rule="unit"):
    return _on_ring("pentagon.verify_all_jobs" if jobs > 1
                    else "pentagon.verify_all")(table)


def _per_ring(base: str):
    def namer(first, *args, **kwargs):
        return f"{base}_{SHORT_RING[_ring_name(first)]}"
    return namer


def _cli_name(argv=None):
    return "cli." + (argv[0] if argv else "main")


def _materialized(fn):
    """The instance stream, enumerated in full inside the span."""
    @functools.wraps(fn)
    def run(ring):
        return iter(list(fn(ring)))
    return run


# (module, attribute, namer); "Class.method" attributes are patched on the
# class.  `_raw_instances` is the generator behind `enumerate_instances`; it
# is what `count_instances`, `key_instance_index` and the solver consume.
TARGETS = [
    ("fusionring", "enumerate_fkeys", _on_ring("fusionring.enumerate_fkeys")),
    ("fusionring", "f_blocks", _on_ring("fusionring.f_blocks")),
    ("fsymbols", "parse", _fixed("fsymbols.parse")),
    ("fsymbols", "build_h3_table", _fixed("fsymbols.build_h3_table")),
    ("fsymbols", "FSymbolTable.serialize", _on_ring("fsymbols.serialize")),
    ("fsymbols", "FSymbolTable.substitute_params",
     _on_ring("fsymbols.substitute_params")),
    ("fsymbols", "FSymbolTable.check_orthogonality",
     _on_ring("fsymbols.check_orthogonality")),
    ("fsymbols", "FSymbolTable.apply_gauge", _on_ring("fsymbols.apply_gauge")),
    ("pentagon", "_raw_instances", _on_ring("pentagon.enumerate_instances")),
    ("pentagon", "count_instances", _on_ring("pentagon.count_instances")),
    ("pentagon", "verify_all", _verify_all_name),
    ("pentagon", "starred_entries", _on_ring("pentagon.starred_entries")),
    ("pentagon", "check_additional", _on_ring("pentagon.check_additional")),
    ("pentagon", "check_addtriv", _on_ring("pentagon.check_addtriv")),
    ("pentagon", "check_triangle", _on_ring("pentagon.check_triangle")),
    ("pentagon", "check_seeds", _on_ring("pentagon.check_seeds")),
    ("pentagon", "key_instance_index", _on_ring("pentagon.key_instance_index")),
    ("pentagon", "find_failing_instance",
     _on_ring("pentagon.find_failing_instance")),
    ("pentagon", "negate_entry", _on_ring("pentagon.negate_entry")),
    ("skein", "derive_square_pop", _fixed("skein.derive_square_pop")),
    ("skein", "evaluate_closed", _fixed("skein.evaluate_closed")),
    ("solver", "solve", _per_ring("solver.solve")),
    ("solver", "propagate", _per_ring("solver.propagate")),
    ("solver", "compare_to_dataset", _fixed("solver.compare_to_dataset")),
    ("cli", "main", _cli_name),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ops = 0
        self._undo: list[tuple[object, str, object]] = []
        self.paused = False

    # -- recording -----------------------------------------------------------

    def _call(self, namer, fn, args, kwargs):
        if self.paused:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._ops += 1
        span = Span(parent.op if parent else self._ops, len(self.spans),
                    parent.id if parent else None, namer(*args, **kwargs))
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, namer, is_method):
        tracer = self

        if is_method:
            @functools.wraps(fn)
            def traced(this, *args, **kwargs):
                return tracer._call(lambda t, *a, **k: namer(t), fn,
                                    (this,) + args, kwargs)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer._call(namer, fn, args, kwargs)
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        import fusioncat  # noqa: F401  (loads every submodule)
        modules = [m for name, m in sys.modules.items()
                   if name == "fusioncat" or name.startswith("fusioncat.")]
        replace: dict[int, tuple[object, object]] = {}
        for mod_name, attr, namer in TARGETS:
            mod = sys.modules["fusioncat." + mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, namer, True))
                continue
            original = getattr(mod, attr)
            fn = _materialized(original) if attr == "_raw_instances" else original
            replace[id(original)] = (original, self._wrap(fn, namer, False))
        for mod in modules:
            for name, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, hit[1])

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- summaries -----------------------------------------------------------

    def summary(self, first_span: int = 0) -> dict:
        """Per span name: call count, each call's inclusive duration and the
        total self time, in ns, over the spans from ``first_span`` on."""
        spans = self.spans[first_span:]
        child_ns = defaultdict(int)
        for s in spans:
            if s.parent is not None:
                child_ns[s.parent] += s.end - s.start
        out: dict[str, dict] = {}
        for s in spans:
            dur = s.end - s.start
            row = out.setdefault(s.name, {"calls": 0, "incl_ns": [], "self_ns": 0})
            row["calls"] += 1
            row["incl_ns"].append(dur)
            row["self_ns"] += dur - child_ns[s.id]
        return out

    @staticmethod
    def layer_self(summary: dict) -> dict[str, float]:
        """Self time per layer (module) in seconds."""
        layers: dict[str, float] = defaultdict(float)
        for name, row in summary.items():
            layers[name.split(".", 1)[0]] += row["self_ns"] / 1e9
        return dict(layers)
