"""The three benchmark workloads: inputs, one timed pass each, output checks.

Each workload has a ``prepare`` step (untimed: it builds what every pass
reads) and a pass function.  A pass draws its inputs from its own
``random.Random``, so pass *i* of seed *s* always sees the same inputs, and
checks every output against the values pinned in ``pins.json`` when the
benchmark was added.  A wrong verdict, a wrong output or an exception is a
failed operation.

The program is always called through its module attributes
(``P.verify_all``), never through names bound at import time, so that the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import re
import time
from collections import defaultdict
from fractions import Fraction

from fusioncat import cli
from fusioncat import fsymbols as F
from fusioncat import fusionring as R
from fusioncat import pentagon as P
from fusioncat import skein as K
from fusioncat import solver as S

POINTS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
PROBES_PER_PASS = 32


class Recorder:
    """Samples, exact work counts and the pass/fail tally of one run."""

    def __init__(self, probe):
        self.probe = probe    # speed.SpeedProbe: clocks and speed scaling
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, list] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.excluded = 0.0   # seconds of a pass spent on trace-only extras

    def wall(self) -> float:
        """perf_counter without the speed probe's own time."""
        return self.probe.wall()

    def mark(self) -> tuple[float, float, float]:
        """A starting point for `since`."""
        return time.perf_counter(), self.probe.wall(), self.probe.cpu()

    def since(self, mark, excluded: float = 0.0):
        """Wall seconds, CPU seconds, and CPU seconds at the reference speed
        (see speed.py) since mark, less `excluded` seconds of each."""
        t0, wall0, cpu0 = mark
        cpu = self.probe.cpu() - cpu0 - excluded
        return (self.probe.wall() - wall0 - excluded, cpu,
                self.probe.scaled(cpu, t0, time.perf_counter()))

    def check_set_time(self, mark, jobs: int) -> None:
        """Record a check set started at mark: serial sets give `verify_s`
        in CPU seconds at the reference speed, `--jobs` sets
        `verify_jobs_s` in wall seconds."""
        wall, _, cpu = self.since(mark)
        if jobs == 1:
            self.samples["verify_s"].append(cpu)
            self.samples["verify_wall_s"].append(wall)
        else:
            self.samples["verify_jobs_s"].append(wall)
            self.samples["verify_jobs_cpu_s"].append(cpu)

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def timed(self, name: str, fn, *args, **kwargs):
        t0 = self.wall()
        out = fn(*args, **kwargs)
        self.samples[name].append(self.wall() - t0)
        return out


class Context:
    """What a workload's passes share: the checkout, pins and inputs."""

    def __init__(self, root: str, pins: dict, jobs: int):
        self.pins = pins
        self.jobs = jobs
        self.workdir = os.path.join(root, "bench", "out")
        self.tracer = None      # set while a traced pass runs
        self.table = None
        self.text = None
        self.dataset_path = None
        self.four_dim_keys = None


def cli_call(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def point_text(p) -> str:
    return ",".join("+1" if v > 0 else "-1" for v in p)


# ---------------------------------------------------------------------------
# shared checks

def _report(rec, ring, label, report, want_checked):
    rec.check(f"{label}: passed", report.passed)
    rec.check(f"{label}: checked {report.checked} != {want_checked}",
              report.checked == want_checked)
    rec.counts[f"{ring.name} {report.name.split()[0]} checked"].append(
        report.checked)


def _verify_all(rec, table, **kwargs):
    """`verify_all`, recording the instances a serial call evaluated and the
    CPU seconds at the reference speed it took."""
    mark = rec.mark()
    report = P.verify_all(table, **kwargs)
    if kwargs.get("jobs", 1) == 1:
        rec.counts["verify_all_instances"].append(report.nontrivial)
        rec.counts["verify_all_cpu_s"].append(rec.since(mark)[2])
        rec.counts["verify_all_wall_s"].append(report.duration)
    else:
        rec.counts["verify_all_jobs_s"].append(report.duration)
    return report


def _pentagon(rec, label, report, want_total, want_nontrivial):
    rec.check(f"{label}: pentagon passed", report.passed)
    rec.check(f"{label}: {report.summary()}",
              report.total == want_total and report.nontrivial == want_nontrivial)
    rec.counts["pentagon instances"].append(report.total)


def h3_check_set(rec, table, jobs, pin, label) -> None:
    """The full `verify` check set on one H3 table."""
    mark = rec.mark()
    orth = table.check_orthogonality()
    tri = P.check_triangle(table)
    seeds = P.check_seeds(table)
    addtriv = P.check_addtriv(table)
    pent = _verify_all(rec, table, jobs=jobs)
    add = P.check_additional(table)
    rec.check_set_time(mark, jobs)
    _report(rec, table.ring, f"{label} orthogonality", orth,
            pin["orthogonality_blocks"])
    _report(rec, table.ring, f"{label} triangle", tri, pin["triangle"])
    _report(rec, table.ring, f"{label} seeds", seeds, pin["seeds"])
    _report(rec, table.ring, f"{label} addtriv", addtriv, pin["addtriv"])
    _report(rec, table.ring, f"{label} additional", add, pin["additional"])
    _pentagon(rec, label, pent, pin["instances"], pin["nontrivial_unit"])


# ---------------------------------------------------------------------------
# certify-h3: parse, verify symbolically and at a point, re-serialize, render

def prepare_certify(ctx: Context) -> None:
    if ctx.table is None:
        ctx.table = F.build_h3_table()
    ctx.text = ctx.table.serialize()
    ctx.dataset_path = os.path.join(ctx.workdir, "h3.fsym")
    with open(ctx.dataset_path, "w", encoding="utf-8") as fh:
        fh.write(ctx.text)


def pass_certify(ctx: Context, rec: Recorder, rng: random.Random) -> None:
    pins = ctx.pins
    p = rng.choice(POINTS)
    shuffle = rng.choice(pins["shuffle_seeds"])
    table = rec.timed("parse_s", F.parse, ctx.text)
    rec.check("parse: 1431 entries",
              len(table.entries) == pins["h3"]["unknowns"])

    h3_check_set(rec, table, 1, pins["h3"], "symbolic")
    concrete = table.substitute_params(*p)
    h3_check_set(rec, concrete, ctx.jobs, pins["h3"], f"params {point_text(p)}")
    if ctx.tracer is not None:
        # the serial time of the same concrete table, the base of the
        # measured speed-up; kept out of the pass's spans and wall time
        ctx.tracer.paused = True
        t0 = rec.wall()
        serial = P.verify_all(concrete, jobs=1)
        rec.excluded += rec.wall() - t0
        ctx.tracer.paused = False
        rec.check("serial concrete pentagon passed", serial.passed)
        rec.counts["parallel_speedup"].append(
            serial.duration / rec.counts["verify_all_jobs_s"][-1])

    rec.check("data-set text matches its pinned sha256",
              hashlib.sha256(ctx.text.encode("utf-8")).hexdigest()
              == pins["dataset_sha256"])
    rec.check("serialize(parse(text)) == text", table.serialize() == ctx.text)
    rc, out = cli_call(["export", "--dataset", ctx.dataset_path])
    rec.check("export reproduces the data set", rc == 0 and out == ctx.text)

    ppm = os.path.join(ctx.workdir, "render.ppm")
    for order, want in (
            ("sorted", pins["render_sorted"][point_text(p)]),
            (f"seeded:{shuffle}",
             pins["render_seeded"][point_text(p)][str(shuffle)])):
        rc, _ = cli_call(["render", "--dataset", ctx.dataset_path,
                          "--params=" + point_text(p), "--order", order,
                          "--out", ppm])
        rec.check(f"render {order} at {point_text(p)}",
                  rc == 0 and sha256_file(ppm) == want)


# ---------------------------------------------------------------------------
# gauge-mutate: random rational gauges stay clean, negated entries are caught

def prepare_gauge(ctx: Context) -> None:
    if ctx.table is None:
        ctx.table = F.build_h3_table()
    h3 = ctx.table.ring
    ctx.four_dim_keys = [k for blk in R.f_blocks(h3) if blk.dim == 4
                         for k in blk.keys()]
    P.key_instance_index(h3)


def random_gauge(ring, rng):
    gauge = F.GaugeAssignment(ring)
    for a in range(len(ring)):
        for b in range(len(ring)):
            for c in ring.fusion(a, b):
                gauge.set(a, b, c, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    return gauge


def scan_depth(ring, key, inst) -> int:
    """1-based position of the failing instance among those touching key."""
    instances, index = P.key_instance_index(ring)
    for depth, pos in enumerate(index[key], start=1):
        if tuple(instances[pos][:9]) == inst.labels:
            return depth
    return 0


def pass_gauge(ctx: Context, rec: Recorder, rng: random.Random) -> None:
    pin = ctx.pins["h3"]
    table = ctx.table
    gauge = random_gauge(table.ring, rng)
    probes = rng.sample(ctx.four_dim_keys, PROBES_PER_PASS)

    gauged = rec.timed("apply_gauge_s", table.apply_gauge, gauge)
    mark = rec.mark()
    pent = _verify_all(rec, gauged)
    tri = P.check_triangle(gauged)
    add = P.check_additional(gauged)
    rec.check_set_time(mark, 1)
    _pentagon(rec, "gauged", pent, pin["instances"], pin["nontrivial_unit"])
    _report(rec, gauged.ring, "gauged triangle", tri, pin["triangle"])
    _report(rec, gauged.ring, "gauged additional", add, pin["additional"])

    for key in probes:
        t0 = rec.wall()
        mutated = P.negate_entry(table, key)
        inst = P.find_failing_instance(mutated, key)
        rec.samples["probe_ms"].append((rec.wall() - t0) * 1e3)
        caught = inst is not None
        if rec.check(f"probe {table.ring.describe(key)} caught", caught):
            rec.counts["probe_scan_depth"].append(
                scan_depth(table.ring, key, inst))


# ---------------------------------------------------------------------------
# rederive: skein constants, small solves, instance census, H3 propagation

def prepare_rederive(ctx: Context) -> None:
    if ctx.table is None:
        ctx.table = F.build_h3_table()
    for name in ("z3", "fib", "ising"):
        R.builtin_ring(name)


def small_check_set(rec, table, pin, label) -> None:
    mark = rec.mark()
    pent = _verify_all(rec, table, rule="vacuous")
    orth = table.check_orthogonality()
    tri = P.check_triangle(table)
    add = P.check_additional(table)
    rec.check_set_time(mark, 1)
    _pentagon(rec, label, pent, pin["instances"], pin["instances"])
    _report(rec, table.ring, f"{label} orthogonality", orth,
            pin["orthogonality_blocks"])
    _report(rec, table.ring, f"{label} triangle", tri, pin["triangle"])
    _report(rec, table.ring, f"{label} additional", add, pin["additional"])


def pass_rederive(ctx: Context, rec: Recorder, rng: random.Random) -> None:
    pins = ctx.pins

    cup, tri = K.derive_square_pop(K.h3_params())
    c1, c2 = K.h3_constants()[:2]
    rec.check("skein match=yes", cup == c1 and tri == c2)

    solve_s = 0.0
    for name in ("z3", "fib", "ising"):
        pin = pins["small"][name]
        t0 = rec.wall()
        tables, report = S.solve(name, with_report=True)
        solve_s += rec.wall() - t0
        rec.check(f"solve {name}: {len(tables)} tables",
                  len(tables) == pin["solutions"])
        nodes = re.search(r"explored (\d+) branch nodes",
                          " ".join(report.branch_decisions))
        nodes = int(nodes.group(1))
        rec.counts[f"branch_nodes_{name}"].append(nodes)
        rec.counts[f"solutions_{name}"].append(len(tables))
        if nodes:
            rec.counts[f"solutions_per_node_{name}"].append(len(tables) / nodes)
        if name == "z3":
            ones = F.all_ones_table(R.builtin_ring("z3"))
            rec.check("z3 includes the all-ones table",
                      any(t == ones for t in tables))
        for i, table in enumerate(tables):
            small_check_set(rec, table, pin, f"{name} solution {i}")

    rc, out = cli_call(["count", "--builtin", "h3"])
    rec.check("count report", rc == 0 and out == pins["count_text"])

    t0 = rec.wall()
    state, report = S.propagate(S.seed(ctx.table.ring))
    solve_s += rec.wall() - t0
    rec.samples["solve_s"].append(solve_s)
    rec.counts["resolved_h3"].append(report.resolved)
    rec.check(f"h3 propagation resolved={report.resolved} "
              f"remaining={report.remaining}",
              (report.resolved, report.remaining)
              == tuple(pins["h3_propagation"]))
    cmp = S.compare_to_dataset(state, ctx.table)
    rec.check(f"h3 propagation vs data set: {cmp.render()}",
              cmp.all_exact and cmp.compared == pins["h3_compared"])


WORKLOADS = {
    "certify-h3": (prepare_certify, pass_certify),
    "gauge-mutate": (prepare_gauge, pass_gauge),
    "rederive": (prepare_rederive, pass_rederive),
}
