"""fusioncat benchmark: exact certification, gauge/mutation probing and
re-derivation, end to end and layer by layer.

    python3 bench/run.py --workload certify-h3 --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file.  ``--trace 0`` times whole passes with tracing off and
prints the end-to-end metrics; ``--trace 1`` pairs each untraced pass with
the same pass traced, and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is the result as one JSON
object; the full record (samples, percentiles, exact work counts, span
summary, provenance) goes to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("certify-h3", "gauge-mutate", "rederive")

END_TO_END = {"setup_s": "s", "cpu_s": "s", "verify_s": "s",
              "pentagon_eq_per_s": "1/s", "peak_rss_mb": "MB"}

# (metric, unit, source kind, source name).  Span metrics are the median
# inclusive duration per call; self times are in the run record.
PER_LAYER = [
    *[(f"exactnum.{m}", "us", "micro", m) for m in (
        "field_mul_us", "field_add_us", "field_inverse_us", "param_mul_us",
        "field_mul_gauged_us", "field_add_gauged_us",
        "field_inverse_gauged_us", "param_mul_gauged_us", "param_mul_2t_us",
        "field_sign_us", "field_sqrt_us", "parse_scalar_us",
        "render_scalar_us")],
    ("fusionring.enumerate_fkeys_ms", "ms", "span", "fusionring.enumerate_fkeys"),
    ("fusionring.f_blocks_ms", "ms", "span", "fusionring.f_blocks"),
    ("fsymbols.parse_s", "s", "span", "fsymbols.parse"),
    ("fsymbols.build_h3_table_s", "s", "setup", "build_h3_table_s"),
    ("fsymbols.serialize_s", "s", "span", "fsymbols.serialize"),
    ("fsymbols.substitute_params_s", "s", "span", "fsymbols.substitute_params"),
    ("fsymbols.check_orthogonality_s", "s", "span",
     "fsymbols.check_orthogonality"),
    ("fsymbols.apply_gauge_s", "s", "span", "fsymbols.apply_gauge"),
    ("fsymbols.negate_entry_ms", "ms", "span", "pentagon.negate_entry"),
    ("pentagon.enumerate_instances_s", "s", "span", "pentagon.enumerate_instances"),
    ("pentagon.count_instances_s", "s", "span", "pentagon.count_instances"),
    ("pentagon.verify_all_s", "s", "span", "pentagon.verify_all"),
    ("pentagon.verify_all_jobs_s", "s", "span", "pentagon.verify_all_jobs"),
    ("pentagon.parallel_speedup", "x", "count", "parallel_speedup"),
    ("pentagon.starred_entries_s", "s", "span", "pentagon.starred_entries"),
    ("pentagon.check_additional_s", "s", "span", "pentagon.check_additional"),
    ("pentagon.check_addtriv_s", "s", "span", "pentagon.check_addtriv"),
    ("pentagon.check_triangle_ms", "ms", "span", "pentagon.check_triangle"),
    ("pentagon.check_seeds_ms", "ms", "span", "pentagon.check_seeds"),
    ("pentagon.key_instance_index_s", "s", "setup", "key_instance_index_s"),
    ("pentagon.find_failing_instance_ms", "ms", "span",
     "pentagon.find_failing_instance"),
    ("skein.derive_square_pop_ms", "ms", "span", "skein.derive_square_pop"),
    ("skein.evaluate_closed_us", "us", "span", "skein.evaluate_closed"),
    ("solver.solve_z3_s", "s", "span", "solver.solve_z3"),
    ("solver.solve_fib_s", "s", "span", "solver.solve_fib"),
    ("solver.solve_ising_s", "s", "span", "solver.solve_ising"),
    ("solver.propagate_h3_s", "s", "span", "solver.propagate_h3"),
    ("cli.render_ms", "ms", "span", "cli.render"),
    ("cli.export_ms", "ms", "span", "cli.export"),
    ("cli.count_s", "s", "span", "cli.count"),
    ("wall_s", "s", "sample", "wall_s"),
    ("verify_jobs_s", "s", "sample", "verify_jobs_s"),
    ("probe_ms", "ms", "sample", "probe_ms"),
    ("solve_s", "s", "sample", "solve_s"),
    ("pentagon.nontrivial_evaluated", "count", "count", "verify_all_instances"),
    ("pentagon.probe_scan_depth", "count", "count", "probe_scan_depth"),
    ("pentagon.jobs_speedup_bound", "x", "chunk", ""),
    ("solver.branch_nodes_fib", "count", "count", "branch_nodes_fib"),
    ("solver.branch_nodes_ising", "count", "count", "branch_nodes_ising"),
    ("trace.overhead_pct", "%", "overhead", ""),
]

SCALE = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}   # from nanoseconds


class UsageError(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def load_program():
    """Import fusioncat from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "fusioncat", "__init__.py")):
        raise UsageError(f"no fusioncat sources under {SRC}")
    pins_path = os.path.join(BENCH, "pins.json")
    sys.path.insert(0, SRC)
    import fusioncat
    if os.path.dirname(os.path.dirname(os.path.abspath(fusioncat.__file__))) != SRC:
        raise UsageError(f"imported fusioncat from {fusioncat.__file__}")
    with open(pins_path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# statistics

def high_percentile(values):
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")
            return {"p": p, "value": cut[p - 1]}
    return None


def describe(values):
    if not values:
        return None
    return {"median": statistics.median(values), "n": len(values),
            "high": high_percentile(values), "min": min(values),
            "max": max(values), "values": values}


# ---------------------------------------------------------------------------
# provenance

def provenance() -> dict:
    sha = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    sha = fh.read().strip()
        else:
            sha = ref
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "fusioncat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "fork": "fork" in multiprocessing.get_all_start_methods(),
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# set-up in fresh interpreters

def run_setups(workload, dataset_path, repeats, rec):
    """Time `repeats` fresh-interpreter set-ups from spawn to exit, in
    seconds at the reference speed: each child samples its own speed (see
    speed.py) and reports it with its phases."""
    walls, phases = [], []
    cmd = [sys.executable, os.path.join(BENCH, "setup_child.py"), workload, SRC]
    if workload == "certify-h3":
        cmd.append(dataset_path)
    for _ in range(repeats):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=120, cwd=ROOT)
        except subprocess.TimeoutExpired:
            rec.check(f"set-up {workload}: no exit within 120 s", False)
            continue
        wall = time.perf_counter() - t0
        if rec.check(f"set-up {workload}: exit {proc.returncode} "
                     f"{proc.stderr.strip()[-200:]}", proc.returncode == 0):
            phase = json.loads(proc.stdout.strip().splitlines()[-1])
            phase["wall_s"] = wall
            walls.append((wall - phase["probe_s"]) / phase["slowdown"])
            phases.append(phase)
    return walls, phases


# ---------------------------------------------------------------------------
# passes

def pass_rng(workload, seed, i):
    return random.Random(f"{workload}:{seed}:{i}")


def run_pass(ctx, rec, workload, seed, i):
    """One pass, recording its wall and CPU time and its pentagon rate."""
    import workloads as W
    _, run = W.WORKLOADS[workload]
    n_inst = len(rec.counts["verify_all_instances"])
    rec.excluded = 0.0
    mark = rec.mark()
    try:
        run(ctx, rec, pass_rng(workload, seed, i))
    except Exception as exc:                          # counted, then reported
        traceback.print_exc(file=sys.stderr)
        rec.check(f"{workload} pass {i}: {type(exc).__name__}: {exc}", False)
    wall, cpu_unscaled, cpu = rec.since(mark, rec.excluded)
    rec.samples["wall_s"].append(wall)
    rec.samples["cpu_unscaled_s"].append(cpu_unscaled)
    rec.samples["cpu_s"].append(cpu)
    inst = sum(rec.counts["verify_all_instances"][n_inst:])
    cpu = sum(rec.counts["verify_all_cpu_s"][n_inst:])
    wall = sum(rec.counts["verify_all_wall_s"][n_inst:])
    if cpu:
        rec.samples["pentagon_eq_per_s"].append(inst / cpu)
        rec.samples["pentagon_eq_per_wall_s"].append(inst / wall)


def run_traced(ctx, tracer, rec, workload, seed, i):
    """One pass with spans, and without speed samples inside them."""
    ctx.tracer = tracer
    tracer.install()
    try:
        with rec.probe.paused():
            run_pass(ctx, rec, workload, seed, i)
    finally:
        tracer.uninstall()
        ctx.tracer = None


def chunk_work(table, nproc):
    """Residual terms per `--jobs` chunk (one chunk per x) and the speed-up
    that in-order scheduling of those chunks allows on nproc workers."""
    from fusioncat import pentagon as P
    ring = table.ring
    size = {k: len(v.terms) for k, v in table.entries.items()}
    work = [0] * len(ring)
    summands = {}
    for inst in P.enumerate_instances(ring):
        n = len(inst.e_sum)
        summands[n] = summands.get(n, 0) + 1
        if ring.unit in inst.labels[:4]:
            continue
        keys = inst.keys()
        terms = size[keys[0]] * size[keys[1]]
        for j in range(n):
            k3, k4, k5 = keys[2 + 3 * j: 5 + 3 * j]
            terms += size[k3] * size[k4] * size[k5]
        work[inst.x] += terms
    free = [0] * nproc                     # Pool.map hands out chunks in order
    for w in work:
        i = free.index(min(free))
        free[i] += w
    return {"per_x_terms": work, "summands": summands,
            "speedup_bound": sum(work) / max(free), "workers": nproc}


def span_metric(summary, name, unit):
    row = summary.get(name)
    if not row:
        return None
    return statistics.median(row["incl_ns"]) * SCALE[unit]


def layer_value(kind, source, unit, summary, rec_list, micro, phases):
    if kind == "span":
        return span_metric(summary, source, unit)
    if kind == "micro":
        return micro.get(source, {}).get("value")
    if kind == "setup":
        vals = [ph[source] for ph in phases if source in ph]
        return statistics.median(vals) if vals else None
    for rec in rec_list:
        pool = rec.samples if kind == "sample" else rec.counts
        if pool.get(source):
            return statistics.median(pool[source])
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pins = load_program()
    except (UsageError, OSError, ImportError, ValueError) as exc:
        print(f"bench: cannot run here: {exc}", file=sys.stderr)
        return 2

    # these import fusioncat, so only after load_program put src/ first
    import tracing
    import workloads as W

    os.makedirs(OUT, exist_ok=True)
    prov = provenance()
    jobs = prov["nproc"]
    ctx = W.Context(ROOT, pins, jobs)
    probe = speed.SpeedProbe()
    rec, rec_traced = W.Recorder(probe), W.Recorder(probe)
    workload = args.workload
    W.WORKLOADS[workload][0](ctx)
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov}

    setup_walls, phases = run_setups(workload, ctx.dataset_path,
                                     SETUP_REPEATS, rec)
    record["setup"] = {"walls_s": setup_walls, "phases": phases}

    start = time.perf_counter()
    i = 0
    tracer = tracing.Tracer() if args.trace else None
    probe.start()
    try:
        while True:
            # a traced run pairs each pass with its traced twin, alternating
            # which goes first so that warm-up does not bias the overhead
            if tracer is not None and i % 2:
                run_traced(ctx, tracer, rec_traced, workload, args.seed, i)
            run_pass(ctx, rec, workload, args.seed, i)
            if tracer is not None and not i % 2:
                run_traced(ctx, tracer, rec_traced, workload, args.seed, i)
            i += 1
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        probe.stop()
    record["passes"] = i
    record["timed_s"] = time.perf_counter() - start
    record["speed"] = probe.summary()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    record["samples"] = {k: describe(v) for k, v in rec.samples.items()}
    record["counts"] = {k: describe(v) for k, v in rec.counts.items()}
    record["counts"].update({
        k: describe(v) for k, v in rec_traced.counts.items()
        if k not in rec.counts})
    if workload == "certify-h3" or args.trace:
        record["counts"]["chunk_work"] = chunk_work(ctx.table, jobs)

    if not args.trace:
        metrics = {name: statistics.median(rec.samples[name])
                   for name in ("cpu_s", "verify_s", "pentagon_eq_per_s")
                   if rec.samples[name]}
        if setup_walls:
            metrics["setup_s"] = statistics.median(setup_walls)
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END
    else:
        metrics, sources = traced_metrics(
            tracer, ctx, rec, rec_traced, args, phases, record)
        record["per_layer_source"] = sources
        units = {m: u for m, u, _, _ in PER_LAYER}

    failed = rec.failed + rec_traced.failed
    attempted = rec.attempted + rec_traced.attempted
    missing = [m for m in units if metrics.get(m) is None]
    if missing:
        failed += 1
        attempted += 1
        rec.errors.append(f"no value for {missing}")
    prov["loadavg_end"] = os.getloadavg()
    record["errors"] = rec.errors + rec_traced.errors
    record["error_rate"] = failed / attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": metrics[m], "unit": u}
                          for m, u in units.items() if metrics.get(m) is not None}}
    name = f"{workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, name + ".json"), "w") as fh:
        json.dump({**record, "result": result}, fh, indent=1, default=str)
    if tracer is not None:
        with open(os.path.join(OUT, name + ".spans.jsonl"), "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")
    for err in record["errors"][:20]:
        print(f"FAILED: {err}")
    print(f"{workload} seed={args.seed}: {i} passes in {record['timed_s']:.1f}s, "
          f"{attempted - failed}/{attempted} checks passed; record in "
          f"{os.path.relpath(os.path.join(OUT, name + '.json'), ROOT)}")
    print(json.dumps(result))
    return 0


def traced_metrics(tracer, ctx, rec, rec_traced, args, phases, record):
    """Per-layer values: the workload's own traced passes first, then one
    traced pass of each other workload for the layers it does not reach."""
    import micro
    import tracing
    import workloads as W

    own = tracer.summary()
    record["spans"] = {"own": summarize(own)}
    record["layer_self_s"] = tracing.Tracer.layer_self(own)
    record["traced_walls_s"] = rec_traced.samples["wall_s"]
    overhead = (statistics.median(rec_traced.samples["wall_s"])
                / statistics.median(rec.samples["wall_s"]) - 1) * 100

    if not any(ph.get("key_instance_index_s") for ph in phases):
        _, more = run_setups("gauge-mutate", None, 3, rec)
        phases = phases + more

    rng = random.Random(f"micro:{args.seed}")
    gauged = ctx.table.apply_gauge(W.random_gauge(ctx.table.ring, rng))
    micro_results = micro.run(ctx.table, gauged, rng, rec_traced)
    record["micro"] = micro_results

    def collect(summary, recs):
        out = {}
        for metric, unit, kind, source in PER_LAYER:
            if kind == "overhead":
                out[metric] = overhead
            elif kind == "chunk":
                out[metric] = record["counts"]["chunk_work"]["speedup_bound"]
            else:
                out[metric] = layer_value(kind, source, unit, summary, recs,
                                          micro_results, phases)
        return out

    metrics = collect(own, [rec, rec_traced])
    sources = {m: args.workload for m, v in metrics.items() if v is not None}
    for other in WORKLOAD_NAMES:
        if other == args.workload or all(v is not None for v in metrics.values()):
            continue
        W.WORKLOADS[other][0](ctx)
        first = len(tracer.spans)
        cover = W.Recorder(rec.probe)
        run_traced(ctx, tracer, cover, other, args.seed, 0)
        rec_traced.attempted += cover.attempted
        rec_traced.failed += cover.failed
        rec_traced.errors += cover.errors
        summary = tracer.summary(first)
        record["spans"][other] = summarize(summary)
        for metric, value in collect(summary, [cover]).items():
            if metrics[metric] is None and value is not None:
                metrics[metric] = value
                sources[metric] = other
    return metrics, sources


def summarize(summary):
    return {name: {"calls": row["calls"],
                   "incl_median_s": statistics.median(row["incl_ns"]) / 1e9,
                   "incl_total_s": sum(row["incl_ns"]) / 1e9,
                   "self_total_s": row["self_ns"] / 1e9}
            for name, row in sorted(summary.items())}


if __name__ == "__main__":
    sys.exit(main())
