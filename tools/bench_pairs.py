"""Alternating parent/change pairs of the benchmark's end-to-end metrics.

    python3 tools/bench_pairs.py PARENT CHANGE --workload rederive \
        --workload certify-h3 --pairs 10 --seed 11 --seconds 20

PARENT and CHANGE are two checkouts of this repository.  Each workload
given runs its pairs in turn.  Pair ``i`` runs ``bench/run.py --trace 0``
once in each checkout, the parent first in even pairs and the change first
in odd ones, and reads the result line each run prints last.  Every run is
printed as it ends.  Then, per workload, for each end-to-end metric that
``BENCHMARK.json`` of the change gates, a table gives each side's median
and quartiles, the pairs each side won (a tie counts for neither), and two
verdicts:

- ``gain``: the change won at least nine tenths of the pairs, and its
  median is better than the parent's by more than the distance between the
  parent's quartiles;
- ``within bound``: the change's median is no worse than the parent's by
  more than the metric's bound.

It exits 1 when, on any workload, a run is not ``correct``, a run has
failures, or a gated median is outside its bound, and 0 otherwise, so a
pairs run can serve as a gate in a script.

Standard library only; it runs the benchmark as a program and neither
imports nor writes anything under ``bench/`` apart from what a run itself
writes there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, args) -> dict:
    """The result line of one untraced benchmark run in ``checkout``."""
    cmd = [sys.executable, os.path.join(checkout, "bench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(args, gated: list[dict]) -> bool:
    """Run ``args.pairs`` pairs of ``args.workload`` and print its table;
    whether every run is correct without failures and every gated median
    within its bound."""
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args)
            runs[side].append(result)
            values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                              for m in gated if m["name"] in result["metrics"])
            print(f"{args.workload} pair {i + 1} {side}: "
                  f"correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}",
                  flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.seconds} s runs, "
          f"{args.pairs} pairs")
    print("metric | parent median [q1, q3] | change median [q1, q3] | "
          "change % | wins change/parent | gain | within bound")
    out_of_bound = []
    for m in gated:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        if not all(name in r["metrics"] for side in runs.values() for r in side):
            continue
        old, new = ([r["metrics"][name]["value"] for r in runs[side]]
                    for side in ("parent", "change"))
        wins = sum(sign * (a - b) > 0 for a, b in zip(old, new))
        losses = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
        gain = wins >= 0.9 * args.pairs and sign * (om - nm) > o3 - o1
        within = sign * (nm - om) <= m["bound"] * abs(om)
        if not within:
            out_of_bound.append(name)
        print(f"{name} | {om:.6g} [{o1:.6g}, {o3:.6g}] | "
              f"{nm:.6g} [{n1:.6g}, {n3:.6g}] | "
              f"{100 * (nm - om) / om:+.1f} | {wins}/{losses} | "
              f"{'yes' if gain else 'no'} | {'yes' if within else 'NO'}")
    failed = [(side, r["failed"]) for side in runs for r in runs[side]
              if r["failed"] or not r["correct"]]
    print(f"runs not correct or with failures: {failed or 'none'}")
    print(f"medians outside their bound: {out_of_bound or 'none'}\n")
    return not (failed or out_of_bound)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", action="append", required=True,
                   help="a workload to run; give it once per workload")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    args = p.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        gated = json.load(f)["end_to_end"]
    passed = [compare(argparse.Namespace(**{**vars(args), "workload": w}), gated)
              for w in args.workload]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
