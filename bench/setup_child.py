"""One fresh-interpreter set-up, timed by the parent as ``setup_s``.

    python3 bench/setup_child.py <workload> <src dir> [<data-set file>]

Does what a user of the workload pays before the first result: import,
ring and tower set-up, the table (built, or parsed from the data-set text
for certify-h3) and, for gauge-mutate, the first `key_instance_index`.
Prints the time of each phase as JSON, for the per-layer numbers, with the
speed this process ran at and the time its speed probe took (speed.py).
"""

import json
import sys

import speed


def main() -> None:
    probe = speed.SpeedProbe()
    probe.start()
    workload, src = sys.argv[1], sys.argv[2]
    clock = probe.wall
    phases = {}
    t = clock()
    sys.path.insert(0, src)
    from fusioncat import fsymbols, fusionring, pentagon
    phases["import_s"], t = clock() - t, clock()
    h3 = fusionring.builtin_ring("h3")
    if workload == "rederive":
        for name in ("z3", "fib", "ising"):
            fusionring.builtin_ring(name)
    phases["rings_s"], t = clock() - t, clock()
    if workload == "certify-h3":
        with open(sys.argv[3], encoding="utf-8") as fh:
            table = fsymbols.parse(fh.read())
        phases["parse_s"] = clock() - t
    else:
        table = fsymbols.build_h3_table()
        phases["build_h3_table_s"] = clock() - t
    if workload == "gauge-mutate":
        t = clock()
        pentagon.key_instance_index(h3)
        phases["key_instance_index_s"] = clock() - t
    if len(table.entries) != 1431:
        sys.exit(f"set-up built {len(table.entries)} entries, not 1431")
    probe.stop()
    # the parent scales its spawn-to-exit time by this child's speed
    phases["slowdown"] = probe.slowdown(0.0, float("inf"))
    phases["probe_s"] = probe.spent_wall
    print(json.dumps(phases))


if __name__ == "__main__":
    main()
