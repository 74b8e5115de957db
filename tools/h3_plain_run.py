"""Time the plain h3 solver run: the seeds plus data-set values.

    PYTHONPATH=src python3 tools/h3_plain_run.py

The run starts from ``seed(h3)`` and adds the data set's values at
(p1, p2) = (+1, +1) for the 341 one-dimensional entries the seeds leave
open and for the four f = 1 entries of F[rho; rho rho rho].  It then
propagates and branches depth-first as ``solve`` does, within the same
branch-node budget, and re-verifies every total table.  It prints the
branch nodes, each verified table against the data set at (+1, +1), and
the CPU seconds of the search.  Plain means no gauge fixing.
"""

from __future__ import annotations

import time

from fusioncat import solver
from fusioncat.fsymbols import build_h3_table
from fusioncat.fusionring import FKey, builtin_ring, enumerate_fkeys


def start_state(ring, data) -> solver.PartialTable:
    state = solver.seed(ring)
    r = ring.label("r")
    extra = [k for k in enumerate_fkeys(ring)
             if k not in state.known and solver._is_one_dim(ring, k)]
    extra += [FKey(r, r, r, r, e, ring.unit) for e in ring.e_labels(r, r, r, r)]
    for k in extra:
        state.known[k] = data.entries[k].as_field()
    return state


def main() -> int:
    ring = builtin_ring("h3")
    data = build_h3_table().substitute_params(1, 1)
    start = start_state(ring, data)
    print(f"start: {len(start.known)} known of {len(enumerate_fkeys(ring))}")
    t0 = time.process_time()
    stack, nodes, found = [start], 0, []
    while stack:
        state, report = solver.propagate(stack.pop())
        if report.contradiction:
            continue
        if report.remaining == 0:
            if solver._verified(state.as_table()):
                found.append(state)
            continue
        if not report.branch_options or nodes >= solver._MAX_BRANCH_NODES:
            continue
        nodes += 1
        key, roots = report.branch_options[0]
        for value in reversed(roots):
            branch = state.copy()
            branch.known[key] = value
            stack.append(branch)
    cpu = time.process_time() - t0
    print(f"explored {nodes} branch nodes, {len(found)} verified tables")
    for i, state in enumerate(found):
        print(f"table {i}: {solver.compare_to_dataset(state, data).render().splitlines()[0]}")
    print(f"cpu_s={cpu:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
