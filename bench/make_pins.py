"""Regenerate bench/pins.json, the outputs every benchmark pass is checked
against.  Run from the root of a checkout:

    python3 bench/make_pins.py

The checked-in pins were made at the commit that added the benchmark.  Only
regenerate them when a change is meant to alter an output, and say so.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from fusioncat import fsymbols as F  # noqa: E402
from fusioncat import fusionring as R  # noqa: E402
from fusioncat import pentagon as P  # noqa: E402
from fusioncat import solver as S  # noqa: E402

from workloads import POINTS, cli_call, point_text, sha256_file  # noqa: E402

SHUFFLE_SEEDS = (1, 7, 42, 1009, 65537, 271828, 31415926, 4294967297)


def small_ring_pins(name: str) -> dict:
    tables = S.solve(name)
    rows = set()
    for t in tables:
        pent = P.verify_all(t, rule="vacuous")
        orth, tri, add = (t.check_orthogonality(), P.check_triangle(t),
                          P.check_additional(t))
        assert pent.passed and orth.passed and tri.passed and add.passed
        rows.add((pent.total, orth.checked, tri.checked, add.checked))
    (total, orth, tri, add), = rows
    return {"solutions": len(tables), "instances": total,
            "orthogonality_blocks": orth, "triangle": tri, "additional": add}


def main() -> None:
    workdir = os.path.join(ROOT, "bench", "out")
    os.makedirs(workdir, exist_ok=True)
    table = F.build_h3_table()
    h3 = table.ring
    text = table.serialize()
    path = os.path.join(workdir, "pins.fsym")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    pent = P.verify_all(table)
    assert pent.passed
    pins = {
        "dataset_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "h3": {
            "unknowns": len(R.enumerate_fkeys(h3)),
            "instances": pent.total,
            "nontrivial_unit": pent.nontrivial,
            "orthogonality_blocks": table.check_orthogonality().checked,
            "triangle": P.check_triangle(table).checked,
            "seeds": P.check_seeds(table).checked,
            "addtriv": P.check_addtriv(table).checked,
            "additional": P.check_additional(table).checked,
        },
        "shuffle_seeds": list(SHUFFLE_SEEDS),
        "render_sorted": {},
        "render_seeded": {},
    }
    ppm = os.path.join(workdir, "pins.ppm")
    for p in POINTS:
        pt = point_text(p)
        assert cli_call(["render", "--dataset", path, "--params=" + pt,
                         "--out", ppm])[0] == 0
        pins["render_sorted"][pt] = sha256_file(ppm)
        pins["render_seeded"][pt] = {}
        for s in SHUFFLE_SEEDS:
            assert cli_call(["render", "--dataset", path, "--params=" + pt,
                             "--order", f"seeded:{s}", "--out", ppm])[0] == 0
            pins["render_seeded"][pt][str(s)] = sha256_file(ppm)
    rc, pins["count_text"] = cli_call(["count", "--builtin", "h3"])
    assert rc == 0
    pins["small"] = {name: small_ring_pins(name)
                     for name in ("z3", "fib", "ising")}
    state, report = S.propagate(S.seed(h3))
    pins["h3_propagation"] = [report.resolved, report.remaining]
    pins["h3_compared"] = S.compare_to_dataset(state, table).compared
    os.remove(path)
    os.remove(ppm)
    with open(os.path.join(ROOT, "bench", "pins.json"), "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
