"""Re-solving small pentagon systems with seeded propagation.

The solver seeds the theorem-forced entries (unit-label entries are 1),
then alternates exact propagation steps -- single-unknown equations,
orthogonality rows, aliases X_j = lam * X_i kept with the assignment and
small eliminations -- branching on signs where the equations leave a
choice.  Every surviving branch is re-verified by the independent pentagon
checker before being returned.
"""

from fusioncat import builtin_ring, compare_to_dataset, propagate, render_scalar, seed, solve
from fusioncat.fsymbols import build_h3_table

print("fibonacci:")
tables = solve("fibonacci")
print(f"  {len(tables)} verified solutions (gauge-sign variants)")
block = tables[0].f_matrix("t", "t", "t", "t")
for row in block:
    print("   ", [render_scalar(v) for v in row])

print("\nising:")
tables = solve("ising")
print(f"  {len(tables)} verified solutions")
canonical = next(t for t in tables
                 if all(t.get(k).as_field().sign() > 0 for k in
                        [("s", "s", "s", "s", "1", "1"),
                         ("s", "s", "s", "s", "1", "p")]))
for row in canonical.f_matrix("s", "s", "s", "s"):
    print("   ", [render_scalar(v) for v in row])
print(f"    F[s; p s p] = {render_scalar(canonical.get(('p','s','p','s','s','s')))}")

print("\nthe big category, propagation only (the full solve is a research-"
      "scale computation):")
h3 = builtin_ring("h3")
state, report = propagate(seed(h3))
comparison = compare_to_dataset(state, build_h3_table())
print(f"  seeded {report.seeds} of 1431 entries; propagation resolved "
      f"{report.resolved} more")
print(f"  agreement with the shipped data set: {comparison.exact}/"
      f"{comparison.compared} exact")
