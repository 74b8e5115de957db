"""exactnum micro-benchmarks on seeded operands.

Operands are drawn from the shipped H3 table and from a randomly gauged copy
(gauge values 1..9 / 1..9).  Each metric is the median per-call time over
the sampled operands; its base, the operands' term count and bit length, is
recorded next to it.  A `ParamScalar` operand with k terms is the sum of k
table entries with distinct sign monomials.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from fusioncat import exactnum as E

OPERANDS = 16


def _field_size(x) -> tuple[int, int]:
    coords = x.coords
    bits = max(max(q.numerator.bit_length(), q.denominator.bit_length())
               for q in coords)
    return sum(1 for q in coords if q), bits


def _param_size(x) -> tuple[int, int]:
    sizes = [_field_size(c) for c in x.terms.values()]
    return len(x.terms), max(b for _, b in sizes)


def _per_call_us(fn, operands, reps) -> list[float]:
    out = []
    for args in operands:
        t0 = time.perf_counter_ns()
        for _ in range(reps):
            fn(*args)
        out.append((time.perf_counter_ns() - t0) / reps / 1e3)
    return out


def _param_operands(table, rng, k, count):
    by_mono = defaultdict(list)
    for v in table.entries.values():
        (mono,) = v.terms
        by_mono[mono].append(v)
    monos = sorted(by_mono)
    out = []
    for _ in range(count):
        chosen = rng.sample(monos, k)
        acc = rng.choice(by_mono[chosen[0]])
        for m in chosen[1:]:
            acc = E.param_add(acc, rng.choice(by_mono[m]))
        out.append(acc)
    return out


def run(table, gauged, rng, rec) -> dict[str, dict]:
    """Metric name -> {"value" (µs), "n", "reps", "terms", "bits"}."""
    tower = table.ring.tower
    results: dict[str, dict] = {}

    def bench(metric, fn, operands, reps, size):
        us = _per_call_us(fn, operands, reps)
        sizes = [size(args[0]) for args in operands]
        results[metric] = {
            "value": statistics.median(us), "n": len(us), "reps": reps,
            "terms": statistics.median(s[0] for s in sizes),
            "bits": statistics.median(s[1] for s in sizes)}

    for label, source in (("", table), ("_gauged", gauged)):
        fields = [c for v in source.entries.values() for c in v.terms.values()]
        pairs = [(rng.choice(fields), rng.choice(fields)) for _ in range(OPERANDS)]
        singles = [(x,) for x, _ in pairs]
        bench(f"field_mul{label}_us", E.field_mul, pairs, 200, _field_size)
        bench(f"field_add{label}_us", E.field_add, pairs, 200, _field_size)
        bench(f"field_inverse{label}_us", E.field_inv, singles, 3, _field_size)
        rec.check(f"field inverse{label}",
                  all(E.field_mul(x, E.field_inv(x)) == tower.one()
                      for (x,) in singles))
        four = _param_operands(source, rng, 4, 2 * OPERANDS)
        bench(f"param_mul{label}_us", E.param_mul,
              list(zip(four[::2], four[1::2])), 20, _param_size)
        x, y = four[0], four[1]
        rec.check(f"param mul{label} substitutes",
                  all(E.param_mul(x, y).substitute(s1, s2)
                      == x.substitute(s1, s2) * y.substitute(s1, s2)
                      for s1 in (1, -1) for s2 in (1, -1)))

    fields = [c for v in table.entries.values() for c in v.terms.values()]
    singles = [(rng.choice(fields),) for _ in range(OPERANDS)]
    two = _param_operands(table, rng, 2, 2 * OPERANDS)
    bench("param_mul_2t_us", E.param_mul, list(zip(two[::2], two[1::2])), 50,
          _param_size)
    bench("field_sign_us", lambda x: x.sign(), singles, 3, _field_size)
    squares = [(E.field_mul(x, x),) for (x,) in singles]
    bench("field_sqrt_us", E.field_sqrt, squares, 1, _field_size)
    rec.check("field sqrt of squares",
              all(E.field_sqrt(sq) in (x, -x)
                  for (sq,), (x,) in zip(squares, singles)))

    entries = [(rng.choice(list(table.entries.values())),)
               for _ in range(OPERANDS)]
    texts = [(E.render_scalar(v), tower) for (v,) in entries]
    bench("render_scalar_us", E.render_scalar, entries, 20, _param_size)
    bench("parse_scalar_us", E.parse_scalar, texts, 20,
          lambda text: _param_size(E.parse_scalar(text, tower)))
    rec.check("parse_scalar(render_scalar(v)) == v",
              all(E.parse_scalar(t, tower) == v
                  for (t, _), (v,) in zip(texts, entries)))
    return results
