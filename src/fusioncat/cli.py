"""Command-line surface: verify, count, render, skein, solve, export.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 internal
error (any other exception, as one stderr line), 141 (128 + SIGPIPE, quiet)
when the reader of standard output goes away, as in ``| head``.  All commands
are deterministic given their flags; ``render`` output is byte-identical
across platforms (integer-only pixel math after a 64-bit approximation).
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
import tempfile
from fractions import Fraction
from functools import cache
from pathlib import Path

from .exactnum import approx, render_scalar
from .fsymbols import (DatasetParseError, FSymbolTable, build_h3_table,
                       all_ones_table, parse)
from .fusionring import builtin_ring, enumerate_fkeys, is_h3
from .pentagon import (TRIVIALITY_RULES, check_additional, check_addtriv,
                       check_seeds, check_triangle, count_instances, verify_all)
from .skein import derive_square_pop, h3_constants, h3_params
from .solver import compare_to_dataset, propagate, seed, solve

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3
EXIT_BROKEN_PIPE = 128 + 13  # killed by SIGPIPE, as shell pipelines expect

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
LCG_MODULUS = 1 << 64


class InputError(Exception):
    pass


def _load_table(args) -> FSymbolTable:
    if getattr(args, "dataset", None):
        try:
            with open(args.dataset, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(str(exc))
        try:
            return parse(text)
        except DatasetParseError as exc:
            raise InputError(f"{args.dataset}: {exc}")
    name = getattr(args, "builtin", None) or "h3"
    ring = builtin_ring(name)
    if is_h3(ring):
        return build_h3_table()
    if ring.name == "z3_pointed":
        return all_ones_table(ring)
    tables = solve(ring)
    return tables[0]


def _write_out(path: str, data: bytes) -> None:
    """Write an ``--out`` file whole or not at all: the data goes to a
    temporary file next to the resolved target, with the mode the target
    would get, which then replaces the target.  A target that exists and is
    not a regular file (``/dev/stdout``, a FIFO) is written in place.  One
    that cannot be written is an input error, as an unreadable ``--dataset``
    is."""
    try:
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = stat.S_IFREG | (0o666 & ~umask)
        if not stat.S_ISREG(mode):
            Path(path).write_bytes(data)
            return
        target = os.path.realpath(path)
        fd, tmp = tempfile.mkstemp(prefix=".", suffix=".tmp",
                                   dir=os.path.dirname(target))
        try:
            with os.fdopen(fd, "wb") as fh:
                os.fchmod(fh.fileno(), stat.S_IMODE(mode))
                fh.write(data)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}")


def _parse_params(text: str) -> tuple[int, int] | None:
    if text == "symbolic":
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"--params wants 'symbolic' or '+1,-1', got {text!r}")
    out = []
    for p in parts:
        p = p.strip()
        if p in ("+1", "1"):
            out.append(1)
        elif p == "-1":
            out.append(-1)
        else:
            raise InputError(f"parameter {p!r} is not +1 or -1")
    return out[0], out[1]


# ---------------------------------------------------------------------------
# commands

def cmd_verify(args) -> int:
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    table = _load_table(args)
    params = _parse_params(args.params)
    if params is not None:
        table = table.substitute_params(*params)
    reports = [table.check_orthogonality(), check_triangle(table)]
    if is_h3(table.ring):
        reports.append(check_seeds(table))
        reports.append(check_addtriv(table))
    pentagon = verify_all(table, jobs=args.jobs, rule=args.triviality)
    reports.append(check_additional(table))
    ok = pentagon.passed and all(r.passed for r in reports)
    for r in reports:
        print(r)
    print(pentagon.render())
    print(f"pentagon wall time: {pentagon.duration:.2f}s")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_count(args) -> int:
    ring = builtin_ring(args.builtin)
    keys = enumerate_fkeys(ring)
    print(f"unknowns={len(keys)}")
    counts = count_instances(ring)
    print(f"instances total={counts['total']}")
    for rule in TRIVIALITY_RULES:
        trivial = counts[rule]
        print(f"nontrivial[{rule}]={counts['total'] - trivial} "
              f"(trivial={trivial})")
    return EXIT_OK


def _lcg_permutation(n: int, seed_value: int) -> list[int]:
    """Fisher-Yates with the fixed 64-bit LCG; deterministic across platforms."""
    order = list(range(n))
    state = seed_value % LCG_MODULUS
    for i in range(n - 1, 0, -1):
        state = (state * LCG_MULTIPLIER + LCG_INCREMENT) % LCG_MODULUS
        j = state % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def _round_half_away(x: Fraction) -> int:
    sign = -1 if x < 0 else 1
    x = abs(x)
    n = x.numerator // x.denominator
    if 2 * (x - n) >= 1:
        n += 1
    return sign * n


def _pixel(value) -> bytes:
    if value == 1:
        return bytes((0, 0, 0))
    if value == -1:
        return bytes((255, 255, 255))
    v = value.approx_fraction(64)
    if v > 1 or v < -1:
        # beyond exact bounds: the entry itself must be out of range
        if ((1 - value) * (1 + value)).sign() < 0:
            raise InputError("entry value outside [-1, 1]; data set corrupt")
        v = max(min(v, Fraction(1)), Fraction(-1))
    green = _round_half_away(Fraction(255) * (1 - v) / 2)
    return bytes((0, green, 0))


def cmd_render(args) -> int:
    table = _load_table(args)
    params = _parse_params(args.params)
    if params is None:
        raise InputError("render needs concrete parameters, e.g. --params +1,+1")
    table = table.substitute_params(*params)
    keys = sorted(table.entries, key=lambda k: k.sort_key)
    if args.order == "sorted":
        order = list(range(len(keys)))
    elif args.order.startswith("seeded:"):
        try:
            seed_value = int(args.order.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad --order {args.order!r}")
        order = _lcg_permutation(len(keys), seed_value)
    else:
        raise InputError(f"--order wants 'sorted' or 'seeded:<n>', got {args.order!r}")
    if args.width is not None and args.width < 1:
        raise InputError(f"--width must be at least 1, got {args.width}")
    if args.width is not None and args.width > len(keys):
        # a wider image only adds padding columns
        raise InputError(f"--width must be at most the number of entries, "
                         f"{len(keys)}, got {args.width}")
    values = [table.entries[keys[i]].as_field() for i in order]
    width = args.width or math.isqrt(len(values) - 1) + 1
    height = (len(values) + width - 1) // width
    body = b"".join(map(cache(_pixel), values))
    body += bytes((128, 128, 128)) * (width * height - len(values))
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    _write_out(args.out, header + body)
    print(f"wrote {args.out}: {width}x{height} P6, {len(values)} entries")
    return EXIT_OK


def cmd_skein(args) -> int:
    c1, c2, t, b, d = h3_constants()
    gamma_cup, gamma_tri = derive_square_pop(h3_params())
    for name, value in (("d", d), ("b", b), ("t", t), ("c1", c1)):
        print(f"{name}={render_scalar(value)}  # ~{approx(value):.12f}")
    c2sq = c2 * c2
    print(f"c2^2={render_scalar(c2sq)}  # c2 ~{approx(c2):.12f}")
    ok = gamma_cup == c1 and gamma_tri == c2
    print(f"square-pop rederivation: cup={render_scalar(gamma_cup)} "
          f"tri={render_scalar(gamma_tri)} match={'yes' if ok else 'NO'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_solve(args) -> int:
    ring = builtin_ring(args.builtin)
    if is_h3(ring):
        if args.out:
            raise InputError("solve --builtin h3 does not take --out: "
                             "propagation does not complete the table")
        state = seed(ring)
        state, report = propagate(state)
        print(report.render())
        comparison = compare_to_dataset(state, build_h3_table())
        print("against the shipped data set: " + comparison.render())
        known = len(state.known)
        total = len(enumerate_fkeys(ring))
        print(f"resolved fraction: {known}/{total} = {known / total:.3f}")
        return EXIT_OK if comparison.all_exact else EXIT_VERIFY_FAILED
    tables, report = solve(ring, with_report=True)
    print(report.render())
    print(f"solutions={len(tables)}")
    if not tables:
        return EXIT_VERIFY_FAILED
    if args.out:
        for i, table in enumerate(tables):
            path = args.out if len(tables) == 1 else f"{args.out}.{i}"
            _write_out(path, table.serialize().encode("utf-8"))
            print(f"wrote {path}")
    else:
        print(tables[0].serialize(), end="")
    return EXIT_OK


def cmd_export(args) -> int:
    table = _load_table(args)
    text = table.serialize()
    if args.out:
        _write_out(args.out, text.encode("utf-8"))
        print(f"wrote {args.out}: {len(table.entries)} entries")
    else:
        print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusioncat",
        description="Exact F-symbol toolkit: verification, counting, "
                    "rendering, skein constants, solving and export.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_table_flags(p):
        table = p.add_mutually_exclusive_group()
        table.add_argument("--builtin", default=None,
                           help="built-in ring: h3, z3, fib, ising (default h3)")
        table.add_argument("--dataset", default=None, help="data-set file to load")

    p = sub.add_parser("verify", help="run every check against a table")
    add_table_flags(p)
    p.add_argument("--params", default="symbolic",
                   help="'symbolic' or a concrete pair like '+1,-1'")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--triviality", default="unit", choices=TRIVIALITY_RULES)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("count", help="unknown and equation counts")
    p.add_argument("--builtin", default="h3")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("render", help="write the pixel map as a P6 file")
    add_table_flags(p)
    p.add_argument("--params", default="+1,+1")
    p.add_argument("--order", default="sorted",
                   help="'sorted' or 'seeded:<n>' for an LCG-shuffled order")
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("skein", help="print the skein constants report")
    p.set_defaults(func=cmd_skein)

    p = sub.add_parser("solve", help="seeded propagation solver")
    p.add_argument("--builtin", default="h3")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("export", help="write a table in the data-set format")
    add_table_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a separate value such as -1,+1 as a flag; joined, it
    # stays the value of --params
    while "--params" in argv[:-1]:
        i = argv.index("--params")
        argv[i:i + 2] = ["--params=" + argv[i + 1]]
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must show here, not at exit
        return code
    except (InputError, DatasetParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BrokenPipeError:
        # output still buffered would fail again at exit: send it nowhere
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
