"""End-to-end command-line behaviour, including the exit-code contract."""

import hashlib
import os
import random
import signal
import stat
import subprocess
import sys
from fractions import Fraction

import pytest

from fusioncat import cli
from fusioncat.exactnum import ParamScalar
from fusioncat.fsymbols import GaugeAssignment, build_h3_table

EXPECTED_ENTRIES = 1431


def run_cli(*args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "fusioncat", *args],
                          capture_output=True, text=True, env=full_env)


def test_count():
    proc = run_cli("count", "--builtin", "h3")
    assert proc.returncode == 0
    assert "unknowns=1431" in proc.stdout
    assert "nontrivial[vacuous]=41391" in proc.stdout
    assert "nontrivial[unit]=36022" in proc.stdout


def test_count_z3():
    proc = run_cli("count", "--builtin", "z3")
    assert proc.returncode == 0
    assert "unknowns=27" in proc.stdout


def test_verify_builtin_symbolic():
    proc = run_cli("verify", "--builtin", "h3", "--params", "symbolic")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "failures=0" in proc.stdout


def test_verify_concrete_params():
    proc = run_cli("verify", "--builtin", "h3", "--params", "+1,-1")
    assert proc.returncode == 0
    assert "failures=0" in proc.stdout


def test_export_then_verify_round_trip(tmp_path):
    path = tmp_path / "h3.fsym"
    proc = run_cli("export", "--builtin", "h3", "--out", str(path))
    assert proc.returncode == 0
    text = path.read_text()
    assert text.splitlines()[0] == "h3fsym v1"
    assert text == build_h3_table().serialize()
    proc = run_cli("verify", "--dataset", str(path))
    assert proc.returncode == 0


def test_verify_flipped_sign_fails(tmp_path):
    lines = build_h3_table().serialize().splitlines()
    target = next(i for i, line in enumerate(lines)
                  if line.startswith("F r r r r ar r = "))
    head, _, expr = lines[target].partition(" = ")
    lines[target] = f"{head} = -({expr})"
    path = tmp_path / "mutated.fsym"
    path.write_text("\n".join(lines) + "\n")
    proc = run_cli("verify", "--dataset", str(path))
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_singular_blocks_fail_verification(tmp_path):
    lines = [line.partition(" = ")[0] + " = 0" if " = " in line else line
             for line in build_h3_table().serialize().splitlines()]
    path = tmp_path / "zero.fsym"
    path.write_text("\n".join(lines) + "\n")
    proc = run_cli("verify", "--dataset", str(path))
    assert proc.returncode == 1, proc.stderr
    assert "[FAIL] orthogonality" in proc.stdout
    assert "block matrix is singular: (r,r,r;r)" in proc.stdout
    assert proc.stderr == ""


def test_broken_pipe_is_quiet(monkeypatch, capsys, tmp_path):
    with open(tmp_path / "sink", "w") as sink:
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return sink.fileno()

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert cli.main(["count", "--builtin", "z3"]) == 141
    assert capsys.readouterr().err == ""


def test_internal_error_exit_code(monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_count", crash)
    assert cli.main(["count"]) == cli.EXIT_INTERNAL_ERROR == 3
    assert capsys.readouterr().err == "error: internal error: RuntimeError: boom\n"


def test_parse_error_exit_code(tmp_path):
    path = tmp_path / "broken.fsym"
    path.write_text("h3fsym v1\nF r r r r 1 1 = (1/0)\n")
    proc = run_cli("verify", "--dataset", str(path))
    assert proc.returncode == 2
    assert "zero denominator" in proc.stderr


def test_missing_file_exit_code(tmp_path):
    proc = run_cli("verify", "--dataset", str(tmp_path / "nope.fsym"))
    assert proc.returncode == 2


def test_builtin_and_dataset_together_are_a_usage_error(tmp_path):
    proc = run_cli("verify", "--builtin", "h3",
                   "--dataset", str(tmp_path / "fib.fsym"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "not allowed with argument" in proc.stderr


def test_unwritable_out_is_an_input_error(tmp_path):
    out = str(tmp_path / "missing" / "x")
    for args in (("render", "--out", out), ("export", "--out", out),
                 ("solve", "--builtin", "z3", "--out", out)):
        proc = run_cli(*args)
        assert proc.returncode == 2, (args, proc.stderr)
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "internal error" not in proc.stderr
        assert "Traceback" not in proc.stderr
    assert not (tmp_path / "missing").exists()


def _cap_file_size():
    """In the child: files may not grow past 4096 bytes, and a write that
    would fails with an error rather than a signal."""
    import resource
    resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs SIGXFSZ")
@pytest.mark.parametrize("command", ["export", "render"])
def test_failed_out_write_keeps_the_old_file(tmp_path, command):
    out = tmp_path / "f"
    old = b"old contents\n" * 10
    out.write_bytes(old)
    proc = subprocess.run(
        [sys.executable, "-m", "fusioncat", command, "--builtin", "h3",
         "--out", str(out)],
        capture_output=True, text=True, preexec_fn=_cap_file_size)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert out.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["f"]


def test_out_file_mode_and_special_targets(tmp_path):
    kept = tmp_path / "kept.fsym"
    kept.write_bytes(b"")
    kept.chmod(0o640)
    fresh = tmp_path / "fresh.fsym"
    for out in (kept, fresh, "/dev/null"):
        assert cli.main(["export", "--builtin", "z3", "--out", str(out)]) == 0
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask
    assert kept.read_bytes() == fresh.read_bytes() != b""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.fsym",
                                                          "kept.fsym"]


def test_deeply_nested_scalar_is_an_input_error(tmp_path):
    path = tmp_path / "deep.fsym"
    path.write_text("h3fsym v1\nF r r r r 1 1 = " + "(" * 5000 + "1"
                    + ")" * 5000 + "\n")
    proc = run_cli("verify", "--dataset", str(path))
    assert proc.returncode == 2, proc.stderr
    assert "nesting deeper than" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_render_rejects_nonpositive_width(tmp_path):
    for width in ("-1", "0"):
        out = tmp_path / f"w{width}.ppm"
        proc = run_cli("render", "--builtin", "h3", "--width", width,
                       "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert "--width must be at least 1" in proc.stderr
        assert not out.exists()


def test_render_rejects_width_beyond_entries(tmp_path):
    out = tmp_path / "wide.ppm"
    proc = run_cli("render", "--builtin", "h3", "--width", str(10 ** 12),
                   "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: --width must be at most")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


def _read_ppm(path):
    data = path.read_bytes()
    assert data.startswith(b"P6\n")
    header, _, rest = data.partition(b"255\n")
    dims = header.split(b"\n")[1].split()
    width, height = int(dims[0]), int(dims[1])
    assert len(rest) == 3 * width * height
    return width, height, rest


def test_render_layout_and_determinism(tmp_path):
    out1 = tmp_path / "a.ppm"
    out2 = tmp_path / "b.ppm"
    for out in (out1, out2):
        proc = run_cli("render", "--builtin", "h3", "--params", "+1,+1",
                       "--out", str(out))
        assert proc.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    width, height, body = _read_ppm(out1)
    assert (width, height) == (38, 38)
    # first entry in key order is F[1;111] = +1: a black pixel
    assert body[0:3] == bytes((0, 0, 0))
    # trailing padding cells are grey
    assert body[-3:] == bytes((128, 128, 128))
    # the data set contains -1 entries at (+1,+1): white pixels exist
    pixels = {body[i:i + 3] for i in range(0, 3 * EXPECTED_ENTRIES, 3)}
    assert bytes((255, 255, 255)) in pixels


def test_render_pixel_mapping(tmp_path):
    out = tmp_path / "map.ppm"
    run_cli("render", "--builtin", "h3", "--params", "+1,+1", "--out", str(out))
    _, _, body = _read_ppm(out)
    table = build_h3_table().substitute_params(1, 1)
    keys = sorted(table.entries, key=lambda k: k.sort_key)
    ring = table.ring
    # the all-rho diagonal entry -B ~ -0.5352 must map to (0, 196, 0)
    idx = keys.index(ring.key("r", "r", "r", "r", "r", "r"))
    assert body[3 * idx: 3 * idx + 3] == bytes((0, 196, 0))
    # and an exact -1 entry maps to white
    idx = keys.index(ring.key("1", "r", "ar", "asr", "asr", "r"))
    value = table.entries[keys[idx]].as_field()
    if value == -1:
        assert body[3 * idx: 3 * idx + 3] == bytes((255, 255, 255))


def test_render_seeded_order_differs_but_is_deterministic(tmp_path):
    sortd = tmp_path / "sorted.ppm"
    seeded1 = tmp_path / "s1.ppm"
    seeded2 = tmp_path / "s2.ppm"
    run_cli("render", "--builtin", "h3", "--out", str(sortd))
    run_cli("render", "--builtin", "h3", "--order", "seeded:7", "--out", str(seeded1))
    run_cli("render", "--builtin", "h3", "--order", "seeded:7", "--out", str(seeded2))
    assert seeded1.read_bytes() == seeded2.read_bytes()
    assert seeded1.read_bytes() != sortd.read_bytes()


def test_render_rejects_out_of_range_values(tmp_path):
    lines = build_h3_table().serialize().splitlines()
    target = next(i for i, line in enumerate(lines)
                  if line.startswith("F 1 1 1 1 1 1 = "))
    lines[target] = "F 1 1 1 1 1 1 = 2"
    path = tmp_path / "corrupt.fsym"
    path.write_text("\n".join(lines) + "\n")
    proc = run_cli("render", "--dataset", str(path), "--params", "+1,+1",
                   "--out", str(tmp_path / "x.ppm"))
    assert proc.returncode == 2
    assert "outside" in proc.stderr


SKEIN_REPORT = """\
d=(3/2+1/2*r13)  # ~3.302775637732
b=(3/2+1/2*r13)*rA  # ~1.817354021024
t=(-7/6-1/6*r13)*rA  # ~-0.972618355475
c1=(7/18+1/18*r13)  # ~0.589197293081
c2^2=(-2/9+1/9*r13)  # c2 ~0.422367832775
square-pop rederivation: cup=(7/18+1/18*r13) tri=(1/6+1/6*r13)*rA match=yes
"""


def test_skein_report():
    proc = run_cli("skein")
    assert proc.returncode == 0
    assert proc.stdout == SKEIN_REPORT


def test_solve_fibonacci(tmp_path):
    out = tmp_path / "fib.fsym"
    proc = run_cli("solve", "--builtin", "fib", "--out", str(out))
    assert proc.returncode == 0
    assert "solutions=2" in proc.stdout
    written = sorted(tmp_path.glob("fib.fsym*"))
    assert len(written) == 2
    proc = run_cli("verify", "--dataset", str(written[0]))
    assert proc.returncode == 0


def test_solve_h3_reports_seed_agreement():
    proc = run_cli("solve", "--builtin", "h3")
    assert proc.returncode == 0
    assert "resolved fraction" in proc.stdout
    assert "exact=173" in proc.stdout


def test_solve_h3_rejects_out(tmp_path):
    out = tmp_path / "h3.fsym"
    proc = run_cli("solve", "--builtin", "h3", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


# sha256 of ``solve`` stdout per builtin ring; any change to the solver's
# search, its tables or its report must show here
SOLVE_SHA256 = {
    "z3": "a90a072e118f069bc8204048da6cc0c0fd7ec6ff1ad871a276db63ea62868d23",
    "fib": "d34e9f723b63a5b634a1bc45d90955e10fa44c34c0e9e6ac3208cd8c042c18fe",
    "ising": "58c1653da886b1aa9fc8a7c7d6e262369fc899a2a7b7b19a5e0d2c7e12b2798d",
    "h3": "21e799227d906396304995f7e782c19e3c6b9aef3c568262e0d4777fa9537ca3",
}


def test_solve_stdout_is_pinned(capsys):
    for ring, want in SOLVE_SHA256.items():
        assert cli.main(["solve", "--builtin", ring]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want, ring


# sha256 of ``verify`` stdout without its wall-time line; the ``dataset:``
# runs read the data sets ``_verify_data_sets`` writes
VERIFY_SHA256 = {
    ("--builtin", "h3"):
        "2ecaaa79ac97ca0652b1204a8d7122060ff800631b77cc94026c4db3f5365068",
    ("--builtin", "h3", "--params=+1,-1", "--jobs", "2"):
        "2ecaaa79ac97ca0652b1204a8d7122060ff800631b77cc94026c4db3f5365068",
    ("--builtin", "fib"):
        "31d9ef8b7deea698b094dc9e779cdfd1cafdd210fe659f252be72ca4b4bb8e13",
    ("--builtin", "ising", "--triviality", "vacuous"):
        "b82b673b6d5146895da19679ac2204ec1227acc52451b7676a2a296cf109c458",
    ("--builtin", "z3"):
        "4f701bff74f8abcda3db27b857ec8c1297ec5107b9e9049560d236085bcad005",
    ("dataset:gauged",):
        "65f2f3128ecde9276e615c049f0235670e9a1f0a4eba2c5c364fb77daab07e2a",
    ("dataset:all-zero",):
        "476db02ce9ce86637316477e9442c85ccc7aeef96dd82056bb72ab21c77b3379",
    ("dataset:rho-zero",):
        "a6ad53f7c5e530adcafac59a7b574d78e440c032456877df2e8e0d574d0f80ce",
}


def _verify_data_sets(tmp_path):
    """The data set under a rational gauge (orthogonality fails), with every
    entry zero, and with its all-rho block zero (singular blocks)."""
    table = build_h3_table()
    h3 = table.ring
    rng = random.Random(2024)
    gauge = GaugeAssignment(h3)
    for a in range(len(h3)):
        for b in range(len(h3)):
            for c in h3.fusion(a, b):
                gauge.set(a, b, c, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    zero = ParamScalar.from_field(h3.tower.zero())
    r = h3.label("r")
    tables = {
        "gauged": table.apply_gauge(gauge),
        "all-zero": table.map_entries(lambda k, v: zero),
        "rho-zero": table.map_entries(
            lambda k, v: zero if k[:4] == (r, r, r, r) else v)}
    paths = {}
    for name, tab in tables.items():
        paths[name] = tmp_path / f"{name}.fsym"
        paths[name].write_text(tab.serialize())
    return paths


def test_verify_stdout_is_pinned(tmp_path, capsys):
    paths = _verify_data_sets(tmp_path)
    for args, want in VERIFY_SHA256.items():
        argv, failing = list(args), args[0].startswith("dataset:")
        if failing:
            argv = ["--dataset", str(paths[args[0].split(":")[1]])]
        assert cli.main(["verify", *argv]) == (1 if failing else 0), args
        out = capsys.readouterr().out
        kept = [line for line in out.splitlines(keepends=True)
                if not line.startswith("pentagon wall time: ")]
        assert len(kept) == out.count("\n") - 1, args
        assert hashlib.sha256("".join(kept).encode()).hexdigest() == want, args


def test_verify_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-2"):
        assert cli.main(["verify", "--builtin", "z3", "--jobs", jobs]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"


# sha256 of the exported data set and of its renderings; any change to
# ``export`` or ``render`` bytes must show here
EXPORT_SHA256 = "c847890a1dfb060881ecaa30cf34676358d1a5aa68b841e8f93735060264541f"
RENDER_SHA256 = {
    ("+1,+1", "sorted"): "1558a41c2ec46abca70ce2d5823cfd0838d4aa3bae641c59c26e3601b3f4024a",
    ("+1,-1", "sorted"): "b51d05fdd1b4b273657d63f86f0c3dcc4d0485d5644fe635883d7d9bea27d7ea",
    ("-1,+1", "sorted"): "a0d589413307ef6b8a0eca644bc2a1c3f742bb1c08cc9b183acabf9af63141a8",
    ("-1,-1", "sorted"): "6a31c7d9feadd0c0980ebfd7a5c1c701d212ff89fc6fee7d6e208510e3fcac97",
    ("+1,+1", "seeded:7"): "ca3873cce3661647fdcf0ead8514ae5cd32a14de6fb24b88fca65978629739ed",
    ("+1,-1", "seeded:7"): "965f99f3ea34b144cf23700465fb10f6d66da3de360bf33c9d491683044d5734",
    ("-1,+1", "seeded:7"): "83b83ef7185c904a437377354207b0cb15dc19ff663579e4befa087b0f76629c",
    ("-1,-1", "seeded:7"): "11f57faaabafd0b425685ecb40500eb4c3e2cc5b2b36ca150de044ac59625292",
}


def test_export_and_render_bytes_are_pinned(tmp_path, capsys):
    dataset = tmp_path / "h3.fsym"
    assert cli.main(["export", "--builtin", "h3", "--out", str(dataset)]) == 0
    assert hashlib.sha256(dataset.read_bytes()).hexdigest() == EXPORT_SHA256
    out = tmp_path / "map.ppm"
    for (params, order), want in RENDER_SHA256.items():
        assert cli.main(["render", "--dataset", str(dataset), f"--params={params}",
                         "--order", order, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want, (params, order)
    capsys.readouterr()


def test_conflicting_ring_comment_is_an_input_error(tmp_path):
    lines = build_h3_table().serialize().splitlines()
    path = tmp_path / "mixed.fsym"
    path.write_text("\n".join(lines[:10] + ["# ring: fib"] + lines[10:]) + "\n")
    proc = run_cli("verify", "--dataset", str(path))
    assert proc.returncode == 2
    assert "line 11" in proc.stderr and "fibonacci" in proc.stderr


def test_params_value_may_start_with_a_minus(tmp_path, capsys):
    outs = [tmp_path / "joined.ppm", tmp_path / "separate.ppm"]
    spellings = (["--params=-1,+1"], ["--params", "-1,+1"])
    for out, params in zip(outs, spellings):
        assert cli.main(["render", "--builtin", "h3", *params,
                         "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert hashlib.sha256(outs[1].read_bytes()).hexdigest() == \
        RENDER_SHA256["-1,+1", "sorted"]
    capsys.readouterr()
    proc = run_cli("verify", "--builtin", "z3", "--params", "-1,-1")
    assert proc.returncode == 0, proc.stderr
