"""End-to-end command-line behaviour, including the exit-code contract."""

import hashlib
import subprocess
import sys

from fusioncat import cli
from fusioncat.fsymbols import build_h3_table

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


def test_skein_report():
    proc = run_cli("skein")
    assert proc.returncode == 0
    assert "c1=(7/18+1/18*r13)" in proc.stdout
    assert "match=yes" in proc.stdout


def test_skein_precision_env():
    proc = run_cli("skein", env={"FUSIONCAT_PRECISION_BITS": "64"})
    assert proc.returncode == 0
    proc = run_cli("skein", env={"FUSIONCAT_PRECISION_BITS": "bogus"})
    assert proc.returncode == 2


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
