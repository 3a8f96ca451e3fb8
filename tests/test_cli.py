import csv
import json
import os
import shlex
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import curlmat
from curlmat import cli, evolve, identities
from curlmat.builders import build_curl_cg
from curlmat.cli import main
from curlmat.spectral import GridSpec, TensorField, apply_operator, read_ctf, write_ctf


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh_env(**extra):
    """Environment for a fresh interpreter that imports this checkout's curlmat."""
    src = str(Path(curlmat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, **extra, "PYTHONPATH": path}


def _schema(name):
    with resources.files("curlmat").joinpath(f"schemas/{name}").open() as fh:
        return json.load(fh)


class TestUsage:
    def test_no_args_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2
        assert "usage" in err.lower()

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "build", "--op", "curl", "--wat")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0

    def test_import_loads_no_heavy_modules(self):
        # scipy alone adds ~0.35 s and ~27 MB to every CLI process; sympy is
        # test-only; numpy and the numeric half load only for the commands
        # that use them; and importing starts no thread (step_rk4 starts its own)
        code = ("import sys, threading, curlmat, curlmat.cli; "
                "print(sorted({m.partition('.')[0] for m in sys.modules} & {'scipy', 'sympy'}),"
                " sorted(set(sys.modules) & {'numpy', 'curlmat.spectral', 'curlmat.evolve'}),"
                " threading.active_count())")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_fresh_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[] [] 1"

    @staticmethod
    def _loaded_by(*argv):
        """Run `main(argv)` in a fresh interpreter; return its exit code and
        which of numpy, spectral and evolve it left in sys.modules."""
        code = ("import sys; from curlmat.cli import main; code = main(sys.argv[1:]); "
                "print(code, sorted(set(sys.modules) & "
                "{'numpy', 'curlmat.spectral', 'curlmat.evolve'}))")
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env=_fresh_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        code, _, loaded = proc.stdout.splitlines()[-1].partition(" ")
        return int(code), loaded

    @pytest.mark.parametrize("argv", [
        ("cg", "--l1", "1", "--m1", "0", "--l2", "1", "--m2", "0", "--l", "2", "--m", "0"),
        ("build", "--op", "curl", "--l", "2"),
        ("verify", "--suite", "core", "--max-l", "2"),
        ("ledger",),
    ], ids=lambda argv: argv[0])
    def test_exact_commands_load_no_numpy(self, argv):
        assert self._loaded_by(*argv) == (0, "[]")

    @pytest.mark.parametrize("command", ["gen", "apply", "helmholtz"])
    def test_field_commands_load_no_evolve(self, capsys, tmp_path, command):
        src = tmp_path / "in.ctf"
        if command != "gen":
            code, _, _ = run_cli(capsys, "gen", "--preset", "random-bandlimited",
                                 "--grid", "8", "--seed", "3", "--out", str(src))
            assert code == 0
        argv = {
            "gen": ("gen", "--preset", "random-bandlimited", "--grid", "8",
                    "--out", str(src)),
            "apply": ("apply", "--op", "cartesian-curl", "--in", str(src),
                      "--out", str(tmp_path / "curl.ctf")),
            "helmholtz": ("helmholtz", "--in", str(src),
                          "--out-prefix", str(tmp_path / "h")),
        }[command]
        assert self._loaded_by(*argv) == (0, "['curlmat.spectral', 'numpy']")


class TestBuild:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--op", "curl", "--l", "1")
        assert code == 0
        assert out.count("\n") == 3
        assert "dz" in out

    def test_latex_layout(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--op", "curl", "--l", "1",
                               "--format", "latex")
        assert code == 0
        assert out.startswith("\\begin{pmatrix}")
        assert out.count("\\\\") == 2  # three rows
        assert "\\partial_z" in out
        assert "(\\partial_x - i\\partial_y)" in out

    def test_json_validates_against_schema(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--op", "div", "--l", "2",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, _schema("matrix.schema.json"))
        assert payload["rows"] == 3 and payload["cols"] == 5

    def test_cartesian_curl(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--op", "cartesian-curl")
        assert code == 0
        assert "dx" in out and "dy" in out

    @pytest.mark.parametrize("l", ["-4", "0", "2"])
    def test_cartesian_curl_rejects_other_ranks(self, capsys, l):
        # the cartesian curl is the rank-1 curl; it used to ignore --l
        code, out, err = run_cli(capsys, "build", "--op", "cartesian-curl", "--l", l)
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == (
            f"error: cartesian-curl is the rank-1 curl and needs l = 1, got {l}")

    def test_invalid_rank(self, capsys):
        code, _, err = run_cli(capsys, "build", "--op", "div", "--l", "0")
        assert code == 1
        assert "error" in err


class TestCg:
    def test_known_value(self, capsys):
        code, out, _ = run_cli(capsys, "cg", "--l1", "1", "--m1", "0",
                               "--l2", "1", "--m2", "0", "--l", "2", "--m", "0")
        assert code == 0
        assert "exact: (1/3)*sqrt(6)" in out
        assert "0.816496" in out

    def test_large_labels(self, capsys):
        # the exact value's radicand is past the float range
        code, out, err = run_cli(capsys, "cg", "--l1", "300", "--m1", "0", "--l2", "300",
                                 "--m2", "0", "--l", "600", "--m", "0")
        assert (code, err) == (0, "")
        last = out.splitlines()[-1]
        assert last.startswith("float: ")
        assert float(last.split()[1]) == pytest.approx(0.21456258860546004, rel=1e-15)

    def test_invalid_labels(self, capsys):
        code, _, err = run_cli(capsys, "cg", "--l1", "1", "--m1", "2",
                               "--l2", "1", "--m2", "0", "--l", "2", "--m", "2")
        assert code == 1


class TestVerify:
    @pytest.mark.parametrize("suite", ["core", "hermitian", "complex"])
    def test_max_l_above_max_spin(self, capsys, suite):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-l", "9")
        assert code == 1
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("value", ["abc", "2.5", "0", "-3"])
    def test_bad_degree_cap(self, value):
        # curlmat reads no environment variable: a stale CURLMAT_DEGREE_CAP,
        # even one that is not a number, changes nothing
        env = _fresh_env(CURLMAT_DEGREE_CAP=value)
        proc = subprocess.run(
            [sys.executable, "-c", "from curlmat.cli import entry; entry()",
             "verify", "--suite", "powers", "--max-n", "8"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.endswith("total: 6 checks, all_pass=True\n")

    @pytest.mark.parametrize("suite", ["powers", "exp"])
    def test_order_past_old_degree_cap(self, capsys, suite):
        # powers at n = 8 reach degree 17, the exponential series degree 18
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-n", "8",
                                 "--report", "json")
        assert (code, err) == (0, "")
        reports = json.loads(out)["reports"]
        assert reports and all(r["status"] == "exact-pass" for r in reports)

    @pytest.mark.parametrize("suite", ["powers", "exp", "all"])
    def test_max_n_past_max_order(self, capsys, suite):
        code, out, err = run_cli(capsys, "verify", "--suite", suite,
                                 "--max-n", str(identities.MAX_ORDER + 1))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"n <= {identities.MAX_ORDER}" in err

    def test_json_report_validates(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "core",
                               "--max-l", "2", "--report", "json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, _schema("verify_report.schema.json"))
        assert payload["all_pass"] is True

    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "hermitian",
                               "--max-l", "2")
        assert code == 0
        assert "exact-pass" in out
        assert "all_pass=True" in out

    def test_all_suites(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all",
                               "--max-l", "2", "--max-n", "2")
        assert code == 0

    def test_no_seed(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "exp", "--seed", "1")
        assert code == 2
        code, out, _ = run_cli(capsys, "verify", "--suite", "exp", "--report", "json")
        assert code == 0
        payload = json.loads(out)
        assert "seed" not in payload
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**payload, "seed": None}, _schema("verify_report.schema.json"))

    @pytest.mark.parametrize("suite", ["powers", "exp"])
    def test_negative_max_n(self, capsys, suite):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-n", "-1")
        assert code == 1
        assert err.startswith("error:")
        assert out == ""


class TestLedger:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "ledger")
        assert code == 0
        assert "clebsch-gordan" in out
        assert "div2-reference-conjugation" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "ledger", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["coupling"] == "clebsch-gordan"
        assert any(e["id"] == "transform-matrix-singular" for e in payload["errata"])


class TestFieldPipeline:
    def test_gen_apply_helmholtz(self, capsys, tmp_path):
        src = tmp_path / "in.ctf"
        out = tmp_path / "curl.ctf"
        code, _, _ = run_cli(capsys, "gen", "--preset", "random-bandlimited",
                             "--basis", "cartesian", "--grid", "8",
                             "--seed", "5", "--out", str(src))
        assert code == 0
        code, _, _ = run_cli(capsys, "apply", "--op", "cartesian-curl",
                             "--in", str(src), "--out", str(out))
        assert code == 0
        curl_field = read_ctf(out)
        assert curl_field.basis == "cartesian"
        code, printed, _ = run_cli(capsys, "helmholtz", "--in", str(out),
                                   "--out-prefix", str(tmp_path / "h"))
        assert code == 0
        assert (tmp_path / "h_perp.ctf").exists()
        assert (tmp_path / "h_par.ctf").exists()
        # a pure curl splits fully into the transverse part
        par = read_ctf(tmp_path / "h_par.ctf")
        assert par.norm() <= 1e-10 * curl_field.norm()

    def test_helmholtz_prints_the_reconstruction_residual(self, capsys, tmp_path):
        # f - (perp + par), which is roundoff but not 0 here; f - perp - par
        # would print exactly 0, since par is f - perp
        src = tmp_path / "in.ctf"
        code, _, _ = run_cli(capsys, "gen", "--preset", "random-bandlimited",
                             "--grid", "16", "--seed", "2", "--out", str(src))
        assert code == 0
        code, printed, _ = run_cli(capsys, "helmholtz", "--in", str(src),
                                   "--out-prefix", str(tmp_path / "h"))
        assert code == 0
        f, perp, par = (read_ctf(path) for path in
                        (src, tmp_path / "h_perp.ctf", tmp_path / "h_par.ctf"))
        want = (f - (perp + par)).norm() / f.norm()
        assert want > 0
        lines = dict(line.split(": ") for line in printed.splitlines())
        assert lines["reconstruction residual"] == f"{want:.3e}"

    @pytest.mark.parametrize("l", ["0", "2"])
    def test_apply_cartesian_curl_rejects_other_ranks(self, capsys, tmp_path, l):
        # the operator takes the field's rank, so a field of another rank
        # is what the rank-1 curl rejects
        src, out = tmp_path / "in.ctf", tmp_path / "curl.ctf"
        code, _, _ = run_cli(capsys, "gen", "--preset", "random-bandlimited", "--l", l,
                             "--grid", "8", "--out", str(src))
        assert code == 0
        code, _, err = run_cli(capsys, "apply", "--op", "cartesian-curl",
                               "--in", str(src), "--out", str(out))
        assert code == 1
        assert err.splitlines()[-1] == (
            f"error: cartesian-curl is the rank-1 curl and needs l = 1, got {l}")
        assert not out.exists()
        code, _, _ = run_cli(capsys, "gen", "--preset", "random-bandlimited",
                             "--grid", "8", "--out", str(src))
        assert code == 0
        code, _, _ = run_cli(capsys, "apply", "--op", "cartesian-curl",
                             "--in", str(src), "--out", str(out))
        assert code == 0 and out.exists()

    def test_apply_has_no_rank_flag(self, capsys, tmp_path):
        src = tmp_path / "in.ctf"
        assert run_cli(capsys, "gen", "--preset", "random-bandlimited", "--grid", "8",
                       "--out", str(src))[0] == 0
        code, _, err = run_cli(capsys, "apply", "--op", "curl", "--l", "120",
                               "--in", str(src), "--out", str(tmp_path / "out.ctf"))
        assert code == 2 and "unrecognized arguments: --l 120" in err

    def test_apply_curl_to_a_rank2_field_is_the_rank2_curl(self, capsys, tmp_path):
        src, out = tmp_path / "in.ctf", tmp_path / "curl.ctf"
        code, _, _ = run_cli(capsys, "gen", "--preset", "random-bandlimited", "--l", "2",
                             "--basis", "spherical", "--grid", "8", "--seed", "4",
                             "--out", str(src))
        assert code == 0
        code, _, _ = run_cli(capsys, "apply", "--op", "curl", "--in", str(src),
                             "--out", str(out))
        assert code == 0
        f, got = read_ctf(src), read_ctf(out)
        want = apply_operator(build_curl_cg(2), f)
        assert (got.l, got.basis) == (2, "spherical")
        assert np.array_equal(got.data, want.data)
        assert got.norm() > 0.1 * f.norm()

    def test_gen_planewave_spherical(self, capsys, tmp_path):
        path = tmp_path / "pw.ctf"
        code, _, _ = run_cli(capsys, "gen", "--preset", "planewave",
                             "--basis", "spherical", "--l", "2", "--m", "2",
                             "--jx", "0", "--jy", "1", "--jz", "1",
                             "--grid", "8", "--out", str(path))
        assert code == 0
        f = read_ctf(path)
        assert f.l == 2 and f.ncomp == 5

    def test_gen_planewave_cartesian_rank2(self, capsys, tmp_path):
        path = tmp_path / "pw.ctf"
        code, _, _ = run_cli(capsys, "gen", "--preset", "planewave",
                             "--basis", "cartesian", "--l", "2", "--m", "1",
                             "--jx", "0", "--jy", "1", "--jz", "1",
                             "--grid", "8", "--out", str(path))
        assert code == 0
        f = read_ctf(path)
        assert f.l == 2 and f.basis == "cartesian" and f.ncomp == 5

    @pytest.mark.parametrize("basis", ["spherical", "cartesian"])
    @pytest.mark.parametrize("l", ["0", "9"])
    def test_gen_planewave_rejects_rank_without_a_frame(self, capsys, tmp_path, l, basis):
        # the helicity frame, exact d^l(pi/2), is built for 1 <= l <= 8 only
        path = tmp_path / "pw.ctf"
        code, out, err = run_cli(capsys, "gen", "--preset", "planewave", "--basis", basis,
                                 "--l", l, "--m", "0", "--grid", "8", "--out", str(path))
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: spin must satisfy 1 <= l <= 8, got {l}"]
        assert not path.exists()

    def test_gen_rejects_spherical_rank_past_max_spin(self, capsys, tmp_path):
        path = tmp_path / "f.ctf"
        code, out, err = run_cli(capsys, "gen", "--preset", "random-bandlimited",
                                 "--basis", "spherical", "--l", "9", "--grid", "8",
                                 "--out", str(path))
        assert code == 1 and out == ""
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == ["error: spherical rank l must be at most 8, got 9"]
        assert err.splitlines()[-1] == errors[0]
        assert not path.exists()

    @pytest.mark.parametrize("basis", ["spherical", "cartesian"])
    def test_gen_rejects_negative_rank(self, capsys, tmp_path, basis):
        path = tmp_path / "f.ctf"
        code, out, err = run_cli(capsys, "gen", "--preset", "random-bandlimited",
                                 "--basis", basis, "--l", "-1", "--grid", "8",
                                 "--out", str(path))
        assert code == 1 and out == ""
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == ["error: rank l must be a non-negative integer, got -1"]
        assert err.splitlines()[-1] == errors[0]
        assert not path.exists()

    def test_gen_example1(self, capsys, tmp_path):
        path = tmp_path / "f.ctf"
        code, _, _ = run_cli(capsys, "gen", "--preset", "example1", "--grid", "8",
                             "--out", str(path))
        f = read_ctf(path)
        assert code == 0 and (f.l, f.basis, f.grid.n) == (1, "cartesian", (8, 8, 8))

    @pytest.mark.parametrize("flags", [("--l", "2"), ("--l", "0"), ("--basis", "spherical"),
                                       ("--l", "2", "--basis", "spherical")])
    def test_gen_example1_rejects_a_rank_or_basis_it_is_not(self, capsys, tmp_path, flags):
        # example1 is the rank-1 cartesian pair u + i v; it used to write
        # that field whatever --l and --basis asked for
        path = tmp_path / "f.ctf"
        code, out, err = run_cli(capsys, "gen", "--preset", "example1", "--grid", "8",
                                 *flags, "--out", str(path))
        args = dict(zip(("--l", "--basis"), ("1", "cartesian"))) | dict(zip(flags[::2],
                                                                          flags[1::2]))
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: example1 is a rank-1 cartesian field; got "
                                    f"--l {args['--l']} --basis {args['--basis']}"]
        assert not path.exists()

    def test_gen_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.ctf", tmp_path / "b.ctf"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "gen", "--preset", "random-bandlimited",
                                 "--grid", "8", "--seed", "11", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("kcut", ("nan", "-1"))
    def test_gen_rejects_bad_kcut(self, capsys, tmp_path, kcut):
        path = tmp_path / "f.ctf"
        code, _, err = run_cli(capsys, "gen", "--preset", "random-bandlimited",
                               "--grid", "8", f"--kcut={kcut}", "--out", str(path))
        assert code == 1
        assert err.splitlines()[-1].startswith("error:")
        assert not path.exists()

    @pytest.mark.parametrize("preset", ("random-bandlimited", "planewave", "example1"))
    def test_gen_rejects_bad_kcut_for_every_preset(self, capsys, tmp_path, preset):
        # as --seed is, though only random-bandlimited reads it
        path = tmp_path / "f.ctf"
        code, out, err = run_cli(capsys, "gen", "--preset", preset, "--grid", "8",
                                 "--kcut=-1", "--out", str(path))
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: --kcut must be a non-negative number, got -1.0"]
        assert not path.exists()

    def test_gen_rejects_negative_seed(self, capsys, tmp_path):
        path = tmp_path / "f.ctf"
        code, out, err = run_cli(capsys, "gen", "--preset", "random-bandlimited",
                                 "--grid", "8", "--seed", "-1", "--out", str(path))
        assert code == 1
        assert err.startswith("error:") and "--seed" in err
        assert len(err.splitlines()) == 1 and out == ""
        assert not path.exists()

    @pytest.mark.parametrize("amplitude", ("inf", "nan"))
    def test_gen_rejects_non_finite_amplitude(self, capsys, tmp_path, amplitude):
        path = tmp_path / "f.ctf"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any numpy work
            code, _, err = run_cli(capsys, "gen", "--preset", "planewave", "--grid", "8",
                                   "--amplitude", amplitude, "--out", str(path))
        assert code == 1
        assert err.startswith("error:") and "amplitude" in err
        assert not path.exists()

    @pytest.mark.parametrize("jx", ["8", "-8", "19"])
    def test_gen_rejects_unresolved_mode(self, capsys, tmp_path, jx):
        # on 16 points 8 is the zeroed Nyquist index and 19 aliases to 3
        path = tmp_path / "f.ctf"
        code, out, err = run_cli(capsys, "gen", "--preset", "planewave", "--grid", "16",
                                 "--jx", jx, "--out", str(path))
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: mode index ({jx}, 0, 0) is not resolved on a "
                                    f"(16, 16, 16) grid: each |j| must be below n/2"]
        assert not path.exists()

    @pytest.mark.parametrize("box", ["1e-320", "1e-160", "1e200"])
    def test_gen_rejects_box_the_grid_cannot_use(self, capsys, tmp_path, box):
        path = tmp_path / "f.ctf"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any numpy work
            code, out, err = run_cli(capsys, "gen", "--preset", "planewave", "--grid", "16",
                                     "--box", box, "--out", str(path))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: box lengths ({float(box)}, ")
        assert not path.exists()

    def test_gen_out_of_memory_is_an_error_line(self, capsys, tmp_path):
        # the first allocation, about 24 PB, is refused at once
        path = tmp_path / "f.ctf"
        code, _, err = run_cli(capsys, "gen", "--preset", "random-bandlimited",
                               "--grid", "100000", "--out", str(path))
        assert code == 1
        assert err.splitlines()[-1].startswith("error:") and "Traceback" not in err
        assert not path.exists()

    @pytest.mark.parametrize("command", [["apply", "--op", "cartesian-curl", "--out", "o.ctf"],
                                         ["helmholtz", "--out-prefix", "h"]],
                             ids=["apply", "helmholtz"])
    def test_overflow_in_split_fft_is_one_error_line(self, tmp_path, command):
        # 32^3 x 3 samples reach FFT_SPLIT_SAMPLES, so the forward FFT runs
        # one batch on a second thread; a fresh interpreter shows what numpy
        # prints from either thread
        grid = GridSpec((32,) * 3, (2 * np.pi,) * 3)
        write_ctf(TensorField(1, "cartesian", grid, np.full((3, 32, 32, 32), 1e305 + 0j)),
                  tmp_path / "big.ctf")
        code = ("import sys; from curlmat import cli, spectral; "
                "spectral._cpu_count = lambda: 2; sys.exit(cli.main(sys.argv[1:]))")
        proc = subprocess.run([sys.executable, "-c", code, *command, "--in", "big.ctf"],
                              capture_output=True, text=True, env=_fresh_env(),
                              cwd=tmp_path, timeout=60)
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: overflow")
        assert proc.stdout == "" and [p.name for p in tmp_path.iterdir()] == ["big.ctf"]

    def test_apply_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "apply", "--op", "curl",
                               "--in", str(tmp_path / "nope.ctf"),
                               "--out", str(tmp_path / "out.ctf"))
        assert code == 1


@pytest.mark.parametrize("cut", [0, -16, 16], ids=["whole", "short", "long"])
def test_apply_reads_a_pipe(tmp_path, cut):
    # a pipe has no size to check before reading: the payload is read into
    # the field and then must have been neither short nor long
    src, out = tmp_path / "in.ctf", tmp_path / "curl.ctf"
    assert main(["gen", "--preset", "random-bandlimited", "--grid", "8", "--seed", "3",
                 "--out", str(src)]) == 0
    data = src.read_bytes()
    data = data[:cut] if cut < 0 else data + data[-cut:] if cut else data
    proc = subprocess.run([sys.executable, "-c", "from curlmat.cli import entry; entry()",
                           "apply", "--op", "cartesian-curl", "--in", "/dev/stdin",
                           "--out", str(out)],
                          input=data, capture_output=True, env=_fresh_env(), timeout=60)
    if cut:
        assert proc.returncode == 1 and not out.exists()
        assert proc.stderr.decode().splitlines() == [
            f"error: payload does not hold the {3 * 8 ** 3 * 16} bytes expected"]
    else:
        assert proc.returncode == 0, proc.stderr
        assert main(["apply", "--op", "cartesian-curl", "--in", str(src),
                     "--out", str(tmp_path / "want.ctf")]) == 0
        assert out.read_bytes() == (tmp_path / "want.ctf").read_bytes()


class TestBadInputFiles:
    @pytest.mark.parametrize("header,payload", (
        (b"[1, 2]", b""),
        (b'{"magic": "CTF1", "l": -5, "basis": "spherical", "grid": [8, 8, 8],'
         b' "box": [1, 1, 1], "dtype": "c128", "order": "component,z,y,x"}', b""),
        # the payload is the right size for a 4^3 rank-1 field
        (b'{"magic": "CTF1", "l": 1, "basis": "spherical", "grid": [4.5, 4, 4],'
         b' "box": [1, 1, 1], "dtype": "c128", "order": "component,z,y,x"}',
         bytes(3 * 4 ** 3 * 16)),
        (b'{"magic": "CTF1", "l": 1, "basis": "spherical", "grid": [4, 4, 4],'
         b' "box": ["1", true, 2.5], "dtype": "c128", "order": "component,z,y,x"}',
         bytes(3 * 4 ** 3 * 16)),
        # a grid that implies about 3 TB, over a 4^3 payload
        (b'{"magic": "CTF1", "l": 1, "basis": "spherical", "grid": [4096, 4096, 4096],'
         b' "box": [1, 1, 1], "dtype": "c128", "order": "component,z,y,x"}',
         bytes(3 * 4 ** 3 * 16)),
        # 33 KB, the right size for the rank it declares, past MAX_SPIN
        (b'{"magic": "CTF1", "l": 128, "basis": "spherical", "grid": [2, 2, 2],'
         b' "box": [1, 1, 1], "dtype": "c128", "order": "component,z,y,x"}',
         bytes(257 * 2 ** 3 * 16)),
    ), ids=("not-an-object", "negative-l", "non-integral-grid", "non-real-box",
            "grid-beyond-the-file", "spherical-rank-past-max-spin"))
    def test_apply_reports_error(self, capsys, tmp_path, monkeypatch, header, payload):
        built = []  # a bad file is refused before an operator of its rank is built
        monkeypatch.setitem(cli._OPS, "curl", built.append)
        src = tmp_path / "bad.ctf"
        src.write_bytes(header + b"\n" + payload)
        code, out, err = run_cli(capsys, "apply", "--op", "curl", "--in", str(src),
                                 "--out", str(tmp_path / "out.ctf"))
        assert code == 1 and built == []
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1 and out == ""
        assert not (tmp_path / "out.ctf").exists()


class TestEvolveCommand:
    def test_csv_log_and_dumps(self, capsys, tmp_path):
        log = tmp_path / "run.csv"
        prefix = tmp_path / "run"
        code, out, _ = run_cli(
            capsys, "evolve", "--l", "1", "--grid", "8", "--steps", "20",
            "--dt", "0.05", "--init", "planewave:1,1,0,0",
            "--log", str(log), "--dump-every", "10",
            "--out-prefix", str(prefix))
        assert code == 0
        assert "energy drift" in out
        with open(log) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "energy", "divE_residual", "divB_residual",
                           "band_m-1", "band_m0", "band_m1"]
        assert len(rows) == 22  # header + initial state + 20 steps
        energies = [float(r[1]) for r in rows[1:]]
        assert max(energies) - min(energies) <= 1e-10 * energies[0]
        assert (tmp_path / "run_te_000010.ctf").exists()
        assert (tmp_path / "run_te_final.ctf").exists()

    def test_rk4_csv_log_and_dumps(self, capsys, tmp_path, monkeypatch):
        runs, run_rk4 = [], evolve.run_rk4

        def spy(*args, **kwargs):
            runs.append(args[2])
            return run_rk4(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("--stepper rk4 ran the spectral driver")
        monkeypatch.setattr(evolve, "run_rk4", spy)
        monkeypatch.setattr(evolve, "run_spectral", forbidden)
        log = tmp_path / "run.csv"
        code, out, _ = run_cli(
            capsys, "evolve", "--l", "1", "--grid", "8", "--steps", "20",
            "--dt", "0.05", "--stepper", "rk4", "--init", "planewave:1,1,0,0",
            "--log", str(log), "--dump-every", "10", "--out-prefix", str(tmp_path / "run"))
        assert code == 0 and runs == [20]
        assert "energy drift" in out
        with open(log) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "energy", "divE_residual", "divB_residual",
                           "band_m-1", "band_m0", "band_m1"]
        assert len(rows) == 22  # header + initial state + 20 steps
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run.csv", "run_tb_000010.ctf", "run_tb_000020.ctf", "run_tb_final.ctf",
            "run_te_000010.ctf", "run_te_000020.ctf", "run_te_final.ctf"]

    def test_rk4_stepper(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "evolve", "--l", "1", "--grid", "8", "--steps", "5",
            "--dt", "0.01", "--stepper", "rk4", "--init", "random",
            "--seed", "2", "--out-prefix", str(tmp_path / "r"))
        assert code == 0

    @pytest.mark.parametrize("stepper", ("spectral", "rk4"))
    def test_drift_line_independent_of_log(self, capsys, tmp_path, stepper):
        argv = ("evolve", "--l", "1", "--grid", "8", "--steps", "6", "--dt", "0.01",
                "--stepper", stepper, "--init", "random", "--seed", "4",
                "--out-prefix", str(tmp_path / "r"))
        code, plain, _ = run_cli(capsys, *argv)
        assert code == 0
        code, logged, _ = run_cli(capsys, *argv, "--log", str(tmp_path / "r.csv"))
        assert code == 0
        assert "energy drift" in plain
        assert plain == logged

    @pytest.mark.parametrize("flag,value", [
        ("--steps", "-3"), ("--dump-every", "-1"), ("--dump-every", "0"),
        ("--dt", "inf"), ("--dt", "nan"), ("--dt", "1e308"), ("--c", "nan"), ("--c", "inf"),
        ("--c", "0"), ("--c", "-1"), ("--seed", "-1"),
    ])
    def test_rejects_bad_flag_before_running(self, capsys, tmp_path, flag, value):
        code, out, err = run_cli(
            capsys, "evolve", "--grid", "8", "--steps", "3",
            "--out-prefix", str(tmp_path / "r"), flag, value)
        assert code == 1
        assert err.startswith("error:") and flag in err
        assert "Warning" not in err and out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("stepper", ("spectral", "rk4"))
    def test_rejects_a_run_whose_end_time_overflows(self, capsys, tmp_path, stepper):
        # c*dt*kmax = 1e-308 * 1e308 * 3*sqrt(3) is finite and stable, but
        # two steps of 1e308 would end at t = inf
        log = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "evolve", "--grid", "8", "--steps", "2", "--dt", "1e308",
                "--c", "1e-308", "--stepper", stepper, "--log", str(log),
                "--out-prefix", str(tmp_path / "r"))
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: --dt must keep the end time t + steps*dt finite; "
                                    "got dt=1e+308, t=0.0, steps=2"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("stepper", ("spectral", "rk4"))
    @pytest.mark.parametrize("extra", (["--box", "1e-320"], ["--box", "1e200"],
                                       ["--init", "planewave:1,99,0,0"],
                                       ["--init", "planewave:1,0,-4,0"]))
    def test_rejects_grid_or_mode_it_cannot_use(self, capsys, tmp_path, stepper, extra):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way
            code, out, err = run_cli(
                capsys, "evolve", "--grid", "8", "--steps", "3", "--stepper", stepper,
                "--out-prefix", str(tmp_path / "r"), *extra)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        what = "box lengths" if extra[0] == "--box" else "mode index"
        assert err.startswith(f"error: {what} ") and "dt" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("dt", ("1e100", "1.0", "-1.0"))
    def test_rk4_rejects_unstable_dt_before_running(self, tmp_path, dt):
        # c*dt*kmax is finite but past RK4_STABILITY_BOUND: every step would
        # only grow the field.  A fresh interpreter shows what numpy prints.
        proc = subprocess.run(
            [sys.executable, "-m", "curlmat.cli", "evolve", "--grid", "8", "--steps", "3",
             "--stepper", "rk4", "--dt", dt, "--out-prefix", str(tmp_path / "r")],
            capture_output=True, text=True, env=_fresh_env(), timeout=60)
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: --dt")
        assert "RuntimeWarning" not in proc.stderr and "overflow" not in proc.stderr
        assert proc.stdout == "" and not list(tmp_path.iterdir())

    @pytest.mark.parametrize("stepper", ("spectral", "rk4"))
    @pytest.mark.parametrize("flag", ("--log", "--out-prefix"))
    def test_rejects_missing_output_directory_before_running(self, capsys, tmp_path,
                                                              monkeypatch, stepper, flag):
        def forbidden(*args, **kwargs):
            raise AssertionError("the march started")
        for name in ("plane_wave_state", "random_state", "run_spectral", "run_rk4"):
            monkeypatch.setattr(evolve, name, forbidden)
        missing = tmp_path / "missing"
        paths = {"--log": str(tmp_path / "run.csv"), "--out-prefix": str(tmp_path / "run"),
                 flag: str(missing / "x")}
        code, out, err = run_cli(
            capsys, "evolve", "--grid", "8", "--steps", "3", "--stepper", stepper,
            *(arg for item in paths.items() for arg in item))
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {flag} {missing / 'x'}: no directory {missing}"]
        assert not list(tmp_path.iterdir())

    def test_bad_init_string(self, capsys, tmp_path):
        # argparse's usage error: the usage line, then its message naming
        # --init, and nothing is run or written
        for init in ("planewave:oops", "foo"):
            code, out, err = run_cli(
                capsys, "evolve", "--init", init, "--out-prefix", str(tmp_path / "x"))
            assert code == 2 and out == ""
            lines = err.splitlines()
            assert lines[0].startswith("usage: curlmat evolve")
            assert lines[-1] == ("curlmat evolve: error: argument --init: expected "
                                 f"planewave:m,jx,jy,jz with integers, or random; got {init!r}")
            assert not list(tmp_path.iterdir())


def readme_cli_commands() -> list[list[str]]:
    """The ``curlmat`` command lines of the README's CLI block, in order, as
    argument lists (continuation lines joined, comments dropped)."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("curlmat ")]


class TestReadme:
    def test_cli_block_runs(self, capsys, tmp_path, monkeypatch):
        # chained as written: later commands read the files earlier ones write
        monkeypatch.chdir(tmp_path)
        commands = readme_cli_commands()
        assert {"build", "cg", "verify", "ledger", "gen", "apply", "helmholtz",
                "evolve"} <= {argv[0] for argv in commands}
        for argv in commands:
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, (argv, err)
        assert {"f.ctf", "curl_f.ctf", "h_perp.ctf", "h_par.ctf", "run.csv"} <= {
            p.name for p in tmp_path.iterdir()}
