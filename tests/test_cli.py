import csv
import json
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import curlmat
from curlmat import evolve
from curlmat.cli import main
from curlmat.spectral import read_ctf


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
        # test-only; and importing starts no thread (step_rk4 starts its own)
        code = ("import sys, threading, curlmat, curlmat.cli; "
                "print(sorted({m.partition('.')[0] for m in sys.modules} & {'scipy', 'sympy'}),"
                " threading.active_count())")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_fresh_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[] 1"


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
        # a fresh interpreter, so that importing curlmat under the bad value is covered
        env = _fresh_env(CURLMAT_DEGREE_CAP=value)
        proc = subprocess.run(
            [sys.executable, "-c", "from curlmat.cli import entry; entry()",
             "verify", "--suite", "core", "--max-l", "2"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: CURLMAT_DEGREE_CAP must be a positive integer")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

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

    @pytest.mark.parametrize("l", ["-4", "0", "2"])
    def test_apply_cartesian_curl_rejects_other_ranks(self, capsys, tmp_path, l):
        src, out = tmp_path / "in.ctf", tmp_path / "curl.ctf"
        code, _, _ = run_cli(capsys, "gen", "--preset", "random-bandlimited",
                             "--grid", "8", "--out", str(src))
        assert code == 0
        code, _, err = run_cli(capsys, "apply", "--op", "cartesian-curl", "--l", l,
                               "--in", str(src), "--out", str(out))
        assert code == 1
        assert err.splitlines()[-1] == (
            f"error: cartesian-curl is the rank-1 curl and needs l = 1, got {l}")
        assert not out.exists()
        code, _, _ = run_cli(capsys, "apply", "--op", "cartesian-curl", "--l", "1",
                             "--in", str(src), "--out", str(out))
        assert code == 0 and out.exists()

    def test_gen_planewave_spherical(self, capsys, tmp_path):
        path = tmp_path / "pw.ctf"
        code, _, _ = run_cli(capsys, "gen", "--preset", "planewave",
                             "--basis", "spherical", "--l", "2", "--m", "2",
                             "--jx", "0", "--jy", "1", "--jz", "1",
                             "--grid", "8", "--out", str(path))
        assert code == 0
        f = read_ctf(path)
        assert f.l == 2 and f.ncomp == 5

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

    def test_gen_out_of_memory_is_an_error_line(self, capsys, tmp_path):
        # the first allocation, about 24 PB, is refused at once
        path = tmp_path / "f.ctf"
        code, _, err = run_cli(capsys, "gen", "--preset", "random-bandlimited",
                               "--grid", "100000", "--out", str(path))
        assert code == 1
        assert err.splitlines()[-1].startswith("error:") and "Traceback" not in err
        assert not path.exists()

    def test_apply_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "apply", "--op", "curl",
                               "--in", str(tmp_path / "nope.ctf"),
                               "--out", str(tmp_path / "out.ctf"))
        assert code == 1


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
    ), ids=("not-an-object", "negative-l", "non-integral-grid", "non-real-box"))
    def test_apply_reports_error(self, capsys, tmp_path, header, payload):
        src = tmp_path / "bad.ctf"
        src.write_bytes(header + b"\n" + payload)
        code, _, err = run_cli(capsys, "apply", "--op", "curl", "--in", str(src),
                               "--out", str(tmp_path / "out.ctf"))
        assert code == 1
        assert err.startswith("error:")


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

    def test_bad_init_string(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "evolve", "--init", "planewave:oops",
            "--out-prefix", str(tmp_path / "x"))
        assert code == 2
