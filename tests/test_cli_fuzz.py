"""`evolve`, `gen`, `apply` and `helmholtz` flags and input fields drawn by
hypothesis: every run ends in exit 0 with no `error:` line, or in exit 1
with exactly one, and never in a traceback or a numpy warning.  The commands
run in this process, so a warning is caught as one rather than read from
stderr; the grids are at most 8 points an axis and a run at most 2 steps, so
no case starts more than a few milliseconds of work.  The module skips
without hypothesis, which is test-only."""

import contextlib
import io
import math
import shutil
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, event, example, given, settings, strategies as st

from curlmat.cli import _OPS, main
from curlmat.spectral import read_ctf

# floats at the ends of the range, and around the ones a grid can use
EXTREMES = [math.tau, 1.0, 0.02, -0.02, 0.0, -0.0, 5e-324, 2.2e-308, 1e-300, 1e-160,
            1e-110, 1e-100, 1e100, 1e110, 1e300, 1.7976931348623157e308, -1e300,
            math.inf, -math.inf, math.nan]


def mostly(valid, hostile, odds=3):
    """`odds` draws from ``valid`` to one from ``hostile``, so that many runs
    pass every check and go on to the work."""
    return st.sampled_from((valid,) * odds + (hostile,)).flatmap(lambda s: s)


def flag_float(valid):
    return mostly(valid, st.sampled_from(EXTREMES) | st.floats(), odds=7)


grids = mostly(st.sampled_from([8, 6, 4]), st.sampled_from([2, 0, -4, 7]), odds=7)
mode_indices = mostly(st.integers(-2, 2), st.sampled_from([-99, -8, -4, 3, 4, 8, 19, 99]),
                      odds=7)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


def run(work, argv) -> tuple[int, str]:
    """`main(argv)` in an empty `work` directory: its exit code and stderr,
    after checking that it raised nothing and warned nothing."""
    shutil.rmtree(work)
    work.mkdir()
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([str(v) for v in argv])
    assert [str(w.message) for w in caught] == []
    return code, err.getvalue()


def assert_clean_end(code: int, err: str) -> None:
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert (code, len(errors)) in ((0, 0), (1, 1)), err
    event(f"exit {code}")
    assert "Traceback" not in err and "Warning" not in err


def assert_written(out, code: int, l: int, basis: str, grid: int) -> None:
    """A field file exactly when the run succeeded, of the rank, basis and
    grid asked for."""
    assert out.exists() == (code == 0)
    if code == 0:
        f = read_ctf(out)
        assert (f.l, f.basis, f.grid.n) == (l, basis, (grid,) * 3)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(stepper=st.sampled_from(["rk4", "spectral"]), l=st.sampled_from([1, 2]),
       grid=grids, steps=st.integers(0, 2),
       box=flag_float(st.just(math.tau)), dt=flag_float(st.floats(-0.1, 0.1)),
       c=flag_float(st.floats(0.1, 3.0)),
       init=st.tuples(st.integers(-2, 2), mode_indices, mode_indices, mode_indices)
       | st.just("random"),
       log=st.booleans(), dump_every=st.sampled_from([None, 1]))
@example(stepper="rk4", l=1, grid=8, steps=1, box=1e-320, dt=0.02, c=1.0, init="random",
         log=False, dump_every=None)
@example(stepper="spectral", l=1, grid=8, steps=1, box=math.tau, dt=0.02, c=1.0,
         init=(1, 99, 0, 0), log=False, dump_every=None)
@example(stepper="spectral", l=1, grid=8, steps=2, box=math.tau, dt=1e308, c=1e-308,
         init=(1, 1, 0, 0), log=True, dump_every=None)
def test_evolve_flags(work, stepper, l, grid, steps, box, dt, c, init, log, dump_every):
    argv = ["evolve", "--stepper", stepper, "--l", l, "--grid", grid, "--steps", steps,
            f"--box={box}", f"--dt={dt}", f"--c={c}", "--out-prefix", work / "run",
            "--init", "random" if init == "random" else "planewave:" + ",".join(map(str, init))]
    if log:
        argv += ["--log", work / "run.csv"]
    if dump_every is not None:
        argv += ["--dump-every", dump_every]
    code, err = run(work, argv)
    assert_clean_end(code, err)
    if code == 0:
        assert (work / "run_te_final.ctf").exists() and (work / "run_tb_final.ctf").exists()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(l=mostly(st.integers(1, 2), st.integers(-1, 3)), m=st.integers(-2, 2),
       basis=st.sampled_from(["spherical", "cartesian"]),
       jvec=st.tuples(mode_indices, mode_indices, mode_indices), grid=grids,
       box=flag_float(st.just(math.tau)), amplitude=flag_float(st.floats(-2.0, 2.0)))
@example(l=1, m=1, basis="cartesian", jvec=(8, 0, 0), grid=16, box=math.tau, amplitude=1.0)
@example(l=0, m=0, basis="spherical", jvec=(1, 2, 0), grid=8, box=math.tau, amplitude=1.0)
@example(l=9, m=1, basis="spherical", jvec=(1, 2, 0), grid=8, box=math.tau, amplitude=1.0)
@example(l=1, m=1, basis="cartesian", jvec=(1, 0, 0), grid=16, box=1e-320, amplitude=1.0)
@example(l=1, m=0, basis="cartesian", jvec=(1, 0, 0), grid=8, box=1e-100,
         amplitude=1.7976931348623157e308)
def test_gen_planewave_flags(work, l, m, basis, jvec, grid, box, amplitude):
    out = work / "pw.ctf"
    code, err = run(work, ["gen", "--preset", "planewave", "--l", l, "--m", m,
                           "--basis", basis, "--jx", jvec[0], "--jy", jvec[1],
                           "--jz", jvec[2], "--grid", grid, f"--box={box}",
                           f"--amplitude={amplitude}", "--out", out])
    assert_clean_end(code, err)
    assert out.exists() == (code == 0)


# the ranks, and at one draw in four a rank no field has or example1 is not
ranks = mostly(st.integers(0, 2), st.integers(-1, 3))
bases = st.sampled_from(["spherical", "cartesian"])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(l=ranks, basis=bases, grid=grids, box=flag_float(st.just(math.tau)),
       kcut=flag_float(st.floats(0.0, 0.6)),
       seed=mostly(st.integers(0, 2 ** 32), st.sampled_from([-1, -2 ** 70, 2 ** 70, 2 ** 200])))
def test_gen_random_bandlimited_flags(work, l, basis, grid, box, kcut, seed):
    out = work / "rb.ctf"
    code, err = run(work, ["gen", "--preset", "random-bandlimited", "--l", l,
                           "--basis", basis, "--grid", grid, f"--box={box}",
                           f"--kcut={kcut}", "--seed", seed, "--out", out])
    assert_clean_end(code, err)
    assert_written(out, code, l, basis, grid)
    if not kcut >= 0 or seed < 0:
        assert code == 1


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(l=mostly(st.just(1), ranks), basis=mostly(st.just("cartesian"), bases), grid=grids,
       box=flag_float(st.just(math.tau)), kcut=flag_float(st.just(0.25)),
       seed=st.sampled_from([0, 1, -1]))
@example(l=2, basis="spherical", grid=8, box=math.tau, kcut=0.25, seed=0)
@example(l=1, basis="cartesian", grid=8, box=math.tau, kcut=-5.0, seed=0)
def test_gen_example1_flags(work, l, basis, grid, box, kcut, seed):
    out = work / "ex.ctf"
    code, err = run(work, ["gen", "--preset", "example1", "--l", l, "--basis", basis,
                           "--grid", grid, f"--box={box}", f"--kcut={kcut}",
                           "--seed", seed, "--out", out])
    assert_clean_end(code, err)
    assert_written(out, code, l, basis, grid)
    # flags the preset does not read are checked as for the others
    if not kcut >= 0 or seed < 0:
        assert code == 1


@pytest.fixture(scope="module")
def fields(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz-fields")


@st.composite
def gen_flags(draw):
    """`gen` flags for a field it writes at grid <= 8: rank 0 to 2 in either
    basis, band-limited random or, from rank 1 on a grid that resolves a
    mode, a plane wave of any finite amplitude."""
    l, basis = draw(st.integers(0, 2)), draw(bases)
    grid = draw(st.sampled_from([2, 4, 6, 8]))
    box = draw(mostly(st.just(math.tau), st.sampled_from([1.0, 1e-3, 1e3, 1e-100, 1e100])))
    flags = ["--l", l, "--basis", basis, "--grid", grid, f"--box={box}"]
    if l and grid > 2 and draw(st.booleans()):
        index = st.integers(1 - grid // 2, grid // 2 - 1)
        jvec = draw(st.tuples(index, index, index).filter(any))
        amplitude = draw(mostly(st.floats(-2.0, 2.0), st.sampled_from(
            [0.0, 5e-324, 1e-300, 1e300, -1e300, 1.7976931348623157e308])))
        return ["--preset", "planewave", *flags, "--m", draw(st.integers(-l, l)),
                "--jx", jvec[0], "--jy", jvec[1], "--jz", jvec[2], f"--amplitude={amplitude}"]
    return ["--preset", "random-bandlimited", *flags,
            f"--kcut={draw(st.floats(0.0, 0.6))}", "--seed", draw(st.integers(0, 2 ** 32))]


def written(fields, flags):
    """The field `gen` writes for `flags`; flags it rejects make no field."""
    path = fields / "in.ctf"
    code, err = run(fields, ["gen", *flags, "--out", path])
    assert_clean_end(code, err)
    assume(code == 0)
    return path


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(op=st.sampled_from(sorted(_OPS)), flags=gen_flags())
@example(op="curl", flags=["--preset", "random-bandlimited", "--l", 2, "--basis", "spherical",
                           "--grid", 8, "--box=6.28", "--kcut=0.5", "--seed", 1])
@example(op="cartesian-curl", flags=["--preset", "planewave", "--l", 1, "--basis", "cartesian",
                                     "--grid", 8, "--box=6.28", "--m", 1, "--jx", 1, "--jy", 0,
                                     "--jz", 0, "--amplitude=1.7976931348623157e308"])
def test_apply_flags(work, fields, op, flags):
    src, out = written(fields, flags), work / "out.ctf"
    code, err = run(work, ["apply", "--op", op, "--in", src, "--out", out])
    assert_clean_end(code, err)
    assert out.exists() == (code == 0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(flags=gen_flags())
@example(flags=["--preset", "planewave", "--l", 1, "--basis", "cartesian", "--grid", 8,
                "--box=6.28", "--m", 1, "--jx", 1, "--jy", 2, "--jz", 0, "--amplitude=1e300"])
@example(flags=["--preset", "planewave", "--l", 1, "--basis", "cartesian", "--grid", 8,
                "--box=1e-100", "--m", 0, "--jx", 1, "--jy", 0, "--jz", 0,
                "--amplitude=1.7976931348623157e308"])
def test_helmholtz_flags(work, fields, flags):
    src = written(fields, flags)
    code, err = run(work, ["helmholtz", "--in", src, "--out-prefix", work / "h"])
    assert_clean_end(code, err)
    assert (work / "h_perp.ctf").exists() == (work / "h_par.ctf").exists() == (code == 0)
