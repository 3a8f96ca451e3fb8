"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --work DIR [--spans PATH]

run.py starts one worker per repetition, so every repetition pays the cold
caches (exact operator builds, the propagator eigendecomposition) that a
`curlmat` command pays.  The worker prints one JSON object as its last line
of standard output:

    setup_end    monotonic clock at the end of set-up; run.py subtracts the
                 stamp it took before starting the worker
    run_s        wall time of the timed phase
    peak_rss_mb  peak resident memory of the workload's processes, read right
                 after the timed phase, before the correctness checks
    attempted, failed, notes   correctness checks of this repetition
    step_ms      latency of each `step_rk4` call (evolve-rk4 only)
    layers       per-layer metrics of this repetition (with --spans only)

With --spans the public functions of curlmat are wrapped (see tracing.py),
the spans of set-up and the timed phase are written to PATH as JSON lines,
and the exact-arithmetic microbench runs after the checks.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from tracing import Tracer, layer_totals, now

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

GRID_BOX = 6.283185307179586  # 2*pi, the CLI's default box
LADDER_LS = range(1, 9)
LADDER_VERIFY = {"l_max": 6, "n_max": 7, "exp_terms": 7}
EVOLVE_GRID, EVOLVE_DT = 32, 0.02
EXACT_L, EXACT_STEPS = 2, 200
RK4_L, RK4_STEPS = 1, 100
IO_GRID = 64
CLI_TIMEOUT_S = 60

DRIFT_BOUND = 1e-10  # acceptance 8: relative energy drift
DIV_BOUND = 1e-10    # acceptance 8: divergence residual
RK4_BOUND = 4e-4     # RK4 vs exact propagator after 100 steps; 2.68e-4 measured at seed 7
APPLY_BOUND = 1e-12  # `apply` curl vs an independent numpy curl, relative
HELMHOLTZ_BOUNDS = {  # acceptance 7
    "div(perp) residual": 1e-10,
    "curl_c(par) residual": 1e-10,
    "reconstruction residual": 1e-12,
}
SUITES = ("core", "powers", "exp", "hermitian", "complex")


class Checks:
    """Counts correctness checks; keeps the first few failures as notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)


class Env:
    """What a workload needs besides its seed: scratch directory and tracer."""

    def __init__(self, work: Path, tracer: Tracer | None):
        self.work = work
        self.tracer = tracer
        self.process_s: list[float] = []


def _grid(n: int):
    from curlmat import spectral
    return spectral.GridSpec((n, n, n), (GRID_BOX, GRID_BOX, GRID_BOX))


class Ladder:
    """Exact half: dual curl constructions, then the whole identity ladder."""

    in_process = True
    sizes = "curl builds l=1..8; verify_all(l_max=6, n_max=7, exp_terms=7)"

    def setup(self, seed, env):
        from curlmat import builders
        return [builders.build_curl_cg(l) == builders.build_curl_ldotgrad(l)
                for l in LADDER_LS]

    def run(self, equal, env):
        from curlmat import identities
        return identities.verify_all(**LADDER_VERIFY)

    def check(self, equal, suites, checks, env):
        from curlmat import identities
        for l, ok in zip(LADDER_LS, equal):
            checks.expect(ok, f"build_curl_cg({l}) != build_curl_ldotgrad({l})")
        for suite, reports in suites.items():
            for r in reports:
                checks.expect(r.status == identities.EXACT_PASS,
                              f"{suite} {r.identity_id}: {r.status}")


class EvolveExact:
    """Exact per-mode propagator with diagnostics logged on every step."""

    in_process = True
    sizes = "32^3, l=2, run_spectral 200 steps at dt=0.02, diagnostics every step"

    def setup(self, seed, env):
        from curlmat import evolve
        return evolve.random_state(_grid(EVOLVE_GRID), EXACT_L, seed=seed)

    def run(self, state, env):
        from curlmat import evolve
        return evolve.run_spectral(state, EVOLVE_DT, EXACT_STEPS, log_every=1)

    def check(self, state, out, checks, env):
        _, logs = out
        checks.expect(len(logs) == EXACT_STEPS + 1, f"{len(logs)} diagnostics logged")
        e0 = logs[0].energy
        for d in logs:
            drift = abs(d.energy - e0) / e0
            checks.expect(drift <= DRIFT_BOUND, f"energy drift {drift:.3e} at t={d.t}")
            div = max(d.div_te, d.div_tb)
            checks.expect(div <= DIV_BOUND, f"divergence residual {div:.3e} at t={d.t}")


class EvolveRK4:
    """RK4 stepping through `apply_operator`; checked against the exact propagator."""

    in_process = True
    sizes = "32^3, l=1, 100 step_rk4 calls at dt=0.02"

    def setup(self, seed, env):
        from curlmat import evolve
        return evolve.random_state(_grid(EVOLVE_GRID), RK4_L, seed=seed)

    def run(self, state, env):
        from curlmat import evolve
        step_s = []
        for _ in range(RK4_STEPS):
            t0 = time.perf_counter()
            state = evolve.step_rk4(state, EVOLVE_DT)
            step_s.append(time.perf_counter() - t0)
        return state, step_s

    def check(self, state, out, checks, env):
        import numpy as np
        from curlmat import evolve
        final, _ = out
        ref, _ = evolve.run_spectral(state, EVOLVE_DT, RK4_STEPS, log_every=0)
        err = np.hypot((final.te - ref.te).norm(), (final.tb - ref.tb).norm())
        err /= np.hypot(ref.te.norm(), ref.tb.norm())
        checks.expect(err <= RK4_BOUND, f"rk4 vs exact propagator: {err:.3e}")


class FieldIO:
    """`gen`, then `apply` and `helmholtz`, each a separate CLI process."""

    in_process = False
    sizes = "64^3 cartesian l=1 field: CLI gen, apply --op cartesian-curl, helmholtz"

    def setup(self, seed, env):
        field = env.work / "field.ctf"
        gen = _cli(env, "gen", "--preset", "random-bandlimited", "--grid", str(IO_GRID),
                   "--seed", str(seed), "--out", str(field))
        return field, gen

    def run(self, ctx, env):
        field, _ = ctx
        curl = env.work / "curl.ctf"
        apply = _cli(env, "apply", "--op", "cartesian-curl", "--in", str(field),
                     "--out", str(curl))
        helm = _cli(env, "helmholtz", "--in", str(field),
                    "--out-prefix", str(env.work / "split"))
        return curl, apply, helm

    def check(self, ctx, out, checks, env):
        field, gen = ctx
        curl, apply, helm = out
        for name, proc in (("gen", gen), ("apply", apply), ("helmholtz", helm)):
            checks.expect(proc.returncode == 0,
                          f"{name}: exit {proc.returncode}: {proc.stderr.strip()}")
        printed = dict(line.split(":", 1) for line in helm.stdout.splitlines() if ":" in line)
        for name, bound in HELMHOLTZ_BOUNDS.items():
            value = float(printed.get(name, "nan"))
            checks.expect(value <= bound, f"helmholtz {name} = {value:.3e}")
        if gen.returncode == 0 and apply.returncode == 0:
            err = _curl_error(field, curl)
            checks.expect(err <= APPLY_BOUND, f"apply cartesian-curl error {err:.3e}")
        else:
            checks.expect(False, "no field to check the curl of")
        for path in env.work.glob("*.ctf"):
            path.unlink()


WORKLOADS = {
    "ladder": Ladder(),
    "evolve-exact": EvolveExact(),
    "evolve-rk4": EvolveRK4(),
    "field-io": FieldIO(),
}


def _cli(env: Env, *argv: str) -> subprocess.CompletedProcess:
    """Run one curlmat command in its own process, as the `curlmat` script would."""
    if env.tracer is None:
        cmd = [sys.executable, "-c", "from curlmat.cli import entry; entry()", *argv]
    else:
        spans = env.work / f"cli-{argv[0]}.json"
        cmd = [sys.executable, str(HERE / "cli_launch.py"), repr(now()), str(spans), *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    if env.tracer is not None and spans.exists():
        record = json.loads(spans.read_text())
        env.tracer.adopt(record["spans"])
        env.process_s.append(record["process_s"])
        spans.unlink()
    return proc


def _read_ctf(path: Path):
    """Independent .ctf reader: JSON header line, then little-endian c128."""
    import numpy as np
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        data = np.frombuffer(fh.read(), dtype="<c16")
    nx, ny, nz = header["grid"]
    return header, data.reshape((-1, nz, ny, nx))


def _curl_error(field_path: Path, curl_path: Path) -> float:
    """Relative error of the `apply` output against curl f = i k x f_hat.

    The generated field is band-limited well below Nyquist, so the plain
    FFT wavenumbers serve without the program's Nyquist rule.
    """
    import numpy as np
    header, f = _read_ctf(field_path)
    _, got = _read_ctf(curl_path)
    kx, ky, kz = (2 * np.pi * np.fft.fftfreq(n, d=box / n)
                  for n, box in zip(header["grid"], header["box"]))
    kx, ky, kz = kx[None, None, :], ky[None, :, None], kz[:, None, None]
    fh = np.fft.fftn(f, axes=(1, 2, 3))
    want = 1j * np.stack([ky * fh[2] - kz * fh[1],
                          kz * fh[0] - kx * fh[2],
                          kx * fh[1] - ky * fh[0]])
    got = np.fft.fftn(got, axes=(1, 2, 3))
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _import_program() -> None:
    import curlmat
    if SRC.resolve() not in Path(curlmat.__file__).resolve().parents:
        raise SystemExit(f"curlmat imported from {curlmat.__file__}, not from {SRC}")


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def exactnum_ops_per_s() -> float:
    """ExactScalar mul/add/eq throughput over Clebsch-Gordan radicals."""
    from curlmat import angular
    values = [angular.clebsch_gordan(2, m1, 2, m2, l, m1 + m2)
              for l in range(5) for m1 in range(-2, 3) for m2 in range(-2, 3)
              if abs(m1 + m2) <= l]
    values = [v for v in values if not v.is_zero][:40]
    rates = []
    for _ in range(5):
        t0 = time.perf_counter()
        for a in values:
            for b in values:
                _ = (a * b + a) == b
        rates.append(3 * len(values) ** 2 / (time.perf_counter() - t0))
    return statistics.median(rates)


def layer_metrics(spans: list[list], process_s: list[float]) -> dict[str, float]:
    totals = layer_totals(spans)

    def get(name):
        return totals.get(name, [0, 0.0, 0, 0])

    m: dict[str, float] = {
        "angular.build_s": get("angular")[1],
        "builders.build_s": get("builders")[1],
    }
    for key in ("compose", "poly_mul", "symbol"):
        calls, self_s, _, _ = get(f"diffop.{key}")
        m[f"diffop.{key}.calls"] = calls
        m[f"diffop.{key}.self_s"] = self_s
    for suite in SUITES:
        m[f"identities.{suite}.self_s"] = get(f"identities.{suite}")[1]
    m["identities.checks"] = sum(get(f"identities.{s}")[2] for s in SUITES)
    calls, self_s, _, _ = get("spectral.apply_operator")
    m["spectral.apply_operator.calls"] = calls
    m["spectral.apply_operator.self_s"] = self_s
    m["spectral.helmholtz.self_s"] = get("spectral.helmholtz")[1]
    m["spectral.residuals.self_s"] = get("spectral.residuals")[1]
    for io in ("ctf_write", "ctf_read"):
        _, self_s, _, nbytes = get(f"spectral.{io}")
        m[f"spectral.{io}.bytes"] = nbytes
        m[f"spectral.{io}.self_s"] = self_s
    calls, self_s, points, nbytes = get("fft")
    m.update({"fft.calls": calls, "fft.self_s": self_s,
              "fft.points": points, "fft.bytes": nbytes})
    m["evolve.random_state.self_s"] = get("evolve.random_state")[1]
    m["evolve.run_spectral.self_s"] = get("evolve.run_spectral")[1]
    calls, self_s, _, _ = get("evolve.diagnostics")
    m["evolve.diagnostics.calls"] = calls
    m["evolve.diagnostics.self_ms"] = 1e3 * self_s / calls if calls else 0.0
    calls, self_s, _, _ = get("evolve.step_rk4")
    m["evolve.step_rk4.calls"] = calls
    m["evolve.step_rk4.self_s"] = self_s
    for cmd in ("gen", "apply", "helmholtz"):
        m[f"cli.{cmd}.self_s"] = get(f"cli.{cmd}")[1]
    m["cli.process_s"] = statistics.mean(process_s) if process_s else 0.0
    m["trace.spans"] = len(spans)
    return m


def write_spans(path: Path, run_id: str, spans: list[list]) -> None:
    with open(path, "w") as fh:
        for name, start, end, parent, work, nbytes in spans:
            fh.write(json.dumps({"run": run_id, "name": name, "start": start, "end": end,
                                 "parent": parent, "work": work, "bytes": nbytes}) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.spans else None
    env = Env(args.work, tracer)
    if workload.in_process:
        _import_program()
        if tracer:
            tracer.install()
    phase = tracer.span if tracer else (lambda name: nullcontext())

    with phase("bench.setup"):
        ctx = workload.setup(args.seed, env)
    setup_end = now()
    t0 = time.perf_counter()
    with phase("bench.run"):
        out = workload.run(ctx, env)
    run_s = time.perf_counter() - t0
    peak_rss_mb = _peak_rss_mb()
    if tracer:
        tracer.uninstall()

    checks = Checks()
    workload.check(ctx, out, checks, env)
    result = {"setup_end": setup_end, "run_s": run_s, "peak_rss_mb": peak_rss_mb,
              "attempted": checks.attempted, "failed": checks.failed,
              "notes": checks.notes}
    if args.workload == "evolve-rk4":
        result["step_ms"] = [1e3 * s for s in out[1]]
    if tracer:
        _import_program()
        write_spans(args.spans, args.spans.stem, tracer.spans)
        result["layers"] = layer_metrics(tracer.spans, env.process_s)
        result["layers"]["exactnum.scalar_ops_per_s"] = exactnum_ops_per_s()
    import numpy
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
