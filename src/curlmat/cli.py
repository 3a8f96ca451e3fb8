"""Command-line entry point.

Exit codes: 0 on success, 1 on identity failure / tolerance breach /
invalid input data, 2 on usage errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import builders, identities
from .angular import clebsch_gordan

def _cartesian_curl(l: int):
    if l != 1:
        raise ValueError(f"cartesian-curl is the rank-1 curl and needs l = 1, got {l}")
    return builders.build_cartesian_curls().curl


_OPS = {
    "div": builders.build_div,
    "grad": builders.build_grad,
    "curl": builders.build_curl_cg,
    "curl-h": builders.build_curl_hermitian,
    "curl-c": builders.build_curl_complex,
    "cartesian-curl": _cartesian_curl,
}


def _cmd_build(args) -> int:
    op = _OPS[args.op](args.l)
    if args.format == "text":
        print(op.to_text())
    elif args.format == "latex":
        print(op.to_latex())
    else:
        payload = {"op": args.op, "l": args.l, **op.to_json_dict()}
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_cg(args) -> int:
    value = clebsch_gordan(args.l1, args.m1, args.l2, args.m2, args.l, args.m)
    print(f"exact: {value}")
    print(f"float: {value.to_complex().real!r}")
    return 0


def _cmd_verify(args) -> int:
    names = identities.SUITES if args.suite == "all" else (args.suite,)
    ops = identities.OperatorSet()
    suites = {name: identities.verify_suite(name, args.max_l, args.max_n, args.max_n, ops)
              for name in names}
    reports = [r for batch in suites.values() for r in batch]
    ok = identities.all_pass(reports)
    if args.report == "json":
        payload = {
            "suite": args.suite,
            "max_l": args.max_l,
            "max_n": args.max_n,
            "all_pass": ok,
            "reports": [r.as_dict() for r in reports],
        }
        print(json.dumps(payload, indent=2))
    else:
        for name, batch in suites.items():
            for r in batch:
                rng = ",".join(str(v) for v in r.l_range)
                print(f"[{name}] {r.identity_id} ({rng}): {r.status}")
        print(f"total: {len(reports)} checks, all_pass={ok}")
    return 0 if ok else 1


def _overflow_raises():
    """Field values that overflow raise FloatingPointError, an `error:` line."""
    import numpy as np
    return np.errstate(over="raise", invalid="raise", divide="raise")


def _cmd_apply(args) -> int:
    from . import spectral
    f = spectral.read_ctf(args.infile)
    op = _OPS[args.op](f.l)  # of the field's rank: any other fails
    with _overflow_raises():
        out = spectral.apply_operator(op, f)
    spectral.write_ctf(out, args.outfile)
    return 0


def _cmd_helmholtz(args) -> int:
    from . import spectral
    f = spectral.read_ctf(args.infile)
    with _overflow_raises():  # every number is made before any file is written
        perp, par = spectral.helmholtz(f)
        recon = spectral.reconstruction_residual(f, perp, par)
        del f  # freed before the residual checks, which need more memory
        div = spectral.relative_divergence(perp)
        curl = spectral.relative_complex_curl(par)
    spectral.write_ctf(perp, f"{args.out_prefix}_perp.ctf")
    spectral.write_ctf(par, f"{args.out_prefix}_par.ctf")
    print(f"div(perp) residual: {div:.3e}")
    print(f"curl_c(par) residual: {curl:.3e}")
    print(f"reconstruction residual: {recon:.3e}")
    return 0


def _parse_grid(args):
    from . import spectral
    n = args.grid
    return spectral.GridSpec((n, n, n), (args.box, args.box, args.box))


def _cmd_gen(args) -> int:
    from . import spectral
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    if not args.kcut >= 0:
        raise ValueError(f"--kcut must be a non-negative number, got {args.kcut}")
    grid = _parse_grid(args)
    if args.preset == "planewave":
        with _overflow_raises():  # an amplitude near the largest float
            f = spectral.plane_wave(grid, args.l, args.m, (args.jx, args.jy, args.jz),
                                    basis=args.basis, amplitude=args.amplitude)
    elif args.preset == "random-bandlimited":
        print(f"seed: {args.seed}", file=sys.stderr)
        f = spectral.random_bandlimited(grid, args.l, args.basis,
                                        kcut=args.kcut, seed=args.seed)
    else:  # example1
        if (args.l, args.basis) != (1, "cartesian"):
            raise ValueError(f"example1 is a rank-1 cartesian field; got --l {args.l} "
                             f"--basis {args.basis}")
        u, v = spectral.example_rotation_fields(grid)
        f = u + v * 1j
    spectral.write_ctf(f, args.out)
    return 0


def _cmd_evolve(args) -> int:
    from . import evolve, spectral
    if args.steps < 0:
        raise ValueError(f"--steps must be non-negative, got {args.steps}")
    if args.dump_every is not None and args.dump_every < 1:
        raise ValueError(f"--dump-every must be at least 1, got {args.dump_every}")
    if not (math.isfinite(args.c) and args.c > 0):
        raise ValueError(f"--c must be positive and finite, got {args.c}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    grid = _parse_grid(args)
    try:
        phase = evolve.check_dt(grid, args.c, args.dt, steps=args.steps)
    except ValueError as exc:
        raise ValueError(f"--{exc}") from None
    if args.stepper == "rk4" and abs(phase) >= evolve.RK4_STABILITY_BOUND:
        raise ValueError(f"--dt {args.dt} gives c*dt*kmax = {phase:.3g}, at or past the "
                         f"rk4 stability bound {evolve.RK4_STABILITY_BOUND}")
    for flag, path in (("--log", args.log), ("--out-prefix", args.out_prefix)):
        folder = os.path.dirname(path) if path else ""
        if folder and not os.path.isdir(folder):
            raise ValueError(f"{flag} {path}: no directory {folder}")
    if args.init == "random":
        print(f"seed: {args.seed}", file=sys.stderr)
        state = evolve.random_state(grid, args.l, c=args.c, seed=args.seed)
    else:  # (m, (jx, jy, jz))
        state = evolve.plane_wave_state(grid, args.l, *args.init, c=args.c)

    def dump_fn(s, step):
        spectral.write_ctf(s.te, f"{args.out_prefix}_te_{step:06d}.ctf")
        spectral.write_ctf(s.tb, f"{args.out_prefix}_tb_{step:06d}.ctf")

    # without --log only the first and last diagnostics are used, for the drift
    log_every = 1 if args.log else max(args.steps, 1)
    run = evolve.run_spectral if args.stepper == "spectral" else evolve.run_rk4
    final, logs = run(state, args.dt, args.steps, log_every=log_every,
                      dump_every=args.dump_every, dump_fn=dump_fn)

    if args.log:
        with open(args.log, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "energy", "divE_residual", "divB_residual"]
                            + [f"band_m{m}" for m in range(-args.l, args.l + 1)])
            writer.writerows([d.t, d.energy, d.div_te, d.div_tb, *d.band_te] for d in logs)
    spectral.write_ctf(final.te, f"{args.out_prefix}_te_final.ctf")
    spectral.write_ctf(final.tb, f"{args.out_prefix}_tb_final.ctf")
    drift = abs(logs[-1].energy - logs[0].energy) / logs[0].energy if logs[0].energy else 0.0
    print(f"steps: {args.steps}  t: {final.t:.6g}  energy drift: {drift:.3e}")
    return 0


def _init_spec(text: str):
    """``--init``: "random", or (m, (jx, jy, jz)) from planewave:m,jx,jy,jz."""
    if text == "random":
        return text
    if text.startswith("planewave:"):
        try:
            m, jx, jy, jz = (int(v) for v in text[len("planewave:"):].split(","))
            return m, (jx, jy, jz)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(
        f"expected planewave:m,jx,jy,jz with integers, or random; got {text!r}")


def _cmd_ledger(args) -> int:
    ledger = builders.conventions()
    if args.format == "json":
        print(json.dumps(ledger.as_dict(), indent=2))
    else:
        print(ledger.describe())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curlmat",
        description="Exact spherical-tensor operator matrices, identity "
                    "verification and spectral field tools.")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("build", help="print an operator matrix")
    p.add_argument("--op", required=True, choices=_OPS)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")

    p = sub.add_parser("cg", help="print one Clebsch-Gordan coefficient")
    for flag in ("--l1", "--m1", "--l2", "--m2", "--l", "--m"):
        p.add_argument(flag, type=int, required=True)

    p = sub.add_parser("verify", help="run identity suites")
    p.add_argument("--suite", choices=identities.SUITES + ("all",), default="all")
    p.add_argument("--max-l", type=int, default=4)
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--report", choices=("text", "json"), default="text")

    p = sub.add_parser("apply", help="apply an operator to a .ctf field")
    p.add_argument("--op", required=True, choices=_OPS)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)

    p = sub.add_parser("helmholtz", help="transverse/longitudinal split")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-prefix", required=True)

    p = sub.add_parser("gen", help="generate input fields")
    p.add_argument("--preset", required=True,
                   choices=("planewave", "random-bandlimited", "example1"))
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--basis", choices=("spherical", "cartesian"), default="cartesian")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--jx", type=int, default=1)
    p.add_argument("--jy", type=int, default=0)
    p.add_argument("--jz", type=int, default=0)
    p.add_argument("--grid", type=int, default=16)
    p.add_argument("--box", type=float, default=math.tau)
    p.add_argument("--kcut", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evolve", help="evolve the paired free-field equations")
    p.add_argument("--l", type=int, choices=(1, 2), default=1)
    p.add_argument("--grid", type=int, default=16)
    p.add_argument("--box", type=float, default=math.tau)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--stepper", choices=("spectral", "rk4"), default="spectral")
    p.add_argument("--init", type=_init_spec, default="planewave:1,1,0,0",
                   help="planewave:m,jx,jy,jz or random")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log", default=None)
    p.add_argument("--dump-every", type=int, default=None)
    p.add_argument("--out-prefix", default="run")

    p = sub.add_parser("ledger", help="print selected conventions and errata")
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


_DISPATCH = {
    "build": _cmd_build,
    "cg": _cmd_cg,
    "verify": _cmd_verify,
    "apply": _cmd_apply,
    "helmholtz": _cmd_helmholtz,
    "gen": _cmd_gen,
    "evolve": _cmd_evolve,
    "ledger": _cmd_ledger,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError, MemoryError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
