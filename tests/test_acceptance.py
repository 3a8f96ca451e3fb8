"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import time

import numpy as np

from curlmat.builders import (build_cartesian_curls, build_curl_cg,
                              build_curl_ldotgrad, build_div, build_grad,
                              conventions, to_cartesian)
from curlmat.evolve import (EvolutionState, plane_wave_state, random_state,
                            run_spectral, step_rk4, step_spectral)
from curlmat.identities import (OperatorSet, all_pass, verify_all,
                                verify_complex_suite, verify_core_identities,
                                verify_hermitian_suite, verify_power_laws)
from curlmat.spectral import (GridSpec, apply_operator, complex_curl_field,
                              example_rotation_fields, helmholtz,
                              random_bandlimited, relative_complex_curl,
                              relative_divergence, wavevector)

import reference_matrices as ref
from fd_oracle import fd4_curl, interior
from oracles import flip_entry

TWO_PI = 2 * np.pi


def _stamp(number: int, name: str, ok: bool, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {verdict} [{elapsed:.2f}s]")


def test_acceptance_1_printed_matrix_reproduction():
    start = time.perf_counter()
    checks = {
        "curl1": build_curl_cg(1) == ref.curl1_matrix(),
        "curl2": build_curl_cg(2) == ref.curl2_matrix(),
        "curl1-squared": build_curl_cg(1) @ build_curl_cg(1) == ref.curl1_squared_matrix(),
        "grad1": build_grad(1) == ref.grad1_matrix(),
        "div2": build_div(2) == ref.div2_matrix_corrected(),
        "div2-erratum": any(e.ident == "div2-reference-conjugation"
                            for e in conventions().errata),
    }
    elapsed = time.perf_counter() - start
    ok = all(checks.values()) and elapsed < 1.0
    _stamp(1, "printed-matrix reproduction", ok, elapsed)
    assert all(checks.values()), checks
    assert elapsed < 1.0


def test_acceptance_2_dual_construction_agreement():
    start = time.perf_counter()
    agree = {l: build_curl_cg(l) == build_curl_ldotgrad(l) for l in range(1, 9)}
    elapsed = time.perf_counter() - start
    ok = all(agree.values()) and elapsed < 5.0
    _stamp(2, "dual-construction agreement l=1..8", ok, elapsed)
    assert all(agree.values()), agree
    assert elapsed < 5.0


def test_acceptance_3_identity_suite_with_mutation_guard():
    start = time.perf_counter()
    suites = verify_all(l_max=4, n_max=4, exp_terms=3)
    clean = all(all_pass(reports) for reports in suites.values())

    ops = OperatorSet({1: flip_entry(build_curl_cg(1), 0, 0)})
    mutated = (verify_core_identities(2, ops) + verify_power_laws(2, ops)
               + verify_hermitian_suite(2, ops) + verify_complex_suite(2, ops))
    failures = sum(not r.passed for r in mutated)

    elapsed = time.perf_counter() - start
    ok = clean and failures >= 3 and elapsed < 30.0
    _stamp(3, "identity suite + mutation sensitivity", ok, elapsed)
    assert clean
    assert failures >= 3, failures
    assert elapsed < 30.0


def test_acceptance_4_cartesian_equivalence():
    start = time.perf_counter()
    ok = to_cartesian(build_curl_cg(1)) == ref.cartesian_curl_matrix()
    singular_noted = any(e.ident == "transform-matrix-singular"
                         for e in conventions().errata)
    elapsed = time.perf_counter() - start
    _stamp(4, "cartesian equivalence via unitary transform", ok and singular_noted,
           elapsed)
    assert ok
    assert singular_noted


def test_acceptance_5_symbol_spectrum():
    start = time.perf_counter()
    rng = np.random.default_rng(515)
    worst = 0.0
    for l in (1, 2, 3):
        curl = build_curl_cg(l)
        for _ in range(20):
            k = 2.0 * rng.normal(size=3)
            eigs = np.sort(np.linalg.eigvalsh(curl.symbol_at(k)))
            expected = np.array([m * np.linalg.norm(k) / l
                                 for m in range(-l, l + 1)])
            worst = max(worst, float(np.abs(eigs - expected).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9
    _stamp(5, f"symbol spectrum (worst {worst:.1e})", ok, elapsed)
    assert worst <= 1e-9


def test_acceptance_6_rotation_field_example():
    start = time.perf_counter()
    # finite-difference oracle on a non-periodic patch, interior points only
    n, half_width = 41, 1.0
    axis = np.linspace(-half_width, half_width, n)
    h = axis[1] - axis[0]
    x = axis[None, None, :]
    y = axis[None, :, None]
    shape = (n, n, n)
    u = np.zeros((3,) + shape)
    v = np.zeros((3,) + shape)
    u[0] = np.broadcast_to(y, shape)
    u[1] = -np.broadcast_to(x, shape)
    v[1] = -np.broadcast_to(x ** 2, shape)
    candidate = fd4_curl(u - v, (h, h, h)) + 1j * fd4_curl(u + v, (h, h, h))
    closed = np.zeros((3,) + shape, dtype=complex)
    closed[2] = 2 * (x - 1) - 2j * (x + 1)
    fd_err = float(np.abs(interior(candidate[0] - closed[0])).max())
    for comp in (1, 2):
        fd_err = max(fd_err, float(
            np.abs(interior(candidate[comp] - closed[comp])).max()))

    # band-limited periodization: the combination rule matches the direct
    # complex-curl operator application exactly
    grid = GridSpec((16, 16, 16), (TWO_PI,) * 3)
    up, vp = example_rotation_fields(grid)
    combined = complex_curl_field(up, vp)
    direct = apply_operator(build_cartesian_curls().curl_c, up + vp * 1j)
    spectral_err = (combined - direct).norm() / direct.norm()

    elapsed = time.perf_counter() - start
    ok = fd_err <= 1e-6 and spectral_err <= 1e-12
    _stamp(6, f"rotation-field example (fd {fd_err:.1e})", ok, elapsed)
    assert fd_err <= 1e-6
    assert spectral_err <= 1e-12


def test_acceptance_7_helmholtz_32cubed():
    start = time.perf_counter()
    grid = GridSpec((32, 32, 32), (TWO_PI,) * 3)
    f = random_bandlimited(grid, 1, "cartesian", kcut=0.25, seed=77)
    perp, par = helmholtz(f)
    recon = (f - (perp + par)).norm() / f.norm()
    div_perp = relative_divergence(perp)
    curl_par = relative_complex_curl(par)
    elapsed = time.perf_counter() - start
    ok = recon <= 1e-12 and div_perp <= 1e-10 and curl_par <= 1e-10 and elapsed < 10.0
    _stamp(7, f"helmholtz 32^3 (recon {recon:.1e})", ok, elapsed)
    assert recon <= 1e-12
    assert div_perp <= 1e-10
    assert curl_par <= 1e-10
    assert elapsed < 10.0


def _measure_frequency(state: EvolutionState, steps: int, dt: float) -> float:
    ref_data = state.te.data
    norm = np.vdot(ref_data, ref_data)
    cur = state
    phases, times = [0.0], [state.t]
    for _ in range(steps):
        cur = step_spectral(cur, dt)
        phases.append(float(np.angle(np.vdot(ref_data, cur.te.data) / norm)))
        times.append(cur.t)
    return -float(np.polyfit(times, np.unwrap(phases), 1)[0])


def test_acceptance_8_evolution():
    start = time.perf_counter()
    grid16 = GridSpec((16, 16, 16), (TWO_PI,) * 3)

    # dispersion over 100 steps, l = 1 and l = 2
    dispersion_err = 0.0
    for l, m, jvec in ((1, 1, (1, 2, 0)), (2, 2, (0, 1, 1))):
        state = plane_wave_state(grid16, l, m, jvec)
        omega = m * np.linalg.norm(wavevector(grid16, jvec)) / l
        dt = 0.02 * TWO_PI / omega
        measured = _measure_frequency(state, 100, dt)
        dispersion_err = max(dispersion_err, abs(measured - omega))

    # energy drift and constraints over 1000 spectral steps on 32^3
    grid32 = GridSpec((32, 32, 32), (TWO_PI,) * 3)
    state = random_state(grid32, 1, seed=88)
    _, logs = run_spectral(state, 0.02, 1000, log_every=1)
    energies = np.array([d.energy for d in logs])
    drift = float(np.abs(energies - energies[0]).max() / energies[0])
    div_worst = max(max(d.div_te for d in logs), max(d.div_tb for d in logs))

    # rk4 convergence order, on a standing wave (F- = F+ = TE, where a
    # traveling one has F- = 0) with ky != 0 (conj(C(k)) is not C(k)), so that
    # both halves of the step are checked
    state = plane_wave_state(grid16, 1, 1, (1, 2, 0), traveling=False)
    omega = np.linalg.norm(wavevector(grid16, (1, 2, 0)))
    total = 0.25 * TWO_PI / omega
    errors = []
    for nsteps in (8, 16, 32):
        cur = state
        for _ in range(nsteps):
            cur = step_rk4(cur, total / nsteps)
        errors.append((cur.te - step_spectral(state, total).te).norm())
    orders = [float(np.log2(errors[i] / errors[i + 1])) for i in range(2)]
    order_ok = all(abs(o - 4.0) <= 0.2 for o in orders)

    elapsed = time.perf_counter() - start
    ok = (dispersion_err <= 1e-8 and drift <= 1e-10 and div_worst <= 1e-10
          and order_ok and elapsed < 60.0)
    _stamp(8, f"evolution (disp {dispersion_err:.1e}, drift {drift:.1e}, "
              f"orders {orders[0]:.2f}/{orders[1]:.2f})", ok, elapsed)
    assert dispersion_err <= 1e-8
    assert drift <= 1e-10
    assert div_worst <= 1e-10
    assert order_ok, orders
    assert elapsed < 60.0
