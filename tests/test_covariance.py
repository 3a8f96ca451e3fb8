"""Covariance of the numeric half under the rotations of the cube.

A 90-degree rotation g maps the samples of a cubic periodic grid to samples,
so a rank-l field turns as (g.f)(r) = D^l(g) f(g^-1 r): an index permutation
times a (2l+1)^2 matrix, D^l(g) = exp(-i*pi/2 n.L) from the exact spin-l
matrices.  Every operator, the Helmholtz split and both drivers must commute
with g to roundoff, and energy, the divergence residuals and the band
amplitudes must be invariant.  The 90-degree rotations about z and about x
generate the 24 rotations of the cube.
"""

import numpy as np
import pytest

from curlmat.angular import angular_matrices
from curlmat.builders import (build_cartesian_curls, build_curl_cg, build_div, build_grad,
                              cartesian_transform)
from curlmat.evolve import EvolutionState, run_rk4, run_spectral
from curlmat.spectral import (GridSpec, TensorField, apply_operator, helmholtz,
                              random_bandlimited)

GRID = GridSpec((8, 8, 8), (2 * np.pi,) * 3)
QUARTER = np.pi / 2
# the 90-degree rotations about z and about x, acting on (x, y, z)
ROTATIONS = {"z": np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
             "x": np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]])}
ROTATIONS["zx"] = ROTATIONS["z"] @ ROTATIONS["x"]
ROUNDOFF = 1e-14


def spin_generators(l: int) -> dict[str, np.ndarray]:
    """Lz and Lx of spin l, in the descending-m basis of the fields."""
    if l == 0:
        return {"z": np.zeros((1, 1)), "x": np.zeros((1, 1))}
    ang = angular_matrices(l)
    return {axis: np.array([[e.to_complex() for e in row] for row in m])
            for axis, m in (("z", ang.lz), ("x", ang.lx))}


def wigner(l: int, rotation: str) -> np.ndarray:
    """D^l of a rotation of `ROTATIONS`: exp(-i*pi/2 L) per generator."""
    out = np.eye(2 * l + 1, dtype=complex)
    for axis in rotation:
        w, v = np.linalg.eigh(spin_generators(l)[axis])
        out = out @ (v * np.exp(-1j * QUARTER * w)) @ v.conj().T
    return out


def turn(data: np.ndarray, rotation: str, frame: np.ndarray) -> np.ndarray:
    """frame @ data at the samples g^-1 r, on [component, z, y, x] data."""
    n = data.shape[-1]
    z, y, x = np.indices(data.shape[1:])
    src = np.einsum("ba,b...->a...", ROTATIONS[rotation], np.stack((x, y, z))) % n
    return np.einsum("ab,b...->a...", frame, data[:, src[2], src[1], src[0]])


def spherical(l: int, seed: int, banded: bool = False) -> TensorField:
    """A random field on every mode, the Nyquist ones included.  With
    `banded`, none on the modes whose derivative wavenumbers all vanish (k = 0
    and its Nyquist aliases): every band has eigenvalue 0 there, so which
    band holds a component is a convention that no rotation but one about z
    keeps, and the band amplitudes are invariant only without them."""
    f = random_bandlimited(GRID, l, "spherical", kcut=0.5, seed=seed)
    if not banded:
        return f
    kx, ky, kz = GRID.deriv_k_grids()
    spectrum = np.fft.fftn(f.data, axes=(-3, -2, -1))
    spectrum[:, (kx ** 2 + ky ** 2 + kz ** 2) == 0] = 0
    return TensorField(l, "spherical", GRID, np.fft.ifftn(spectrum, axes=(-3, -2, -1)))


def assert_close(got: np.ndarray, want: np.ndarray) -> None:
    assert np.linalg.norm(got - want) <= ROUNDOFF * np.linalg.norm(want)


def test_the_frames_are_the_rotations():
    # at l = 1, D is R seen through the spherical-to-cartesian transform,
    # and the generators make the cube's 24 rotations
    s = np.asarray(cartesian_transform(1).symbol_at((0, 0, 0)), dtype=complex)
    for name, rotation in ROTATIONS.items():
        assert np.allclose(s @ wigner(1, name) @ s.conj().T, rotation, atol=1e-15)
    group, new = set(), [np.eye(3, dtype=int)]
    while new:
        group |= {g.tobytes() for g in new}
        new = [r @ g for g in new for r in (ROTATIONS["z"], ROTATIONS["x"])
               if (r @ g).tobytes() not in group]
    assert len(group) == 24


@pytest.mark.parametrize("rotation", ROTATIONS)
@pytest.mark.parametrize("name, build, l", [
    *(("curl", build_curl_cg, l) for l in (1, 2, 3)),
    *(("div", build_div, l) for l in (1, 2, 3)),
    *(("grad", build_grad, l) for l in (0, 1, 2))])
def test_operators_commute_with_rotations(rotation, name, build, l):
    op = build(l)
    f = spherical(l, 10 + l)
    turned = TensorField(l, "spherical", GRID, turn(f.data, rotation, wigner(l, rotation)))
    want = turn(apply_operator(op, f).data, rotation, wigner(op.tag.l_out, rotation))
    assert_close(apply_operator(op, turned).data, want)
    # the law is not met by the field itself: the rotation moved it
    assert np.linalg.norm(turned.data - f.data) > 0.5 * np.linalg.norm(f.data)


@pytest.mark.parametrize("rotation", ROTATIONS)
def test_helmholtz_commutes_with_rotations(rotation):
    frame = ROTATIONS[rotation]
    f = random_bandlimited(GRID, 1, "cartesian", kcut=0.5, seed=20)
    turned = TensorField(1, "cartesian", GRID, turn(f.data, rotation, frame))
    for got, part in zip(helmholtz(turned), helmholtz(f)):
        assert_close(got.data, turn(part.data, rotation, frame))
    # and the cartesian curl with it
    curl = build_cartesian_curls().curl
    assert_close(apply_operator(curl, turned).data,
                 turn(apply_operator(curl, f).data, rotation, frame))


@pytest.mark.parametrize("rotation", ROTATIONS)
@pytest.mark.parametrize("run", [run_spectral, run_rk4])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_drivers_commute_with_rotations(rotation, run, l):
    # fields off the divergence-free bands, so the residuals are not zero
    te, tb = spherical(l, 30 + l, banded=True), spherical(l, 40 + l, banded=True)
    d = wigner(l, rotation)
    turned = EvolutionState(*(TensorField(l, "spherical", GRID, turn(f.data, rotation, d))
                              for f in (te, tb)), 0.0, 1.1)
    final, logs = run(EvolutionState(te, tb, 0.0, 1.1), 0.1, 10, log_every=5)
    got, got_logs = run(turned, 0.1, 10, log_every=5)
    for a, b in ((got.te, final.te), (got.tb, final.tb)):
        assert_close(a.data, turn(b.data, rotation, d))
    for a, b in zip(got_logs, logs):
        assert a.t == b.t
        assert a.energy == pytest.approx(b.energy, rel=ROUNDOFF)
        assert a.div_te == pytest.approx(b.div_te, rel=ROUNDOFF)
        assert a.div_tb == pytest.approx(b.div_tb, rel=ROUNDOFF)
        assert_close(np.array(a.band_te), np.array(b.band_te))
    assert min(log.div_te for log in logs) > 0.1
    # 10 steps moved the state, or the comparison is vacuous
    assert np.linalg.norm(final.te.data - te.data) > 0.1 * np.linalg.norm(te.data)
