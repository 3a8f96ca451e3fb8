"""Test-side constructions that read the package's types but not the code
under test: a one-entry operator mutant for the mutation guards, a field's
gradient scale from a plain numpy FFT, and the RK4 step of a spectrum stage
by stage."""

import numpy as np

from curlmat.builders import build_curl_ldotgrad
from curlmat.diffop import OpMatrix
from curlmat.spectral import apply_symbol


def flip_entry(op: OpMatrix, i: int, j: int) -> OpMatrix:
    """`op` with the sign of entry (i, j) flipped."""
    rows = [[op.entry(r, c) for c in range(op.cols)] for r in range(op.rows)]
    rows[i][j] = -rows[i][j]
    return OpMatrix.from_rows(rows, op.tag)


def gradient_scale(f) -> float:
    """The L2 norm of |k| f: sqrt(sum |k|^2 |f^|^2 * cell volume / N) over
    the modes and components of ``np.fft.fftn``.  Each axis's Nyquist
    wavenumber is zero, as in the first-derivative symbols of the residuals
    this scales."""
    n, box = f.grid.n, f.grid.box
    k = [2 * np.pi * np.fft.fftfreq(n[a], d=box[a] / n[a]) for a in range(3)]
    for a in range(3):
        k[a][n[a] // 2] = 0.0
    k2 = k[0][None, None, :] ** 2 + k[1][None, :, None] ** 2 + k[2][:, None, None] ** 2
    spectrum = np.fft.fftn(f.data, axes=(-3, -2, -1))
    total = np.sum(k2 * np.abs(spectrum) ** 2)
    return float(np.sqrt(total * f.grid.cell_volume / f.grid.ntotal))


def rk4_horner(l: int, grid, spectrum: np.ndarray, theta: float) -> np.ndarray:
    """R(-i*theta*CURL) spectrum, the classical RK4 step of dF/dt = -i*c*CURL F
    for theta = c*dt, in Horner form: y <- x + (-i*theta/j) CURL y for
    j = 4, 3, 2, 1 from y = x, each stage applying the curl symbol to the
    whole spectrum."""
    curl = build_curl_ldotgrad(l)
    y = spectrum
    for j in (4, 3, 2, 1):
        y = apply_symbol(curl, grid, y, scale=theta / j * -1j, base=spectrum)
    return y
