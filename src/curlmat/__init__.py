"""curlmat: exact spherical-tensor differential operator matrices.

Builds divergence, gradient and curl operators at arbitrary integer rank
from exact Clebsch-Gordan data, verifies their algebraic identities as
structural equalities, and applies them spectrally to fields on periodic
grids (Helmholtz decomposition, free-field wave evolution).
"""

from .exactnum import ExactScalar, Radical, normalize_radical
from .angular import angular_matrices, clebsch_gordan, wigner_3j
from .diffop import DiffPoly, OpMatrix
from .builders import (build_cartesian_curls, build_curl_cg, build_curl_complex,
                       build_curl_hermitian, build_curl_ldotgrad, build_div,
                       build_grad, cartesian_curl_rank2, cartesian_transform,
                       conventions, curl_rank2_cartesian, to_cartesian)
from .identities import verify_all, verify_core_identities
from .spectral import (GridSpec, TensorField, apply_operator,
                       complex_curl_field, helmholtz, read_ctf, write_ctf)
from .evolve import (EvolutionState, complex_curl_residual, diagnostics,
                     plane_wave_state, random_state, run_rk4, run_spectral,
                     step_rk4, step_spectral)

__version__ = "0.1.0"

__all__ = [
    "ExactScalar", "Radical", "normalize_radical",
    "angular_matrices", "clebsch_gordan", "wigner_3j",
    "DiffPoly", "OpMatrix",
    "build_cartesian_curls", "build_curl_cg", "build_curl_complex",
    "build_curl_hermitian", "build_curl_ldotgrad", "build_div", "build_grad",
    "cartesian_curl_rank2", "cartesian_transform", "conventions",
    "curl_rank2_cartesian", "to_cartesian",
    "verify_all", "verify_core_identities",
    "GridSpec", "TensorField", "apply_operator", "complex_curl_field",
    "helmholtz", "read_ctf", "write_ctf",
    "EvolutionState", "complex_curl_residual", "diagnostics",
    "plane_wave_state", "random_state", "run_rk4", "run_spectral", "step_rk4",
    "step_spectral",
    "__version__",
]
