"""curlmat: exact spherical-tensor differential operator matrices.

Builds divergence, gradient and curl operators at arbitrary integer rank
from exact Clebsch-Gordan data, verifies their algebraic identities as
structural equalities, and applies them spectrally to fields on periodic
grids (Helmholtz decomposition, free-field wave evolution).

`import curlmat` loads the exact half only: `exactnum`, `angular`, `diffop`,
`builders` and `identities`, none of which imports numpy when it loads
(`OpMatrix.symbol_at` imports it when called).  The numeric half, `spectral`
and `evolve`, loads with numpy on the first read of one of its names here,
through `_LAZY` and the module `__getattr__`, or on an import of the
submodule itself.
"""

import importlib

from .exactnum import ExactScalar, Radical, normalize_radical
from .angular import angular_matrices, clebsch_gordan, wigner_3j
from .diffop import DiffPoly, OpMatrix
from .builders import (build_cartesian_curls, build_curl_cg, build_curl_complex,
                       build_curl_hermitian, build_curl_ldotgrad, build_div,
                       build_grad, cartesian_curl_rank2, cartesian_transform,
                       conventions, curl_rank2_cartesian, to_cartesian)
from .identities import verify_all, verify_core_identities

__version__ = "0.1.0"

# The names of the numeric half, each with the submodule that defines it:
# `__getattr__` imports that submodule on the first read of one of them.
_LAZY = {
    **dict.fromkeys(("GridSpec", "TensorField", "apply_operator", "complex_curl_field",
                     "helmholtz", "read_ctf", "write_ctf"), "spectral"),
    **dict.fromkeys(("EvolutionState", "complex_curl_residual", "diagnostics",
                     "plane_wave_state", "random_state", "run_rk4", "run_spectral",
                     "step_rk4", "step_spectral"), "evolve"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())


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
