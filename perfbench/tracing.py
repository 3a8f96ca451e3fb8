"""In-memory span tracer that wraps curlmat's public functions from outside.

A span is the list ``[name, start, end, parent, work, nbytes]``: ``parent``
is the index of the enclosing span in the same list (-1 for a root), and
``work``/``nbytes`` hold what the wrapped call did (FFT points, identity
reports, file bytes) where a layer has such a count.  Spans stay in memory
until the benchmark writes them out; self time is a span's duration minus the
durations of its direct children.

``ExactScalar`` operators are deliberately not wrapped: a ladder run makes
about a million of them, and a span each would distort the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager

now = functools.partial(time.clock_gettime, time.CLOCK_MONOTONIC)
"""System-wide monotonic clock, comparable across the benchmark's processes."""


def _reports(args, kwargs, out):
    return (len(out) if isinstance(out, list) else 1), 0


def _file_bytes(path_arg):
    def measure(args, kwargs, out):
        path = args[path_arg] if len(args) > path_arg else kwargs["path"]
        return 0, os.path.getsize(path)
    return measure


def _fft_work(args, kwargs, out):
    # Computed from array shapes: one read of the input, one write of the output.
    return out.size, args[0].nbytes + out.nbytes


# (module, attribute or Class.attribute, span name, work measure)
TARGETS = (
    ("curlmat.angular", "clebsch_gordan", "angular", None),
    ("curlmat.angular", "wigner_3j", "angular", None),
    ("curlmat.angular", "angular_matrices", "angular", None),
    ("curlmat.builders", "build_div", "builders", None),
    ("curlmat.builders", "build_grad", "builders", None),
    ("curlmat.builders", "build_curl_cg", "builders", None),
    ("curlmat.builders", "build_curl_ldotgrad", "builders", None),
    ("curlmat.builders", "build_curl_hermitian", "builders", None),
    ("curlmat.builders", "build_curl_complex", "builders", None),
    ("curlmat.builders", "build_cartesian_curls", "builders", None),
    ("curlmat.builders", "cartesian_transform", "builders", None),
    ("curlmat.builders", "to_cartesian", "builders", None),
    ("curlmat.builders", "conventions", "builders", None),
    ("curlmat.diffop", "OpMatrix.compose", "diffop.compose", None),
    ("curlmat.diffop", "DiffPoly.__mul__", "diffop.poly_mul", None),
    ("curlmat.diffop", "DiffPoly.__rmul__", "diffop.poly_mul", None),
    ("curlmat.diffop", "DiffPoly.symbol", "diffop.symbol", None),
    ("curlmat.diffop", "OpMatrix.symbol_at", "diffop.symbol", None),
    ("curlmat.identities", "verify_core_identities", "identities.core", _reports),
    ("curlmat.identities", "verify_power_laws", "identities.powers", _reports),
    ("curlmat.identities", "verify_exponential", "identities.exp", _reports),
    ("curlmat.identities", "verify_hermitian_suite", "identities.hermitian", _reports),
    ("curlmat.identities", "verify_complex_suite", "identities.complex", _reports),
    ("curlmat.spectral", "apply_operator", "spectral.apply_operator", None),
    ("curlmat.spectral", "helmholtz", "spectral.helmholtz", None),
    ("curlmat.spectral", "relative_divergence", "spectral.residuals", None),
    ("curlmat.spectral", "relative_complex_curl", "spectral.residuals", None),
    ("curlmat.spectral", "write_ctf", "spectral.ctf_write", _file_bytes(1)),
    ("curlmat.spectral", "read_ctf", "spectral.ctf_read", _file_bytes(0)),
    ("numpy.fft", "fftn", "fft", _fft_work),
    ("numpy.fft", "ifftn", "fft", _fft_work),
    ("curlmat.evolve", "random_state", "evolve.random_state", None),
    ("curlmat.evolve", "run_spectral", "evolve.run_spectral", None),
    ("curlmat.evolve", "diagnostics", "evolve.diagnostics", None),
    # Private, but it is the one diagnostics routine both `diagnostics` and
    # the logged steps of `run_spectral` go through.
    ("curlmat.evolve", "_diag_from_modes", "evolve.diagnostics", None),
    ("curlmat.evolve", "step_rk4", "evolve.step_rk4", None),
)


class Tracer:
    """Records spans around wrapped calls; `install` patches, `uninstall` undoes."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = now()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if measure is not None:
                rec[4], rec[5] = measure(args, kwargs, out)
            return out
        return traced

    def install(self) -> None:
        """Wrap every target; modules that imported a function by name are
        patched too, so calls between curlmat modules are seen."""
        holders = [m for key, m in list(sys.modules.items())
                   if key == "curlmat" or key.startswith("curlmat.")]
        for module_name, attr, name, measure in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._patch(owner, fn_name, self.wrap(name, owner.__dict__[fn_name], measure))
                continue
            original = getattr(module, fn_name)
            wrapper = self.wrap(name, original, measure)
            for holder in [module] + holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded in another process under the open span."""
        offset = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, start, end, p, work, nbytes in spans:
            self.spans.append([name, start, end, parent if p < 0 else p + offset,
                               work, nbytes])


def layer_totals(spans: list[list]) -> dict[str, list]:
    """Per span name: [calls, self seconds, work, bytes]."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, list] = {}
    for i, (name, start, end, _, work, nbytes) in enumerate(spans):
        t = totals.setdefault(name, [0, 0.0, 0, 0])
        t[0] += 1
        t[1] += end - start - child[i]
        t[2] += work
        t[3] += nbytes
    return totals
