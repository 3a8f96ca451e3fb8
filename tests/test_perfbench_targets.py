"""The benchmark tracer's targets must resolve against the library.

`perfbench/tracing.py` wraps curlmat functions by module and attribute name;
a rename or a refactor that drops one would crash a traced benchmark run.
"""

import importlib
import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from curlmat import evolve, spectral
from curlmat.builders import build_curl_ldotgrad
from curlmat.spectral import GridSpec

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracing):
    assert tracing.TARGETS
    for module_name, attr, _, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, fn_name = attr.rpartition(".")
        # the tracer patches a method in its class's own __dict__
        owner = getattr(module, owner_name) if owner_name else module
        assert fn_name in vars(owner), f"{module_name}.{attr}"
        assert callable(getattr(owner, fn_name)), f"{module_name}.{attr}"


def test_every_logged_step_is_traced(tracing):
    # the benchmark counts logged diagnostics through the private routine
    # that run_spectral calls by its module-level name
    state = evolve.random_state(GridSpec((8, 8, 8), (2 * np.pi,) * 3), 2, seed=4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, logs = evolve.run_spectral(state, 0.02, 6, log_every=2)
    finally:
        tracer.uninstall()
    counts = {name: calls for name, (calls, *_) in tracing.layer_totals(tracer.spans).items()}
    assert len(logs) == 4
    assert counts["evolve.diagnostics"] == len(logs)
    assert counts["evolve.run_spectral"] == 1


@pytest.mark.parametrize("dump_every", [None, 3])
def test_every_logged_step_of_a_split_run_is_traced(tracing, monkeypatch, dump_every):
    # the second column half runs on a thread of its own and calls no traced
    # function: the logs are formed from both halves' sums on this thread,
    # and only a dump or the final fields transform, so counts repeat exactly
    monkeypatch.setattr(evolve, "RK4_SPLIT_SAMPLES", 0)
    monkeypatch.setattr(evolve, "_cpu_count", lambda: 2)
    paired, run_paired = [], evolve._run_paired
    monkeypatch.setattr(evolve, "_run_paired",
                        lambda *gens: paired.append(1) or run_paired(*gens))
    state = evolve.random_state(GridSpec((8, 8, 8), (2 * np.pi,) * 3), 2, seed=4)
    ffts = []
    for name in ("fftn", "ifftn"):
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            ffts.append((_name, threading.current_thread()))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # so a traced call on the worker would show
    try:
        for _ in range(2):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                _, logs = evolve.run_spectral(state, 0.02, 6, log_every=2, dump_every=dump_every,
                                              dump_fn=lambda s, step: None)
            finally:
                tracer.uninstall()
            assert tracer._stack == []
            runs.append({name: calls for name, (calls, *_)
                         in tracing.layer_totals(tracer.spans).items()})
    finally:
        sys.setswitchinterval(interval)
    assert paired == [1, 1]
    assert runs[0] == runs[1]
    counts = runs[0]
    assert len(logs) == 4
    assert counts["evolve.diagnostics"] == len(logs)
    assert counts["evolve.run_spectral"] == 1
    # 2 fftn into the eigen frame, then 2 ifftn per state rebuilt: final and dumps
    assert counts["fft"] == 2 + 2 * (1 + (2 if dump_every else 0))
    assert {thread for _, thread in ffts} == {threading.current_thread()}
    if dump_every is None:
        assert sorted(name for name, _ in ffts) == ["fftn"] * 4 + ["ifftn"] * 4  # two runs


def test_every_rk4_step_and_log_is_traced(tracing):
    # run_rk4 is no target of its own: it calls step_rk4 and diagnostics by
    # their module-level names, so each step and each log is a top-level span
    state = evolve.random_state(GridSpec((8, 8, 8), (2 * np.pi,) * 3), 1, seed=4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, logs = evolve.run_rk4(state, 0.02, 7, log_every=3)
    finally:
        tracer.uninstall()
    top = [name for name, _, _, parent, _, _ in tracer.spans if parent == -1]
    assert top.count("evolve.step_rk4") == 7
    assert top.count("evolve.diagnostics") == len(logs) == 4


def test_split_step_is_traced_whole(tracing, monkeypatch):
    # the TB half's FFTs run on a thread of their own but still land in the
    # one span list, and the tracer's stack comes back as it was; the curl
    # symbol is built once, not by both halves at once, so counts repeat
    monkeypatch.setattr(evolve, "RK4_SPLIT_SAMPLES", 0)
    monkeypatch.setattr(evolve, "_cpu_count", lambda: 2)
    grid = GridSpec((8, 8, 8), (2 * np.pi,) * 3)
    state = evolve.random_state(grid, 1, seed=4)
    spectral.symbol_entries.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # so a race to the symbol cache would show
    try:
        with tracer.span("outer"):
            stack = list(tracer._stack)
            for _ in range(3):
                state = evolve.step_rk4(state, 0.02)
            assert tracer._stack == stack
    finally:
        sys.setswitchinterval(interval)
        tracer.uninstall()
    assert tracer._stack == []
    counts = {name: calls for name, (calls, *_) in tracing.layer_totals(tracer.spans).items()}
    assert counts["evolve.step_rk4"] == 3
    assert counts["fft"] == 4 * 3
    entries = spectral.symbol_entries(build_curl_ldotgrad(1), grid)
    assert counts["diffop.symbol"] == len(entries)
