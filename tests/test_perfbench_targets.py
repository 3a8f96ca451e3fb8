"""The benchmark tracer's targets must resolve against the library.

`perfbench/tracing.py` wraps curlmat functions by module and attribute name;
a rename or a refactor that drops one would crash a traced benchmark run.
"""

import importlib
import importlib.util
import json
import os
import subprocess
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


def test_traced_cli_process_resolves_every_target(tmp_path):
    # a CLI process loads the numeric half only when a command needs it, so
    # the tracer's install is what imports it in a traced `build`; every
    # target still resolves, and the command's calls are traced
    out = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(TRACING.parents[1] / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(TRACING.parent / "cli_launch.py"), "0", str(out),
         "build", "--op", "curl", "--l", "2"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    names = {name for name, *_ in json.loads(out.read_text())["spans"]}
    assert {"cli.build", "builders"} <= names


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
    # and no FFT is made, so counts repeat exactly
    monkeypatch.setattr(evolve, "SPLIT_MODES", 0)
    monkeypatch.setattr(spectral, "_cpu_count", lambda: 2)
    paired, run_paired = [], spectral._run_paired
    monkeypatch.setattr(spectral, "_run_paired",
                        lambda *halves: paired.append(1) or run_paired(*halves))
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
    assert len(paired) == 2 * (2 if dump_every else 1)  # one per stretch to a dump or the end
    assert runs[0] == runs[1]
    counts = runs[0]
    assert len(logs) == 4
    assert counts["evolve.diagnostics"] == len(logs)
    assert counts["evolve.run_spectral"] == 1
    # 0 FFTs: the state's F+- spectra go to the eigen frame as they are, and
    # the final state and the dumps are built as spectra; this dump_fn reads
    # no field, so none is made
    assert "fft" not in counts and ffts == []


def test_every_rk4_step_and_log_is_traced(tracing):
    # run_rk4 is no target of its own and marches its steps itself: each
    # log is one top-level `_diag_from_modes` span, by its module-level
    # name, and no step is a `step_rk4` call
    state = evolve.random_state(GridSpec((8, 8, 8), (2 * np.pi,) * 3), 1, seed=4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, logs = evolve.run_rk4(state, 0.02, 7, log_every=3)
    finally:
        tracer.uninstall()
    top = [name for name, _, _, parent, _, _ in tracer.spans if parent == -1]
    assert top.count("evolve.diagnostics") == len(logs) == 4
    assert "evolve.step_rk4" not in {name for name, *_ in tracer.spans}


def test_every_step_rk4_call_is_traced(tracing):
    # evolve-rk4 times 100 step_rk4 calls: one span each, and no log
    state = evolve.random_state(GridSpec((8, 8, 8), (2 * np.pi,) * 3), 1, seed=4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for _ in range(100):
            state = evolve.step_rk4(state, 0.02)
    finally:
        tracer.uninstall()
    counts = {name: calls for name, (calls, *_) in tracing.layer_totals(tracer.spans).items()}
    assert counts["evolve.step_rk4"] == 100 and "evolve.diagnostics" not in counts


@pytest.mark.parametrize("dump_every", [None, 3])
def test_split_rk4_run_pairs_once_per_stretch(tracing, monkeypatch, dump_every):
    # the column halves march from dump to dump: one `_run_paired` per
    # stretch, and the logs are formed on this thread from both halves' sums
    monkeypatch.setattr(evolve, "SPLIT_MODES", 0)
    monkeypatch.setattr(spectral, "_cpu_count", lambda: 2)
    paired, run_paired = [], spectral._run_paired
    monkeypatch.setattr(spectral, "_run_paired",
                        lambda *halves: paired.append(threading.current_thread())
                        or run_paired(*halves))
    state = evolve.random_state(GridSpec((8, 8, 8), (2 * np.pi,) * 3), 1, seed=4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, logs = evolve.run_rk4(state, 0.02, 7, log_every=2, dump_every=dump_every,
                                 dump_fn=lambda s, step: None)
    finally:
        tracer.uninstall()
    assert tracer._stack == []
    assert paired == [threading.current_thread()] * (3 if dump_every else 1)  # 0-3-6-7
    counts = {name: calls for name, (calls, *_) in tracing.layer_totals(tracer.spans).items()}
    assert counts["evolve.diagnostics"] == len(logs) == 5
    assert "evolve.step_rk4" not in counts and "fft" not in counts


def test_split_step_is_traced_whole(tracing, monkeypatch):
    # the F- half runs on a thread of its own, and so does the second batch
    # of the split inverse FFT that makes a step's fields when they are
    # read; their spans still land in the one span list, and the tracer's
    # stack comes back as it was.  The one-step table, and the curl symbol
    # it is built from, are built once, not by both halves at once, so
    # counts repeat
    monkeypatch.setattr(spectral, "_cpu_count", lambda: 2)
    monkeypatch.setattr(evolve, "SPLIT_MODES", 0)
    monkeypatch.setattr(spectral, "FFT_SPLIT_SAMPLES", 0)
    grid = GridSpec((8, 8, 8), (2 * np.pi,) * 3)
    state = evolve.random_state(grid, 1, seed=4)
    spectral.symbol_entries.cache_clear()
    evolve._rk4_table.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # so a race to the symbol cache would show
    try:
        with tracer.span("outer"):
            stack = list(tracer._stack)
            for _ in range(3):
                state = evolve.step_rk4(state, 0.02)
                assert state.te.data.shape == state.tb.data.shape
            assert tracer._stack == stack
    finally:
        sys.setswitchinterval(interval)
        tracer.uninstall()
    assert tracer._stack == []
    counts = {name: calls for name, (calls, *_) in tracing.layer_totals(tracer.spans).items()}
    assert counts["evolve.step_rk4"] == 3
    # no step transforms; each of the 3 reads makes one ifftn of the pair,
    # split into 2 batches: 3 * 2
    assert counts["fft"] == 3 * 2
    entries = spectral.symbol_entries(build_curl_ldotgrad(1), grid)
    assert counts["diffop.symbol"] == len(entries)
