"""Run one curlmat benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of the workload one at a time, each in a fresh interpreter
(worker.py): at least three, and more while the next one, at the median
length so far, still ends within S seconds.  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
each the median over the repetitions.  With --trace 1 repetitions alternate
traced and untraced, and the metrics are the per-layer metrics: the median
over the traced repetitions, step latencies from the untraced ones, and the
tracing overhead as traced minus untraced median run_s.  Counts must repeat
exactly across the traced repetitions; that is one more correctness check.

Exit code 0 when every check passed, 1 when one failed, 2 when the program
sources are missing.  A run record (seed, sizes, versions, raw repetitions)
goes to perfbench/.work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import now
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".work"
MIN_REPS = 3
BUDGET_S = 150      # start no repetition after this; a run must end within 180 s
REP_TIMEOUT_S = 170
EXACT_UNITS = ("count", "bytes")
BLAS_THREADS = "1"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_group(cmd: list[str], env, timeout: float) -> tuple[int | None, str, str]:
    """Run cmd in a process group of its own; on timeout (code None) or
    interrupt, kill the whole group, the worker's CLI children too, and reap it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
        return proc.returncode, stdout, stderr
    except subprocess.TimeoutExpired:
        return None, "", ""
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()


def run_rep(args, index: int, traced: bool, work: Path, env, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work)]
    if traced:
        cmd += ["--spans", str(OUT / f"trace-{args.workload}-seed{args.seed}-rep{index}.jsonl")]
    spawned = now()
    code, stdout, stderr = run_group(cmd, env, timeout)
    wall_s = now() - spawned
    if code is None:
        return {"ok": False, "wall_s": wall_s,
                "notes": [f"repetition {index} timed out after {timeout:.0f} s"]}
    if code != 0:
        return {"ok": False, "wall_s": wall_s,
                "notes": [f"repetition {index} exited {code}: {stderr.strip()[-2000:]}"]}
    rep = json.loads(stdout.strip().splitlines()[-1])
    rep.update(ok=True, traced=traced, wall_s=wall_s, setup_s=rep["setup_end"] - spawned)
    return rep


def end_to_end(reps: list[dict]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in reps)
            for key in ("setup_s", "run_s", "peak_rss_mb")}


def per_layer(reps: list[dict], spec: dict) -> tuple[dict[str, float], list[str]]:
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    exact = {m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS}
    values = {name: (value if name in exact
                     else statistics.median(r["layers"][name] for r in traced))
              for name, value in traced[0]["layers"].items()}
    steps = [s for r in plain for s in r.get("step_ms", [])]
    deciles = statistics.quantiles(steps, n=10) if len(steps) >= 2 else [0.0] * 9
    values["evolve.step_rk4.p50_ms"] = deciles[4]
    values["evolve.step_rk4.p90_ms"] = deciles[8]
    values["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                  - statistics.median(r["run_s"] for r in plain))
    unsteady = [name for name in sorted(exact)
                if len({r["layers"].get(name) for r in traced}) > 1]
    return values, unsteady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "curlmat" / "__init__.py").is_file():
        print(f"error: no curlmat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"run-{os.getpid()}"
    work.mkdir()
    env = child_env()
    reps: list[dict] = []
    start = now()
    try:
        while True:
            elapsed = now() - start
            if len(reps) >= MIN_REPS and (
                    elapsed + statistics.median(r["wall_s"] for r in reps) > args.seconds):
                break
            if elapsed > BUDGET_S:
                break
            traced = bool(args.trace) and len(reps) % 2 == 0
            rep = run_rep(args, len(reps), traced, work, env, REP_TIMEOUT_S - elapsed)
            reps.append(rep)
            if not rep["ok"]:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [r for r in reps if r["ok"]]
    attempted = sum(r.get("attempted", 1) for r in reps)
    failed = sum(r.get("failed", 1) for r in reps)
    notes = [n for r in reps for n in r["notes"]]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics: dict[str, float] = {}
    if len(good) == len(reps) and len(good) >= MIN_REPS:
        if args.trace:
            metrics, unsteady = per_layer(good, spec)
            attempted += 1
            if unsteady:
                failed += 1
                notes.append("counts differ between traced repetitions: " + ", ".join(unsteady))
        else:
            metrics = end_to_end(good)
    elif not notes:
        notes.append(f"only {len(good)} repetitions finished within {BUDGET_S} s")
        failed += 1

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": WORKLOADS[args.workload].sizes,
        "python": platform.python_version(),
        "numpy": good[0]["numpy"] if good else None,
        "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "repetitions": [{k: v for k, v in r.items() if k not in ("step_ms", "layers")}
                        for r in reps],
        "metrics": metrics, "notes": notes,
    }
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for note in notes:
        print(f"check failed: {note}", file=sys.stderr)
    for m in wanted:
        if m["name"] in metrics:
            print(f"{m['name']}: {metrics[m['name']]:.6g} {m['unit']}", file=sys.stderr)

    correct = failed == 0 and all(m["name"] in metrics for m in wanted)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
