"""Benchmark launcher: runs each workload in a child process and reports.

    python3 perfbench/run.py                      # all three workloads, 36 s each
    python3 perfbench/run.py --workload kernel_long --seed 3 --seconds 30 --trace 1

Run from the repository root. The program is imported from ``src/``; the
launcher caps BLAS threads for the children and records the environment.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``). Exit code 0 on a completed run,
1 when a workload process fails, 2 when the program is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("train_toy", "forecast_eval", "kernel_long")
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def _read(path: str) -> str | None:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return None


def environment() -> dict:
    """Interpreter, numpy and BLAS build, CPU count, model and L3 size."""
    import numpy as np

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    l3 = _read("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3_cache": l3.strip() if l3 else None,
    }


def run_child(workload: str, args) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "localattn" / "__init__.py").is_file():
        print(f"error: the localattn sources are not at {SRC}", file=sys.stderr)
        return 2

    # children inherit the cap; numpy reads it when it loads
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    print("environment " + json.dumps(environment()))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_child(name, args)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    metrics = {f"{name}.{key}": value for name, result in results.items()
               for key, value in result["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
