"""Run one benchmark workload and print its result as the last output line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_lp --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the separate traced pass and prints every per-layer
metric.  The program is imported from ``src/`` of the same checkout; the
script exits non-zero, printing no result, when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.api, repro.dynamics; "
    "print(time.perf_counter() - t)"
)


def import_program() -> float:
    """Put ``src/`` first on the path and import the program; seconds taken."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import repro.api  # noqa: F401
    import repro.dynamics  # noqa: F401

    elapsed = time.perf_counter() - start
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")
    return elapsed


def import_samples(first: float, extra: int = 2) -> list[float]:
    """Import time in-process plus ``extra`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = [first]
    for _ in range(extra):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def stamps(seed: int) -> dict[str, object]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def stop_helpers() -> None:
    """Wait for every process this run started, the resource tracker too.

    ``multiprocessing`` starts its resource tracker (shared memory, spawn
    workers) on demand and, left alone, lets it outlive the run.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    resource_tracker._resource_tracker._stop()


def main() -> int:
    try:
        return run()
    finally:
        stop_helpers()


def run() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    first_import = import_program()
    import workloads

    print(json.dumps({"stamps": stamps(args.seed), "workload": args.workload}), flush=True)
    traced = bool(args.trace)
    if args.workload == "service_open":
        outcome = workloads.run_service_open(args.seed, args.seconds, traced, ROOT)
    else:
        outcome = getattr(workloads, f"run_{args.workload}")(args.seed, args.seconds, traced)
    for line in outcome.notes:
        print(line)
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")

    if traced:
        # A layer the workload does not exercise reads 0.
        values = {entry["name"]: outcome.metrics.get(entry["name"], 0.0) for entry in spec["per_layer"]}
        units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    else:
        # A server imports the program inside its own start samples.
        imports = 0.0 if args.workload == "service_open" else statistics.median(import_samples(first_import))
        outcome.metrics["setup_s"] = imports + statistics.median(outcome.setups)
        values = {entry["name"]: outcome.metrics[entry["name"]] for entry in spec["end_to_end"]}
        units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
    metrics = {name: {"value": float(value), "unit": units[name]} for name, value in values.items()}
    correct = not outcome.problems
    attempted = max(1, outcome.attempted)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": 0 if correct else attempted,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
