"""hspovm benchmark: the solve, certify and grid workloads.

    python3 perfbench/run.py --workload {solve,certify,grid} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each workload is a closed loop: one client in one process runs
the workload's fixed op list back to back and checks every output against
a numpy oracle (``oracle.py``).  BENCHMARK.json gates ``solve`` and
``certify``; ``grid`` runs the same way when named, and its ops are part of
every traced run.

``--trace 0`` prints the end-to-end metrics:

* ``pass_s``      wall time of one pass over the op list (inputs built,
                  oracle time excluded): the sum over ops of each op's
                  median time, the ops run back to back for ``--seconds``
                  and at least one whole pass;
* ``setup_s``     median, over five fresh interpreters, of the wall time
                  to start, import hspovm and build the workload's inputs;
* ``peak_rss_mb`` peak resident memory of the process running the passes;
* ``ok_ratio``    ops whose every attempt returned a checked-correct
                  answer, over the ops of the workload, i.e. 1 -
                  failed_ratio.  Ops listed in
                  ``known_failures.json`` that fail exactly as recorded
                  lower it but do not count as unexpected failures.

``--trace 1`` instead runs one traced pass of every workload plus layer
probes and prints the per-layer metrics declared in BENCHMARK.json; the
spans are written to ``.perfbench/trace-<workload>-<seed>.json``.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (unexpected failures) and ``metrics``.  Exit
status is 0 when a result was printed and non-zero otherwise.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve", "certify", "grid")
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("POVM_ENTROPY_THREADS", None)
    # One BLAS thread: the workloads run at most two threads of their own
    # (entropy-map with POVM_ENTROPY_THREADS=2) on a two-core machine, and a
    # BLAS pool beside them makes the timings depend on the scheduler.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    # Fixed string hashing, so set iteration order is the same in every run.
    env["PYTHONHASHSEED"] = "0"
    return env


def child(mode: str, args, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(args, count: int) -> list:
    runs = []
    for _ in range(count):
        start = time.perf_counter()
        report = child("setup", args, SETUP_TIMEOUT_S)
        runs.append({**report, "wall_s": time.perf_counter() - start})
    return runs


def between_setups(mode: str, args) -> tuple:
    """Runs the child in ``mode`` with set-ups before and after it, so the
    set-up median samples the machine over the whole run."""
    setups = measure_setup(args, SETUP_RUNS // 2)
    report = child(mode, args, RUN_TIMEOUT_S)
    return report, setups + measure_setup(args, SETUP_RUNS - len(setups))


def l3_bytes() -> str:
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def environment(args) -> dict:
    return {"nproc": os.cpu_count(), "l3_bytes": l3_bytes(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "mpmath": version("mpmath"), "machine": platform.machine(),
            "seed": args.seed, "workload": args.workload, "trace": args.trace}


def declared(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def end_to_end(args) -> tuple:
    report, setups = between_setups("run", args)
    # Counted over distinct ops, not attempts: a last, partial pass would
    # otherwise move the ratio by which ops it reached.
    ops, failures = report["ops"], report["failures"]
    known = sum(f["status"] == "known" for f in failures.values())
    values = {"pass_s": report["pass_s"],
              "setup_s": statistics.median(s["wall_s"] for s in setups),
              "peak_rss_mb": report["peak_rss_mb"],
              "ok_ratio": 1.0 - len(failures) / ops}
    print(f"passes: {report['passes']:.2f}")
    print(f"failed_ratio: {len(failures) / ops:.4f} ratio ({len(failures)} of "
          f"{ops} ops failed at least once in {report['attempted']} attempts, "
          f"{known} of them recorded known failures)")
    return report, values


def per_layer(args) -> tuple:
    report, setups = between_setups("trace", args)
    values = dict(report["metrics"])
    values["hspovm.import_s"] = statistics.median(s["import_s"] for s in setups)
    values["catalog.make_hs_povm_s"] = statistics.median(s["build_s"] for s in setups)
    print(f"spans: {os.path.relpath(report['trace'], ROOT)}")
    return report, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hspovm benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hspovm" / "__init__.py").is_file():
        print(f"error: no hspovm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        units = declared(args.trace)
        print(f"environment: {json.dumps(environment(args))}")
        report, values = (per_layer if args.trace else end_to_end)(args)
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        print(f"error: metrics missing {missing}, undeclared {extra}", file=sys.stderr)
        return 1
    print(f"inputs: {json.dumps(report['inputs'])}")
    for name, reason in report["failures"].items():
        print(f"{reason['status']}: {name}: {reason['detail']}")
    for name, unit in units.items():
        print(f"  {name:48s} {values[name]:16.6f} {unit}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
