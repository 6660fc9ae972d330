"""One benchmark process: set-up, a measured run, or a traced run.

    python3 perfbench/child.py setup --workload W --seed N
    python3 perfbench/child.py run   --workload W --seed N --seconds S
    python3 perfbench/child.py trace --workload W --seed N

``run.py`` starts these with ``src`` on PYTHONPATH and reads the JSON
object each prints as its last line.  Every workload runs in a process of
its own, so the peak resident memory reported is the workload's.
"""

import time

_start = time.perf_counter()
import hspovm  # noqa: E402  (timed: the first import of the process)

IMPORT_S = time.perf_counter() - _start

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
THREADS_ENV = "POVM_ENTROPY_THREADS"
KNOWN_FAILURES = json.loads((HERE / "known_failures.json").read_text())
CERTIFICATE_STAGES = ("hermite_interpolate", "verify_below", "assemble_lower_bound",
                      "expand_in_invariants", "icosidodeca_positivity")


class StateGuard:
    """Snapshots mpmath's interval precision and POVM_ENTROPY_THREADS around
    an op and restores them afterwards, so op order changes no op's cost.
    Precision left changed by an op is counted as a leak."""

    def __init__(self):
        self.iv_prec_leaks = 0

    @contextlib.contextmanager
    def around(self):
        prec = mpmath.iv.prec
        threads = os.environ.get(THREADS_ENV)
        try:
            yield
        finally:
            if mpmath.iv.prec != prec:
                self.iv_prec_leaks += 1
                mpmath.iv.prec = prec
            if threads is None:
                os.environ.pop(THREADS_ENV, None)
            else:
                os.environ[THREADS_ENV] = threads


@dataclass
class Outcome:
    name: str
    seconds: float
    status: str                 # ok | known | failed
    detail: str = ""
    result: object = None
    stats: dict = field(default_factory=dict)


def _span_attrs(op) -> dict:
    return {k: v for k, v in op.attrs.items() if isinstance(v, (str, int, float))}


def judge(op, seconds: float, result, error) -> Outcome:
    """Outcome of one op: an exception is a failed op (or the recorded known
    failure, or a refusal the op allows), never a benchmark crash."""
    if error is not None:
        text = f"{type(error).__name__}: {error}"
        if isinstance(error, op.refusals):
            return Outcome(op.name, seconds, "ok", f"refused: {text}")
        known = KNOWN_FAILURES.get(op.name)
        if (known and type(error).__name__ == known["error"]
                and known["message"] in str(error)):
            return Outcome(op.name, seconds, "known", text)
        return Outcome(op.name, seconds, "failed", text)
    try:
        stats = op.check(result) or {}
    except Exception as exc:  # an oracle crash is a failed check, too
        return Outcome(op.name, seconds, "failed",
                       f"check: {type(exc).__name__}: {exc}", result)
    return Outcome(op.name, seconds, "ok", "", result, stats)


def run_op(op, tracer, guard: StateGuard) -> Outcome:
    result = error = None
    with guard.around(), tracer.span(op.span, op=op.name, **_span_attrs(op)):
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:
            error = exc
        seconds = time.perf_counter() - start
    return judge(op, seconds, result, error)


def run_pass(workload: str, ops, tracer, guard, pass_id: str) -> list:
    tracer.pass_id = pass_id
    with tracer.span("bench.pass", workload=workload):
        return [run_op(op, tracer, guard) for op in ops]


def pass_seconds(outcomes) -> float:
    return sum(o.seconds for o in outcomes)


def tally(passes) -> dict:
    flat = [o for outcomes in passes for o in outcomes]
    failures = {}
    for o in flat:
        if o.status != "ok":
            failures.setdefault(o.name, {"status": o.status, "detail": o.detail[:300]})
    return {"attempted": len(flat), "ops": len({o.name for o in flat}),
            "failed": sum(o.status == "failed" for o in flat),
            "failures": failures}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build(workload: str, seed: int):
    OUT_DIR.mkdir(exist_ok=True)
    start = time.perf_counter()
    ops = workloads.build(workload, seed, str(OUT_DIR))
    return ops, time.perf_counter() - start


# ---------------------------------------------------------------- modes

def mode_setup(args) -> dict:
    _, build_s = build(args.workload, args.seed)
    return {"import_s": IMPORT_S, "build_s": build_s}


def mode_run(args) -> dict:
    """Runs the op list over and over, op after op, until --seconds have gone
    by and at least one whole pass is done.  Each op's time is the median of
    its samples and ``pass_s`` is their sum, so a last, partial pass counts
    too and one slow stretch of the machine moves only the ops it hit."""
    ops, _ = build(args.workload, args.seed)
    guard = StateGuard()
    outcomes = []
    deadline = time.perf_counter() + args.seconds
    for i in itertools.count():
        if i >= len(ops) and time.perf_counter() >= deadline:
            break
        outcomes.append(run_op(ops[i % len(ops)], tracing.NO_TRACE, guard))
    samples = {op.name: [] for op in ops}
    for o in outcomes:
        samples[o.name].append(o.seconds)
    return {"pass_s": sum(statistics.median(s) for s in samples.values()),
            "passes": len(outcomes) / len(ops),
            "peak_rss_mb": peak_rss_mb(), "inputs": workloads.describe(args.seed),
            **tally([outcomes])}


def per_call_us(fn, calls: int, repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def median_s(fn, repeats: int = 3):
    samples, value = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), value


def probes(tracer, guard, seed: int, solve_ops) -> dict:
    """Layer probes: single public calls timed in isolation."""
    s = workloads.seeded(seed)
    inputs = workloads.catalog_inputs(s)
    ico, cube = inputs["icosidodecahedron"], inputs["cube"]
    m = {}
    with tracer.span("catalog.matrix"):
        m["catalog.matrix_us"] = per_call_us(ico.matrix, 2000)
    rotated = [hspovm.HsPovm.from_json(json.dumps(
        {"vectors": (workloads.coords(inputs[f]) @ s.rotation.T).tolist(),
         "family": f})) for f in workloads.POLYHEDRA]
    with tracer.span("catalog.spherical_design_order") as span:
        for povm in [*inputs.values(), *rotated]:
            hspovm.spherical_design_order(povm.vectors)
    m["catalog.design_order_s"] = tracing.duration(span)

    total = 0.0
    for tag, family in (("T", "tetrahedron"), ("O", "cube"), ("I", "icosahedron")):
        with tracer.span("groups.generate_group", group=tag):
            us = per_call_us(inputs[family].rotation_group, 20, 3)
        m[f"groups.rotation_group.{tag}_us"] = us
        total += us
    m["groups.rotation_group_us"] = total
    classify = [(op.attrs["povm"], hspovm.BlochVector.from_array(op.attrs["point"]))
                for op in solve_ops if op.span == "entropy.classify_inert_point"]
    groups = {id(p): p.rotation_group() for p, _ in classify}
    with tracer.span("groups.orbit_stabilizer") as span:
        for povm, b in classify:
            hspovm.orbit(groups[id(povm)], b)
            hspovm.stabilizer(groups[id(povm)], b)
    m["groups.orbit_stabilizer_s"] = tracing.duration(span)

    with tracer.span("entropy.fibonacci_sphere"):
        m["entropy.fibonacci_sphere_s"], points = median_s(
            lambda: hspovm.fibonacci_sphere(workloads.SPHERE_POINTS))
    dots = points @ workloads.coords(ico).T
    del points
    with tracer.span("bloch.h_array"):
        seconds, out = median_s(lambda: hspovm.bloch.h_array(dots))
    m["bloch.h_array_s"] = seconds
    m["bloch.h_array_ns_per_elem"] = seconds / dots.size * 1e9
    m["bloch.h_array_bytes"] = float(dots.nbytes + out.nbytes)
    del dots, out
    renyi = hspovm.EntropyKernel("renyi", s.landscape_renyi)
    p = (1.0 + workloads.coords(cube) @ np.array([0.6, 0.0, 0.8])) / cube.k
    with tracer.span("bloch.kernel_entropy"):
        m["bloch.kernel_entropy_us"] = per_call_us(lambda: renyi.entropy(p), 5000)
    u = hspovm.BlochVector(0.6, 0.0, 0.8)
    with tracer.span("entropy.entropy_at"):
        m["entropy.entropy_at_us"] = per_call_us(lambda: hspovm.entropy_at(u, ico), 2000)
    with tracer.span("info.sphere_average_relative_entropy", points=workloads.MAP_GRID):
        m["info.sphere_average_200k_s"], _ = median_s(
            lambda: hspovm.sphere_average_relative_entropy(ico, workloads.MAP_GRID))

    for name, povm in inputs.items():
        nodes = tuple((t, 1 if abs(abs(t) - 1.0) < 1e-9 else 2)
                      for t in hspovm.interpolation_set(povm))
        with guard.around():
            with tracer.span("certificate.hermite_interpolate", input=name):
                poly = hspovm.hermite_interpolate(hspovm.SHANNON, nodes)
            with tracer.span("certificate.verify_below", input=name):
                hspovm.verify_below(poly)
            with tracer.span("certificate.assemble_lower_bound", input=name):
                evaluator = hspovm.assemble_lower_bound(povm, poly)
                evaluator(-workloads.coords(povm)[0])
            if povm.family in ("cube", "cuboctahedron", "dodecahedron",
                               "icosidodecahedron"):
                with tracer.span("certificate.expand_in_invariants", input=name):
                    coefficients = hspovm.expand_in_invariants(povm, evaluator)
            if povm.family == "icosidodecahedron":
                with tracer.span("certificate.icosidodeca_positivity"):
                    hspovm.icosidodeca_positivity(
                        coefficients["B"], coefficients["C"], coefficients["D"])
    for stage in CERTIFICATE_STAGES:
        m[f"certificate.{stage}_s"] = tracer.total(f"certificate.{stage}")
    return m


def mode_trace(args) -> dict:
    """Traced passes of every workload plus layer probes, and one untraced
    pass of the selected workload for the tracing overhead."""
    tracer = tracing.Tracer()
    guard = StateGuard()
    ops = {w: build(w, args.seed)[0] for w in workloads.WORKLOADS}
    results, leaks = {}, {}

    def traced(w):
        before = guard.iv_prec_leaks
        results[w] = run_pass(w, ops[w], tracer, guard, f"traced-{w}")
        leaks[w] = guard.iv_prec_leaks - before

    for w in workloads.WORKLOADS:
        if w != args.workload:
            traced(w)
    untraced = run_pass(args.workload, ops[args.workload], tracing.NO_TRACE,
                        guard, "untraced")
    traced(args.workload)
    tracer.pass_id = "probes"
    with tracer.span("bench.probes"):
        m = probes(tracer, guard, args.seed, ops["solve"])

    by_name = {o.name: o for outcomes in results.values() for o in outcomes}
    solve = [o for o in results["solve"] if o.name.startswith("solve/find_extrema/")]
    for o in solve:
        m[f"entropy.find_extrema.{o.name.rsplit('/', 1)[1]}_s"] = o.seconds
    m["entropy.find_extrema_s"] = sum(o.seconds for o in solve)
    m["entropy.minima_found"] = sum(len(o.result) for o in solve if o.result)
    m["entropy.unconverged"] = sum(not c.converged for o in solve if o.result
                                   for c in o.result)
    m["entropy.classify_s"] = sum(o.seconds for o in results["solve"]
                                  if o.name.startswith("solve/classify/"))

    certify = results["certify"]
    shannon = [o for o in certify if o.name.startswith("certify/shannon/")]
    for o in shannon:
        m[f"certificate.certify.{o.name.rsplit('/', 1)[1]}_s"] = o.seconds
    alpha = [o for o in certify if o.name.startswith(("certify/tsallis", "certify/renyi"))]
    m["certificate.certify_alpha_s"] = sum(o.seconds for o in alpha)
    m["certificate.certify_rotated_s"] = sum(o.seconds for o in certify
                                             if o.name.startswith("certify/rotated/"))
    m["certificate.unattributed_s"] = (sum(o.seconds for o in shannon) - sum(
        m[f"certificate.{stage}_s"] for stage in CERTIFICATE_STAGES))
    m["certificate.valid_count"] = sum(
        1 for o in certify if o.result is not None and getattr(o.result, "valid", False))
    ico_cert = by_name["certify/shannon/icosidodecahedron"].result
    m["certificate.sturm_bits"] = (ico_cert.sturm_precision_bits
                                   if ico_cert is not None else 0)
    m["certificate.known_failures"] = sum(o.status == "known" for o in certify)
    m["certificate.iv_prec_leaks"] = leaks["certify"]

    grid = {o.name: o for o in results["grid"]}
    m["info.sphere_average_s"] = grid["grid/sphere_average"].seconds
    m["entropy.landscape_alpha_s"] = grid["grid/landscape"].seconds
    m["dynamics.empirical_entropy_rate_s"] = grid["grid/entropy_rate"].seconds
    m["dynamics.strings"] = next(op.attrs["strings"] for op in ops["grid"]
                                 if op.name == "grid/entropy_rate")
    map1 = grid["grid/entropy_map/threads1"]
    m["cli.entropy_map_s"] = map1.seconds
    m["cli.entropy_map_threads2_s"] = grid["grid/entropy_map/threads2"].seconds
    m["cli.serialize_s"] = map1.seconds - m["info.sphere_average_200k_s"]
    m["cli.bytes_written"] = map1.stats.get("bytes", 0)
    m["cli.rows_written"] = map1.stats.get("rows", 0)

    m["bench.trace_overhead_s"] = (pass_seconds(results[args.workload])
                                   - pass_seconds(untraced))
    for layer, seconds in tracer.self_times().items():
        m[f"layer.{layer}.self_s"] = seconds

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
    tracer.write(str(trace_path), {"workload": args.workload, "seed": args.seed})
    passes = [o for outcomes in results.values() for o in outcomes]
    return {"metrics": m, "trace": str(trace_path),
            "inputs": workloads.describe(args.seed), **tally([passes])}


MODES = {"setup": mode_setup, "run": mode_run, "trace": mode_trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if ROOT / "src" not in Path(hspovm.__file__).resolve().parents:
        print(f"error: hspovm imported from {hspovm.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.environ.pop(THREADS_ENV, None)
    print(json.dumps(MODES[args.mode](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
