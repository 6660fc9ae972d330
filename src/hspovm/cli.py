"""Command-line interface.

Subcommands: generate, validate, entropy-map, minimize, classify, certify,
info-power, ngon-sweep, dynent, bifurcation, table5.  Machine outputs
(JSON/CSV) print 17 significant digits and carry a schema_version field;
tables (`table5`, `info-power --format table`) print 5 digits.  Exit codes:
0 success, 1 certificate failure, 2 usage error, 3 internal error (any
other exception, reported on one `error:` line).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import certificate as cert_mod
from . import dynamics, entropy, info
from .bloch import BlochVector
from .catalog import (FAMILIES, HsPovm, inert_directions, make_hs_povm,
                      make_rectangle_povm, validate_povm)
from .entropy import DEFAULT_GRID, fibonacci_sphere

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    subcommand: str
    family: str = ""
    n: int = None                  # type: ignore[assignment]
    alpha: float = None            # type: ignore[assignment]
    out: str = ""
    infile: str = ""
    grid: int = DEFAULT_GRID
    fmt: str = "table"
    bits: bool = False
    point: str = ""
    rotation: str = ""
    ngon_range: str = "3..64"
    depth: int = 3


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _emit(text: str, out: str):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _scale(value: float, config: RunConfig) -> float:
    return value / math.log(2.0) if config.bits else value


def _resolve_povm(config: RunConfig) -> HsPovm:
    if config.infile:
        with open(config.infile) as fh:
            return HsPovm.from_json(fh.read())
    if config.family == "rectangle":
        if config.alpha is None:
            raise SystemExit("rectangle family needs --alpha")
        return make_rectangle_povm(config.alpha)
    return make_hs_povm(config.family, config.n)


# ---------------------------------------------------------------- commands

def _cmd_generate(config: RunConfig) -> int:
    povm = _resolve_povm(config)
    payload = {"schema_version": SCHEMA_VERSION,
               "vectors": [[float(c) for c in row] for row in povm.matrix()],
               "family": povm.family}
    _emit(json.dumps(payload, indent=2) + "\n", config.out)
    return 0


def _cmd_validate(config: RunConfig) -> int:
    povm = _resolve_povm(config)
    report = validate_povm(povm.vectors)
    payload = {"schema_version": SCHEMA_VERSION,
               "family": povm.family,
               "k": povm.k,
               "is_povm": report.is_povm,
               "informationally_complete": report.informationally_complete,
               "design_order": report.design_order,
               "moment_deviation": [[t, _g17(v)] for t, v in report.moment_values]}
    _emit(json.dumps(payload, indent=2) + "\n", config.out)
    return 0


def _cmd_entropy_map(config: RunConfig) -> int:
    povm = _resolve_povm(config)
    points = fibonacci_sphere(config.grid)
    H = _scale(entropy._entropy_values(points, povm), config)
    rows = np.column_stack([points, H, _scale(math.log(povm.k), config) - H])
    row_format = ",".join(["%.17g"] * 5) + "\n"
    _emit("x,y,z,H,Hrel\n" + row_format * len(rows) % tuple(rows.ravel().tolist()),
          config.out)
    return 0


def _critical_point_payload(c, config: RunConfig) -> dict:
    return {"location": [_g17(v) for v in c.location.as_array()],
            "value": _g17(_scale(c.value, config)),
            "kind": c.kind,
            "type": c.type_label,
            "statistic": None if math.isnan(c.classifier_statistic)
            else _g17(c.classifier_statistic)}


def _cmd_minimize(config: RunConfig) -> int:
    povm = _resolve_povm(config)
    extrema = entropy.find_extrema(povm, "min", n_scan=config.grid)
    payload = {"schema_version": SCHEMA_VERSION,
               "family": povm.family,
               "count": len(extrema),
               "minima": [_critical_point_payload(c, config) for c in extrema]}
    _emit(json.dumps(payload, indent=2) + "\n", config.out)
    return 0


def _cmd_classify(config: RunConfig) -> int:
    povm = _resolve_povm(config)
    if config.point:
        coords = [float(x) for x in config.point.split(",")]
        points = [BlochVector.from_array(np.array(coords) / np.linalg.norm(coords))]
    else:
        points = inert_directions(povm)
    results = [entropy.classify_inert_point(u, povm) for u in points]
    payload = {"schema_version": SCHEMA_VERSION,
               "family": povm.family,
               "points": [_critical_point_payload(c, config) for c in results]}
    _emit(json.dumps(payload, indent=2) + "\n", config.out)
    return 0


def _cmd_certify(config: RunConfig) -> int:
    povm = _resolve_povm(config)
    started = time.perf_counter()
    cert = cert_mod.certify_minimum(povm)
    elapsed = time.perf_counter() - started
    payload = {
        "schema_version": SCHEMA_VERSION,
        "family": cert.family,
        "valid": cert.valid,
        "nodes": [[_g17(t), m] for t, m in cert.nodes],
        "polynomial_degree": cert.polynomial.degree,
        "polynomial_coefficients": [_g17(c) for c in
                                    cert.polynomial.coefficients_float()],
        "invariant_coefficients": {k: _g17(v) for k, v in
                                   cert.coefficients.items()},
        "min_gap": _g17(cert.below_check[0]),
        "gap_argmin": _g17(cert.below_check[1]),
        "constant_bound": cert.constant_bound,
        "beta": None if cert.beta is None else _g17(cert.beta),
        "certified_minimum": _g17(cert.certified_minimum),
        "orbit_min_verdict": cert.orbit_min_verdict,
        "uniqueness_verdict": cert.uniqueness_verdict,
        "sturm_root_count": cert.sturm_roots,
        "sturm_precision_bits": cert.sturm_precision_bits,
        "wall_clock_seconds": _g17(elapsed),
        "reason": cert.reason,
    }
    _emit(json.dumps(payload, indent=2) + "\n", config.out)
    return 0 if cert.valid else 1


def _info_rows(config: RunConfig) -> list:
    if config.family in ("", "all"):
        families = tuple(info.TABLE_REFERENCE)
    else:
        families = (config.family,)
    rows = []
    for family in families:
        povm = make_hs_povm(family, config.n)
        W = info.informational_power(povm)
        rows.append((povm.family, povm.k, W))
    return rows


def _cmd_info_power(config: RunConfig) -> int:
    rows = _info_rows(config)
    if config.fmt == "json":
        payload = {"schema_version": SCHEMA_VERSION,
                   "unit": "bits" if config.bits else "nats",
                   "rows": [{"family": f, "k": k, "W": _g17(_scale(W, config))}
                            for f, k, W in rows]}
        _emit(json.dumps(payload, indent=2) + "\n", config.out)
    elif config.fmt == "csv":
        lines = ["family,k,W"] + [f"{f},{k},{_g17(_scale(W, config))}"
                                  for f, k, W in rows]
        _emit("\n".join(lines) + "\n", config.out)
    else:
        lines = [f"{'family':20s} {'k':>3s} {'W':>10s}"]
        for f, k, W in rows:
            lines.append(f"{f:20s} {k:3d} {_scale(W, config):10.5f}")
        _emit("\n".join(lines) + "\n", config.out)
    return 0


def _cmd_table5(config: RunConfig) -> int:
    lines = [f"{'family':20s} {'k':>3s} {'W':>10s} {'reference':>10s} {'delta':>10s}"]
    max_delta = 0.0
    for family, ref in info.TABLE_REFERENCE.items():
        povm = make_hs_povm(family)
        W = info.informational_power(povm)
        delta = abs(W - ref)
        max_delta = max(max_delta, delta)
        lines.append(f"{family:20s} {povm.k:3d} {W:10.5f} {ref:10.5f} {delta:10.2e}")
    lines.append(f"{'average (ln2 - 1/2)':20s} {'':3s} "
                 f"{info.average_relative_entropy(2):10.5f}")
    lines.append(f"max |delta| = {max_delta:.2e}")
    _emit("\n".join(lines) + "\n", config.out)
    return 0


def _cmd_ngon_sweep(config: RunConfig) -> int:
    try:
        lo, hi = config.ngon_range.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise SystemExit(f"bad range {config.ngon_range!r}; expected e.g. 3..64")
    lines = ["n,W"]
    for n in range(lo, hi + 1):
        lines.append(f"{n},{_g17(_scale(info.ngon_informational_power(n), config))}")
    _emit("\n".join(lines) + "\n", config.out)
    return 0


def _parse_rotation(spec: str) -> dynamics.UnitaryAsRotation:
    axis = np.array([0.0, 0.0, 1.0])
    angle = 0.0
    for part in spec.split(","):
        key, _, value = part.partition("=")
        if key == "axis":
            named = {"x": [1, 0, 0], "y": [0, 1, 0], "z": [0, 0, 1]}
            if value in named:
                axis = np.array(named[value], float)
            else:
                axis = np.array([float(c) for c in value.split(":")])
        elif key == "angle":
            angle = float(value)
        else:
            raise SystemExit(f"bad rotation component {part!r}")
    return dynamics.UnitaryAsRotation.about_axis(axis, angle)


def _cmd_dynent(config: RunConfig) -> int:
    povm = _resolve_povm(config)
    rotation = _parse_rotation(config.rotation) if config.rotation \
        else dynamics.UnitaryAsRotation.identity()
    value = dynamics.dynamical_entropy(rotation, povm)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "family": povm.family,
        "rotation": config.rotation or "identity",
        "dynamical_entropy": _g17(_scale(value, config)),
        "measurement_entropy": _g17(_scale(dynamics.measurement_entropy(povm),
                                           config)),
        "entropy_rate_check": _g17(_scale(
            dynamics.empirical_entropy_rate(rotation, povm, config.depth), config)),
    }
    _emit(json.dumps(payload, indent=2) + "\n", config.out)
    return 0


def _cmd_bifurcation(config: RunConfig) -> int:
    threshold = entropy.rectangle_bifurcation_threshold()
    payload = {"schema_version": SCHEMA_VERSION,
               "threshold": _g17(threshold),
               "defining_equation": "cos(a/2) ln(tan^2(a/4)) = -2"}
    _emit(json.dumps(payload, indent=2) + "\n", config.out)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "validate": _cmd_validate,
    "entropy-map": _cmd_entropy_map,
    "minimize": _cmd_minimize,
    "classify": _cmd_classify,
    "certify": _cmd_certify,
    "info-power": _cmd_info_power,
    "ngon-sweep": _cmd_ngon_sweep,
    "dynent": _cmd_dynent,
    "bifurcation": _cmd_bifurcation,
    "table5": _cmd_table5,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hspovm",
        description="Highly symmetric qubit POVMs: entropy, certificates, "
                    "informational power")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        flags = ("--out", "--report") if name == "minimize" else ("--out",)
        p.add_argument(*flags, default="", help="output path (default stdout)")
        if name in ("entropy-map", "minimize", "classify", "info-power",
                    "ngon-sweep", "dynent"):      # the entropy outputs
            p.add_argument("--bits", action="store_true",
                           help="display entropies in bits instead of nats")
        return p

    def add_family(p):
        p.add_argument("--family", default="",
                       help=", ".join(FAMILIES + ("rectangle",)))
        p.add_argument("--n", type=int, default=None, help="polygon order")
        p.add_argument("--alpha", type=float, default=None,
                       help="rectangle diagonal angle")
        p.add_argument("--in", dest="infile", default="",
                       help="POVM JSON file instead of a named family")

    for name in ("generate", "validate", "minimize", "classify", "certify",
                 "dynent"):
        add_family(add(name))
    p = add("entropy-map")
    add_family(p)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    sub.choices["minimize"].add_argument("--grid", type=int, default=DEFAULT_GRID)
    sub.choices["classify"].add_argument("--point", default="",
                                         help="x,y,z of the point to classify")
    sub.choices["dynent"].add_argument("--rotation", default="",
                                       help="axis=z,angle=0.7853981633974483")
    sub.choices["dynent"].add_argument("--depth", type=int, default=3)
    p = add("info-power")
    p.add_argument("--format", dest="fmt", default="table",
                   choices=["json", "csv", "table"])
    p.add_argument("--family", default="all")
    p.add_argument("--n", type=int, default=None)
    p = add("ngon-sweep")
    p.add_argument("--range", dest="ngon_range", default="3..64")
    add("bifurcation")
    add("table5")
    return parser


def main(argv=None) -> int:
    values = vars(_build_parser().parse_args(argv))
    config = RunConfig(**{k: v for k, v in values.items()
                          if k in RunConfig.__dataclass_fields__})
    try:
        return run(config)
    except (ValueError, OSError, SystemExit) as err:
        if isinstance(err, SystemExit) and isinstance(err.code, int):
            raise
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:   # a defect or an input the proofs cannot handle
        print(f"error: {type(err).__name__}: {err}".splitlines()[0], file=sys.stderr)
        return 3


def run(config: RunConfig) -> int:
    if config.subcommand not in _COMMANDS:
        raise SystemExit(2)
    return _COMMANDS[config.subcommand](config)


if __name__ == "__main__":
    sys.exit(main())
