"""Command-line interface: one table of subcommands over the library.

`_COMMANDS` maps each subcommand (generate, validate, minimize, classify,
certify, dynent, entropy-map, info-power, ngon-sweep, bifurcation, table5)
to its handler and its options; the parser is built from it and the
parsed arguments are the handler's configuration.  Every JSON payload is
written by `_emit_json`, schema_version first.  Machine outputs (JSON/CSV)
print 17 significant digits; tables (`table5`, `info-power --format
table`) print 5 digits.  Exit codes: 0 success, 1 certificate failure,
2 usage error (argparse's own, or a ValueError or OSError from a
handler), 3 internal error (any other exception, reported on one `error:`
line).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import certificate as cert_mod
from . import dynamics, entropy, info
from .bloch import BlochVector
from .catalog import (FAMILIES, HsPovm, inert_directions, make_hs_povm,
                      make_rectangle_povm, validate_povm)
from .entropy import DEFAULT_GRID, fibonacci_sphere

SCHEMA_VERSION = 1


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _emit(text: str, config):
    if config.out is not None:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(config, **fields):
    payload = {"schema_version": SCHEMA_VERSION, **fields}
    _emit(json.dumps(payload, indent=2) + "\n", config)


def _scale(value: float, config) -> float:
    return value / math.log(2.0) if config.bits else value


def _polygon_order(config):
    """--n, which only --family n-gon reads; refused with any other source."""
    if config.n is not None and config.family not in ("n-gon", "ngon"):
        raise ValueError("--n is read by --family n-gon only")
    return config.n


def _resolve_povm(config) -> HsPovm:
    if config.alpha is not None and config.family != "rectangle":
        raise ValueError("--alpha is read by --family rectangle only")
    if config.infile is not None and config.family is not None:
        raise ValueError("--in and --family both name the POVM; give one")
    if config.infile is not None:
        with open(config.infile) as fh:
            return HsPovm.from_json(fh.read())
    if config.family is None:
        raise ValueError("no POVM: give --family or --in")
    if config.family == "rectangle":
        if config.alpha is None:
            raise ValueError("rectangle family needs --alpha")
        return make_rectangle_povm(config.alpha)
    return make_hs_povm(config.family, _polygon_order(config))


# ---------------------------------------------------------------- commands

def _cmd_generate(config) -> int:
    povm = _resolve_povm(config)
    _emit_json(config, vectors=[[float(c) for c in row] for row in povm.matrix()],
               family=povm.family)
    return 0


def _cmd_validate(config) -> int:
    povm = _resolve_povm(config)
    report = validate_povm(povm.vectors)
    _emit_json(config, family=povm.family, k=povm.k, is_povm=report.is_povm,
               informationally_complete=report.informationally_complete,
               design_order=report.design_order,
               moment_deviation=[[t, _g17(v)] for t, v in report.moment_values])
    return 0


def _cmd_entropy_map(config) -> int:
    povm = _resolve_povm(config)
    points = fibonacci_sphere(config.grid)
    H = _scale(entropy._entropy_values(points, povm), config)
    rows = np.column_stack([points, H, _scale(math.log(povm.k), config) - H])
    row_format = ",".join(["%.17g"] * 5) + "\n"
    _emit("x,y,z,H,Hrel\n" + row_format * len(rows) % tuple(rows.ravel().tolist()),
          config)
    return 0


def _critical_point_payload(c, config) -> dict:
    return {"location": [_g17(v) for v in c.location.as_array()],
            "value": _g17(_scale(c.value, config)),
            "kind": c.kind,
            "type": c.type_label,
            "statistic": None if math.isnan(c.classifier_statistic)
            else _g17(c.classifier_statistic)}


def _cmd_minimize(config) -> int:
    povm = _resolve_povm(config)
    extrema = entropy.find_extrema(povm, "min", n_scan=config.grid)
    _emit_json(config, family=povm.family, count=len(extrema),
               minima=[_critical_point_payload(c, config) for c in extrema])
    return 0


def _parse_point(text: str) -> BlochVector:
    """Three finite numbers x,y,z, not all zero, as a unit vector."""
    try:
        coords = np.array([float(x) for x in text.split(",")])
    except ValueError as err:
        raise ValueError(f"--point {text!r}: {err}") from None
    if len(coords) != 3:
        raise ValueError(f"--point {text!r} has {len(coords)} coordinates; "
                         "expected x,y,z")
    if not np.isfinite(coords).all():
        raise ValueError(f"--point {text!r} is not finite")
    if not coords.any():
        raise ValueError(f"--point {text!r} is zero")
    # an exact power-of-two rescaling: the norm cannot overflow or underflow
    coords = np.ldexp(coords, -np.frexp(np.abs(coords).max())[1])
    return BlochVector.from_array(coords / np.linalg.norm(coords))


def _cmd_classify(config) -> int:
    povm = _resolve_povm(config)
    points = [_parse_point(config.point)] if config.point is not None else inert_directions(povm)
    results = [entropy.classify_inert_point(u, povm) for u in points]
    _emit_json(config, family=povm.family,
               points=[_critical_point_payload(c, config) for c in results])
    return 0


def _cmd_certify(config) -> int:
    povm = _resolve_povm(config)
    started = time.perf_counter()
    cert = cert_mod.certify_minimum(povm)
    elapsed = time.perf_counter() - started
    _emit_json(
        config, family=cert.family, valid=cert.valid,
        nodes=[[_g17(t), m] for t, m in cert.nodes],
        polynomial_degree=cert.degree_bound,
        polynomial_coefficients=[_g17(c) for c in cert.polynomial.coefficients],
        invariant_coefficients={k: _g17(v) for k, v in cert.coefficients.items()},
        min_gap=_g17(cert.below_check[0]),
        gap_argmin=_g17(cert.below_check[1]),
        constant_bound=cert.constant_bound,
        beta=None if cert.beta is None else _g17(cert.beta),
        certified_minimum=_g17(cert.certified_minimum),
        orbit_min_verdict=cert.orbit_min_verdict,
        uniqueness_verdict=cert.uniqueness_verdict,
        sturm_root_count=cert.sturm_roots,
        sturm_precision_bits=cert.sturm_precision_bits,
        wall_clock_seconds=_g17(elapsed),
        reason=cert.reason,
    )
    return 0 if cert.valid else 1


def _info_rows(family: str, n) -> list:
    """(family, k, W) of one family, or of every tabulated one for "all"."""
    families = tuple(info.TABLE_REFERENCE) if family == "all" else (family,)
    povms = [make_hs_povm(name, n) for name in families]
    return [(p.family, p.k, info.informational_power(p)) for p in povms]


def _cmd_info_power(config) -> int:
    rows = _info_rows(config.family, _polygon_order(config))
    if config.fmt == "json":
        _emit_json(config, unit="bits" if config.bits else "nats",
                   rows=[{"family": f, "k": k, "W": _g17(_scale(W, config))}
                         for f, k, W in rows])
        return 0
    if config.fmt == "csv":
        lines = ["family,k,W"] + [f"{f},{k},{_g17(_scale(W, config))}"
                                  for f, k, W in rows]
    else:
        lines = [f"{'family':20s} {'k':>3s} {'W':>10s}"] + [
            f"{f:20s} {k:3d} {_scale(W, config):10.5f}" for f, k, W in rows]
    _emit("\n".join(lines) + "\n", config)
    return 0


def _cmd_table5(config) -> int:
    lines = [f"{'family':20s} {'k':>3s} {'W':>10s} {'reference':>10s} {'delta':>10s}"]
    deltas = []
    for family, k, W in _info_rows("all", None):
        ref = info.TABLE_REFERENCE[family]
        deltas.append(abs(W - ref))
        lines.append(f"{family:20s} {k:3d} {W:10.5f} {ref:10.5f} {deltas[-1]:10.2e}")
    lines.append(f"{'average (ln2 - 1/2)':20s} {'':3s} "
                 f"{info.average_relative_entropy(2):10.5f}")
    lines.append(f"max |delta| = {max(deltas):.2e}")
    _emit("\n".join(lines) + "\n", config)
    return 0


def _cmd_ngon_sweep(config) -> int:
    try:
        lo, hi = map(int, config.ngon_range.split(".."))
    except ValueError:
        raise ValueError(f"bad range {config.ngon_range!r}; expected e.g. 3..64") from None
    if not 2 <= lo <= hi:
        raise ValueError(f"--range {config.ngon_range!r} holds no n-gon: need 2 <= lo <= hi")
    lines = ["n,W"] + [f"{n},{_g17(_scale(info.ngon_informational_power(n), config))}"
                       for n in range(lo, hi + 1)]
    _emit("\n".join(lines) + "\n", config)
    return 0


def _parse_rotation(spec: str) -> dynamics.UnitaryAsRotation:
    axis, angle = [0.0, 0.0, 1.0], 0.0
    for part in spec.split(","):
        key, _, value = part.partition("=")
        try:
            if key == "axis":
                named = {"x": [1, 0, 0], "y": [0, 1, 0], "z": [0, 0, 1]}
                axis = named.get(value) or [float(c) for c in value.split(":")]
            elif key == "angle":
                angle = float(value)
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"bad rotation component {part!r}") from None
        if not math.isfinite(angle):
            raise ValueError(f"rotation angle {value!r} is not finite")
    return dynamics.UnitaryAsRotation.about_axis(axis, angle)


def _cmd_dynent(config) -> int:
    povm = _resolve_povm(config)
    deepest = max(n for n in range(9) if povm.k ** (n + 1) <= dynamics.ENUMERATION_BUDGET)
    if config.depth > deepest:      # the rate check enumerates k^(depth + 1) strings
        raise ValueError(f"--depth {config.depth} needs {povm.k}^{config.depth + 1} outcome "
                         f"strings, over the budget of 1e7; the deepest --depth for "
                         f"{povm.family} is {deepest}")
    rotation = (dynamics.UnitaryAsRotation.identity() if config.rotation is None
                else _parse_rotation(config.rotation))
    value = dynamics.dynamical_entropy(rotation, povm)
    _emit_json(
        config, family=povm.family, rotation=config.rotation or "identity",
        dynamical_entropy=_g17(_scale(value, config)),
        measurement_entropy=_g17(_scale(dynamics.measurement_entropy(povm), config)),
        entropy_rate_check=_g17(_scale(
            dynamics.empirical_entropy_rate(rotation, povm, config.depth), config)),
    )
    return 0


def _cmd_bifurcation(config) -> int:
    _emit_json(config, threshold=_g17(entropy.rectangle_bifurcation_threshold()),
               defining_equation="cos(a/2) ln(tan^2(a/4)) = -2")
    return 0


# ------------------------------------------------------------ the one table

def _opt(*flags, **kwargs) -> tuple:
    return flags, kwargs


def positive_int(text: str) -> int:
    """The type of --grid and --depth: an integer of at least 1."""
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


_OUT = _opt("--out", default=None, help="output path (default stdout)")
_BITS = _opt("--bits", action="store_true",
             help="display entropies in bits instead of nats")
_SOURCE = (_opt("--family", default=None, help=", ".join(FAMILIES + ("rectangle",))),
           _opt("--n", type=int, default=None, help="polygon order"),
           _opt("--alpha", type=float, default=None, help="rectangle diagonal angle"),
           _opt("--in", dest="infile", default=None,
                help="POVM JSON file instead of a named family"))
_GRID = _opt("--grid", type=positive_int, default=DEFAULT_GRID)

# subcommand -> (handler, options), in --help order
_COMMANDS = {
    "generate": (_cmd_generate, (_OUT, *_SOURCE)),
    "validate": (_cmd_validate, (_OUT, *_SOURCE)),
    "minimize": (_cmd_minimize, (_opt("--out", "--report", **_OUT[1]), _BITS,
                                 *_SOURCE, _GRID)),
    "classify": (_cmd_classify, (_OUT, _BITS, *_SOURCE,
                                 _opt("--point", default=None,
                                      help="x,y,z of the point to classify"))),
    "certify": (_cmd_certify, (_OUT, *_SOURCE)),
    "dynent": (_cmd_dynent, (_OUT, _BITS, *_SOURCE,
                             _opt("--rotation", default=None,
                                  help="axis=z,angle=0.7853981633974483"),
                             _opt("--depth", type=positive_int, default=3, metavar="DEPTH",
                                  choices=range(1, 9)))),     # the depths dynamics enumerates
    "entropy-map": (_cmd_entropy_map, (_OUT, _BITS, *_SOURCE, _GRID)),
    "info-power": (_cmd_info_power, (_OUT, _BITS,
                                     _opt("--format", dest="fmt", default="table",
                                          choices=["json", "csv", "table"]),
                                     _opt("--family", default="all"),
                                     _opt("--n", type=int, default=None))),
    "ngon-sweep": (_cmd_ngon_sweep, (_OUT, _BITS,
                                     _opt("--range", dest="ngon_range", default="3..64"))),
    "bifurcation": (_cmd_bifurcation, (_OUT,)),
    "table5": (_cmd_table5, (_OUT,)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hspovm",
        description="Highly symmetric qubit POVMs: entropy, certificates, "
                    "informational power")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
    return parser


def main(argv=None) -> int:
    config = _build_parser().parse_args(argv)
    handler, options = _COMMANDS[config.subcommand]
    try:
        for flags, kwargs in options:   # an empty value is refused, not read as absent
            if getattr(config, kwargs.get("dest", flags[0][2:].replace("-", "_"))) == "":
                raise ValueError(f"{flags[0]} is empty")
        return handler(config)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:   # a defect or an input the proofs cannot handle
        print(f"error: {type(err).__name__}: {err}".splitlines()[0], file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
