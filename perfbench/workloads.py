"""Seeded inputs and the op list of each workload.

The seed chooses only the seeded inputs (polygon order, rectangle angles,
alpha values and rotations); catalog families, their canonical orientation
and the grid sizes are fixed.  Rotations come from the QR factorization of
a seeded Gaussian matrix with the determinant fixed to +1, so the
benchmark needs numpy alone (no scipy).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import hspovm as hp
from hspovm import cli

import oracle

WORKLOADS = ("solve", "certify", "grid")
CATALOG = ("digon", "tetrahedron", "octahedron", "cube", "cuboctahedron",
           "icosahedron", "dodecahedron", "icosidodecahedron")
POLYHEDRA = CATALOG[1:]
BIFURCATION = 1.17056        # rectangle threshold, acceptance criterion 7

SCAN_GRID = 200_000          # find_extrema default scan, left at its default
MAP_GRID = 200_000
MAP_FAMILY = "icosidodecahedron"
SPHERE_POINTS = 1_000_000
LANDSCAPE_POINTS = 20_000
RATE_DEPTH = 6
GRID_SIZES = {"find_extrema_scan": SCAN_GRID, "entropy_map": MAP_GRID,
              "sphere_average": SPHERE_POINTS, "landscape": LANDSCAPE_POINTS,
              "entropy_rate_strings": 8 ** (RATE_DEPTH + 1)}

# The alpha = 2 Tsallis endpoint costs ~3-6 s per input in the one-sidedness
# grid, so it runs on the inputs whose verdicts the oracle pins (digon,
# tetrahedron) and on the two that fail at the seed.
ENDPOINT_INPUTS = ("digon", "cuboctahedron", "icosidodecahedron")

#: group tag -> rotation-axis directions used as inert test points
AXES = {
    "T": ((0, 0, 1), (1, 1, 1)),
    "O": ((0, 0, 1), (0, 1, 1), (1, 1, 1)),
    "I": ((0, 0, 1), (0, oracle.TAU, 1), (0, 1 / oracle.TAU, oracle.TAU)),
    "D2": ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    "C": ((0, 0, 1),),
}


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


@dataclass(frozen=True)
class Seeded:
    """Every seeded input, drawn in a fixed order from one generator."""

    ngon_n: int
    rect_below: float
    rect_above: float
    solve_renyi: float
    tsallis: float
    renyi: float
    rotation: np.ndarray
    landscape_renyi: float
    rate_rotation: np.ndarray


def seeded(seed: int) -> Seeded:
    rng = np.random.default_rng(seed)
    return Seeded(
        ngon_n=int(rng.integers(5, 13)),
        rect_below=float(rng.uniform(0.5, BIFURCATION - 0.1)),
        rect_above=float(rng.uniform(BIFURCATION + 0.1, 1.5)),
        solve_renyi=float(rng.uniform(1.2, 1.6)),
        tsallis=float(rng.uniform(0.3, 0.9)),
        renyi=float(rng.uniform(1.2, 1.6)),
        rotation=random_rotation(rng),
        landscape_renyi=float(rng.uniform(1.2, 1.6)),
        rate_rotation=random_rotation(rng),
    )


@dataclass
class Op:
    """One call into a public function plus the oracle for its output.

    ``span`` names the layer and function (``module.function``); ``attrs``
    carry what the per-layer metrics group by.  An exception listed in
    ``refusals`` is a correct answer (the program declined the input).
    """

    name: str
    span: str
    call: Callable[[], Any]
    check: Callable[[Any], Any]
    attrs: dict = field(default_factory=dict)
    refusals: tuple = ()


def coords(povm) -> np.ndarray:
    return np.array([oracle.as_point(v) for v in povm.vectors])


def kernel_of(kind: str, alpha=None):
    return hp.SHANNON if kind == "shannon" else hp.EntropyKernel(kind, alpha)


def catalog_inputs(s: Seeded) -> dict:
    """The nine highly symmetric inputs: the catalog plus a seeded n-gon."""
    inputs = {f: hp.make_hs_povm(f) for f in CATALOG}
    inputs["ngon"] = hp.make_hs_povm("n-gon", s.ngon_n)
    return inputs


def inert_points(povm) -> list:
    tag = "C" if povm.group.startswith("C_") else povm.group
    points = [-coords(povm)[0]]
    for axis in AXES[tag]:
        a = np.array(axis, float) / np.linalg.norm(axis)
        if all(np.linalg.norm(a - p) > 1e-9 for p in points):
            points.append(a)
    return points


# ---------------------------------------------------------------- workloads

def solve_ops(s: Seeded) -> list:
    inputs = catalog_inputs(s)
    rect = {"rectangle_below": hp.make_rectangle_povm(s.rect_below),
            "rectangle_above": hp.make_rectangle_povm(s.rect_above)}
    renyi = kernel_of("renyi", s.solve_renyi)
    ops = []

    def extrema(name, povm, check, kernel=hp.SHANNON):
        ops.append(Op(f"solve/find_extrema/{name}", "entropy.find_extrema",
                      lambda: hp.find_extrema(povm, "min", kernel=kernel),
                      check, {"input": name}))

    for name, povm in inputs.items():
        V = coords(povm)
        extrema(name, povm, lambda r, V=V: oracle.check_minima(r, V))
    for name, povm in rect.items():
        V = coords(povm)
        below = name.endswith("below")
        extrema(name, povm, lambda r, V=V, b=below: oracle.check_rectangle(r, V, b))
    V_cube = coords(inputs["cube"])
    extrema("renyi_cube", inputs["cube"],
            lambda r: oracle.check_minima(r, V_cube, "renyi", s.solve_renyi), renyi)

    for name, povm in {**inputs, **rect}.items():
        V = coords(povm)
        for i, u in enumerate(inert_points(povm)):
            b = hp.BlochVector.from_array(u)
            ops.append(Op(f"solve/classify/{name}/{i}", "entropy.classify_inert_point",
                          lambda b=b, povm=povm: hp.classify_inert_point(b, povm),
                          lambda r, u=u, V=V: oracle.check_classification(r, u, V),
                          {"input": name, "point": u, "povm": povm}))
    return ops


def certify_ops(s: Seeded) -> list:
    inputs = catalog_inputs(s)
    kernels = [("shannon", None), ("tsallis", s.tsallis), ("renyi", s.renyi)]
    ops = []

    def certify(name, label, povm, family, kind, alpha):
        V = coords(povm)
        kernel = kernel_of(kind, alpha)
        ops.append(Op(f"certify/{label}/{name}", "certificate.certify_minimum",
                      lambda: hp.certify_minimum(povm, kernel),
                      lambda r: oracle.check_certificate(r, V, family, kind, alpha),
                      {"input": name, "kernel": kind, "povm": povm}))

    for kind, alpha in kernels:
        label = "shannon" if kind == "shannon" else kind
        for name, povm in inputs.items():
            certify(name, label, povm, povm.family, kind, alpha)
    for name in ENDPOINT_INPUTS:
        povm = inputs[name]
        certify(name, "tsallis2", povm, povm.family, "tsallis", 2.0)
    for family in POLYHEDRA:
        V = coords(inputs[family]) @ s.rotation.T
        text = json.dumps({"vectors": V.tolist(), "family": family})

        def rotated(text=text):
            return hp.certify_minimum(hp.HsPovm.from_json(text))

        ops.append(Op(f"certify/rotated/{family}", "certificate.certify_minimum",
                      rotated,
                      lambda r, V=V, f=family: oracle.check_certificate(r, V, f),
                      {"input": family, "kernel": "rotated"},
                      refusals=(ValueError,)))
    return ops


def grid_ops(s: Seeded, scratch: str) -> list:
    ico = hp.make_hs_povm(MAP_FAMILY)
    cube = hp.make_hs_povm("cube")
    V_ico, V_cube = coords(ico), coords(cube)
    path = os.path.join(scratch, "entropy-map.csv")
    argv = ["entropy-map", "--family", MAP_FAMILY, "--grid", str(MAP_GRID),
            "--out", path]
    ops = []

    def entropy_map(threads):
        def call():
            if threads == 1:
                os.environ.pop("POVM_ENTROPY_THREADS", None)
            else:
                os.environ["POVM_ENTROPY_THREADS"] = str(threads)
            code = cli.main(argv)
            return code, os.path.getsize(path)

        def check(result):
            try:
                code, size = result
                oracle.expect(code == 0, f"entropy-map exit code {code}")
                stats = oracle.check_entropy_map(path, V_ico, MAP_GRID)
            finally:
                if os.path.exists(path):
                    os.remove(path)
            return {**stats, "bytes": size}

        ops.append(Op(f"grid/entropy_map/threads{threads}", "cli.main", call, check,
                      {"threads": threads}))

    entropy_map(1)
    entropy_map(2)
    ops.append(Op("grid/sphere_average", "info.sphere_average_relative_entropy",
                  lambda: hp.sphere_average_relative_entropy(ico, SPHERE_POINTS),
                  oracle.check_sphere_average))
    renyi = kernel_of("renyi", s.landscape_renyi)
    ops.append(Op("grid/landscape", "entropy.landscape",
                  lambda: hp.landscape(cube, LANDSCAPE_POINTS, kernel=renyi),
                  lambda r: oracle.check_landscape(r, V_cube, "renyi",
                                                   s.landscape_renyi,
                                                   LANDSCAPE_POINTS)))
    R = s.rate_rotation
    rotation = hp.UnitaryAsRotation(R)
    ops.append(Op("grid/entropy_rate", "dynamics.empirical_entropy_rate",
                  lambda: hp.empirical_entropy_rate(rotation, cube, RATE_DEPTH),
                  lambda r: oracle.check_entropy_rate(r, R, V_cube),
                  {"strings": cube.k ** (RATE_DEPTH + 1)}))
    return ops


def build(workload: str, seed: int, scratch: str) -> list:
    s = seeded(seed)
    if workload == "solve":
        return solve_ops(s)
    if workload == "certify":
        return certify_ops(s)
    if workload == "grid":
        return grid_ops(s, scratch)
    raise ValueError(f"unknown workload {workload!r}")


def describe(seed: int) -> dict:
    drawn = {k: v.tolist() if isinstance(v, np.ndarray) else v
             for k, v in vars(seeded(seed)).items()}
    return {"seed": seed, **drawn, "grid_sizes": GRID_SIZES}
