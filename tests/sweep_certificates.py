"""Certificate sweep: the sha256 of 565 certificate ``repr``s, rerunnable.

The sweep certifies the digon, the 7 polyhedra and the 3- to 12-gons under
Shannon, Tsallis and Renyi at every alpha in ALPHAS (558 certificates),
plus the 7 polyhedra rotated through ``HsPovm.from_json`` under Shannon,
one rotation each, drawn from ROTATION_SEED.  Each line is
``label<TAB>repr`` or ``label<TAB>ExceptionType: message``; the hash is
over the lines joined by newlines.  Two checkouts with the same hash give
the same certificates, exceptions included.

Run from the repository root:

    PYTHONPATH=src python tests/sweep_certificates.py [--lines FILE]

``--lines`` also writes the lines, so two sweeps can be diffed.  The file
name keeps it out of pytest's collection.
"""

from __future__ import annotations

import argparse
import hashlib
import json

import numpy as np

from hspovm.bloch import SHANNON, EntropyKernel
from hspovm.catalog import HsPovm, make_hs_povm
from hspovm.certificate import certify_minimum

POLYHEDRA = ("tetrahedron", "octahedron", "cube", "cuboctahedron",
             "icosahedron", "dodecahedron", "icosidodecahedron")
ALPHAS = (0.3, 0.5, 0.7, 0.9, 1.2, 1.4, 1.6, 1.9, 2, 2.5, 2.9, 3, 3.5, 4, 5)
ROTATION_SEED = 2024


def rotation(rng) -> np.ndarray:
    """A rotation matrix from a normal quaternion."""
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                     [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                     [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


def cases():
    """(label, povm factory, kernel) for every certificate of the sweep."""
    kernels = [("shannon", SHANNON)] + [
        (f"{kind}{alpha}", EntropyKernel(kind, alpha))
        for kind in ("tsallis", "renyi") for alpha in ALPHAS]
    families = ["digon", *POLYHEDRA, *(f"{n}-gon" for n in range(3, 13))]
    for family in families:
        for name, kernel in kernels:
            yield f"{family}/{name}", (lambda f=family: make_hs_povm(f)), kernel
    rng = np.random.default_rng(ROTATION_SEED)
    for family in POLYHEDRA:
        coords = make_hs_povm(family).matrix() @ rotation(rng).T
        text = json.dumps({"vectors": coords.tolist(), "family": family})
        yield f"rotated/{family}", (lambda t=text: HsPovm.from_json(t)), SHANNON


def sweep() -> list:
    lines = []
    for label, povm, kernel in cases():
        try:
            out = repr(certify_minimum(povm(), kernel))
        except Exception as err:  # the refusal is part of the record
            out = f"{type(err).__name__}: {err}"
        lines.append(f"{label}\t{out}")
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lines", help="also write the swept lines to this file")
    args = parser.parse_args(argv)
    lines = sweep()
    text = "\n".join(lines)
    if args.lines:
        with open(args.lines, "w") as fh:
            fh.write(text + "\n")
    print(f"{len(lines)} certificates sha256 {hashlib.sha256(text.encode()).hexdigest()}")


if __name__ == "__main__":
    main()
