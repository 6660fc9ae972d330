"""Classifier sweep: the sha256 of 850 ``classify_inert_point`` ``repr``s, rerunnable.

The sweep classifies, for the digon, the 7 polyhedra, the 3- to 12-gons and
the rectangles at the angles in RECTANGLES, the points the ``classify``
command starts from (``catalog.inert_directions``), every vector and every
antipode.  Each input is swept canonical and rotated through
``HsPovm.from_json``, one rotation per input drawn from ROTATION_SEED.
Each line is ``label<TAB>repr`` or ``label<TAB>ExceptionType: message``;
the hash is over the lines joined by newlines.  Two checkouts with the
same hash classify alike, refusals included.

Run from the repository root:

    PYTHONPATH=src python tests/sweep_classify.py [--lines FILE]

``--lines`` also writes the lines, so two sweeps can be diffed.  The file
name keeps it out of pytest's collection.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math

import numpy as np

from hspovm.catalog import HsPovm, inert_directions, make_hs_povm, make_rectangle_povm
from hspovm.entropy import classify_inert_point
from sweep_certificates import POLYHEDRA, rotation

RECTANGLES = (0.7, 1.4, math.pi / 2)
ROTATION_SEED = 2025


def inputs():
    """(label, canonical POVM) for every input of the sweep."""
    for family in ("digon", *POLYHEDRA, *(f"{n}-gon" for n in range(3, 13))):
        yield family, make_hs_povm(family)
    for alpha in RECTANGLES:
        yield f"rectangle {alpha!r}", make_rectangle_povm(alpha)


def _points(povm) -> list:
    """(name, point): the inert directions, then the vectors, then the antipodes."""
    try:
        inert = inert_directions(povm)
    except ValueError as err:       # the refusal is part of the record
        return [("inert", f"{type(err).__name__}: {err}")]
    return ([(f"inert/{i}", u) for i, u in enumerate(inert)]
            + [(f"vector/{j}", v) for j, v in enumerate(povm.vectors)]
            + [(f"antipode/{j}", u) for j, u in enumerate(povm.antipodes)])


def cases():
    """(label, POVM, point or the refusal of inert_directions) in sweep order."""
    rng = np.random.default_rng(ROTATION_SEED)
    for name, povm in inputs():
        coords = povm.matrix() @ rotation(rng).T
        rotated = HsPovm.from_json(json.dumps({"vectors": coords.tolist(),
                                               "family": povm.family}))
        for frame, p in (("canonical", povm), ("rotated", rotated)):
            for point_name, point in _points(p):
                yield f"{name}/{frame}/{point_name}", p, point


def sweep() -> list:
    lines = []
    for label, povm, point in cases():
        if isinstance(point, str):
            lines.append(f"{label}\t{point}")
            continue
        try:
            out = repr(classify_inert_point(point, povm))
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
    print(f"{len(lines)} classifications sha256 {hashlib.sha256(text.encode()).hexdigest()}")


if __name__ == "__main__":
    main()
