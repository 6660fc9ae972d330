import pytest

from hspovm.catalog import make_hs_povm
from hspovm.certificate import _family_record

POLYHEDRA = ("tetrahedron", "octahedron", "cube", "cuboctahedron",
             "icosahedron", "dodecahedron", "icosidodecahedron")
ALL_FAMILIES = ("digon",) + POLYHEDRA

_cache = {}


def povm_for(family, n=None):
    key = (family, n)
    if key not in _cache:
        _cache[key] = make_hs_povm(family, n)
    return _cache[key]


def record_nodes(family):
    """The exact node set of the family's record, read from its counts."""
    return tuple(t for t, _ in _family_record(family).node_counts)


@pytest.fixture(params=ALL_FAMILIES)
def named_povm(request):
    return povm_for(request.param)
