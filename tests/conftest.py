import sys
from pathlib import Path

# this checkout's sources, after PYTHONPATH: PYTHONPATH=<other>/src pytest
# tests that other copy with this checkout's tests
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

import pytest
from hypothesis import settings

from rigikit.smallgrp import (
    closure, gl_generators, make_element, sl_generators, so_generators)

# no example database: a run replays no example that an earlier run stored
# in .hypothesis/, so a run under a fixed --hypothesis-seed is reproducible
# from its log alone
settings.register_profile("rigikit", database=None)
settings.load_profile("rigikit")


def _conjugated_group(kind, n, p, rng):
    """The standard generators conjugated by one seeded invertible matrix,
    so that enumeration order, representatives and words all change."""
    projective = kind == "PSL"
    while True:
        a = make_element([[rng.randrange(p) for _ in range(n)] for _ in range(n)],
                         p, projective)
        if a.det():
            break
    if kind in ("SL", "PSL"):
        gens = sl_generators(n, p, projective)
    elif kind == "GL":
        gens = gl_generators(n, p)
    else:
        gens = so_generators(n // 2, p)
    a_inv = a.inverse()
    return closure([a * g * a_inv for g in gens], kind=kind)


@pytest.fixture
def conjugated_group():
    """conjugated_group(kind, n, p, rng): a group enumerated from seeded
    conjugates of its standard generators (PSL taken modulo scalars)."""
    return _conjugated_group
