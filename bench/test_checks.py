"""Each benchmark check accepts the true output and rejects a corrupted one.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def tc():
    return run.import_tropcalc()


def _first_op(tc, name, seed=3):
    """The workload's first instance and its true output, which must pass."""
    workload = WORKLOADS[name]
    doc, meta = workload.generate(random.Random(f"{name}:{seed}"),
                                  random.Random(f"{name}:shapes"))
    inst = workload.build(tc, doc, meta)[0]
    out = workload.run(tc, inst)
    assert workload.check(tc, inst, out) == []
    return workload, inst, out


def test_intersect_rejects_a_doubled_weight(tc):
    workload, inst, out = _first_op(tc, "intersect")
    w = out["wedge"]
    cells = list(w.cells)
    cell, coeff = cells[0]
    cells[0] = (cell, coeff.scale(2))
    bad = tc.deltaforms.DeltaForm(w.rank, w.ptype, cells, normalize=False)
    assert workload.check(tc, inst, dict(out, wedge=bad))


def test_pushpull_rejects_a_dropped_cell(tc):
    workload, inst, out = _first_op(tc, "pushpull")
    for key in ("pb1", "pb2"):
        pb = out[key]
        bad = tc.deltaforms.DeltaForm(pb.rank, pb.ptype, pb.cells[1:],
                                      normalize=False)
        assert workload.check(tc, inst, dict(out, **{key: bad})), key


@pytest.fixture(scope="module")
def integrate_op(tc):
    return _first_op(tc, "integrate")


@pytest.mark.parametrize("key", ["box2", "box3", "face", "stokes_cell",
                                 "unimodular_image"])
def test_integrate_rejects_an_integral_off_by_a_seventh(tc, integrate_op, key):
    workload, inst, out = integrate_op
    bad = dict(out, **{key: out[key] + Fraction(1, 7)})
    assert workload.check(tc, inst, bad)


def test_chern_rejects_a_flipped_sign(tc):
    workload, inst, out = _first_op(tc, "chern")
    flipped = 0
    for i, side in enumerate(out["sides"]):
        if side["lhs"].is_zero():
            continue
        sides = list(out["sides"])
        sides[i] = dict(side, rhs=side["rhs"].scale(-1))
        assert workload.check(tc, inst, {"sides": sides}), i
        flipped += 1
    assert flipped
