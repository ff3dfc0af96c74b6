"""Tests of the benchmark itself: its reference, grids and tracer.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

The reference is checked against an mpmath quadrature of the
Feynman-parameter integral that shares no code with the closed form, on a
sample from every workload's domain, and the Laurent extraction used for
every grid point against the stored Cauchy-integral one.
"""

import json
import math
import os
import sys

import mpmath as mp
import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import grid  # noqa: E402
import reference  # noqa: E402


def _sample(workload):
    # the random points of seed 0 with the smallest, middle and largest eps
    randoms = [p for p in grid.make_grid(workload, seed=0) if p["role"] == "random"]
    randoms.sort(key=lambda p: p["eps"])
    return [randoms[0], randoms[len(randoms) // 2], randoms[-1]]


SAMPLES = [(w, p) for w in grid.WORKLOADS for p in _sample(w)]
FIXED = [("edge", p) for p in grid.EDGE_POINTS] + [("anchor", p) for p in grid.ANCHOR_POINTS]


@pytest.mark.parametrize("label,point", SAMPLES + FIXED,
                         ids=[f"{w}-{i}" for i, (w, _) in enumerate(SAMPLES + FIXED)])
def test_closed_form_reference_matches_feynman_quadrature(label, point):
    with mp.workdps(40):
        closed = reference.box(point["s"], point["t"], point["eps"], point["msq"])
        quad = reference.feynman(point["s"], point["t"], point["eps"], point["msq"])
        assert abs(closed - quad) / abs(closed) < mp.mpf("1e-28")


def _stored_anchor(a):
    with open(reference.ANCHOR_FILE) as fh:
        rows = json.load(fh)["anchors"]
    for row in rows:
        if reference.anchor_key(row) == reference.anchor_key(a):
            return [mp.mpf(c) for c in row["laurent_text"]]
    raise KeyError(a)


@pytest.mark.parametrize("anchor", grid.ANCHOR_POINTS)
def test_cauchy_laurent_leading_coefficient_is_exact(anchor):
    with mp.workdps(30):
        stored = _stored_anchor(anchor)
        lead = reference.leading_coefficient(anchor["s"], anchor["t"], anchor["msq"])
        assert abs(stored[0] - lead) <= mp.mpf("1e-27") * abs(lead)


@pytest.mark.parametrize("anchor", grid.ANCHOR_POINTS)
def test_step_laurent_matches_cauchy_extraction(anchor):
    with mp.workdps(30):
        stored = _stored_anchor(anchor)
        step = reference.laurent_step(anchor["s"], anchor["t"], anchor["msq"])
        scale = max(abs(c) for c in stored)
        assert max(abs(a - b) for a, b in zip(step, stored)) < mp.mpf("1e-25") * scale


@pytest.mark.parametrize("point", _sample("analytic"))
def test_step_laurent_leading_coefficient_on_grid_sample(point):
    with mp.workdps(30):
        c = reference.laurent_step(point["s"], point["t"], point["msq"])
        lead = reference.leading_coefficient(point["s"], point["t"], point["msq"])
        assert abs(c[0] - lead) < mp.mpf("1e-25") * abs(lead)


@pytest.mark.parametrize("workload", sorted(grid.WORKLOADS))
def test_grid_is_seeded_and_inside_its_domain(workload):
    spec = grid.WORKLOADS[workload]
    a = grid.make_grid(workload, 7)
    assert a == grid.make_grid(workload, 7)
    assert a != grid.make_grid(workload, 8)
    randoms = [p for p in a if p["role"] == "random"]
    assert len(randoms) == spec["points"]
    for p in randoms:
        assert spec["eps"][0] <= p["eps"] <= spec["eps"][1]
        assert grid.S_DECADES[0] <= math.log10(-p["s"]) <= grid.S_DECADES[1]
        lo, hi = spec["t_over_s"]
        assert lo <= math.log10(p["t"] / p["s"]) <= hi
        if p["msq"] is not None:
            for x in (p["s"], p["t"], p["s"] + p["t"]):
                assert abs(p["msq"] / x - 1.0) >= grid.DEGENERACY_MARGIN
    for p in a:
        if p["role"] == "mirrored":
            o = a[p["of"]]
            assert (p["s"], p["t"], p["msq"]) == (o["t"], o["s"], o["msq"])
        if p["role"] == "scaled":
            o = a[p["of"]]
            assert math.log2(p["scale"]).is_integer()
            assert p["s"] == p["scale"] * o["s"] and p["t"] == p["scale"] * o["t"]


def test_grid_round_is_the_same_size_for_every_seed():
    for workload in grid.WORKLOADS:
        sizes = {len(grid.make_grid(workload, seed)) for seed in range(5)}
        assert len(sizes) == 1


def test_tracer_wraps_every_binding_and_restores_them():
    src = os.path.join(os.path.dirname(HERE), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import mbbox.cli  # noqa: F401
    from mbbox import closed_form, specfun
    import tracing

    before = (specfun.f21_1e, closed_form.f21_1e)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert specfun.f21_1e is closed_form.f21_1e is not before[0]
        k = closed_form.Kinematics(s=-1.0, t=-2.0, eps=0.3)
        closed_form.massless_box(k)
    finally:
        tracer.remove()
    assert (specfun.f21_1e, closed_form.f21_1e) == before
    summary = tracer.summary()
    assert summary["calls"]["closed_form.massless_box"] == 1
    assert summary["calls"]["specfun.f21_1e"] == 2
    box_self = summary["self_s"]["closed_form.massless_box"]
    assert 0.0 <= box_self <= summary["total_s"]["closed_form.massless_box"]
