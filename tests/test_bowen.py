"""Root solving for the dimension equation."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pressurelab as pl
from conftest import GOLDEN, markov_root, moran_root, toral_dimension
from pressurelab import bowen
from pressurelab.bowen import _logsumexp_pressure, _newton_solve


def test_bowen_root_linear():
    root = pl.bowen_root(lambda t: 1.0 - 2.0 * t, 0.0, 1.0, tol=1e-12)
    assert root == pytest.approx(0.5, abs=1e-11)


def test_bowen_root_needs_sign_change():
    with pytest.raises(pl.NoSignChange):
        pl.bowen_root(lambda t: 1.0 + t, 0.0, 1.0)


def test_self_similar_dimensions_match_independent_bisection():
    # equal slopes: closed form log 2 / log 3
    oracle = moran_root((3.0, 3.0))
    assert oracle == pytest.approx(math.log(2.0) / math.log(3.0), abs=1e-12)
    rep = pl.dimension_report(pl.cookie_cutter(3.0, 3.0), depth=12)
    # bisection stops at 1e-9 and extrapolation doubles that error
    assert rep.t_root == pytest.approx(oracle, abs=1e-8)

    # mixed slopes: closed form log(golden ratio) / log 2
    oracle = moran_root((2.0, 4.0))
    assert oracle == pytest.approx(math.log(GOLDEN) / math.log(2.0),
                                   abs=1e-12)
    rep = pl.dimension_report(pl.cookie_cutter(2.0, 4.0), depth=12)
    assert rep.t_root == pytest.approx(oracle, abs=1e-8)


def test_full_interval_maps_have_dimension_one():
    rep = pl.dimension_report(pl.doubling_map(), depth=10)
    assert rep.t_root == pytest.approx(1.0, abs=1e-10)
    rep = pl.dimension_report(pl.circle_map(2, 0.02), depth=12)
    assert rep.t_root == pytest.approx(1.0, abs=1e-3)


def test_golden_mean_dimension():
    # both branches stretch by exactly the golden ratio and the domains
    # cover the interval with no gap, so the invariant set has dimension 1
    mp = pl.golden_mean_map()
    assert mp.min_expansion == pytest.approx(GOLDEN, abs=1e-12)
    assert mp.max_expansion == pytest.approx(GOLDEN, abs=1e-12)
    rep = pl.dimension_report(mp, depth=14)
    assert rep.t_root == pytest.approx(1.0, abs=1e-12)


def test_toral_bracket_and_conformal_root():
    rep = pl.dimension_report(pl.toral_map(2, 3), depth=8)
    assert rep.t_lower == pytest.approx(math.log(6.0) / math.log(3.0),
                                        abs=1e-9)
    assert rep.t_upper == pytest.approx(2.0, abs=1e-9)
    assert math.isnan(rep.t_root)

    rep = pl.dimension_report(pl.toral_conformal_map(3), depth=8)
    assert rep.t_root == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("depth", [1, 8, 64, 1000])
def test_toral_dimensions_match_the_closed_form_at_any_depth(depth):
    """Newton on the closed-form torus pressures, past float range of A^k."""
    for a in range(2, 7):
        for b in range(2, 7):
            t_lower, t_upper = toral_dimension(a, b)
            rep = pl.dimension_report(pl.toral_map(a, b), depth=depth)
            assert abs(rep.t_lower - t_lower) <= 1e-12
            assert abs(rep.t_upper - t_upper) <= 1e-12


def test_report_history_depths():
    rep = pl.dimension_report(pl.cookie_cutter(3.0, 3.0), depth=12)
    assert tuple(d for d, _, _ in rep.per_depth) == (6, 12)
    assert rep.depth == 12
    assert rep.separation > 0.0
    # at even depths the extrapolant is 2 t(n) - t(n / 2), bit for bit
    (_, half, _), (_, full, _) = rep.per_depth
    assert rep.t_lower == 2.0 * full - half


@pytest.mark.parametrize("depth", [9, 11, 13])
def test_odd_depth_extrapolants_cancel_the_first_order_error(depth):
    """At n = 2m + 1 the extrapolant weighs t(n) - t(m) by m / (n - m).

    The map has a gap and its third branch cannot follow itself, so the
    root is no Moran root: the spectral radius oracle gives it.  With
    2 t(n) - t(m) the O(1/n) error would remain, 1e-3 to 2e-3 here.
    """
    domains = ((0.0, 0.2), (0.4, 0.6), (0.8, 1.0))
    images = ((0.0, 1.0), (0.0, 1.0), (0.0, 0.6))
    rep = pl.dimension_report(pl.linear_markov(domains, images), depth)
    assert abs(rep.t_root - markov_root(domains, images)) <= 2e-4


def _bisected_root(sums, depth, hi):
    """Clamped root of the log-sum-exp pressure by plain bisection."""
    def pressure(t):
        return pl.logsumexp(-t * sums) / depth

    if pressure(0.0) <= 0.0:
        return 0.0
    if pressure(hi) >= 0.0:
        return hi
    return pl.bowen_root(pressure, 0.0, hi, tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1,
                max_size=40),
       st.integers(min_value=1, max_value=12),
       st.sampled_from([1.0, 2.0]))
def test_newton_root_matches_bisection_on_any_sums(row, depth, hi):
    """Positive sums give a convex decreasing pressure; both routes agree.

    Short rows and large sums push the root to 0 or past hi, so both
    clamps are reached as well as interior roots.
    """
    sums = np.asarray(row)
    got = _newton_solve(_logsumexp_pressure(sums, depth), hi, 1e-10)
    assert 0.0 <= got <= hi
    assert got == pytest.approx(_bisected_root(sums, depth, hi), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.floats(min_value=0.01, max_value=10.0),
                         min_size=1, max_size=20),
                min_size=1, max_size=5),
       st.integers(min_value=1, max_value=8),
       st.sampled_from([1.0, 2.0]),
       st.sampled_from([1, 2, 20]))
def test_newton_windows_equal_one_window_solves(rows, depth, hi, steps):
    """A Newton pass over windows gives each window's own root, bit for bit.

    Capping the Newton steps makes windows stall, so some roots come from
    the fallback bisection on their own brackets.
    """
    one = [_logsumexp_pressure(np.asarray(row), depth) for row in rows]

    def windows(t):
        pairs = [fn(float(x)) for fn, x in
                 zip(one, np.broadcast_to(t, (len(one),)))]
        return tuple(np.array(v) for v in zip(*pairs))

    with mock.patch.object(bowen, "_NEWTON_STEPS", steps):
        got = _newton_solve(windows, hi, 1e-10)
        expect = [_newton_solve(fn, hi, 1e-10) for fn in one]
    assert got.shape == (len(rows),)
    assert got.tolist() == expect


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1,
                max_size=300),
       st.integers(min_value=1, max_value=12),
       st.floats(min_value=0.0, max_value=2.0))
def test_logsumexp_pressure_matches_the_matmul_reference(row, depth, t):
    """P and P' of the softmax sums agree with a w @ sums slope."""
    sums = np.asarray(row)
    x = -t * sums
    top = float(x.max())
    w = np.exp(x - top)
    total = float(w.sum())
    value = (top + math.log(total)) / depth
    slope = -(float(w @ sums) / total) / depth
    got_value, got_slope = _logsumexp_pressure(sums, depth)(t)
    assert got_value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert got_slope == pytest.approx(slope, rel=1e-12, abs=0.0)


def test_newton_root_clamps_exactly():
    # a single word has pressure 0 at t = 0
    one = _logsumexp_pressure(np.array([3.0]), 4)
    assert _newton_solve(one, 1.0, 1e-10) == 0.0
    # slow words keep the pressure positive up to hi
    slow = _logsumexp_pressure(np.full(2 ** 6, 6 * math.log(1.5)), 6)
    assert _newton_solve(slow, 1.0, 1e-10) == 1.0
    # the doubling map's pressure vanishes exactly at hi
    full = _logsumexp_pressure(np.full(2 ** 6, 6 * math.log(2.0)), 6)
    assert _newton_solve(full, 1.0, 1e-10) == 1.0


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=2.1, max_value=6.0),
       st.floats(min_value=2.1, max_value=6.0),
       st.integers(min_value=2, max_value=12))
def test_dimension_report_roots_match_bisection(r1, r2, depth):
    rep = pl.dimension_report(pl.cookie_cutter(r1, r2), depth=depth)
    for d, t_lower, t_upper in rep.per_depth:
        logd = pl.CylinderSet(pl.cookie_cutter(r1, r2),
                              d).log_derivative_sums()[-1]
        expect = _bisected_root(logd, d, 1.0)
        assert t_lower == pytest.approx(expect, abs=1e-9)
        assert t_upper == t_lower


def test_newton_falls_back_to_bisection_when_its_certificate_fails():
    """A slope a trillion times too steep stops Newton after one 5e-13
    step; the certificate around that step finds no sign change, so the
    root is bisected on the bracket."""
    root = _newton_solve(lambda t: (0.5 - t, -1e12), 1.0, 1e-10)
    assert abs(root - 0.5) <= 1e-10
    windows = _newton_solve(
        lambda t: (np.array([0.5, 0.25]) - t, np.full(2, -1e12)), 1.0, 1e-10)
    assert np.all(np.abs(windows - [0.5, 0.25]) <= 1e-10)


def test_bisection_stops_at_the_float_floor():
    # no float lies between two neighbours, so a zero tolerance ends there
    assert pl.bowen_root(lambda t: 0.5 - t, 0.0, 1.0, tol=0.0) == 0.5
