"""Expansion exponents and the conformality screen."""

import math

import pytest

import pressurelab as pl
from pressurelab import lyapunov


def test_cycle_exponent_is_mean_log_slope():
    mp = pl.cookie_cutter(2.0, 4.0)
    (ex,) = pl.lyapunov_exponents(mp, (0, 1))
    assert ex == pytest.approx(0.5 * (math.log(2.0) + math.log(4.0)),
                               abs=1e-12)
    (ex,) = pl.lyapunov_exponents(mp, (0,))
    assert ex == pytest.approx(math.log(2.0), abs=1e-12)


def test_cycle_must_close():
    mp = pl.golden_mean_map()
    with pytest.raises(pl.InadmissibleWord):
        pl.lyapunov_exponents(mp, (1, 1))


def test_orbit_exponent_constant_slope():
    mp = pl.doubling_map()
    (ex,) = pl.lyapunov_exponents(mp, 0.123456, steps=64)
    assert ex == pytest.approx(math.log(2.0), abs=1e-12)
    with pytest.raises(pl.BadSpec):
        pl.lyapunov_exponents(mp, 0.1, steps=8)


def test_toral_cycle_exponents():
    mp = pl.toral_map(2, 3)
    ex = pl.lyapunov_exponents(mp, (0, 3))
    assert ex[0] == pytest.approx(math.log(3.0), abs=1e-12)
    assert ex[1] == pytest.approx(math.log(2.0), abs=1e-12)


def test_torus_cycle_exponents_need_no_periodic_points(monkeypatch):
    def no_call(mapping, word):
        raise AssertionError("periodic_point called for a torus cycle")

    monkeypatch.setattr(lyapunov, "periodic_point", no_call)
    ex = pl.lyapunov_exponents(pl.toral_conformal_map(3), (0, 4, 7))
    assert ex == pytest.approx((math.log(3.0),) * 2, abs=1e-12)


def test_conformality_screen():
    assert pl.average_conformal_check(pl.cookie_cutter(3.0, 3.0)).conformal

    rep = pl.average_conformal_check(pl.toral_conformal_map(3),
                                     period_cap=4, samples=8)
    assert rep.conformal
    assert rep.spread <= 1e-9
    assert rep.periodic_orbits > 0

    rep = pl.average_conformal_check(pl.toral_map(2, 3),
                                     period_cap=4, samples=8)
    assert not rep.conformal
    assert rep.spread == pytest.approx(math.log(3.0) - math.log(2.0),
                                       abs=1e-9)


def test_periodic_point_cycle_consistency():
    mp = pl.cookie_cutter(3.0, 3.0)
    word = (0, 1, 1)
    x = pl.periodic_point(mp, word)
    pts, syms = pl.orbit(mp, x, 3)
    assert syms == word
    assert mp.apply(pts[-1]) == pytest.approx(x, abs=1e-12)
