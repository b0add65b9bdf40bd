"""Expansion exponents and the conformality screen."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pressurelab as pl
from conftest import (COOKIE_PARAMS, affine_cycle, circle_cycle,
                      cookie_branches, golden_branches, primitive_cycles,
                      torus_cycle_exponents)
from pressurelab import dynamics as dyn
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


@pytest.mark.parametrize("mp", [pl.toral_map(2, 3),
                                pl.toral_conformal_map(3)],
                         ids=lambda mp: mp.name)
def test_torus_orbit_exponents_are_the_closed_form(mp):
    expected = torus_cycle_exponents(mp.constant_derivative.tolist())
    start = np.array([0.21, 0.34])
    got = pl.lyapunov_exponents(mp, start, steps=2000)
    assert np.abs(np.subtract(got, expected)).max() <= 1e-12
    with pytest.raises(pl.BadSpec):
        pl.lyapunov_exponents(mp, start, steps=8)
    with pytest.raises(pl.EscapedRepeller):
        pl.lyapunov_exponents(mp, np.array([1.5, 0.5]))


def test_cycle_words_take_only_integral_symbols():
    mp = pl.toral_map(2, 3)
    # a start point given as a tuple of floats is not a word
    with pytest.raises(pl.InadmissibleWord, match="integers"):
        pl.lyapunov_exponents(mp, (0.21, 0.34), steps=2000)
    with pytest.raises(pl.InadmissibleWord):
        mp.check_word((0, 3.0))
    word = (np.int64(0), np.int64(3))
    assert mp.check_word(word) == (0, 3)
    assert pl.lyapunov_exponents(mp, word) == pl.lyapunov_exponents(mp, (0, 3))


def test_torus_cycle_exponents_need_no_periodic_points(monkeypatch):
    def no_call(mapping, word):
        raise AssertionError("periodic_point called for a torus cycle")

    monkeypatch.setattr(lyapunov, "periodic_point", no_call)
    ex = pl.lyapunov_exponents(pl.toral_conformal_map(3), (0, 4, 7))
    assert ex == pytest.approx((math.log(3.0),) * 2, abs=1e-12)


def test_conformality_screen():
    rep = pl.average_conformal_check(pl.cookie_cutter(3.0, 3.0))
    assert rep == (0.0, True)

    # the checks battery's screen
    rep = pl.average_conformal_check(pl.toral_conformal_map(3))
    assert rep.conformal
    assert rep.spread == 0.0

    rep = pl.average_conformal_check(pl.toral_map(2, 3))
    assert not rep.conformal
    assert rep.spread == pytest.approx(math.log(3.0) - math.log(2.0),
                                       abs=1e-9)


_TORUS_PARAMS = st.one_of(
    st.tuples(st.integers(min_value=2, max_value=6),
              st.integers(min_value=2, max_value=6)),
    st.tuples(st.integers(min_value=2, max_value=4)))


def _torus_map(params):
    """The diagonal map of two entries, the quarter turn of one."""
    return pl.toral_map(*params) if len(params) == 2 else \
        pl.toral_conformal_map(*params)


@settings(max_examples=60, deadline=None)
@given(_TORUS_PARAMS, st.lists(st.integers(min_value=0, max_value=35),
                               min_size=1, max_size=12))
def test_torus_screen_and_cycles_match_the_oracle(params, letters):
    mp = _torus_map(params)
    spread = abs(math.log(params[0]) - math.log(params[-1]))
    rep = pl.average_conformal_check(mp)
    assert abs(rep.spread - spread) <= 1e-12
    assert rep.conformal == (spread == 0.0)
    # torus cells form a full shift, so every word closes up
    word = tuple(s % mp.n_symbols for s in letters)
    expected = torus_cycle_exponents(mp.constant_derivative.tolist())
    got = pl.lyapunov_exponents(mp, word)
    assert np.abs(np.subtract(got, expected)).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(_TORUS_PARAMS, st.integers(min_value=1, max_value=2000),
       st.tuples(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                 st.floats(min_value=0.0, max_value=1.0, exclude_max=True)))
def test_torus_cocycle_is_the_eigenvalue_power(params, length, point):
    mp = _torus_map(params)
    hi, lo = torus_cycle_exponents(mp.constant_derivative.tolist())
    cp = pl.cocycle(mp, np.array(point), length)
    assert math.isfinite(cp.log_norm) and math.isfinite(cp.log_conorm)
    assert abs(cp.log_norm - length * hi) <= 1e-9 * length
    assert abs(cp.log_conorm - length * lo) <= 1e-9 * length
    assert cp.steps == length


def test_torus_cocycle_checks_its_start_point():
    with pytest.raises(pl.EscapedRepeller):
        pl.cocycle(pl.toral_map(2, 3), np.array([1.5, 0.5]), 8)


def test_periodic_point_cycle_consistency():
    mp = pl.cookie_cutter(3.0, 3.0)
    word = (0, 1, 1)
    x = pl.periodic_point(mp, word)
    pts, syms = pl.orbit(mp, x, 3)
    assert syms == word
    assert mp.apply(pts[-1]) == pytest.approx(x, abs=1e-12)


_CYCLE_FAMILIES = ([("cookie", p) for p in COOKIE_PARAMS] + [("golden", 2)]
                   + [("circle", (2, 0.02)), ("circle", (3, 0.05)),
                      ("circle", (2, 0.1)), ("circle", (3, 0.0))])


def _golden_word(word):
    """The word with every 1 that follows a 1, cyclically, turned to 0."""
    w = list(word)
    for i in range(1, len(w)):
        if w[i] == w[i - 1] == 1:
            w[i] = 0
    if w[0] == w[-1] == 1:
        w[-1] = 0
    return tuple(w)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_CYCLE_FAMILIES),
       st.lists(st.integers(min_value=0, max_value=2), min_size=1,
                max_size=8))
def test_periodic_orbit_rows_match_the_oracle_cycle(family, letters):
    """Every rotation of the one-solve orbit sits on the oracle cycle."""
    kind, params = family
    if kind == "cookie":
        word = tuple(s % 2 for s in letters)
        mp = pl.cookie_cutter(*params)
        expected = affine_cycle(cookie_branches(*params), word)
    elif kind == "golden":
        word = _golden_word([s % 2 for s in letters])
        mp = pl.golden_mean_map()
        expected = affine_cycle(golden_branches(), word)
    else:
        word = tuple(s % params[0] for s in letters)
        mp = pl.circle_map(*params)
        expected = circle_cycle(*params, word)
    orbit = pl.periodic_orbit(mp, word)
    assert orbit.shape == (len(word),)
    assert max(abs(float(x) - e) for x, e in zip(orbit, expected)) <= 4e-15
    assert pl.periodic_point(mp, word) == float(orbit[0])


def test_torus_periodic_orbit_is_one_newton_step():
    mp = pl.toral_map(2, 3)
    word = (0, 3, 5)
    orbit = pl.periodic_orbit(mp, word)
    assert orbit.shape == (3, 2)
    for j, s in enumerate(word):
        assert np.allclose(mp.apply(orbit[j], symbol=s),
                           orbit[(j + 1) % 3], atol=1e-14)


def _swap_map():
    """One full branch whose inverse swaps two points and fixes none."""

    def inv(y):
        return y - 0.25 if y >= 0.5 else y + 0.25

    def fwd(x):
        return 2.0 * x - 0.5

    def deriv(x):
        return 2.0 + 0.0 * np.asarray(x, dtype=float)

    return pl.ExpandingMap([dyn.Branch1D(0.0, 1.0, fwd, inv, deriv, 2.0,
                                         2.0)])


def test_periodic_orbit_raises_when_the_inverse_does_not_settle():
    with pytest.raises(pl.NoConvergence) as err:
        pl.periodic_orbit(_swap_map(), (0,))
    assert err.value.estimate.shape == (1,)
    with pytest.raises(pl.NoConvergence):
        pl.periodic_point(_swap_map(), (0,))


def test_newton_steps_off_the_domain_take_the_contraction_value():
    """y -> y^2 is an inverse branch of [0, 1] that does not contract near 1.

    From the centre, Newton on y^2 - y first meets a zero slope of G - 1
    and then, from every contraction value below 1/2, lands left of 0, so
    each of those steps must give way to the contraction value.
    """
    seen = []

    def inv(y):
        seen.append(float(y))
        return y * y

    def fwd(x):
        return np.sqrt(x)

    def deriv(x):
        return 0.5 / np.sqrt(np.maximum(x, 1e-300))

    mp = pl.ExpandingMap([dyn.Branch1D(0.0, 1.0, fwd, inv, deriv, 1.01,
                                       2.0)])
    orbit = pl.periodic_orbit(mp, (0,))
    assert abs(float(orbit[0])) <= 1e-15
    assert seen[:3] == [0.5, 0.25, 0.0625]
    assert min(seen) >= -dyn._ALIGN_TOL
    assert len(seen) <= 8


@pytest.mark.parametrize("mp", [pl.toral_map(2, 3), pl.toral_map(4, 2),
                                pl.toral_map(3, 3),
                                pl.toral_conformal_map(2),
                                pl.toral_conformal_map(3)],
                         ids=lambda mp: mp.name + str(mp.n_symbols))
def test_stacked_cycle_exponents_match_the_matrix_power(mp):
    expected = torus_cycle_exponents(mp.constant_derivative.tolist())
    assert np.abs(np.subtract(lyapunov._torus_exponents(mp),
                              expected)).max() <= 1e-12
    cycles = primitive_cycles(mp.adjacency, 3)
    for p in (1, 2, 3):
        words = [w for w in cycles if len(w) == p]
        for w in words[:5]:
            assert pl.lyapunov_exponents(mp, w) == pytest.approx(
                expected, abs=1e-12)
    rep = pl.average_conformal_check(mp)
    assert rep.spread == pytest.approx(expected[0] - expected[1], abs=1e-12)
