"""Potentials, separated sets, and the pressure functionals."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pressurelab as pl
from conftest import (COOKIE_PARAMS, admissible_count, affine_cycle,
                      cookie_branches, primitive_cycles)


def test_logsumexp_matches_direct():
    vals = np.array([-1.0, 0.5, 2.0])
    assert pl.logsumexp(vals) == pytest.approx(math.log(np.exp(vals).sum()))
    # overflow safe
    assert pl.logsumexp(np.array([1000.0, 1000.0])) == pytest.approx(
        1000.0 + math.log(2.0))
    # no weight at all is log 0
    assert pl.logsumexp([]) == -math.inf
    assert pl.logsumexp([-math.inf, -math.inf]) == -math.inf


def test_potential_constructors():
    mp = pl.doubling_map()
    pts = np.array([0.1, 0.2])
    assert np.allclose(pl.Potential.zero().pointwise(mp, pts), 0.0)
    assert np.allclose(pl.Potential.constant(0.7).pointwise(mp, pts), 0.7)
    geo = pl.Potential.geometric(0.5)
    assert np.allclose(geo.pointwise(mp, pts), -0.5 * math.log(2.0))
    fn = pl.Potential.from_function(lambda x: x * x)
    assert np.allclose(fn.pointwise(mp, pts), pts * pts)


def test_separated_set_counts_and_spacing():
    mp = pl.cookie_cutter(3.0, 3.0)
    sep = pl.separated_set(mp, 6)
    assert sep.count == 2 ** 6
    assert sep.epsilon > 0.0
    # distinct representatives really are separated in the orbit metric
    pts = np.sort(sep.points)
    orbit_gap = min(
        max(abs(a - b) for a, b in zip(pl.orbit(mp, pts[i], 6)[0],
                                       pl.orbit(mp, pts[i + 1], 6)[0]))
        for i in range(0, len(pts) - 1, 9))
    assert orbit_gap >= sep.epsilon


def test_zero_potential_pressure_is_log_branch_count():
    for mp, n in ((pl.doubling_map(), 2), (pl.cookie_cutter(3.0, 3.0), 2),
                  (pl.circle_map(3, 0.05), 3), (pl.toral_map(2, 2), 4)):
        got = pl.pressure_additive(mp, pl.Potential.zero(), 6)
        assert got == pytest.approx(math.log(n), abs=1e-12)


def test_markov_zero_potential_counts_words():
    mp = pl.golden_mean_map()
    for depth in (3, 6, 10):
        got = pl.pressure_additive(mp, pl.Potential.zero(), depth)
        expect = math.log(admissible_count(mp.adjacency, depth)) / depth
        assert got == pytest.approx(expect, abs=1e-12)


def test_product_structure_closed_form():
    """Constant slopes factor the weighted sum at every depth."""
    r1, r2 = 2.0, 4.0
    mp = pl.cookie_cutter(r1, r2)
    for t in (0.3, 0.7, 1.1):
        for depth in (4, 9):
            got = pl.pressure_additive(mp, pl.Potential.geometric(t), depth)
            expect = math.log(r1 ** (-t) + r2 ** (-t))
            assert got == pytest.approx(expect, abs=1e-12)


def test_pressure_limit_converges_on_golden_mean():
    from pressurelab import pressure
    assert (pressure.LIMIT_TOL, pressure.LIMIT_DEPTH) == (1e-3, 16)
    mp = pl.golden_mean_map()
    est = pl.pressure_limit(mp, pl.Potential.zero())
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    assert est.value == pytest.approx(math.log(phi), abs=1e-3)
    assert est.residual <= 1e-3
    assert est.per_depth[0][0] == 2


def test_pressure_limit_no_convergence_carries_estimate(monkeypatch):
    from pressurelab import pressure
    monkeypatch.setattr(pressure, "LIMIT_TOL", 1e-14)
    monkeypatch.setattr(pressure, "LIMIT_DEPTH", 8)
    mp = pl.golden_mean_map()
    with pytest.raises(pl.NoConvergence) as info:
        pl.pressure_limit(mp, pl.Potential.zero())
    assert info.value.estimate is not None
    assert info.value.estimate.depth == 8


def test_transfer_matches_separated_on_full_shift():
    mp = pl.cookie_cutter(2.0, 4.0)
    pot = pl.Potential.geometric(0.6)
    direct = pl.pressure_additive(mp, pot, 10)
    spectral = pl.transfer_pressure(mp, pot, 10)
    assert spectral == pytest.approx(direct, abs=1e-12)


def test_transfer_golden_mean_entropy():
    mp = pl.golden_mean_map()
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    got = pl.transfer_pressure(mp, pl.Potential.zero(), 10)
    assert got == pytest.approx(math.log(phi), abs=5e-4)


@pytest.mark.parametrize("kind", ["singular_upper", "singular_lower"])
@pytest.mark.parametrize("build", [lambda: pl.toral_map(2, 3),
                                   lambda: pl.toral_conformal_map(3)],
                         ids=["toral", "toral_conformal"])
def test_transfer_torus_singular_pressure_is_the_closed_form(build, kind):
    """Torus blocks all weigh alike, so the spectral radius is the count's."""
    mp = build()
    pot = getattr(pl.Potential, kind)(0.7)
    for block_length in range(1, 5):
        assert abs(pl.transfer_pressure(mp, pot, block_length)
                   - pl.pressure_additive(mp, pot, block_length)) <= 1e-12


def test_transfer_cap():
    with pytest.raises(pl.MatrixTooLarge):
        pl.transfer_pressure(pl.circle_map(3, 0.0), pl.Potential.zero(), 16)


def test_subadditive_split_spectrum_bounds():
    mp = pl.toral_map(2, 3)
    t = 1.2
    upper = pl.pressure_subadditive(mp, pl.Potential.singular_upper(t), 8)
    lower = pl.pressure_subadditive(mp, pl.Potential.singular_lower(t), 8)
    assert upper.value == pytest.approx(math.log(6.0) - t * math.log(3.0),
                                        abs=1e-12)
    assert lower.value == pytest.approx(math.log(6.0) - t * math.log(2.0),
                                        abs=1e-12)
    assert "split" in upper.advisory
    with pytest.raises(pl.BadSpec):
        pl.pressure_subadditive(mp, pl.Potential.zero(), 8)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([pl.doubling_map, lambda: pl.cookie_cutter(2.0, 4.0),
                        pl.golden_mean_map, lambda: pl.circle_map(3, 0.05)]),
       st.floats(min_value=0.0, max_value=2.0),
       st.integers(min_value=1, max_value=9))
def test_subadditive_history_matches_additive_on_intervals(build, t, depth):
    """On interval maps the upper singular potential is -t log |f'|."""
    mp = build()
    est = pl.pressure_subadditive(mp, pl.Potential.singular_upper(t), depth)
    assert est.per_depth[-1][0] == depth
    for k, value in est.per_depth:
        expect = pl.pressure_additive(mp, pl.Potential.geometric(t), k)
        assert value == pytest.approx(expect, rel=0.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([lambda: pl.toral_map(2, 3), pl.golden_mean_map,
                        lambda: pl.toral_conformal_map(3),
                        lambda: pl.cookie_cutter(2.0, 4.0),
                        lambda: pl.circle_map(3, 0.05)]),
       st.sampled_from(["singular_upper", "singular_lower"]),
       st.floats(min_value=0.0, max_value=2.0),
       st.integers(min_value=1, max_value=10))
def test_singular_pressure_is_the_final_subadditive_value(build, kind, t,
                                                          depth):
    """Both routes read the same closed form or walk at the final depth."""
    mp = build()
    potential = getattr(pl.Potential, kind)(t)
    assert pl.pressure_additive(mp, potential, depth) == \
        pl.pressure_subadditive(mp, potential, depth).value


@pytest.mark.parametrize("degree, amp, depth", [
    (2, 0.1, 8), (2, 0.1, 9), (2, 0.1, 10), (2, 0.1, 11), (2, 0.1, 12),
    (2, 0.02, 12), (3, 0.05, 6), (3, 0.05, 7), (3, 0.05, 10)])
def test_subadditive_extrapolant_cancels_the_first_order_error(degree, amp,
                                                               depth):
    """Richardson pairs P(n) with P(n // 2) at every depth n.

    At t = 1 the singular pressure of an expanding circle map is exactly 0
    and P(n) is off by order 1/n, which the extrapolant cancels.
    """
    mp = pl.circle_map(degree, amp)
    est = pl.pressure_subadditive(mp, pl.Potential.singular_upper(1.0), depth)
    half = dict(est.per_depth)[depth // 2]
    assert est.residual == abs(est.value - half)
    assert est.extrapolated == ((depth * est.value - (depth // 2) * half)
                                / (depth - depth // 2))
    if depth & (depth - 1) == 0:
        # at powers of two the scalings are exact, so this is
        # 2 P(n) - P(n/2) bit for bit
        assert est.extrapolated == 2.0 * est.value - half
    assert abs(est.extrapolated) <= 0.05 * abs(est.value)


def test_iterated_pressure_telescopes():
    mp = pl.cookie_cutter(3.0, 3.0)
    t = math.log(2.0) / math.log(3.0)
    vals = [pl.iterated_singular_pressure(mp, t, k, budget=16)
            for k in (1, 2, 4, 8)]
    assert max(vals) - min(vals) <= 1e-14
    with pytest.raises(pl.BadSpec):
        pl.iterated_singular_pressure(mp, t, 3, budget=16)


_INTERVAL_BUILDS = (pl.doubling_map, lambda: pl.cookie_cutter(2.0, 4.0),
                    lambda: pl.cookie_cutter(3.0, 3.0), pl.golden_mean_map,
                    lambda: pl.circle_map(2, 0.05))


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.tuples(st.sampled_from(_INTERVAL_BUILDS), st.just(()),
              st.integers(min_value=1, max_value=12)),
    st.tuples(st.just(pl.toral_map),
              st.tuples(st.integers(2, 6), st.integers(2, 6)),
              st.integers(min_value=1, max_value=720)),
    st.tuples(st.just(pl.toral_conformal_map),
              st.tuples(st.integers(2, 6)),
              st.integers(min_value=1, max_value=720))),
    st.floats(min_value=0.0, max_value=2.0),
    st.sampled_from(["upper", "lower"]))
def test_iterated_pressure_is_invariant_under_every_divisor(case, t, kind):
    """P of the k-step singular potential per base step does not depend on k.

    Interval maps telescope the k-step log derivative; diagonal and
    quarter-turn torus maps have sigma(A^k) = sigma(A)^k.  The torus
    budget runs past the depth at which A^k leaves float range.
    """
    build, params, budget = case
    mp = build(*params)
    values = [pl.iterated_singular_pressure(mp, t, k, budget=budget,
                                            kind=kind)
              for k in range(1, budget + 1) if budget % k == 0]
    assert max(values) - min(values) <= 1e-12


@pytest.mark.parametrize("build", [lambda: pl.toral_map(2, 3),
                                   lambda: pl.toral_conformal_map(3)],
                         ids=["toral", "toral_conformal"])
def test_geometric_potential_needs_an_interval_map(build):
    """Torus cells have singular values, not the log f' geometric reads."""
    with pytest.raises(pl.BadSpec, match="singular_upper or singular_lower"):
        pl.pressure_additive(build(), pl.Potential.geometric(0.5), 4)


def test_iterated_pressure_kind_is_checked():
    for mp in (pl.cookie_cutter(3.0, 3.0), pl.toral_map(2, 3)):
        for kind in ("bogus", "Upper", None):
            with pytest.raises(pl.BadSpec, match="upper"):
                pl.iterated_singular_pressure(mp, 1.0, 2, budget=8,
                                              kind=kind)
    mp = pl.toral_map(2, 3)
    upper = pl.iterated_singular_pressure(mp, 1.0, 2, budget=8, kind="upper")
    lower = pl.iterated_singular_pressure(mp, 1.0, 2, budget=8, kind="lower")
    assert upper == pytest.approx(math.log(2.0), abs=1e-12)
    assert lower == pytest.approx(math.log(3.0), abs=1e-12)


def test_variational_gap_doubling_zero_potential():
    mp = pl.doubling_map()
    gap = pl.variational_gap(mp, pl.Potential.zero(), (0, 1), depth=10)
    assert gap == pytest.approx(math.log(2.0), abs=1e-12)
    with pytest.raises(pl.InadmissibleWord):
        pl.variational_gap(pl.golden_mean_map(), pl.Potential.zero(), (1, 1))


def test_variational_gap_geometric_nonnegative():
    mp = pl.cookie_cutter(2.0, 4.0)
    pot = pl.Potential.geometric(0.8)
    for word in ((0,), (1,), (0, 1), (0, 0, 1), (0, 1, 1)):
        assert pl.variational_gap(mp, pot, word, depth=10) >= -1e-6


_GAP_MAPS = {"cookie": pl.cookie_cutter(2.0, 4.0),
             "golden": pl.golden_mean_map(),
             "circle(2,0.02)": pl.circle_map(2, 0.02),
             "circle(3,0.05)": pl.circle_map(3, 0.05),
             "toral(2,3)": pl.toral_map(2, 3)}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(_GAP_MAPS)),
       st.sampled_from(["zero", "geometric(0.5)", "cos"]),
       st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                max_size=8))
def test_variational_gaps_equal_the_one_word_gaps(name, pname, picks):
    """One walk and one evaluation per symbol give every word's own gap."""
    mp = _GAP_MAPS[name]
    pot = {"zero": pl.Potential.zero(),
           "geometric(0.5)": pl.Potential.geometric(0.5),
           "cos": pl.Potential.from_function(
               lambda x: 0.3 * np.cos(2 * np.pi * x).reshape(
                   len(x), -1).sum(axis=1))}[pname]
    if mp.dim == 2 and pname == "geometric(0.5)":
        pot = pl.Potential.singular_upper(0.5)
    cycles = primitive_cycles(mp.adjacency, 6 if mp.n_symbols == 2 else 3)
    words = [cycles[i % len(cycles)] for i in picks]
    depth = 5 if mp.n_symbols > 2 else 8
    gaps = pl.variational_gaps(mp, pot, words, depth=depth)
    assert gaps.shape == (len(words),)
    one = [pl.variational_gap(mp, pot, w, depth=depth) for w in words]
    assert np.abs(gaps - np.array(one)).max() <= 1e-12


@pytest.mark.parametrize("r1,r2", COOKIE_PARAMS)
def test_variational_gaps_match_the_oracle_cycles(r1, r2):
    mp = pl.cookie_cutter(r1, r2)
    words = primitive_cycles(mp.adjacency, 6)
    gaps = pl.variational_gaps(mp, pl.Potential.geometric(0.7), words,
                               depth=10)
    pressure = pl.pressure_additive(mp, pl.Potential.geometric(0.7), 10)
    for word, gap in zip(words, gaps):
        average = -0.7 * sum(math.log((r1, r2)[s]) for s in word) / len(word)
        assert gap == pytest.approx(pressure - average, abs=1e-12)
    sin = pl.Potential.from_function(lambda x: np.sin(3.0 * x))
    gaps = pl.variational_gaps(mp, sin, words, depth=10)
    pressure = pl.pressure_additive(mp, sin, 10)
    for word, gap in zip(words, gaps):
        cycle = affine_cycle(cookie_branches(r1, r2), word)
        average = sum(math.sin(3.0 * x) for x in cycle) / len(word)
        assert gap == pytest.approx(pressure - average, abs=1e-12)


@pytest.mark.parametrize("kind, t", [("singular_upper", 0.7),
                                     ("singular_lower", 1.3)])
@pytest.mark.parametrize("build, cells", [(lambda: pl.toral_map(2, 3), 6),
                                          (lambda: pl.toral_conformal_map(3), 9)],
                         ids=["toral", "toral_conformal"])
def test_torus_variational_gaps_are_the_log_cell_count(build, cells, kind, t):
    """All torus words of one length weigh alike, so pressure minus any
    cycle average is the entropy log n of the full shift on the cells."""
    mp = build()
    words = primitive_cycles(mp.adjacency, 3)
    gaps = pl.variational_gaps(mp, getattr(pl.Potential, kind)(t), words)
    assert gaps.shape == (len(words),)
    assert np.abs(gaps - math.log(cells)).max() <= 1e-12


def test_variational_gaps_walk_once(monkeypatch):
    from pressurelab import pressure as pmod

    walks = []
    real = pmod.CylinderSet

    def counted(*args, **kwargs):
        walks.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(pmod, "CylinderSet", counted)
    mp = pl.circle_map(2, 0.02)
    words = primitive_cycles(mp.adjacency, 5)
    pl.variational_gaps(mp, pl.Potential.geometric(0.5), words, depth=9)
    assert walks == [9]


def test_pressure_reads_a_given_walk():
    mp = pl.cookie_cutter(2.0, 4.0)
    walk = pl.CylinderSet(mp, 7)
    for pot in (pl.Potential.geometric(0.3), pl.Potential.zero()):
        assert (pl.pressure_additive(mp, pot, 7, walk=walk)
                == pl.pressure_additive(mp, pot, 7))
    with pytest.raises(pl.BadSpec):
        pl.pressure_additive(mp, pl.Potential.zero(), 8, walk=walk)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["cookie", "golden", "circle", "torus"]),
       st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2,
                max_size=40))
# a torus point on the upper edge of the unit square
@example("torus", [0.0, 1.0])
def test_pointwise_rows_equal_one_point_values(name, xs):
    """One value function call per branch gives each point's own value."""
    mp = {"cookie": pl.cookie_cutter(3.0, 3.0),
          "golden": pl.golden_mean_map(), "circle": pl.circle_map(3, 0.05),
          "torus": pl.toral_map(2, 3)}[name]
    calls = []

    def value_fn(mapping, symbol, pts):
        calls.append(symbol)
        pts = np.asarray(pts, dtype=float)
        return np.cos(pts if pts.ndim == 1 else pts.sum(axis=1)) + symbol

    pot = pl.Potential("additive", value_fn)
    if mp.dim == 1:
        pts = np.array([x for x in xs if mp.hull[0] <= x <= mp.hull[1]
                        and not (1 / 3 < x < 2 / 3 and name == "cookie")]
                       or [0.0])
    else:
        pts = np.array(xs[:len(xs) // 2 * 2]).reshape(-1, 2)
    values = pot.pointwise(mp, pts)
    assert len(calls) <= mp.n_symbols
    for x, v in zip(pts, values):
        s = mp.symbol(x)
        assert v == value_fn(mp, s, np.array([x]))[0]


def test_conjugacy_check_calls_phi_on_point_arrays(markov_example):
    calls = []

    def phi(x):
        calls.append(np.shape(x))
        return 0.5 * x

    rep = pl.conjugate_pressure_check(
        pl.cookie_cutter(2.0, 4.0), pl.linear_markov(*markov_example), phi,
        pl.Potential.geometric(0.5), depth=8)
    assert abs(rep.slack) <= 1e-9
    assert all(len(shape) == 1 for shape in calls)
    assert len(calls) <= 2 + 8 * 2


def test_conjugacy_identity_and_scaling(markov_example):
    mp = pl.cookie_cutter(2.0, 4.0)
    pot = pl.Potential.from_function(lambda x: 0.4 * np.sin(2 * np.pi * x))
    rep = pl.conjugate_pressure_check(mp, mp, lambda x: x, pot, depth=8)
    assert abs(rep.slack) <= 1e-12
    assert rep.residual <= 1e-12

    # the half scale Markov model is an affine change of coordinates
    half = pl.linear_markov(*markov_example)
    rep = pl.conjugate_pressure_check(mp, half, lambda x: 0.5 * x, pot,
                                      depth=10)
    assert abs(rep.slack) <= 1e-9
    assert rep.residual <= 1e-12


def test_conjugacy_rejects_wrong_intertwiner():
    # halving into branch 0 keeps points on the target domains but does
    # not intertwine the dynamics of the map with itself
    mp = pl.cookie_cutter(2.0, 4.0)
    with pytest.raises(pl.NotSemiConjugate):
        pl.conjugate_pressure_check(mp, mp, lambda x: 0.5 * x,
                                    pl.Potential.zero(), depth=6)


def _circle(degree):
    # amplitudes keep the smallest slope above 1.1
    bound = (degree - 1.1) / (2.0 * math.pi)
    return st.floats(min_value=-bound, max_value=bound).map(
        lambda a: pl.circle_map(degree, a))


_EXPANDING_MAPS = st.one_of(
    st.tuples(st.floats(min_value=2.05, max_value=8.0),
              st.floats(min_value=2.05, max_value=8.0)).map(
        lambda r: pl.cookie_cutter(*r)),
    st.integers(min_value=2, max_value=4).flatmap(_circle))


@settings(max_examples=40, deadline=None)
@given(_EXPANDING_MAPS,
       st.floats(min_value=-1.0, max_value=2.0),
       st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2,
                max_size=4),
       st.integers(min_value=1, max_value=7))
def test_geometric_pressure_is_convex_with_bounded_slope(mp, t0, steps,
                                                         depth):
    """P_n(t) is a log-sum-exp of functions linear in t, so it is convex,
    and its slope is minus a weighted mean of (1/n) S_n log |f'|."""
    ts = [t0]
    for h in steps:
        ts.append(ts[-1] + h)
    values = [pl.pressure_additive(mp, pl.Potential.geometric(t), depth)
              for t in ts]
    slopes = [(values[i + 1] - values[i]) / (ts[i + 1] - ts[i])
              for i in range(len(ts) - 1)]
    for lower, upper in zip(slopes, slopes[1:]):
        assert upper >= lower - 1e-9
    lo = -math.log(mp.max_expansion) - 1e-9
    hi = -math.log(mp.min_expansion) + 1e-9
    assert all(lo <= q <= hi for q in slopes)


_COOKIE = pl.cookie_cutter(3, 3)


@pytest.mark.parametrize("call, error", [
    (lambda: pl.Potential("bogus"), pl.BadSpec),
    (lambda: pl.Potential("additive"), pl.BadSpec),
    (lambda: pl.Potential.singular_upper(1.0).step_values(
        pl.toral_map(2, 3), 0, np.array([[0.1, 0.1]])), pl.BadSpec),
    (lambda: pl.Potential.singular_upper(1.0).pointwise(
        _COOKIE, np.array([0.1])), pl.BadSpec),
    (lambda: pl.pressure_subadditive(_COOKIE, pl.Potential.singular_upper(1.0),
                                     0), pl.BadSpec),
    (lambda: pl.iterated_singular_pressure(_COOKIE, 1.0, 0), pl.BadSpec),
    (lambda: pl.iterated_singular_pressure(_COOKIE, 1.0, 1, budget=0),
     pl.BadSpec),
    (lambda: pl.conjugate_pressure_check(_COOKIE, _COOKIE, lambda x: x,
                                         pl.Potential.singular_upper(1.0)),
     pl.BadSpec),
])
def test_invalid_potentials_and_requests_are_rejected(call, error):
    with pytest.raises(error):
        call()


def test_transfer_no_convergence_carries_estimate(monkeypatch):
    from pressurelab import pressure
    monkeypatch.setattr(pressure, "TRANSFER_ITERATIONS", 1)
    with pytest.raises(pl.NoConvergence) as info:
        pl.transfer_pressure(pl.cookie_cutter(2, 4),
                             pl.Potential.geometric(0.5), 4)
    # one power step from the uniform vector leaves the bracket open
    assert info.value.estimate == pytest.approx(0.2291, abs=1e-4)
