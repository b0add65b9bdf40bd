"""Construction, orbits, and symbolic coding of the built-in maps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pressurelab as pl
from conftest import GOLDEN, admissible_count, branch_symbol
from pressurelab import dynamics as dyn
from pressurelab import lyapunov
from pressurelab.dynamics import _ALIGN_TOL


def test_doubling_branches():
    mp = pl.doubling_map()
    assert mp.n_symbols == 2
    assert mp.dim == 1
    assert mp.min_expansion == pytest.approx(2.0)
    assert mp.max_expansion == pytest.approx(2.0)
    assert mp.apply(0.3) == pytest.approx(0.6)
    assert mp.apply(0.75) == pytest.approx(0.5)


def test_cookie_cutter_geometry():
    mp = pl.cookie_cutter(2.0, 4.0)
    b0, b1 = mp.branches
    assert (b0.lo, b0.hi) == (0.0, 0.5)
    assert (b1.lo, b1.hi) == (0.75, 1.0)
    # both branches map their domain onto the whole interval
    assert b0.fwd(0.5) == pytest.approx(1.0)
    assert b1.fwd(0.75) == pytest.approx(0.0)
    assert mp.min_expansion == pytest.approx(2.0)
    assert mp.max_expansion == pytest.approx(4.0)


def test_cookie_cutter_rejects_bad_slopes():
    with pytest.raises(pl.NonExpanding):
        pl.cookie_cutter(1.0, 3.0)
    with pytest.raises(pl.BadSpec):
        # 1/1.5 + 1/2 > 1: the two domains would overlap
        pl.cookie_cutter(1.5, 2.0)


def test_circle_map_expansion_window():
    deg, amp = 3, 0.05
    mp = pl.circle_map(deg, amp)
    assert mp.n_symbols == deg
    two_pi = 2.0 * math.pi
    assert mp.min_expansion == pytest.approx(deg - two_pi * amp)
    assert mp.max_expansion == pytest.approx(deg + two_pi * amp)
    with pytest.raises(pl.BadSpec):
        pl.circle_map(1, 0.0)


def test_golden_mean_forbids_repeated_ones():
    mp = pl.golden_mean_map()
    assert mp.adjacency == ((1, 1), (1, 0))
    with pytest.raises(pl.InadmissibleWord):
        mp.check_word((0, 1, 1))
    # counts follow the Fibonacci recursion
    for n in range(1, 10):
        assert mp.count_words(n) == admissible_count(mp.adjacency, n)


def test_linear_markov_adjacency_from_geometry(markov_example):
    domains, images = markov_example
    mp = pl.linear_markov(domains, images)
    assert mp.adjacency == ((1, 1), (1, 1))
    assert mp.branches[0].deriv(0.1) == pytest.approx(2.0)
    assert mp.branches[1].deriv(0.4) == pytest.approx(4.0)


def test_toral_maps():
    mp = pl.toral_map(2, 3)
    assert mp.dim == 2
    assert mp.n_symbols == 6
    assert np.allclose(mp.constant_derivative, [[2.0, 0.0], [0.0, 3.0]])
    assert (mp.min_expansion, mp.max_expansion) == (2.0, 3.0)
    conf = pl.toral_conformal_map(3)
    assert conf.n_symbols == 9
    sv = np.linalg.svd(conf.constant_derivative, compute_uv=False)
    assert sv[0] == pytest.approx(sv[1]) == pytest.approx(3.0)
    # the closed forms are exact on a scaled quarter turn
    assert conf.min_expansion == conf.max_expansion == 3.0


def test_torus_cells_must_tile_the_unit_square():
    # the Jordan block has |det A| = 9 cells, but the offsets {0,1,2}^2
    # give parallelograms A^(-1)([0,1]^2 + k) that leave the unit square
    jordan = [[3.0, 1.0], [0.0, 3.0]]
    with pytest.raises(pl.BadSpec, match="tile"):
        pl.ExpandingMap([dyn.Branch2D(jordan, (i, j))
                         for i in range(3) for j in range(3)])
    for a in range(2, 6):
        assert pl.toral_conformal_map(a).n_symbols == a * a
        for b in range(2, 6):
            assert pl.toral_map(a, b).n_symbols == a * b


_ENTRY = st.integers(min_value=-6, max_value=6)
_SCALE = _ENTRY.filter(bool)
_MATRICES = st.one_of(
    st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY),
    _SCALE.map(lambda s: (s, 1, 0, s)),      # Jordan blocks
    _SCALE.map(lambda s: (0, -s, s, 0)),     # scaled quarter turns
    st.tuples(_SCALE, st.just(0), st.just(0), _SCALE),
).filter(lambda e: e[0] * e[3] != e[1] * e[2])


@settings(max_examples=300, deadline=None)
@given(_MATRICES)
def test_2x2_closed_forms_match_linalg(entries):
    a, b, c, d = entries
    m = np.array([[a, b], [c, d]], dtype=float)
    det = a * d - b * c
    assert dyn._det2(m) == det
    assert np.linalg.det(m) == pytest.approx(det, rel=1e-12)
    inv = np.linalg.inv(m)
    assert np.abs(dyn._inv2(m) - inv).max() <= 1e-12 * np.abs(inv).max()
    assert dyn._sv2(m) == pytest.approx(
        tuple(np.linalg.svd(m, compute_uv=False)), rel=1e-12)
    moduli = lyapunov._eig_moduli2(m)
    if (a + d) ** 2 == 4 * det:
        # a double eigenvalue (a + d)/2: LAPACK resolves a defective one
        # only to about sqrt(eps), so the exact value is the oracle
        assert moduli == (abs(a + d) / 2,) * 2
    else:
        want = np.sort(np.abs(np.linalg.eigvals(m)))[::-1]
        assert moduli == pytest.approx(tuple(want), rel=1e-12)


def test_build_markov_map_dispatch():
    mp = dyn.build_markov_map("cookie_cutter", r1=3.0, r2=3.0)
    assert mp.n_symbols == 2
    with pytest.raises(pl.BadSpec):
        dyn.build_markov_map("no_such_kind")
    with pytest.raises(pl.BadSpec):
        dyn.build_markov_map("doubling", bogus=1)


def test_orbit_and_itinerary_round_trip():
    mp = pl.cookie_cutter(2.0, 4.0)
    x = 0.1
    pts, syms = pl.orbit(mp, x, 6)
    assert len(pts) == 6 and len(syms) == 6
    assert syms == pl.itinerary(mp, x, 6)
    # orbit points follow the forward map
    for k in range(5):
        assert pts[k + 1] == pytest.approx(mp.apply(pts[k]))


def test_cylinder_point_recovers_word():
    mp = pl.cookie_cutter(3.0, 3.0)
    word = (0, 1, 1, 0, 1, 0, 0, 1)
    x = pl.cylinder_point(mp, word)
    assert pl.itinerary(mp, x, len(word)) == word


def test_periodic_point_closed_forms():
    mp = pl.doubling_map()
    # itinerary 010101... is the binary expansion of 1/3
    assert pl.periodic_point(mp, (0, 1)) == pytest.approx(1.0 / 3.0)
    assert pl.periodic_point(mp, (0,)) == pytest.approx(0.0)
    assert pl.periodic_point(mp, (1,)) == pytest.approx(1.0)


def test_cocycle_toral_norms():
    mp = pl.toral_map(2, 3)
    cp = pl.cocycle(mp, np.array([0.21, 0.34]), 7)
    assert cp.log_norm == pytest.approx(7.0 * math.log(3.0))
    assert cp.log_conorm == pytest.approx(7.0 * math.log(2.0))


def test_describe_is_stable():
    a = pl.cookie_cutter(2.0, 4.0)
    b = pl.cookie_cutter(2.0, 4.0)
    assert a.describe() == b.describe()
    assert a.describe() != pl.cookie_cutter(2.0, 4.0001).describe()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1,
                max_size=10))
def test_cylinder_point_round_trip_property(word):
    """Any word over the gap map codes the point it seeds."""
    mp = pl.cookie_cutter(2.0, 4.0)
    w = tuple(word)
    x = pl.cylinder_point(mp, w)
    assert pl.itinerary(mp, x, len(w)) == w


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=2, max_value=6))
def test_toral_word_count_property(a, b):
    mp = pl.toral_map(a, b)
    assert mp.count_words(3) == (a * b) ** 3


_ROW_MAPS = {
    "doubling": pl.doubling_map(),
    "cookie(2,4)": pl.cookie_cutter(2.0, 4.0),
    "golden": pl.golden_mean_map(),
    "circle(3,0.05)": pl.circle_map(3, 0.05),
    "markov": pl.linear_markov(((0.0, 0.25), (0.375, 0.5)),
                               ((0.0, 0.5), (0.0, 0.5))),
}

# offsets from a branch endpoint: on it, within _ALIGN_TOL, and beyond
_NUDGES = (0.0, 1e-16, -1e-16, 0.5 * _ALIGN_TOL, -0.5 * _ALIGN_TOL,
           2.0 * _ALIGN_TOL, -2.0 * _ALIGN_TOL)


def _scalar(fn, *args):
    try:
        return fn(*args)
    except pl.EscapedRepeller:
        return None


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_ROW_MAPS)),
       st.lists(st.one_of(
           st.tuples(st.integers(min_value=0, max_value=5),
                     st.sampled_from(_NUDGES)),
           st.floats(min_value=-0.01, max_value=1.01)),
           min_size=1, max_size=24))
def test_interval_rows_equal_the_one_point_results(name, picks):
    """Shared endpoints and points within _ALIGN_TOL code as one by one."""
    mp = _ROW_MAPS[name]
    ends = sorted({v for br in mp.branches for v in (br.lo, br.hi)})
    pts = np.array([p if isinstance(p, float) else ends[p[0] % len(ends)]
                    + p[1] for p in picks])
    domains = [(br.lo, br.hi) for br in mp.branches]
    one = [_scalar(mp.symbol, float(x)) for x in pts]
    assert one == [branch_symbol(domains, float(x), _ALIGN_TOL) for x in pts]
    if None in one:
        with pytest.raises(pl.EscapedRepeller, match=repr(
                float(pts[one.index(None)]))):
            mp.symbol(pts)
        with pytest.raises(pl.EscapedRepeller):
            mp.apply(pts)
        pts = pts[[s is not None for s in one]]
        one = [s for s in one if s is not None]
        if not one:
            return
    assert mp.symbol(pts).tolist() == one
    images = mp.apply(pts)
    assert images.tolist() == [mp.apply(float(x)) for x in pts]
    assert mp.apply(pts, symbol=np.array(one)).tolist() == images.tolist()
    back = pts[::-1]
    assert mp.distance(pts, back).tolist() == [
        mp.distance(float(x), float(y)) for x, y in zip(pts, back)]


def _torus_symbol(matrix, offsets, x):
    """Cell of a torus point: floor of A x, nudged by 1e-9, as an offset.

    The nudge goes up on both axes first; a point on an edge it pushes off
    the cells tries it down on the first axis, then the second, then both.
    """
    image = [sum(matrix[i][k] * x[k] for k in range(2)) for i in range(2)]
    for signs in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        key = tuple(math.floor(image[i] + signs[i] * 1e-9) for i in range(2))
        if key in offsets:
            return offsets[key]
    return None


def test_torus_points_on_the_upper_edges_find_their_cell():
    mp = pl.toral_map(2, 3)
    # offsets (i, j) are listed with j fastest, three to each i
    assert mp.symbol((0.0, 1.0)) == 2
    assert mp.symbol((0.999999999999, 0.5)) == 4
    assert mp.symbol((1.0, 0.0)) == 3
    assert mp.symbol((1.0, 1.0)) == 5
    image = mp.apply((0.5, 0.99999999999999))
    assert 0.0 <= image.min() and image.max() <= 1.0
    rows = np.array([(0.0, 1.0), (0.999999999999, 0.5),
                     (0.5, 0.99999999999999), (1.0, 0.0)])
    assert mp.symbol(rows).tolist() == [2, 4, 5, 3]
    assert mp.apply(rows).tolist() == [mp.apply(x).tolist() for x in rows]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 3), (3, 2), (2, 2), "conformal"]),
       st.lists(st.one_of(
           st.tuples(st.integers(min_value=0, max_value=6),
                     st.integers(min_value=0, max_value=6),
                     st.sampled_from(_NUDGES)),
           st.tuples(st.floats(min_value=0.0, max_value=1.0),
                     st.floats(min_value=0.0, max_value=1.0))),
           min_size=1, max_size=16))
def test_torus_rows_equal_the_one_point_results(shape, picks):
    mp = (pl.toral_conformal_map(3) if shape == "conformal"
          else pl.toral_map(*shape))
    pts = np.array([p if len(p) == 2 else ((p[0] % 7) / 6.0 + p[2],
                                           (p[1] % 7) / 6.0 - p[2])
                    for p in picks])
    matrix = mp.constant_derivative.tolist()
    offsets = {tuple(int(round(v)) for v in br.offset): s
               for s, br in enumerate(mp.branches)}
    one = [_scalar(mp.symbol, x) for x in pts]
    assert one == [_torus_symbol(matrix, offsets, x.tolist()) for x in pts]
    if None in one:
        with pytest.raises(pl.EscapedRepeller):
            mp.symbol(pts)
        pts = pts[[s is not None for s in one]]
        one = [s for s in one if s is not None]
        if not one:
            return
    assert mp.symbol(pts).tolist() == one
    images = mp.apply(pts)
    assert images.tolist() == [mp.apply(x).tolist() for x in pts]
    back = pts[::-1]
    assert mp.distance(pts, back).tolist() == [
        mp.distance(x, y) for x, y in zip(pts, back)]
