"""Construction, orbits, and symbolic coding of the built-in maps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pressurelab as pl
from conftest import GOLDEN, admissible_count, branch_symbol
from pressurelab import dynamics as dyn
from pressurelab import lyapunov, torus
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


def _fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("build, length, count", [
    (pl.doubling_map, 1100, 2 ** 1100),
    # golden mean words of length n are the Fibonacci number F(n + 2)
    (pl.golden_mean_map, 100, _fibonacci(102)),
    (lambda: pl.toral_map(2, 3), 30, 6 ** 30),
], ids=["doubling", "golden_mean", "toral"])
def test_word_counts_are_exact_past_float_precision(build, length, count):
    """Counts past 2^53, and past float range, are exact ints."""
    mp = build()
    words = mp.count_words(length)
    assert type(words) is int and words > 2 ** 53
    assert words == count == admissible_count(mp.adjacency, length)


@pytest.mark.parametrize("build", [pl.golden_mean_map, pl.doubling_map,
                                   lambda: pl.circle_map(5, 0.0)],
                         ids=["golden_mean", "doubling", "circle5"])
def test_word_counts_and_capped_counts_match_the_oracle(build):
    """Short words take row products, long ones squarings; a cap clips."""
    mp = build()
    for length in range(1, 61):
        exact = admissible_count(mp.adjacency, length)
        assert mp.count_words(length) == exact
        for cap in (0, 1, 7, 2 ** 20, 10 ** 30):
            assert mp.count_words(length, cap=cap) == min(exact, cap + 1)
    # a capped count keeps small ints, so any length is cheap
    assert mp.count_words(10 ** 12, cap=2 ** 20) == 2 ** 20 + 1


def test_a_deep_capped_count_stops_at_the_cap(monkeypatch):
    """A cap check stops its row products once the count passes the cap,
    with no squaring of the 100 x 100 adjacency."""
    mp = pl.circle_map(100, 0.0)
    calls = []
    product = dyn._int_product

    def counted(a, b, top):
        calls.append(len(a))
        return product(a, b, top)

    monkeypatch.setattr(dyn, "_int_product", counted)
    assert mp.count_words(10 ** 9, cap=pl.WORD_CAP) == pl.WORD_CAP + 1
    # 100^4 > 2^20 words: three row products, no matrix product
    assert calls == [1, 1, 1]


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
        torus.TorusMap([dyn.Branch2D(jordan, (i, j))
                        for i in range(3) for j in range(3)])
    # the cells of toral(2,3), then layouts that break one rule each
    diag = [[2.0, 0.0], [0.0, 3.0]]
    offsets = [(i, j) for i in range(2) for j in range(3)]
    cells = [dyn.Branch2D(diag, k) for k in offsets]
    full = [[1] * 6 for _ in range(6)]
    one_gap = [row[:] for row in full]
    one_gap[0][5] = 0
    for branches, adjacency, error, match in [
            (cells[:-1] + [dyn.Branch2D([[3.0, 0.0], [0.0, 2.0]], (1, 2))],
             None, pl.BadSpec, "share one derivative"),
            (cells[:-1], None, pl.BadSpec, "expected 6 cells .* got 5"),
            (cells[:-1] + [dyn.Branch2D(diag, (0, 0))], None, pl.BadSpec,
             "duplicate cell offsets"),
            (cells[:-1] + [dyn.Branch2D(diag, (1, 1.5))], None, pl.BadSpec,
             "offsets must be integers"),
            (cells, one_gap, pl.NonMarkov, "full transition matrix")]:
        with pytest.raises(error, match=match):
            torus.TorusMap(branches, adjacency)
    assert torus.TorusMap(cells, full).n_symbols == 6
    for a in range(2, 6):
        assert pl.toral_conformal_map(a).n_symbols == a * a
        for b in range(2, 6):
            assert pl.toral_map(a, b).n_symbols == a * b


# describe(), resolve_epsilon(), hull and diam of the torus maps as they
# were while the torus code lived in ``dynamics``
_TORUS_PINS = {
    "toral(2,3)": (
        "map:toral|dim=2|cell,2.0,0.0,0.0,3.0,0.0,0.0"
        "|cell,2.0,0.0,0.0,3.0,0.0,1.0|cell,2.0,0.0,0.0,3.0,0.0,2.0"
        "|cell,2.0,0.0,0.0,3.0,1.0,0.0|cell,2.0,0.0,0.0,3.0,1.0,1.0"
        "|cell,2.0,0.0,0.0,3.0,1.0,2.0"
        "|adj=111111;111111;111111;111111;111111;111111"),
    "toral_conformal(3)": (
        "map:toral_conformal|dim=2|cell,0.0,-3.0,3.0,0.0,-3.0,0.0"
        "|cell,0.0,-3.0,3.0,0.0,-3.0,1.0|cell,0.0,-3.0,3.0,0.0,-3.0,2.0"
        "|cell,0.0,-3.0,3.0,0.0,-2.0,0.0|cell,0.0,-3.0,3.0,0.0,-2.0,1.0"
        "|cell,0.0,-3.0,3.0,0.0,-2.0,2.0|cell,0.0,-3.0,3.0,0.0,-1.0,0.0"
        "|cell,0.0,-3.0,3.0,0.0,-1.0,1.0|cell,0.0,-3.0,3.0,0.0,-1.0,2.0"
        "|adj=111111111;111111111;111111111;111111111;111111111;111111111;"
        "111111111;111111111;111111111"),
}


@pytest.mark.parametrize("spec", sorted(_TORUS_PINS))
def test_torus_maps_keep_their_description_and_scales(spec):
    mp = {"toral(2,3)": lambda: pl.toral_map(2, 3),
          "toral_conformal(3)": lambda: pl.toral_conformal_map(3)}[spec]()
    assert isinstance(mp, torus.TorusMap)
    assert mp.describe() == _TORUS_PINS[spec]
    assert mp.resolve_epsilon() == 0.16666666666666666
    assert mp.hull == (0.0, 1.0)
    assert mp.diam == 0.7071067811865476


def test_maps_take_branches_of_their_own_dimension():
    cell = dyn.Branch2D([[2.0, 0.0], [0.0, 2.0]], (0, 0))
    with pytest.raises(pl.BadSpec, match="TorusMap"):
        pl.ExpandingMap([cell])
    with pytest.raises(pl.BadSpec, match="TorusMap"):
        pl.ExpandingMap([dyn.affine_branch(0.0, 0.5, 0.0, 1.0), cell])
    with pytest.raises(pl.BadSpec, match="Branch2D"):
        torus.TorusMap([dyn.affine_branch(0.0, 0.5, 0.0, 1.0),
                        dyn.affine_branch(0.5, 1.0, 0.0, 1.0)])


_ENTRY = st.integers(min_value=-6, max_value=6)
_SCALE = _ENTRY.filter(bool)
_MATRICES = st.one_of(
    st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY),
    _SCALE.map(lambda s: (s, 1, 0, s)),      # Jordan blocks
    _SCALE.map(lambda s: (0, -s, s, 0)),     # scaled quarter turns
    st.tuples(_SCALE, st.just(0), st.just(0), _SCALE),
).filter(lambda e: e[0] * e[3] != e[1] * e[2])


_COORD = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def _assert_close_to_matmul(got, want, terms):
    """got equals want to 1e-15 of each entry's largest term, the terms
    of an entry running along the last axis of ``terms``."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-15 * terms.max(axis=-1))


@settings(max_examples=300, deadline=None)
@given(_MATRICES, st.lists(st.tuples(_COORD, _COORD), min_size=1,
                           max_size=6))
def test_2x2_closed_forms_match_linalg(entries, rows):
    a, b, c, d = entries
    m = np.array([[a, b], [c, d]], dtype=float)
    det = a * d - b * c
    assert dyn._det2(m) == det
    assert np.linalg.det(m) == pytest.approx(det, rel=1e-12)
    inv = np.linalg.inv(m)
    assert np.abs(dyn._inv2(m) - inv).max() <= 1e-12 * np.abs(inv).max()
    # _apply2 against @: on a point, on a stack of rows, and as the
    # product of two 2x2 matrices
    rows = np.array(rows)
    _assert_close_to_matmul(dyn._apply2(m, rows[0]), m @ rows[0],
                            np.abs(m) * np.abs(rows[0]))
    _assert_close_to_matmul(dyn._apply2(m, rows), rows @ m.T,
                            np.abs(m) * np.abs(rows)[:, None, :])
    _assert_close_to_matmul(dyn._apply2(m, inv.T).T, m @ inv,
                            np.abs(m)[:, None, :] * np.abs(inv).T)
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
    # the itinerary is the symbol of every orbit point
    assert syms == tuple(mp.symbol(pts).tolist())
    # orbit points follow the forward map
    for k in range(5):
        assert pts[k + 1] == pytest.approx(mp.apply(pts[k]))


def _cylinder_point(mp, word):
    """The walker's leaf point of a word of a full shift on two symbols.

    Leaves are in lexicographic order, so a word's leaf index is its
    binary value.
    """
    cyl = pl.CylinderSet(mp, len(word))
    index = int("".join(str(s) for s in word), 2)
    assert cyl.word(index) == tuple(word)
    return float(cyl.leaves.points[index])


def test_cylinder_point_recovers_word():
    mp = pl.cookie_cutter(3.0, 3.0)
    word = (0, 1, 1, 0, 1, 0, 0, 1)
    x = _cylinder_point(mp, word)
    assert pl.orbit(mp, x, len(word))[1] == word


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
    x = _cylinder_point(mp, w)
    assert pl.orbit(mp, x, len(w))[1] == w


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


def _same(x):
    return x


_AFFINE = dyn.affine_branch


@pytest.mark.parametrize("build, error", [
    (lambda: dyn.Branch1D(0.5, 0.5, _same, _same, _same, 2.0, 2.0),
     pl.BadSpec),
    (lambda: dyn.Branch1D(0.0, 1.0, _same, _same, _same, 0.0, 2.0),
     pl.BadSpec),
    (lambda: _AFFINE(0.0, 0.0, 0.0, 1.0), pl.BadSpec),
    (lambda: pl.circle_map(2, 0.4), pl.BadSpec),
    (lambda: dyn.Branch2D([[1.0, 2.0], [2.0, 4.0]], (0, 0)),
     pl.SingularMatrix),
    (lambda: pl.ExpandingMap([]), pl.BadSpec),
    (lambda: pl.ExpandingMap([_AFFINE(0.0, 0.5, 0.0, 1.0)], ((1, 1),)),
     pl.BadSpec),
    (lambda: pl.ExpandingMap([_AFFINE(0.0, 0.5, 0.0, 1.0)], ((2,),)),
     pl.BadSpec),
    (lambda: pl.ExpandingMap([_AFFINE(0.0, 0.5, 0.0, 0.5)]),
     pl.NonExpanding),
    (lambda: pl.ExpandingMap([_AFFINE(0.0, 0.5, 0.0, 1.0),
                              _AFFINE(0.4, 0.9, 0.0, 1.0)]), pl.BadSpec),
    # the image [0, 0.5] of branch 0 misses the allowed domain [0.5, 1]
    (lambda: pl.ExpandingMap([_AFFINE(0.0, 0.25, 0.0, 0.5),
                              _AFFINE(0.5, 1.0, 0.0, 1.0)]), pl.NonMarkov),
    # the image [0, 1] of branch 0 enters the forbidden domain [0.5, 1]
    (lambda: pl.ExpandingMap([_AFFINE(0.0, 0.5, 0.0, 1.0),
                              _AFFINE(0.5, 1.0, 0.0, 1.0)],
                             ((1, 0), (1, 1))), pl.NonMarkov),
    (lambda: pl.ExpandingMap([_AFFINE(0.0, 0.25, 0.0, 0.5),
                              _AFFINE(0.5, 0.75, 0.5, 1.0)],
                             ((1, 0), (0, 1))), pl.NonMarkov),
    (lambda: pl.doubling_map().check_word(()), pl.InadmissibleWord),
    (lambda: pl.doubling_map().count_words(0), pl.BadSpec),
    (lambda: pl.orbit(pl.cookie_cutter(3, 3), 0.1, 0), pl.BadSpec),
    # 0.5 lies in the gap between the cookie cutter's branch domains
    (lambda: pl.orbit(pl.cookie_cutter(3, 3), 0.5, 3), pl.EscapedRepeller),
    (lambda: pl.toral_conformal_map(1), pl.BadSpec),
    (lambda: pl.linear_markov(((0.0, 0.5), (0.5, 1.0)), ((0.0, 1.0),)),
     pl.BadSpec),
    (lambda: pl.cocycle(pl.toral_map(2, 3), (0.1, 0.1), 0), pl.BadSpec),
    # integer parameters are not truncated: 3.5 is no degree
    (lambda: pl.circle_map(3.5, 0.05), pl.BadSpec),
    (lambda: dyn.circle_branch(3.5, 0.05, 0), pl.BadSpec),
    (lambda: pl.toral_map(2.7, 3), pl.BadSpec),
    (lambda: pl.toral_map(2, 3.5), pl.BadSpec),
    (lambda: pl.toral_conformal_map(2.9), pl.BadSpec),
    # a max slope below the min slope would swap the expansion bounds
    (lambda: dyn.Branch1D(0.0, 1.0, _same, _same, _same, 2.0, 0.5),
     pl.BadSpec),
])
def test_invalid_maps_and_requests_are_rejected(build, error):
    with pytest.raises(error):
        build()


def test_integral_float_parameters_build_the_integer_maps():
    assert pl.circle_map(3.0, 0.05).describe() \
        == pl.circle_map(3, 0.05).describe()
    assert pl.toral_map(2.0, 3.0).describe() == pl.toral_map(2, 3).describe()
    assert pl.toral_conformal_map(3.0).describe() \
        == pl.toral_conformal_map(3).describe()
