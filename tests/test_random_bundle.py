"""Random perturbation families: sampling, fibers, conjugacies, roots."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pressurelab as pl
from conftest import affine_fiber_pressure, expectation_root, moran_root
from pressurelab import random_bundle, transfer


def _table(seeds, depth, n_letters=2):
    """Letters 0 .. depth - 1 of each seed's realization, one row per seed."""
    return np.array([pl.sample_base(s, n_letters).letters(0, depth)
                     for s in seeds])


def test_sample_base_is_deterministic():
    a = pl.sample_base(7)
    b = pl.sample_base(7)
    assert a.letters(-10, 11).tolist() == b.letters(-10, 11).tolist()
    assert a.seed == 7
    assert pl.sample_base(8).letters(-10, 11).tolist() \
        != a.letters(-10, 11).tolist()


def test_sample_base_positions_survive_horizon_growth():
    """Letters at fixed positions never depend on how far we read."""
    smp = pl.sample_base(3)
    small = smp.letters(-5, 6)
    large = smp.letters(-40, 41)
    assert small.tolist() == large[35:46].tolist()
    for j in range(-5, 6):
        assert small[j + 5] == smp.letters(j, j + 1)[0]


def test_sample_base_rejects_a_negative_seed():
    with pytest.raises(pl.BadSpec, match="seed"):
        pl.sample_base(-1)


def test_sample_base_rejects_seeds_past_64_bits():
    assert pl.sample_base(2 ** 64 - 1).seed == 2 ** 64 - 1
    with pytest.raises(pl.BadSpec, match="2\\^64"):
        pl.sample_base(2 ** 64)


def test_sample_base_rejects_letter_counts_past_32_bits():
    """The draw maps 32 hash bits to a letter, so 2^32 letters at most."""
    assert pl.sample_base(0, 2 ** 32).n_letters == 2 ** 32
    for n_letters in (0, 2 ** 32 + 1, 2 ** 33):
        with pytest.raises(pl.BadSpec, match="2\\^32"):
            pl.sample_base(0, n_letters)


def _splitmix64(seed, p):
    """Output p of SplitMix64 seeded with seed, in Python integers."""
    mask = 2 ** 64 - 1
    z = (seed + (p + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_draws_are_splitmix64_outputs():
    # the first output of SplitMix64 seeded with 1234567, as published
    assert _splitmix64(1234567, 0) == 6457827717110365317
    counters = list(range(-40, 41)) + [2 ** 40, -2 ** 40]
    for seed in (0, 1234567, 2 ** 64 - 1):
        for n in (2, 3, 5, 2 ** 32):
            expected = [(_splitmix64(seed, p) >> 32) * n >> 32
                        for p in counters]
            assert random_bundle._draw(seed, counters, n).tolist() == expected


@pytest.mark.parametrize("n_letters", [2, 3, 4, 5])
def test_letters_are_iid_uniform_over_many_positions(n_letters):
    """Letter and adjacent pair counts stay within 4 binomial sigmas."""
    horizon = 2 ** 15
    windows = {}
    for seed in (0, 1, 2 ** 64 - 1):
        letters = pl.sample_base(seed, n_letters).letters(-horizon,
                                                          horizon + 1)
        windows[seed] = letters
        m = len(letters)
        counts = np.bincount(letters, minlength=n_letters)
        p = 1.0 / n_letters
        assert len(counts) == n_letters
        assert np.abs(counts - m * p).max() <= 4.0 * math.sqrt(m * p * (1 - p))
        pairs = np.bincount(letters[:-1] * n_letters + letters[1:],
                            minlength=n_letters ** 2)
        q = p * p
        assert np.abs(pairs - (m - 1) * q).max() \
            <= 4.0 * math.sqrt((m - 1) * q * (1 - q))
    firsts = [tuple(w[:64]) for w in windows.values()]
    assert len(set(firsts)) == len(firsts)


def test_distortion_pairs_repeat_exactly():
    fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.05)
    window = pl.sample_base(6).letters(0, 8)
    [first] = pl.distortion_constants(fam, window)
    assert pl.distortion_constants(fam, window) == [first]
    assert first.pairs > 255


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 64 - 1),
       st.integers(min_value=1, max_value=2 ** 32),
       st.integers(min_value=0, max_value=2 ** 32))
def test_draws_match_splitmix64_on_large_counter_arrays(seed, n, key):
    """The in-place draw is the pure-Python SplitMix64, counter by counter."""
    spread = [_splitmix64(key, p) - 2 ** 63 for p in range(2000)]
    counters = np.array(spread + list(range(key - 2000, key + 2000)))
    before = counters.copy()
    got = random_bundle._draw(seed, counters, n)
    assert np.array_equal(counters, before)
    assert got.tolist() == [(_splitmix64(seed, int(p)) >> 32) * n >> 32
                            for p in counters]


def test_shifted_window_relabels_positions():
    """Entry j of the window read from position k holds position k + j."""
    smp = pl.sample_base(11)
    moved = smp.letters(3 - 10, 3 + 11)
    for j in range(-10, 11):
        assert moved[j + 10] == smp.letters(j + 3, j + 4)[0]


_POSITIONS = st.integers(min_value=-2 ** 40, max_value=2 ** 40)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 64 - 1),
       st.integers(min_value=1, max_value=7), _POSITIONS, _POSITIONS,
       st.integers(min_value=0, max_value=12))
def test_realization_reads_any_range(seed, n_letters, k, a, length):
    """Shifted ranges, one-position reads and the reference hash agree."""
    smp = pl.sample_base(seed, n_letters)
    b = a + length
    shifted = smp.letters(a + k, b + k).tolist()
    assert shifted == [smp.letters(j, j + 1)[0] for j in range(a + k, b + k)]
    assert shifted == [(_splitmix64(seed, j) >> 32) * n_letters >> 32
                       for j in range(a + k, b + k)]


def test_fiber_chain_starts_anywhere_in_the_realization():
    fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.1, 3)
    smp = pl.sample_base(8, 3)
    far = pl.FiberCylinders(fam, smp.letters(10 ** 6, 10 ** 6 + 6))
    moved = pl.FiberCylinders(fam, [(_splitmix64(8, p) >> 32) * 3 >> 32
                                    for p in range(10 ** 6, 10 ** 6 + 6)])
    assert np.array_equal(far.leaves.points, moved.leaves.points)


def test_constant_letters_walk_one_fiber_map():
    """A constant chain np.full(n, a) is the walk of fiber a alone."""
    fam = pl.RandomFamily("circle", (3, 0.05), 0.02, 3)
    for letter in range(3):
        chain = pl.FiberCylinders(fam, np.full(7, letter))
        alone = pl.CylinderSet(fam.fiber_map(letter), 7)
        for lc, la in zip(chain.levels, alone.levels):
            assert np.array_equal(lc.points, la.points)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=2, max_value=5))
def test_sample_letters_in_range(seed, n_letters):
    letters = pl.sample_base(seed, n_letters).letters(-8, 9)
    assert ((0 <= letters) & (letters < n_letters)).all()


def test_family_certification_cookie():
    fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.2)
    assert (fam.coefficient(0), fam.coefficient(1)) == (-1.0, 1.0)
    # the slowest fiber contracts at 1 / (3 * 0.8)
    assert fam.gamma_bound == pytest.approx(1.0 / 2.4)
    assert fam.slope_variation == 0.0
    lo = fam.fiber_map(0)
    hi = fam.fiber_map(1)
    assert lo.min_expansion == pytest.approx(2.4)
    assert hi.min_expansion == pytest.approx(3.6)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=10 ** 6), st.data())
def test_coefficients_are_linspace_entries(n_letters, data):
    fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.1, n_letters)
    spaced = np.linspace(-1.0, 1.0, n_letters)
    letter = data.draw(st.integers(min_value=0, max_value=n_letters - 1))
    for a in (0, letter, n_letters - 1):
        assert fam.coefficient(a) == spaced[a]
    # one letter is the unperturbed map
    assert pl.RandomFamily("cookie", (3.0, 3.0), 0.1, 1).coefficient(0) == 0.0


def test_family_of_every_letter_count_allocates_nothing_per_letter():
    import tracemalloc
    tracemalloc.start()
    try:
        fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.1, 2 ** 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert fam.certificate["reach"] == 0.1
    assert fam.fiber_map(2 ** 32 - 1).min_expansion == pytest.approx(3.3)


def test_family_rejects_large_noise():
    with pytest.raises(pl.PerturbationTooLarge):
        pl.RandomFamily("cookie", (3.0, 3.0), 0.6)
    with pytest.raises(pl.PerturbationTooLarge):
        pl.RandomFamily("circle", (2, 0.05), 0.1)
    with pytest.raises(pl.BadSpec):
        pl.RandomFamily("unknown", (3.0,), 0.1)


def test_fiber_chain_reads_the_origin_letter_first():
    fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.1)
    smp = pl.sample_base(5)
    mp = pl.FiberCylinders(fam, smp.letters(0, 3)).maps[0]
    expect = 3.0 * (1.0 + 0.1 * fam.coefficient(smp.letters(0, 1)[0]))
    assert mp.min_expansion == pytest.approx(expect)


def test_zero_noise_fibers_are_bit_identical():
    fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.0)
    smp = pl.sample_base(2)
    chain = pl.FiberCylinders(fam, smp.letters(0, 9))
    base = pl.CylinderSet(fam.base_map, 9)
    assert np.array_equal(chain.leaves.points, base.leaves.points)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=-3, max_value=3),
       st.floats(min_value=0.0, max_value=0.15),
       st.floats(min_value=2.5, max_value=4.0),
       st.floats(min_value=2.5, max_value=4.0),
       st.integers(min_value=2, max_value=3))
def test_fiber_chain_reads_the_window_from_start(seed, depth, start, eps,
                                                  r1, r2, n_letters):
    """Word position i of a fiber chain uses the fiber of letter start + i.

    Affine fibers give the closed form sum_i log(r_{w_i} (1 + eps a_i)),
    with a_i the coefficient of the letter at position start + i; letter
    coefficients are evenly spaced in [-1, 1].  Level k holds the words
    of length k + 1 at the tail of the window, so every level pins the
    position of each map in the chain.
    """
    fam = pl.RandomFamily("cookie", (r1, r2), eps, n_letters)
    smp = pl.sample_base(seed, n_letters)
    chain = pl.FiberCylinders(fam, smp.letters(start, start + depth))
    logd = chain.log_derivative_sums()
    scale = [1.0 + eps * (-1.0 + 2.0 * smp.letters(start + i, start + i + 1)[0]
                          / (n_letters - 1))
             for i in range(depth)]
    for k, sums in enumerate(logd):
        offset = depth - 1 - k
        for idx in range(len(sums)):
            word = chain.word(idx, k + 1)
            expect = sum(math.log((r1, r2)[w] * scale[offset + j])
                         for j, w in enumerate(word))
            assert sums[idx] == pytest.approx(expect, rel=0.0, abs=1e-12)
    assert len(logd) == depth and len(logd[-1]) == 2 ** depth


def test_random_pressure_zero_potential_counts_branches():
    fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.15)
    est = pl.random_pressure(fam, pl.Potential.zero(), _table(range(6), 8))
    assert est.value == pytest.approx(math.log(2.0), abs=1e-12)
    assert est.std_error == 0.0
    assert len(est.per_sample) == 6
    assert pl.random_entropy(fam) == pytest.approx(
        math.log(2.0), abs=1e-12)


def test_constant_window_roots_hit_closed_form():
    eps = 0.1
    fam = pl.RandomFamily("cookie", (3.0, 3.0), eps)
    for letter, coeff in ((0, -1.0), (1, 1.0)):
        # frozen letters make every fiber the same map with slope s
        s = 3.0 * (1.0 + eps * coeff)
        chain = pl.FiberCylinders(fam, np.full(14, letter))
        logd = chain.log_derivative_sums()[-1]
        root = pl.bowen_root(lambda t: pl.logsumexp(-t * logd) / 14.0,
                             0.0, 1.0)
        assert root == pytest.approx(math.log(2.0) / math.log(s), abs=1e-9)


def test_random_roots_zero_noise_recover_moran():
    fam = pl.RandomFamily("cookie", (2.0, 4.0), 0.0)
    roots = pl.random_bowen_roots(fam, _table(range(3), 12))
    assert roots.t_root == pytest.approx(moran_root((2.0, 4.0)), abs=1e-9)
    assert roots.std_error == 0.0


def test_expansivity_min_growth_constant_window():
    fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.1)
    got = pl.expansivity_min_growth(fam, np.full(8, 0))
    assert got == pytest.approx(math.log(2.7), abs=1e-12)


def test_equivariance_within_certified_bound():
    for eps in (0.0, 0.1):
        fam = pl.RandomFamily("cookie", (3.0, 3.0), eps)
        for seed in range(3):
            window = pl.sample_base(seed).letters(0, 11)
            residual, bound = pl.measure_equivariance(fam, window)
            assert residual <= bound
        # a table measures its worst row
        table = _table(range(3), 11)
        assert pl.measure_equivariance(fam, table) == max(
            pl.measure_equivariance(fam, row) for row in table)
    with pytest.raises(pl.BadSpec):
        pl.measure_equivariance(fam, pl.sample_base(0).letters(0, 2))


def test_conjugacy_error_bound_and_identity():
    fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.0)
    conj = pl.FiberConjugacy(fam, pl.sample_base(4).letters(0, 12))
    assert conj.depth == 12
    error_bound = fam.gamma_bound ** 12 * fam.base_map.diam
    # with no noise the conjugacy is the identity on the repeller up to
    # the truncation error; probe genuine periodic points through their
    # itineraries
    for word in ((0, 1), (0, 0, 1), (1,)):
        x = pl.periodic_point(fam.base_map, word)
        itinerary = pl.orbit(fam.base_map, x, conj.depth)[1]
        assert abs(conj.map_words([itinerary])[0] - x) \
            <= error_bound + 1e-15
    # a conjugacy reads one window of at least one letter
    for letters in ([], np.zeros((2, 3), dtype=int)):
        with pytest.raises(pl.BadSpec, match="one non-empty letter window"):
            pl.FiberConjugacy(fam, letters)


def test_conjugacy_displacement_under_analytic_bound():
    eps = 0.1
    fam = pl.RandomFamily("cookie", (3.0, 3.0), eps)
    for seed in range(3):
        disp = pl.conjugacy_displacement(fam,
                                         pl.sample_base(seed).letters(0, 10))
        assert 0.0 < disp <= fam.displacement_bound


def test_conjugacy_displacement_walks_in_batches():
    """A table past the word cap in one walk is the max of its rows."""
    fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.1)
    table = _table(range(70), 14)
    # 2^14 words x 70 windows would not fit one walk
    assert 2 ** 14 * 70 > pl.WORD_CAP
    assert pl.conjugacy_displacement(fam, table) == max(
        pl.conjugacy_displacement(fam, row) for row in table)



_CERTIFIED_FAMILIES = st.one_of(
    st.tuples(st.just("cookie"),
              st.tuples(st.floats(min_value=2.5, max_value=4.0),
                        st.floats(min_value=2.5, max_value=4.0)),
              st.floats(min_value=0.0, max_value=0.2)),
    st.tuples(st.just("circle"),
              st.tuples(st.sampled_from([2.0, 3.0]),
                        st.floats(min_value=-0.05, max_value=0.05)),
              st.floats(min_value=0.0, max_value=0.05)))


@settings(max_examples=60, deadline=None)
@given(_CERTIFIED_FAMILIES, st.integers(min_value=2, max_value=5),
       st.integers(min_value=2, max_value=8),
       st.integers(min_value=1, max_value=4), st.data())
def test_walked_certificates_stay_inside_their_analytic_bounds(
        shape, n_letters, conj_depth, n_windows, data):
    """Any windows of a certified family meet the bounds of every window.

    The sweep walks its conjugacy and growth certificates on a few rows
    only; the bounds those walks cross-check (displacement, equivariance
    at the conjugacy depth, the certified expansion) hold for every
    realization, so here they must hold on any letter table of any
    certified family, at any conjugacy depth.
    """
    kind, params, eps = shape
    try:
        fam = pl.RandomFamily(kind, params, eps, n_letters)
    except pl.PerturbationTooLarge:
        assume(False)
    row = st.lists(st.integers(min_value=0, max_value=n_letters - 1),
                   min_size=conj_depth + 1, max_size=conj_depth + 1)
    table = np.array(data.draw(st.lists(row, min_size=n_windows,
                                        max_size=n_windows)))
    ulp = np.finfo(float).eps
    # the bounds are on real numbers: each walked point is a few ulps of
    # the hull off (contracting inverse branches keep the rounding of every
    # step from growing), and at a noise near 1e-16 the displacement is
    # that rounding alone
    points = 8.0 * ulp * fam.base_map.diam
    moved, defect = random_bundle._conjugacy_defects(fam, table)
    assert moved.max() <= fam.displacement_bound + points
    assert defect.max() <= random_bundle._equivariance_bound(
        fam, conj_depth) + points
    growth = pl.expansivity_min_growth(fam, table[:, :conj_depth])
    # the bound is attained by words on the slowest branch of an extreme
    # letter of an affine family, where the growth is a float mean of
    # conj_depth equal logs: each addition may round it down by an ulp
    assert growth >= math.log(fam.certified_expansion) * (
        1.0 - conj_depth * ulp)


def test_fiber_repeller_depths():
    """Up to the window's width, conjugacy images are the fiber leaves."""
    fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.1)
    letters = pl.sample_base(9).letters(0, 10)
    conj = pl.FiberConjugacy(fam, letters)
    for depth in (1, 8, 10):
        words = np.array(list(np.ndindex(*(2,) * depth)))
        chain = pl.FiberCylinders(fam, letters[:depth])
        assert np.array_equal(conj.map_words(words), chain.leaves.points)
    # no word is wider than the window
    with pytest.raises(pl.InadmissibleWord, match="10 letter window"):
        conj.map_words(np.zeros((1, 11), dtype=int))


def test_fiber_repeller_invariance():
    """The origin fiber map sends the depth n set onto the shifted set."""
    fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.1)
    conj = pl.FiberConjugacy(fam, pl.sample_base(1).letters(0, 12))
    depth = 7
    pts = pl.FiberCylinders(fam, conj.letters[:depth]).leaves.points
    mp = fam.fiber_map(conj.letters[0])
    images = np.sort([mp.apply(p) for p in pts])
    target = np.sort(pl.FiberCylinders(
        fam, conj.shifted(1).letters[:depth - 1]).leaves.points)
    # both leading symbols land on the same shifted point, so the sorted
    # images are the shifted representatives, each taken twice
    assert np.allclose(images, np.repeat(target, 2), atol=1e-12)


def test_distortion_certificate_families():
    probe = random_bundle.DISTORTION_DEPTH
    cookie = pl.RandomFamily("cookie", (3.0, 3.0), 0.1)
    [rep] = pl.distortion_constants(cookie, np.full(probe, 0))
    assert rep.worst_violation >= -1e-10
    assert rep.k0 == pytest.approx(0.0, abs=1e-12)
    assert rep.pairs >= 10000

    circle = pl.RandomFamily("circle", (3, 0.05), 0.02)
    [rep] = pl.distortion_constants(circle, np.full(probe, 1))
    assert rep.worst_violation >= -1e-10
    # empirical Holder constant stays below the analytic slope variation
    assert rep.k0 <= circle.slope_variation + 1e-9
    with pytest.raises(pl.BadSpec):
        pl.distortion_constants(cookie, np.full(1, 0))


def test_transport_residual_within_bound():
    fam = pl.RandomFamily("circle", (3, 0.05), 0.05)
    conj = pl.FiberConjugacy(fam, pl.sample_base(3).letters(0, 10))
    rep = pl.random_conjugacy_pressure_check(fam, conj,
                                             pl.Potential.geometric(0.7),
                                             depth=6)
    assert rep.margin == 4
    assert rep.residual <= rep.bound + 1e-12
    # zero potential scores every word at zero on both routes
    rep = pl.random_conjugacy_pressure_check(fam, conj, pl.Potential.zero(),
                                             depth=6)
    assert rep.residual == 0.0
    with pytest.raises(pl.BadSpec):
        pl.random_conjugacy_pressure_check(fam, conj, pl.Potential.zero(),
                                           depth=10)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=4),
       st.floats(min_value=-0.1, max_value=0.1),
       st.floats(min_value=0.0, max_value=0.05),
       st.integers(min_value=2, max_value=50))
def test_transport_bound_reads_the_extreme_letters(degree, amp, eps,
                                                    letters):
    """The first and last letters give the worst fiber over all letters."""
    try:
        fam = pl.RandomFamily("circle", (degree, amp), eps, letters)
    except pl.PerturbationTooLarge:
        assume(False)
    conj = pl.FiberConjugacy(fam, pl.sample_base(0, letters).letters(0, 3))
    rep = pl.random_conjugacy_pressure_check(fam, conj,
                                             pl.Potential.geometric(0.7),
                                             depth=2)
    # the fibers of the three window letters and of the two extreme ones
    assert len(fam._fibers) <= 5
    lipschitz = 0.7 * max(fam.fiber_map(a).log_deriv_lipschitz
                          for a in range(letters))
    gamma = fam.gamma_bound
    assert rep.bound == lipschitz * fam.base_map.diam \
        * gamma ** rep.margin / (1.0 - gamma)


def test_transport_affine_fibers_are_exact():
    fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.1)
    conj = pl.FiberConjugacy(fam, pl.sample_base(5).letters(0, 9))
    rep = pl.random_conjugacy_pressure_check(fam, conj,
                                             pl.Potential.geometric(0.5),
                                             depth=5)
    # affine fibers have constant log slope, so the bound collapses to 0
    assert rep.bound == 0.0
    assert rep.residual <= 1e-12


def test_stability_experiment_shape():
    fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.0)
    res = pl.stability_experiment(fam, schedule=(0.2, 0.05), depth=10,
                                  seeds=6)
    assert len(res.rows) == 2
    assert res.t_reference == pytest.approx(moran_root((3.0, 3.0)), abs=1e-8)
    eps_cert = res.certificates["per_epsilon"]
    for row in res.rows:
        assert row.failure == ""
        assert row.equivariance <= row.equivariance_bound
        cert = eps_cert[row.epsilon]
        assert cert["min_growth"] > 0.0
        assert set(cert["distortion"]) == {0, 1}
    assert res.rows[0].h_sup > res.rows[1].h_sup


def test_cookie_sweep_meets_its_gates_on_many_seeds():
    """The default cookie sweep's output gates hold on every base seed."""
    carrier = pl.RandomFamily("cookie", (3.0, 3.0), 0.0)
    for seed in range(24):
        rows = pl.stability_experiment(carrier, base_seed=seed).rows
        for r in rows:
            gap = abs(r.t_root - expectation_root(r.epsilon))
            assert gap <= 3.0 * r.std_error + 2e-3, (seed, r.epsilon)
            assert r.equivariance <= r.equivariance_bound, (seed, r.epsilon)
        assert rows[-1].gap_t < 0.02, seed


def test_stability_experiment_records_failures():
    fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.0)
    res = pl.stability_experiment(fam, schedule=(0.9, 0.05), depth=8,
                                  seeds=4)
    bad, good = res.rows
    assert bad.failure != "" and math.isnan(bad.t_root)
    assert good.failure == "" and not math.isnan(good.t_root)
    assert "failure" in res.certificates["per_epsilon"][0.9]


def test_automatic_conjugacy_depth_fits_the_word_cap(monkeypatch):
    from pressurelab.random_bundle import (CONJ_TOL, _cap_depth,
                                           _conjugacy_depth_for)
    assert CONJ_TOL == 1e-4
    cookie = pl.RandomFamily("cookie", (3.0, 3.0), 0.05)
    wanted = math.ceil(math.log(1e-4) / math.log(cookie.gamma_bound))
    assert _conjugacy_depth_for(cookie, _cap_depth(cookie)) == wanted < 20
    # circle(2, 0.05) at noise 0.05 wants depth 30 for 1e-4
    circle = pl.RandomFamily("circle", (2, 0.05), 0.05)
    assert math.log(1e-4) / math.log(circle.gamma_bound) > 20
    assert _conjugacy_depth_for(circle, _cap_depth(circle)) == 20
    monkeypatch.setattr(random_bundle, "CONJ_TOL", 1e-12)
    for fam in (cookie, circle):
        depth = _conjugacy_depth_for(fam, _cap_depth(fam))
        assert 2 ** depth <= pl.WORD_CAP < 2 ** (depth + 1)


def test_a_sweep_derives_its_cap_depth_once(monkeypatch):
    """Levels share the base map, so one word-cap depth serves them all.

    The default cookie sweep counts words 31 times: 19 counts find the cap
    depth 20, and each of the four levels sizes the batches of its
    conjugacy, growth and distortion walks once.
    """
    from pressurelab import dynamics
    caps = []
    cap_depth = random_bundle._cap_depth

    def counted_cap(family):
        caps.append(family.epsilon)
        return cap_depth(family)

    counts = []
    count_words = dynamics.ExpandingMap.count_words

    def counted_words(mapping, *args, **kwargs):
        counts.append(args)
        return count_words(mapping, *args, **kwargs)

    monkeypatch.setattr(random_bundle, "_cap_depth", counted_cap)
    monkeypatch.setattr(dynamics.ExpandingMap, "count_words", counted_words)
    carrier = pl.RandomFamily("cookie", (3.0, 3.0), 0.0)
    rows = pl.stability_experiment(carrier).rows
    assert len(rows) == 4 and all(r.failure == "" for r in rows)
    assert caps == [0.0]
    assert len(counts) == 31
    # a set conjugacy depth needs no cap depth
    caps.clear()
    pl.stability_experiment(carrier, schedule=(0.1, 0.05), depth=8, seeds=2,
                            conj_depth=6)
    assert caps == []


def test_a_sweep_without_seeds_fails_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a sweep without seeds solved a root")

    monkeypatch.setattr(random_bundle, "dimension_report", no_work)
    carrier = pl.RandomFamily("cookie", (3.0, 3.0), 0.0)
    with pytest.raises(pl.BadSpec, match="at least one base seed"):
        pl.stability_experiment(carrier, seeds=0)


def test_expectation_root_oracle_tracks_experiment():
    """Sampled roots approach the letter-averaged analytic root."""
    eps = 0.1
    fam = pl.RandomFamily("cookie", (3.0, 3.0), eps)
    roots = pl.random_bowen_roots(fam, _table(range(24), 12))
    oracle = expectation_root(eps)
    assert abs(roots.t_root - oracle) <= 3.0 * roots.std_error + 2e-3


def _bisected_root(pressure):
    """Clamped root on [0, 1] by plain bisection at tol 1e-12."""
    if pressure(0.0) <= 0.0:
        return 0.0
    if pressure(1.0) >= 0.0:
        return 1.0
    return pl.bowen_root(pressure, 0.0, 1.0, tol=1e-12)


_FAMILIES = st.one_of(
    st.tuples(st.just("cookie"),
              st.tuples(st.floats(min_value=2.5, max_value=5.0),
                        st.floats(min_value=2.5, max_value=5.0)),
              st.floats(min_value=0.0, max_value=0.15)),
    st.tuples(st.just("circle"),
              st.tuples(st.just(2.0),
                        st.floats(min_value=-0.05, max_value=0.05)),
              st.floats(min_value=0.0, max_value=0.02)))


@settings(max_examples=30, deadline=None)
@given(_FAMILIES, st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=2, max_value=10))
def test_newton_roots_match_bisection_on_fiber_sums(shape, seed, n_seeds,
                                                    depth):
    """Mean and per-seed roots equal bisection of the same fiber sums.

    Degree 2 circle fibers cover the circle, so their finite-depth root
    sits at or next to the clamp at 1; cookie roots are interior.
    """
    kind, params, eps = shape
    fam = pl.RandomFamily(kind, params, eps)
    letters = _table(range(seed, seed + n_seeds), depth)
    roots = pl.random_bowen_roots(fam, letters)
    logds = [pl.FiberCylinders(fam, row).log_derivative_sums()[-1]
             for row in letters]
    for got, sd in zip(roots.per_sample, logds):
        expect = _bisected_root(lambda t, sd=sd: pl.logsumexp(-t * sd) / depth)
        assert got == pytest.approx(expect, abs=1e-9)
    expect = _bisected_root(lambda t: float(np.mean(
        [pl.logsumexp(-t * sd) for sd in logds])) / depth)
    assert roots.t_root == pytest.approx(expect, abs=1e-9)


_OPERATOR_FAMILIES = st.one_of(
    st.tuples(st.just("cookie"),
              st.tuples(st.floats(min_value=2.5, max_value=5.0),
                        st.floats(min_value=2.5, max_value=5.0)),
              st.floats(min_value=0.0, max_value=0.15), st.just(1e-12)),
    st.tuples(st.just("circle"),
              st.tuples(st.sampled_from([2.0, 3.0]),
                        st.floats(min_value=-0.08, max_value=0.08)),
              st.floats(min_value=0.0, max_value=0.02), st.just(1e-10)))


@settings(max_examples=40, deadline=None)
@given(_OPERATOR_FAMILIES, st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=10),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=2, max_value=3),
       st.floats(min_value=0.0, max_value=1.0))
def test_fiber_operators_reproduce_fiber_sums(shape, seed, n_seeds, depth,
                                              start, n_letters, t):
    """Operator pressures and slopes equal those of the walker's sums.

    P_n(t) = logsumexp(-t S) / n and P_n'(t) = -<softmax(-t S), S> / n
    for the log-derivative sums S of the fiber chain at positions
    start .. start + n - 1; affine fibers are exact, circle fibers are
    interpolated on the nodes the root solver would pick.
    """
    from pressurelab.transfer import _root_operators, fiber_pressures
    kind, params, eps, tol = shape
    fam = pl.RandomFamily(kind, params, eps, n_letters)
    windows = [pl.sample_base(s, n_letters)
               for s in range(seed, seed + n_seeds)]
    letters = np.array([w.letters(start, start + depth) for w in windows])
    ops, _ = _root_operators(fam, letters)
    value, slope = fiber_pressures(ops, letters, t)
    for k in range(n_seeds):
        sums = pl.FiberCylinders(fam, letters[k]).log_derivative_sums()[-1]
        weights = np.exp(-t * sums - (-t * sums).max())
        weights /= weights.sum()
        assert value[k] == pytest.approx(pl.logsumexp(-t * sums) / depth,
                                         rel=0.0, abs=tol)
        assert slope[k] == pytest.approx(-float(weights @ sums) / depth,
                                         rel=0.0, abs=tol)


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.floats(min_value=2.5, max_value=5.0),
                 st.floats(min_value=2.5, max_value=5.0)),
       st.floats(min_value=0.0, max_value=0.15),
       st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=64),
       st.integers(min_value=2, max_value=3),
       st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                max_size=4))
def test_fiber_pressures_equal_affine_products(slopes, eps, seed, depth,
                                               n_letters, ts):
    """On affine fibers the operator pressures and slopes are closed forms.

    Depths past ``_RESCALE_STEPS`` run the rescaling (by about 1 here:
    L 1 is constant on affine fibers); every window is checked at one
    shared t and at its own t, and a per-window t whose entries all equal
    the shared t reads the shared t's values.
    """
    fam = pl.RandomFamily("cookie", slopes, eps, n_letters)
    letters = _table(range(seed, seed + len(ts)), depth, n_letters)
    ops = transfer.fiber_operators(fam, 8)
    shared = transfer.fiber_pressures(ops, letters, ts[0])
    own = transfer.fiber_pressures(ops, letters, np.array(ts))
    equal = transfer.fiber_pressures(ops, letters, np.full(len(ts), ts[0]))
    for k, row in enumerate(letters):
        scales = [1.0 + eps * fam.coefficient(a) for a in row]
        for t, got in ((ts[0], shared), (ts[k], own)):
            value, slope = affine_fiber_pressure(slopes, scales, t)
            assert got[0][k] == pytest.approx(value, rel=0.0, abs=1e-12)
            assert got[1][k] == pytest.approx(slope, rel=0.0, abs=1e-12)
        assert equal[0][k] == pytest.approx(shared[0][k], rel=0.0, abs=1e-12)
        assert equal[1][k] == pytest.approx(shared[1][k], rel=0.0, abs=1e-12)


def test_random_roots_report_their_nodes(monkeypatch):
    cookie = pl.RandomFamily("cookie", (3.0, 3.0), 0.1)
    circle = pl.RandomFamily("circle", (2, 0.05), 0.05)
    # affine fibers are exact on the first node count
    letters = _table(range(3), 10)
    assert pl.random_bowen_roots(cookie, letters).nodes == 8
    assert pl.random_bowen_roots(circle, letters).nodes > 8
    # unresolved pressures fail the root, and the sweep records the level
    monkeypatch.setattr(transfer, "MAX_ROOT_NODES", 8)
    assert pl.random_bowen_roots(cookie, letters).nodes == 8
    with pytest.raises(pl.NoConvergence):
        pl.random_bowen_roots(circle, letters)
    res = pl.stability_experiment(circle, schedule=(0.05,), depth=10,
                                  seeds=2, conj_depth=8)
    assert "unresolved on 8 nodes" in res.rows[0].failure


def test_stability_certificates_name_root_nodes():
    fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.0)
    res = pl.stability_experiment(fam, schedule=(0.1,), depth=8, seeds=2)
    assert res.certificates["per_epsilon"][0.1]["root_nodes"] == 8


def test_fiber_pressure_rescaling_keeps_values(monkeypatch):
    fam = pl.RandomFamily("circle", (3, 0.05), 0.1)
    ops = transfer.fiber_operators(fam, 32)
    window = pl.sample_base(4)
    letters = window.letters(0, 40)[None, :]
    monkeypatch.setattr(transfer, "_RESCALE_STEPS", 10 ** 9)
    never = transfer.fiber_pressures(ops, letters, 0.7)
    monkeypatch.setattr(transfer, "_RESCALE_STEPS", 1)
    always = transfer.fiber_pressures(ops, letters, 0.7)
    for a, b in zip(never, always):
        assert a[0] == pytest.approx(b[0], rel=0.0, abs=1e-14)


_WALK_FAMILIES = st.one_of(
    st.tuples(st.just("cookie"),
              st.tuples(st.floats(min_value=2.5, max_value=4.0),
                        st.floats(min_value=2.5, max_value=4.0)),
              st.floats(min_value=0.0, max_value=0.15)),
    st.tuples(st.just("circle"),
              st.tuples(st.sampled_from([2.0, 3.0]),
                        st.floats(min_value=-0.05, max_value=0.05)),
              st.floats(min_value=0.0, max_value=0.02)))


@settings(max_examples=40, deadline=None)
@given(_WALK_FAMILIES, st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=10),
       st.integers(min_value=2, max_value=3), st.booleans(), st.data())
def test_batched_walk_rows_equal_one_window_walks(shape, n_windows, depth,
                                                  n_letters, small_cap, data):
    """Every row of a 2-D letter table walks as that row's 1-D walk.

    The table is any n_windows x depth array of letters.  Words, parents
    and blocks are shared; points and log-derivative sums are exact on
    affine fibers and agree to 1e-12 on circle fibers, whose inverse
    branches iterate Newton steps over all points of a call.  A small
    word cap splits the rows into batches of two.
    """
    kind, params, eps = shape
    fam = pl.RandomFamily(kind, params, eps, n_letters)
    row = st.lists(st.integers(min_value=0, max_value=n_letters - 1),
                   min_size=depth, max_size=depth)
    windows = np.array(data.draw(st.lists(row, min_size=n_windows,
                                          max_size=n_windows)))
    words = int(fam.base_map.count_words(depth))
    cap = 2 * words if small_cap else random_bundle.WORD_CAP
    with mock.patch.object(random_bundle, "WORD_CAP", cap):
        walks = list(random_bundle._fiber_walks(fam, windows))
    if small_cap:
        assert [batch.windows for _, batch in walks] == \
            [2] * (n_windows // 2) + [1] * (n_windows % 2)
    # the batches cover the table's rows once, in order
    assert np.concatenate([np.arange(n_windows)[rows]
                           for rows, _ in walks]).tolist() \
        == list(range(n_windows))
    tol = 0.0 if kind == "cookie" else 1e-12
    for rows, batch in walks:
        assert batch.windows == len(windows[rows])
        for k, window in enumerate(windows[rows]):
            one = pl.FiberCylinders(fam, window)
            assert one.windows is None
            for lb, lo in zip(batch.levels, one.levels):
                for field in ("first", "last", "parent"):
                    assert np.array_equal(getattr(lb, field),
                                          getattr(lo, field))
                assert lb.blocks == lo.blocks
                np.testing.assert_allclose(lb.points[k], lo.points,
                                           rtol=0.0, atol=tol)
            np.testing.assert_allclose(batch.log_derivative_sums()[-1][k],
                                       one.log_derivative_sums()[-1],
                                       rtol=0.0, atol=tol)


@settings(max_examples=30, deadline=None)
@given(_WALK_FAMILIES, st.integers(min_value=2, max_value=3),
       st.integers(min_value=2, max_value=5),
       st.integers(min_value=3, max_value=8), st.data())
def test_fiber_walk_consumers_read_the_same_values_in_any_batches(
        shape, n_letters, n_windows, width, data):
    """Each consumer of ``_fiber_walks`` is blind to how its rows batch.

    With a word cap that lets every window walk alone, the conjugacy
    defects, growth, displacement, walked pressure and distortion reports
    equal those of one batch: exactly on affine cookie fibers, and to
    1e-12 on circle fibers, whose inverse branches iterate Newton steps
    over all points of a call.
    """
    kind, params, eps = shape
    fam = pl.RandomFamily(kind, params, eps, n_letters)
    row = st.lists(st.integers(min_value=0, max_value=n_letters - 1),
                   min_size=width, max_size=width)
    table = np.array(data.draw(st.lists(row, min_size=n_windows,
                                        max_size=n_windows)))
    windows = table[:, :-1]
    potential = pl.Potential.geometric(0.6)

    def consumers():
        return [*random_bundle._conjugacy_defects(fam, table),
                [pl.expansivity_min_growth(fam, windows)],
                [pl.conjugacy_displacement(fam, windows)],
                pl.random_pressure(fam, potential, windows).per_sample,
                [value for report in pl.distortion_constants(fam, windows)
                 for value in report]]

    together = consumers()
    words = fam.base_map.count_words(width - 1)
    assert words * n_windows <= random_bundle.WORD_CAP
    with mock.patch.object(random_bundle, "WORD_CAP", words):
        assert len(list(random_bundle._fiber_walks(fam, windows))) \
            == n_windows
        alone = consumers()
    tol = 0.0 if kind == "cookie" else 1e-12
    for one_batch, one_each in zip(together, alone):
        np.testing.assert_allclose(one_batch, one_each, rtol=0.0, atol=tol)


@pytest.mark.parametrize("kind, params, eps", [
    ("circle", (3.0, 0.05), 0.05), ("circle", (2.0, 0.05), 0.02),
    ("cookie", (3.0, 2.5), 0.1)])
@pytest.mark.parametrize("n_letters", [2, 3])
def test_batched_random_pressure_equals_one_window_walks(kind, params, eps,
                                                         n_letters):
    """Each row's walked pressure is that of its own one-window walk."""
    from pressurelab.pressure import logsumexp

    fam = pl.RandomFamily(kind, params, eps, n_letters)
    table = _table(range(9), 7, n_letters)
    for potential in (pl.Potential.geometric(0.6),
                      pl.Potential.from_function(lambda x: np.sin(3 * x))):
        est = pl.random_pressure(fam, potential, table)
        assert est.per_sample == tuple(
            logsumexp(pl.FiberCylinders(fam, row).birkhoff(
                potential.step_values)[-1]) / 7 for row in table)


def test_batched_walk_counts_every_window_against_the_cap(monkeypatch):
    from pressurelab import cylinders
    fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.1)
    windows = _table(range(4), 6)
    monkeypatch.setattr(cylinders, "WORD_CAP", 4 * 64)
    assert pl.FiberCylinders(fam, windows).windows == 4
    monkeypatch.setattr(cylinders, "WORD_CAP", 4 * 64 - 1)
    with pytest.raises(pl.MatrixTooLarge, match="x 4 windows"):
        pl.FiberCylinders(fam, windows)
    with pytest.raises(pl.BadSpec, match="table"):
        pl.FiberCylinders(fam, windows[None])


@settings(max_examples=30, deadline=None)
@given(_OPERATOR_FAMILIES, st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=12))
def test_window_roots_equal_one_window_newton_roots(shape, seed, n_seeds,
                                                    depth):
    """Per-seed roots of one vectorised pass equal one-window solves."""
    from pressurelab.bowen import _newton_solve
    from pressurelab.transfer import _root_operators, fiber_pressures
    kind, params, eps, _ = shape
    fam = pl.RandomFamily(kind, params, eps)
    letters = _table(range(seed, seed + n_seeds), depth)
    ops, _ = _root_operators(fam, letters)
    roots = pl.random_bowen_roots(fam, letters)
    assert roots.nodes == ops.nodes
    for k, got in enumerate(roots.per_sample):
        def one(t, k=k):
            value, slope = fiber_pressures(ops, letters[k:k + 1], t)
            return float(value[0]), float(slope[0])
        assert got == pytest.approx(_newton_solve(one, 1.0, 1e-10),
                                    rel=0.0, abs=1e-12)


def test_default_cookie_sweep_traffic(monkeypatch):
    """One letter row per seed, and one base walk per conjugacy depth.

    Per level the sweep walks the batched fibers of both conjugacy slices
    and the growth slice of the first ``_WALKED_WINDOWS`` rows of the
    letter table, each in one batch, and the constant windows of all
    letters once for distortion.  The base map is walked once per
    distinct conjugacy depth, and at half and full depth for the
    reference root.
    """
    from pressurelab import cylinders, random_bundle
    draws = []
    draw = random_bundle.sample_base

    def counted_draw(seed, *args, **kwargs):
        draws.append(seed)
        return draw(seed, *args, **kwargs)

    base = pl.cookie_cutter(3.0, 3.0).describe()
    walks = []
    walk = cylinders.build_levels

    def counted_walk(maps, *args, **kwargs):
        walks.append((len(maps), all(mp.describe() == base for mp in maps),
                      cylinders._chain_windows(maps)))
        return walk(maps, *args, **kwargs)

    growths = []
    growth = random_bundle.expansivity_min_growth

    def counted_growth(*args):
        growths.append(args[1].shape)
        return growth(*args)

    monkeypatch.setattr(random_bundle, "sample_base", counted_draw)
    monkeypatch.setattr(cylinders, "build_levels", counted_walk)
    monkeypatch.setattr(random_bundle, "expansivity_min_growth",
                        counted_growth)
    carrier = pl.RandomFamily("cookie", (3.0, 3.0), 0.0)
    res = pl.stability_experiment(carrier)
    assert draws == list(range(16))
    walked = random_bundle._WALKED_WINDOWS
    assert walked == 4
    # the growth certificate of a level is one call of its public kernel
    assert growths == [(walked, random_bundle.GROWTH_DEPTH)] * 4
    levels = res.certificates["per_epsilon"]
    assert len(levels) == 4
    assert [cert["walked_windows"] for cert in levels.values()] \
        == [walked] * 4
    base_depths = sorted(depth for depth, is_base, _ in walks if is_base)
    reference = [random_bundle.REFERENCE_DEPTH // 2,
                 random_bundle.REFERENCE_DEPTH]
    conj_depths = [cert["conj_depth"] for cert in levels.values()]
    assert base_depths == sorted(reference + list(set(conj_depths)))
    # levels 0.05 and 0.025 share conjugacy depth 9 and its base walk
    assert base_depths == [6, 9, 10, 11, 12]
    # each conjugacy slice and the growth slice of the walked rows is one
    # walk (at depth 11 one batch of 4 x 2^11 = 8192 points), and the
    # distortion probes one walk of both letters' constant windows
    assert conj_depths == [11, 10, 9, 9]
    fibers = [(depth, windows) for depth, is_base, windows in walks
              if not is_base]
    assert fibers == [
        fiber for cd in conj_depths
        for fiber in ((cd, walked), (cd, walked),
                      (random_bundle.GROWTH_DEPTH, walked),
                      (random_bundle.DISTORTION_DEPTH, 2))]


def test_default_sweep_hashes_one_letter_table_and_one_pair_set(
        monkeypatch):
    """The sweep draws one letter table, not one window per walk.

    Sixteen seed rows make 16 letter draws on the default four-level
    sweep, and the distortion pairs, shared by its levels, are drawn once
    for the whole sweep, ``_PAIR_BLOCK`` counters per call.
    """
    calls = []
    draw = random_bundle._draw

    def counted(seed, counters, n):
        calls.append((n, len(counters)))
        return draw(seed, counters, n)

    monkeypatch.setattr(random_bundle, "_draw", counted)
    random_bundle._distortion_pairs.cache_clear()
    carrier = pl.RandomFamily("cookie", (3.0, 3.0), 0.0)
    rows = pl.stability_experiment(carrier, seeds=16).rows
    assert len(rows) == 4 and all(r.failure == "" for r in rows)
    assert [n for n, _ in calls].count(2) == 16
    leaves = 2 ** random_bundle.DISTORTION_DEPTH
    pair_draws = [size for n, size in calls if n == leaves]
    extra = random_bundle._DISTORTION_PAIRS - (leaves - 1)
    assert sum(pair_draws) == 2 * extra
    assert len(pair_draws) == 2 * math.ceil(extra / random_bundle._PAIR_BLOCK)
    assert len(calls) == 16 + len(pair_draws)


def test_sweep_levels_read_slices_of_one_letter_table():
    """A level's numbers are the one-window measures of its table slices.

    The root reads every row; the conjugacy and growth certificates read
    the first min(seeds, ``_WALKED_WINDOWS``) rows.
    """
    carrier = pl.RandomFamily("cookie", (3.0, 3.0), 0.0)
    fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.1)
    for seeds in (3, 6):
        res = pl.stability_experiment(carrier, schedule=(0.1,), depth=10,
                                      seeds=seeds, base_seed=7)
        row = res.rows[0]
        cert = res.certificates["per_epsilon"][0.1]
        cd = cert["conj_depth"]
        table = _table(range(7, 7 + seeds), cd + 1)
        walked = table[:random_bundle._WALKED_WINDOWS]
        assert cert["walked_windows"] == len(walked) == min(seeds, 4)
        assert row.t_root == pl.random_bowen_roots(fam,
                                                   table[:, :10]).t_root
        assert row.h_sup == max(pl.conjugacy_displacement(fam, r[:cd])
                                for r in walked)
        assert row.equivariance == pl.measure_equivariance(
            fam, walked[:, :cd + 1])[0]
        assert cert["min_growth"] == pl.expansivity_min_growth(
            fam, walked[:, :random_bundle.GROWTH_DEPTH])


@settings(max_examples=20, deadline=None)
@given(_WALK_FAMILIES, st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=7))
def test_map_words_rows_equal_map_word(shape, seed, length):
    """The batched pulled route is the single-word one, row by row."""
    kind, params, eps = shape
    fam = pl.RandomFamily(kind, params, eps)
    conj = pl.FiberConjugacy(fam, pl.sample_base(seed).letters(0, 8))
    n_sym = fam.base_map.n_symbols
    words = np.array(list(np.ndindex(*(n_sym,) * length)))
    got = conj.map_words(words)
    tol = 0.0 if kind == "cookie" else 1e-12
    for word, point in list(zip(words, got))[::max(1, len(words) // 40)]:
        assert point == pytest.approx(conj.map_word(word), rel=0.0, abs=tol)
    with pytest.raises(pl.InadmissibleWord):
        conj.map_words([[0, n_sym]])
    with pytest.raises(pl.InadmissibleWord):
        conj.map_words(np.zeros((3, 0), dtype=int))
    with pytest.raises(pl.InadmissibleWord):
        conj.map_words(np.zeros((3, 9), dtype=int))


@settings(max_examples=40, deadline=None)
@given(_WALK_FAMILIES, st.integers(min_value=2, max_value=3),
       st.integers(min_value=1, max_value=10),
       st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1,
                max_size=3))
def test_random_entropy_is_the_walked_zero_pressure(shape, n_letters, depth,
                                                     seeds):
    """The word count closed form is the enumerated zero pressure."""
    kind, params, eps = shape
    fam = pl.RandomFamily(kind, params, eps, n_letters)
    walked = pl.random_pressure(fam, pl.Potential.zero(),
                                _table(seeds, depth, n_letters)).value
    assert abs(pl.random_entropy(fam) - walked) <= 1e-12


def test_random_entropy_needs_no_walk_past_the_word_cap(monkeypatch):

    def no_walk(*args, **kwargs):
        raise AssertionError("random_entropy walked fiber words")

    monkeypatch.setattr(random_bundle, "FiberCylinders", no_walk)
    fam = pl.RandomFamily("circle", (3.0, 0.05), 0.0)
    # log 3 at every depth, 3^13 words and past float range alike
    assert abs(pl.random_entropy(fam) - math.log(3.0)) <= 1e-12


def _whole_array_pairs(m):
    """The distortion pairs of ``m`` leaves from one draw of all counters.

    i takes the first half of the drawn counters and j the second, as
    ``_distortion_pairs`` drew them before it drew in blocks.
    """
    extra = max(0, random_bundle._DISTORTION_PAIRS - (m - 1))
    drawn = random_bundle._draw(random_bundle._DISTORTION_SEED,
                                np.arange(2 * extra), m).astype(np.intp)
    i = np.concatenate([np.arange(m - 1), drawn[:extra]])
    j = np.concatenate([np.arange(1, m), drawn[extra:]])
    keep = i != j
    return i[keep], j[keep]


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.sampled_from([2, 100, 1024, 2048, 5000, 30000]),
                 st.integers(min_value=2, max_value=13000)),
       st.sampled_from([7, 100, 2048]))
def test_blocked_pair_draws_are_the_whole_array_draw(leaves, block):
    """Pairs drawn a block of counters at a time are the one-draw pairs,
    bit for bit, at any block size."""
    with mock.patch.object(random_bundle, "_PAIR_BLOCK", block):
        i, j = random_bundle._distortion_pairs.__wrapped__(leaves)
    want_i, want_j = _whole_array_pairs(leaves)
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)


def _direct_distortion(family, window):
    """``distortion_constants`` of one window over whole pair arrays.

    Every pair quantity is one array over all sampled pairs, as the scan
    was written before it ran over blocks of pairs.
    """
    chain = pl.FiberCylinders(family, np.asarray(window)[None, :])
    leaves = chain.leaves
    m = len(leaves.first)
    i, j = _whole_array_pairs(m)

    def metric(u, v):
        d = np.abs(u - v)
        return np.minimum(d, 1.0 - d) if family.kind == "circle" else d

    pts = leaves.points[0]
    images = chain.levels[-2].points[0][leaves.parent]
    mp = family.fiber_map(window[0])
    derivs = np.empty(m)
    for s, a, b in leaves.blocks:
        derivs[a:b] = mp.branches[s].deriv(pts[a:b])
    r0 = 0.25 * mp.diam
    if mp.domain_gaps:
        r0 = min(r0, 0.5 * min(mp.domain_gaps))
    dx = metric(pts[i], pts[j])
    k0 = float((np.abs(derivs[i] - derivs[j]) / dx).max())
    k_val = max(k0, mp.diam / r0, mp.max_expansion / r0)
    ratio = metric(images[i], images[j]) / dx
    pad = k_val * dx
    slack = np.minimum(
        np.minimum(derivs[i] + pad - ratio, ratio - derivs[i] + pad),
        np.minimum(derivs[j] + pad - ratio, ratio - derivs[j] + pad))
    return k0, float(k_val), float(slack.min()), len(i)


@settings(max_examples=30, deadline=None)
@given(_WALK_FAMILIES, st.integers(min_value=2, max_value=3),
       st.integers(min_value=2, max_value=10),
       st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from([7, 100, 2048]))
def test_blocked_distortion_scan_is_the_whole_array_scan(
        shape, n_letters, depth, letter_seed, block):
    """Block extremes of the pair scan are the whole-array extremes, bit
    for bit, on every window of a table, at any block size."""
    kind, params, eps = shape
    fam = pl.RandomFamily(kind, params, eps, n_letters)
    table = _table([letter_seed, letter_seed + 1], depth, n_letters)
    with mock.patch.object(random_bundle, "_PAIR_BLOCK", block):
        reports = pl.distortion_constants(fam, table)
    for window, rep in zip(table, reports):
        assert (rep.k0, rep.k_value, rep.worst_violation, rep.pairs) \
            == _direct_distortion(fam, window)


@pytest.mark.parametrize("n_pairs", [1, 2047, 2048, 2049, 6000])
def test_pair_blocks_cover_every_pair_once_in_order(n_pairs):
    i = np.arange(n_pairs)
    blocks = list(random_bundle._pair_blocks((i.astype(np.int32),
                                               (i + 1).astype(np.int32))))
    assert max(len(bi) for bi, _ in blocks) <= random_bundle._PAIR_BLOCK
    assert all(b.dtype == np.intp for block in blocks for b in block)
    assert np.concatenate([bi for bi, _ in blocks]).tolist() == i.tolist()
    assert np.concatenate([bj for _, bj in blocks]).tolist() \
        == (i + 1).tolist()


def test_distortion_pairs_are_shared_read_only_int32():
    i, j = random_bundle._distortion_pairs(1024)
    assert (i.dtype, j.dtype) == (np.int32, np.int32)
    assert not i.flags.writeable and not j.flags.writeable
    assert random_bundle._distortion_pairs(1024)[0] is i
    with pytest.raises(ValueError):
        i[0] = 1


def test_distortion_probes_of_many_letters_walk_in_batches():
    """Past WORD_CAP / 2^DISTORTION_DEPTH letters the probes still run, and
    each letter's report is its own one-window call."""
    n_letters = 1100
    fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.05, n_letters)
    probes = random_bundle._distortion_probes(n_letters)
    assert probes.tolist() == [[letter] * random_bundle.DISTORTION_DEPTH
                               for letter in range(n_letters)]
    reports = pl.distortion_constants(fam, probes)
    assert len(reports) == n_letters
    # both sides of the batch boundary, and the ends of the table
    for letter in (0, 1, 511, 1022, 1023, 1024, 1025, n_letters - 1):
        assert pl.distortion_constants(fam, probes[letter]) \
            == [reports[letter]]


def _foreign_transport():
    fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.1)
    other = pl.RandomFamily("cookie", (3.0, 3.0), 0.1)
    conj = pl.FiberConjugacy(other, _table([0], 8)[0])
    return pl.random_conjugacy_pressure_check(fam, conj, pl.Potential.zero(),
                                              depth=5)


@pytest.mark.parametrize("call, error", [
    (lambda: pl.RandomFamily("cookie", (3.0, 3.0), -0.1), pl.BadSpec),
    (lambda: pl.RandomFamily("cookie", (3.0, 3.0, 3.0), 0.1), pl.BadSpec),
    (lambda: pl.RandomFamily("circle", (3.0, 0.05, 1.0), 0.1), pl.BadSpec),
    (lambda: pl.RandomFamily("cookie", (3.0, 3.0), 0.1).fiber_map(2),
     pl.BadSpec),
    (lambda: pl.random_bowen_roots(pl.RandomFamily("cookie", (3.0, 3.0), 0.1),
                                   np.empty((0, 8), dtype=int)), pl.BadSpec),
    (lambda: transfer.fiber_operators(
        pl.RandomFamily("cookie", (3.0, 3.0), 0.1), 1), pl.BadSpec),
    # the check refuses a conjugacy built for an equal but other family
    (_foreign_transport, pl.BadSpec),
    # the degree is not truncated to 3
    (lambda: pl.RandomFamily("circle", (3.5, 0.05), 0.02), pl.BadSpec),
    # nor are seeds and letter counts, and an int of any size reaches the
    # range check
    (lambda: pl.sample_base(1.5), pl.BadSpec),
    (lambda: pl.sample_base(3, 2.5), pl.BadSpec),
    (lambda: pl.RandomFamily("cookie", (3.0, 3.0), 0.1, 2.5), pl.BadSpec),
    (lambda: pl.sample_base(2 ** 2000), pl.BadSpec),
    (lambda: pl.RandomFamily("cookie", (3.0, 3.0), 0.1, 2 ** 2000),
     pl.BadSpec),
    # nor are the sweep's counts and depths, or a node count
    (lambda: pl.stability_experiment(
        pl.RandomFamily("cookie", (3.0, 3.0), 0.0), seeds=2.5), pl.BadSpec),
    (lambda: pl.stability_experiment(
        pl.RandomFamily("cookie", (3.0, 3.0), 0.0), depth=2.5), pl.BadSpec),
    (lambda: pl.stability_experiment(
        pl.RandomFamily("cookie", (3.0, 3.0), 0.0), conj_depth=2.5),
     pl.BadSpec),
    (lambda: transfer.fiber_operators(
        pl.RandomFamily("cookie", (3.0, 3.0), 0.1), 8.5), pl.BadSpec),
])
def test_invalid_families_and_requests_are_rejected(call, error):
    with pytest.raises(error):
        call()


def test_integral_seeds_and_letter_counts_are_ints():
    assert pl.sample_base(3.0, 2.0) == pl.sample_base(3, 2)
    assert pl.sample_base(np.int64(3)).seed == 3
    assert pl.RandomFamily("cookie", (3.0, 3.0), 0.1, 3.0).n_letters == 3
    fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.0)
    assert transfer.fiber_operators(fam, 8.0).nodes == 8
    assert pl.stability_experiment(fam, (0.1,), 8.0, 3.0, 4.0) \
        == pl.stability_experiment(fam, (0.1,), 8, 3, 4)


def test_a_family_checks_at_construction_that_its_base_is_a_full_shift(
        monkeypatch):
    monkeypatch.setattr(random_bundle.dyn, "cookie_cutter",
                        lambda *params: pl.golden_mean_map())
    with pytest.raises(pl.BadSpec, match="full transition matrix"):
        pl.RandomFamily("cookie", (3.0, 3.0), 0.1)


def test_a_one_letter_conjugacy_fails_every_level_plainly():
    """A conjugacy defect compares two levels of one walk, so a sweep at
    conj_depth 1 records every level as a failure, not an IndexError."""
    fam = pl.RandomFamily("cookie", (3.0, 3.0), 0.0)
    result = pl.stability_experiment(fam, conj_depth=1, seeds=2)
    assert len(result.rows) == 4
    for row in result.rows:
        assert row.failure == "equivariance needs windows of at least 3 " \
            "letters"
        assert result.certificates["per_epsilon"][row.epsilon] \
            == {"failure": row.failure}
