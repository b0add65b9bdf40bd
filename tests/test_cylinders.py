"""Cylinder walker: counts, ordering, Birkhoff folding, map chains."""

import math

import numpy as np
import pytest

import pressurelab as pl
from conftest import admissible_count
from pressurelab import cylinders


def test_leaf_counts_match_matrix_powers():
    for mp in (pl.doubling_map(), pl.golden_mean_map(),
               pl.cookie_cutter(2.0, 4.0)):
        for depth in (1, 2, 5, 9):
            cyl = pl.CylinderSet(mp, depth)
            assert len(cyl.leaves.first) == admissible_count(mp.adjacency,
                                                             depth)


def test_words_are_lexicographic_and_admissible():
    mp = pl.golden_mean_map()
    cyl = pl.CylinderSet(mp, 7)
    words = [cyl.word(i) for i in range(len(cyl.leaves.first))]
    assert words == sorted(words)
    assert len(set(words)) == len(words)
    for w in words:
        assert mp.check_word(w) == w


def test_representatives_code_their_words():
    mp = pl.cookie_cutter(3.0, 3.0)
    depth = 6
    cyl = pl.CylinderSet(mp, depth)
    for i in range(0, len(cyl.leaves.first), 7):
        w = cyl.word(i)
        x = float(cyl.leaves.points[i])
        assert pl.orbit(mp, x, depth)[1] == w


def test_first_last_arrays():
    mp = pl.golden_mean_map()
    cyl = pl.CylinderSet(mp, 6)
    for i in range(len(cyl.leaves.first)):
        w = cyl.word(i)
        assert cyl.leaves.first[i] == w[0]
        assert cyl.leaves.last[i] == w[-1]


def test_birkhoff_constant_function():
    mp = pl.doubling_map()
    cyl = pl.CylinderSet(mp, 5)
    sums = cyl.birkhoff(lambda mapping, s, pts: np.full(len(pts), 0.25))
    for k, arr in enumerate(sums):
        assert np.allclose(arr, 0.25 * (k + 1))


def test_log_derivative_sums_by_letter_count():
    """On a full shift with constant slopes the sum is a digit statistic."""
    r1, r2 = 2.0, 4.0
    mp = pl.cookie_cutter(r1, r2)
    depth = 8
    cyl = pl.CylinderSet(mp, depth)
    logd = cyl.log_derivative_sums()[-1]
    for i in range(0, len(cyl.leaves.first), 11):
        ones = sum(cyl.word(i))
        expect = ones * math.log(r2) + (depth - ones) * math.log(r1)
        assert logd[i] == pytest.approx(expect, abs=1e-12)


def test_orbit_points_climb_parent_chain():
    """A leaf's forward orbit is its chain of parents, one per level."""
    mp = pl.cookie_cutter(2.0, 4.0)
    cyl = pl.CylinderSet(mp, 6)
    idx = len(cyl.leaves.first) // 2
    pts, i = [], idx
    for lvl in reversed(cyl.levels):
        pts.append(lvl.points[i])
        i = lvl.parent[i]
    x = float(cyl.leaves.points[idx])
    orbit_pts, _ = pl.orbit(mp, x, 6)
    assert np.allclose(pts, orbit_pts, atol=1e-12)


def test_word_cap_enforced(monkeypatch):
    mp = pl.doubling_map()
    monkeypatch.setattr(cylinders, "WORD_CAP", 200)
    with pytest.raises(pl.MatrixTooLarge):
        pl.CylinderSet(mp, 8)
    # exactly at the cap is allowed
    monkeypatch.setattr(cylinders, "WORD_CAP", 256)
    assert len(pl.CylinderSet(mp, 8).leaves.first) == 256


def test_build_levels_position_dependent_chain():
    """A chain of different maps applies each map at its own position."""
    a = pl.cookie_cutter(2.0, 4.0)
    b = pl.cookie_cutter(3.0, 3.0)
    levels = pl.build_levels([a, b])
    # depth 2 points: inverse branch of the position 0 map applied to the
    # centers of the position 1 map
    seeds = levels[0].points
    for i in range(len(levels[1].first)):
        s = levels[1].first[i]
        parent = levels[1].parent[i]
        expect = float(a.branches[s].inv(seeds[parent]))
        assert levels[1].points[i] == pytest.approx(expect)


def test_cylinder_set_walks_a_chain_of_maps():
    a = pl.cookie_cutter(2.0, 4.0)
    b = pl.cookie_cutter(3.0, 3.0)
    cyl = pl.CylinderSet([a, b], 2)
    assert np.array_equal(cyl.leaves.points, pl.build_levels([a, b])[1].points)
    with pytest.raises(pl.BadSpec):
        pl.CylinderSet([a, b], 3)


def test_build_levels_rejects_mixed_transitions():
    with pytest.raises(pl.BadSpec):
        pl.build_levels([pl.doubling_map(), pl.golden_mean_map()])


@pytest.mark.parametrize("call, error", [
    (lambda: pl.CylinderSet(pl.doubling_map(), 0), pl.BadSpec),
    (lambda: pl.MapColumn([]), pl.BadSpec),
    (lambda: pl.CylinderSet(
        [pl.MapColumn([pl.doubling_map()]),
         pl.MapColumn([pl.doubling_map(), pl.doubling_map()])], 2),
     pl.BadSpec),
    (lambda: pl.CylinderSet(pl.toral_map(2, 3), 2).log_derivative_sums(),
     pl.BadSpec),
])
def test_invalid_walks_are_rejected(call, error):
    with pytest.raises(error):
        call()
