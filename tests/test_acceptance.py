"""End to end acceptance battery.

Each criterion prints one PASS or FAIL line (run with -s to stream them)
and asserts at its stated tolerance.  Expected values come from closed
forms or from the independent oracles in conftest, never from the code
under test.
"""

import math
import time

import numpy as np
import pytest

import pressurelab as pl
from conftest import expectation_root, moran_root, primitive_cycles

MARKOV_HALF = (((0.0, 0.25), (0.375, 0.5)), ((0.0, 0.5), (0.0, 0.5)))


def report(num, label, ok, detail):
    print("criterion %d %s: %s (%s)" % (num, "PASS" if ok else "FAIL",
                                        label, detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def one_d_builtins():
    return [("doubling", pl.doubling_map()),
            ("cookie_cutter(3,3)", pl.cookie_cutter(3.0, 3.0)),
            ("cookie_cutter(2,4)", pl.cookie_cutter(2.0, 4.0)),
            ("circle(2,0.02)", pl.circle_map(2, 0.02)),
            ("circle(3,0)", pl.circle_map(3, 0.0)),
            ("golden_mean", pl.golden_mean_map()),
            ("linear_markov", pl.linear_markov(*MARKOV_HALF))]


def holder_potentials():
    return [("geometric(0.4)", pl.Potential.geometric(0.4)),
            ("cos", pl.Potential.from_function(
                lambda x: 0.3 * np.cos(2 * np.pi * x), name="cos")),
            ("constant(0.2)", pl.Potential.constant(0.2))]


@pytest.fixture(scope="module")
def stability_run():
    carrier = pl.RandomFamily("cookie", (3.0, 3.0), 0.0)
    start = time.time()
    result = pl.stability_experiment(carrier)
    return result, time.time() - start


def test_criterion_1_self_similar_dimension_oracles():
    cases = [((3.0, 3.0), math.log(2.0) / math.log(3.0)),
             ((2.0, 4.0), math.log((1.0 + math.sqrt(5.0)) / 2.0)
              / math.log(2.0))]
    worst = 0.0
    slowest = 0.0
    for slopes, closed_form in cases:
        oracle = moran_root(slopes)
        assert oracle == pytest.approx(closed_form, abs=1e-12)
        start = time.time()
        rep = pl.dimension_report(pl.cookie_cutter(*slopes), depth=14)
        elapsed = time.time() - start
        worst = max(worst, abs(rep.t_root - oracle))
        slowest = max(slowest, elapsed)
    ok = worst <= 2e-3 and slowest < 10.0
    report(1, "self similar dimensions", ok,
           "worst gap %.2e <= 2e-3, slowest %.2fs < 10s" % (worst, slowest))


def test_criterion_2_entropy_counts_branches():
    cases = [(pl.doubling_map(), 2, 8), (pl.cookie_cutter(3.0, 3.0), 2, 8),
             (pl.cookie_cutter(2.0, 4.0), 2, 8),
             (pl.circle_map(2, 0.02), 2, 8), (pl.circle_map(3, 0.05), 3, 8),
             (pl.toral_map(2, 2), 4, 6), (pl.toral_map(2, 3), 6, 6),
             (pl.toral_conformal_map(3), 9, 6)]
    worst = 0.0
    for mp, branch_count, depth in cases:
        got = pl.pressure_additive(mp, pl.Potential.zero(), depth)
        worst = max(worst, abs(got - math.log(branch_count)))
    ok = worst <= 1e-9
    report(2, "zero potential entropy", ok,
           "worst |P0 - log branches| %.2e <= 1e-9 over %d full branch maps"
           % (worst, len(cases)))


def test_criterion_3_separated_vs_transfer():
    worst = 0.0
    for mname, mp in one_d_builtins():
        for pname, pot in holder_potentials():
            refined = (2.0 * pl.pressure_additive(mp, pot, 10)
                       - pl.pressure_additive(mp, pot, 5))
            spectral = pl.transfer_pressure(mp, pot, 10)
            worst = max(worst, abs(refined - spectral))
    ok = worst <= 1e-2
    report(3, "separated set vs transfer matrix", ok,
           "worst route gap %.2e <= 1e-2 at n=10" % worst)


def test_criterion_4_monotone_and_lipschitz():
    worst_margin = -math.inf
    monotone = True
    for mname, mp in one_d_builtins():
        grid = np.linspace(0.0, 1.0, 10)
        vals = [pl.pressure_additive(mp, pl.Potential.geometric(t), 8)
                for t in grid]
        cap = -math.log(mp.min_expansion) + 1e-6
        for a, b, ta, tb in zip(vals, vals[1:], grid, grid[1:]):
            slope = (b - a) / (tb - ta)
            monotone = monotone and b < a
            worst_margin = max(worst_margin, slope - cap)
    for mp in (pl.toral_map(2, 3), pl.toral_conformal_map(3)):
        grid = np.linspace(0.0, 2.0, 10)
        cap = -math.log(mp.min_expansion) + 1e-6
        for maker in (pl.Potential.singular_upper, pl.Potential.singular_lower):
            vals = [pl.pressure_additive(mp, maker(t), 8) for t in grid]
            for a, b, ta, tb in zip(vals, vals[1:], grid, grid[1:]):
                slope = (b - a) / (tb - ta)
                monotone = monotone and b < a
                worst_margin = max(worst_margin, slope - cap)

    # a uniform perturbation moves pressure by at most its sup norm
    lipschitz_ok = True
    worst_excess = -math.inf
    for mname, mp in one_d_builtins():
        cyl = pl.CylinderSet(mp, 8)
        for pname, pot in holder_potentials():
            for bump in (0.05, 0.21):
                shifted = pl.Potential.from_function(
                    lambda x, p=pot, b=bump: p.pointwise(mp, np.asarray(
                        x, dtype=float)) + b * np.sin(2 * np.pi * np.asarray(
                            x, dtype=float)))
                sup = float(np.abs(
                    shifted.pointwise(mp, cyl.leaves.points)
                    - pot.pointwise(mp, cyl.leaves.points)).max())
                gap = abs(pl.pressure_additive(mp, shifted, 8)
                          - pl.pressure_additive(mp, pot, 8))
                worst_excess = max(worst_excess, gap - sup)
                lipschitz_ok = lipschitz_ok and gap <= sup + 1e-12
    ok = monotone and worst_margin <= 0.0 and lipschitz_ok
    report(4, "monotone decrease and Lipschitz bound", ok,
           "slope margin %.2e <= 0, perturbation excess %.2e <= 1e-12"
           % (worst_margin, worst_excess))


def test_criterion_5_iterated_pressure_invariance():
    cases = [(pl.doubling_map(), 1.0, 16),
             (pl.cookie_cutter(3.0, 3.0), moran_root((3.0, 3.0)), 16),
             (pl.cookie_cutter(2.0, 4.0), moran_root((2.0, 4.0)), 16),
             (pl.circle_map(3, 0.0), 1.0, 8),
             (pl.toral_conformal_map(3), 2.0, 16)]
    worst = 0.0
    for mp, t_root, budget in cases:
        vals = [pl.iterated_singular_pressure(mp, t_root, k, budget=budget)
                for k in (1, 2, 4, 8)]
        worst = max(worst, max(vals) - min(vals))
    ok = worst < 5e-3
    report(5, "iterated pressure invariance", ok,
           "worst spread %.2e < 5e-3 across k in {1,2,4,8}" % worst)


def test_criterion_6_conjugacy_invariance():
    worst_det = 0.0
    for mname, mp in one_d_builtins():
        rep = pl.conjugate_pressure_check(mp, mp, lambda x: x,
                                          pl.Potential.geometric(0.3),
                                          depth=8)
        worst_det = max(worst_det, abs(rep.slack), rep.residual)
    rep = pl.conjugate_pressure_check(pl.toral_map(2, 2), pl.toral_map(2, 2),
                                      lambda x: x, pl.Potential.zero(),
                                      depth=5)
    worst_det = max(worst_det, abs(rep.slack), rep.residual)
    # affine change of coordinates between the gap map and its half model
    rep = pl.conjugate_pressure_check(
        pl.cookie_cutter(2.0, 4.0), pl.linear_markov(*MARKOV_HALF),
        lambda x: 0.5 * x,
        pl.Potential.from_function(lambda x: 0.4 * np.sin(2 * np.pi * x)),
        depth=10)
    worst_det = max(worst_det, abs(rep.slack), rep.residual)
    det_ok = worst_det <= 1e-9

    random_ok = True
    worst_random = -math.inf
    for kind, params, eps in (("cookie", (3.0, 3.0), 0.1),
                              ("cookie", (2.0, 4.0), 0.05),
                              ("circle", (3, 0.05), 0.05)):
        fam = pl.RandomFamily(kind, params, eps)
        conj = pl.FiberConjugacy(fam, pl.sample_base(3).letters(0, 10))
        for pot in (pl.Potential.geometric(0.5), pl.Potential.zero()):
            rep = pl.random_conjugacy_pressure_check(fam, conj, pot, depth=6)
            random_ok = random_ok and rep.residual <= rep.bound + 1e-12
            worst_random = max(worst_random, rep.residual - rep.bound)
    ok = det_ok and random_ok
    report(6, "conjugacy pressure invariance", ok,
           "deterministic defect %.2e <= 1e-9, random residual excess "
           "%.2e <= 1e-12" % (worst_det, worst_random))


def test_criterion_7_structural_stability(stability_run):
    result, elapsed = stability_run
    rows = result.rows
    t0 = result.t_reference
    schedule_ok = [r.epsilon for r in rows] == [0.2, 0.1, 0.05, 0.025]
    clean = all(r.failure == "" for r in rows)
    equiv_ok = all(r.equivariance <= r.equivariance_bound for r in rows)

    h_ok = all(rows[i + 1].h_sup <= rows[i].h_sup
               + rows[i].std_error + rows[i + 1].std_error
               for i in range(len(rows) - 1))

    def decreasing(gaps):
        return all(
            gaps[i + 1] <= gaps[i] + 2.0 * (rows[i].std_error
                                            + rows[i + 1].std_error) + 1e-4
            for i in range(len(rows) - 1))

    gaps_t = [r.gap_t for r in rows]
    gap_ok = decreasing(gaps_t) and gaps_t[-1] < 0.02

    oracle_ok = True
    worst_oracle = -math.inf
    for r in rows:
        gap = abs(r.t_root - expectation_root(r.epsilon))
        allowance = 3.0 * r.std_error + 2e-3
        oracle_ok = oracle_ok and gap <= allowance
        worst_oracle = max(worst_oracle, gap - allowance)

    runtime_ok = elapsed < 300.0
    ok = (schedule_ok and clean and equiv_ok and h_ok and gap_ok
          and oracle_ok and runtime_ok)
    report(7, "structural stability under shrinking noise", ok,
           "t0 %.6f, final gap %.2e < 0.02, oracle margin %.2e <= 0, "
           "%.1fs < 300s" % (t0, gaps_t[-1], worst_oracle, elapsed))


def test_criterion_8_distortion_and_expansivity(stability_run):
    result, _ = stability_run
    per_eps = result.certificates["per_epsilon"]
    dist_ok = True
    growth_ok = True
    pair_floor = math.inf
    worst_violation = math.inf
    for eps, cert in per_eps.items():
        growth_ok = growth_ok and cert["min_growth"] > 0.0
        for letter, rep in cert["distortion"].items():
            dist_ok = dist_ok and rep["worst_violation"] >= -1e-10
            pair_floor = min(pair_floor, rep["pairs"])
            worst_violation = min(worst_violation, rep["worst_violation"])
    # the second certified family kind, on its own feasible schedule
    for eps in (0.1, 0.05):
        fam = pl.RandomFamily("circle", (3, 0.05), eps)
        for letter in range(fam.n_letters):
            [rep] = pl.distortion_constants(
                fam, np.full(pl.random_bundle.DISTORTION_DEPTH, letter))
            dist_ok = dist_ok and rep.worst_violation >= -1e-10
            pair_floor = min(pair_floor, rep.pairs)
            worst_violation = min(worst_violation, rep.worst_violation)
        for seed in range(4):
            window = pl.sample_base(seed, fam.n_letters).letters(0, 8)
            growth_ok = (growth_ok
                         and pl.expansivity_min_growth(fam, window) > 0.0)
    ok = dist_ok and growth_ok and pair_floor >= 10 ** 4
    report(8, "distortion certificate and expansion positivity", ok,
           "worst slack %.2e >= -1e-10 on >= %d pairs per fiber, growth "
           "positive at n=8" % (worst_violation, pair_floor))


def test_criterion_9_variational_inequality():
    worst = math.inf
    checked = 0
    for mname, mp in one_d_builtins():
        depth = 10 if mp.n_symbols == 3 else 12
        cycles = primitive_cycles(mp.adjacency, 8)
        for pname, pot in (("zero", pl.Potential.zero()),
                           ("geometric(0.5)", pl.Potential.geometric(0.5))):
            pressure = pl.pressure_additive(mp, pot, depth)
            for word in cycles:
                x = pl.periodic_point(mp, word)
                total = 0.0
                for sym in word:
                    total += float(pot.value_fn(
                        mp, sym, np.asarray([x], dtype=float))[0])
                    x = float(mp.branches[sym].fwd(x))
                worst = min(worst, pressure - total / len(word))
                checked += 1
        # spot check the packaged gap on the shortest cycles
        for word in cycles[:3]:
            assert (pl.variational_gap(mp, pl.Potential.geometric(0.5),
                                       word, depth=depth) >= -1e-6)
    # torus maps: the per period orbit weight is a singular value power,
    # identical for every word of that period
    for mp in (pl.toral_map(2, 3), pl.toral_conformal_map(3)):
        for t in (0.5, 1.0, 1.5):
            for maker in (pl.Potential.singular_upper,
                          pl.Potential.singular_lower):
                pot = maker(t)
                pressure = pl.pressure_additive(mp, pot, 8)
                for period in range(1, 9):
                    power = np.linalg.matrix_power(mp.constant_derivative,
                                                   period)
                    sv = np.linalg.svd(power, compute_uv=False)
                    sigma = sv[0] if pot.kind == "singular_upper" else sv[-1]
                    average = -t * math.log(sigma) / period
                    worst = min(worst, pressure - average)
                    checked += 1
    ok = worst >= -1e-6
    report(9, "variational inequality over periodic measures", ok,
           "smallest gap %.2e >= -1e-6 over %d orbit measures" % (worst,
                                                                  checked))
