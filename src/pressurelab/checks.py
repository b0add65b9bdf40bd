"""The invariant battery behind ``pressurelab --mode checks``.

Each item checks one invariant of one layer on the built-in maps or on
the configured random family, and every item is independent of the
others.  The CLI loads this module only in the checks mode.
"""

import math
import time

import numpy as np

from . import dynamics as dyn
from .bowen import dimension_report
from .config import build_map, family_shape
from .conjugacy import (FiberConjugacy, measure_equivariance,
                        random_conjugacy_pressure_check)
from .cylinders import DISTORTION_DEPTH, CylinderSet
from .errors import CheckFailed
from .lyapunov import average_conformal_check
from .pressure import (Potential, conjugate_pressure_check, logsumexp,
                       pressure_additive, variational_gaps)
from .random_bundle import (RandomFamily, distortion_constants,
                            expansivity_min_growth, sample_base)

# rounding slack of the transport check on top of its analytic bound,
# which is exactly 0 on affine (cookie) fibers
TRANSPORT_SLACK = 1e-12


def _require(condition, detail):
    if not condition:
        raise CheckFailed(detail)
    return detail


def _check_builtin_maps():
    built = [dyn.doubling_map(), dyn.cookie_cutter(3.0, 3.0),
             dyn.cookie_cutter(2.0, 4.0), dyn.circle_map(3, 0.05),
             dyn.golden_mean_map(), dyn.toral_conformal_map(3)]
    return "%d built-in maps pass construction invariants" % len(built)


def _check_entropy_identity():
    worst = 0.0
    for mapping in (dyn.doubling_map(), dyn.cookie_cutter(3.0, 3.0),
                    dyn.cookie_cutter(2.0, 4.0), dyn.circle_map(2, 0.02)):
        value = pressure_additive(mapping, Potential.zero(), 10)
        worst = max(worst, abs(value - math.log(len(mapping.branches))))
    return _require(worst <= 1e-9,
                    "zero-potential pressure vs log branch count; "
                    "max deviation %.2e" % worst)


def _check_monotone_pressure():
    mapping = dyn.cookie_cutter(2.0, 4.0)
    grid = np.linspace(0.0, 1.0, 10)
    log_slopes = CylinderSet(mapping, 8).log_derivative_sums()[-1]
    values = [logsumexp(-t * log_slopes) / 8 for t in grid]
    cap = -math.log(mapping.min_expansion) + 1e-6
    worst = max((values[i + 1] - values[i]) / (grid[i + 1] - grid[i])
                for i in range(len(grid) - 1))
    return _require(worst <= cap,
                    "pressure slope in t at most %.6g (cap %.6g)"
                    % (worst, cap))


def _check_lipschitz_pressure():
    mapping = dyn.cookie_cutter(2.0, 4.0)
    phi, psi = Potential.geometric(0.4), Potential.geometric(0.7)
    walk = CylinderSet(mapping, 8)
    gap = abs(pressure_additive(mapping, phi, 8, walk=walk)
              - pressure_additive(mapping, psi, 8, walk=walk))
    pts = walk.leaves.points
    sup = float(np.abs(phi.pointwise(mapping, pts)
                       - psi.pointwise(mapping, pts)).max())
    return _require(gap <= sup + 1e-12,
                    "pressure moved %.6g for a potential shift of %.6g"
                    % (gap, sup))


def _check_variational():
    words = ((0,), (1,), (0, 1), (0, 1, 1), (0, 0, 1))
    worst = min(float(variational_gaps(mapping, Potential.geometric(0.5),
                                       words, depth=12).min())
                for mapping in (dyn.cookie_cutter(3.0, 3.0),
                                dyn.circle_map(2, 0.02)))
    return _require(worst >= -1e-6,
                    "smallest variational gap %.3e over probe orbits" % worst)


def _check_dimension_oracles():
    gap_a = abs(dimension_report(dyn.cookie_cutter(3.0, 3.0)).t_root
                - math.log(2.0) / math.log(3.0))
    golden = math.log((1.0 + math.sqrt(5.0)) / 2.0) / math.log(2.0)
    gap_b = abs(dimension_report(dyn.cookie_cutter(2.0, 4.0)).t_root - golden)
    return _require(max(gap_a, gap_b) <= 2e-3,
                    "closed-form dimension gaps %.2e and %.2e"
                    % (gap_a, gap_b))


def _check_conformality():
    report = average_conformal_check(dyn.toral_conformal_map(3))
    return _require(report.conformal,
                    "exponent spread %.2e" % report.spread)


def _check_conjugacy_transport():
    src = dyn.cookie_cutter(2.0, 4.0)
    dst = dyn.linear_markov(((0.0, 0.25), (0.375, 0.5)),
                            ((0.0, 0.5), (0.0, 0.5)))
    report = conjugate_pressure_check(src, dst, lambda x: 0.5 * x,
                                      Potential.geometric(0.5), depth=10)
    return _require(abs(report.slack) <= 1e-9,
                    "pressure slack %.2e across a bijective rescale"
                    % report.slack)


def _battery(cfg):
    """Ordered check list; every item is independent of the others.

    The random_bundle items perturb the configured map, whose family
    ``ExperimentConfig.validate`` has already checked.
    """
    kind, params = family_shape(cfg.map)
    letters = cfg.letters
    sample = sample_base(cfg.seed, letters)

    def temper():
        return RandomFamily(kind, params, cfg.epsilon, letters)

    def check_map():
        mapping = build_map(cfg.map)
        return "map %s: expansion in [%.6g, %.6g]" % (
            cfg.map, mapping.min_expansion, mapping.max_expansion)

    def check_family():
        family = temper()
        cert = family.certificate
        return "worst fiber expansion %.6g (required %.6g)" % (
            cert["worst_expansion"], cert["required_expansion"])

    def check_equivariance():
        family = temper()
        measured, bound = measure_equivariance(family, sample.letters(0, 11))
        return _require(measured <= bound,
                        "residual %.3e within bound %.3e" % (measured, bound))

    def check_distortion():
        probes = np.tile(np.arange(letters)[:, None], (1, DISTORTION_DEPTH))
        reports = distortion_constants(temper(), probes)
        worst = min(report.worst_violation for report in reports)
        pairs = sum(report.pairs for report in reports)
        return _require(worst >= -1e-10,
                        "smallest slack %.3e over %d pairs" % (worst, pairs))

    def check_transport():
        family = temper()
        conj = FiberConjugacy(family, sample.letters(0, 10))
        report = random_conjugacy_pressure_check(
            family, conj, Potential.geometric(0.6), depth=5)
        return _require(report.residual <= report.bound + TRANSPORT_SLACK,
                        "residual %.3e within bound %.3e + %.0e"
                        % (report.residual, report.bound, TRANSPORT_SLACK))

    def check_growth():
        family = temper()
        growth = expansivity_min_growth(family, sample.letters(0, 8))
        return _require(growth > 0.0,
                        "smallest per-step log expansion %.6g" % growth)

    return [
        ("dynamics", "map_construction", check_map),
        ("dynamics", "builtin_certificates", _check_builtin_maps),
        ("pressure", "entropy_identity", _check_entropy_identity),
        ("pressure", "monotone_in_weight", _check_monotone_pressure),
        ("pressure", "lipschitz_in_potential", _check_lipschitz_pressure),
        ("pressure", "variational_inequality", _check_variational),
        ("pressure", "conjugacy_transport", _check_conjugacy_transport),
        ("bowen", "dimension_oracles", _check_dimension_oracles),
        ("lyapunov", "conformality_screen", _check_conformality),
        ("random_bundle", "perturbation_certificate", check_family),
        ("random_bundle", "equivariance_bound", check_equivariance),
        ("random_bundle", "distortion_inequality", check_distortion),
        ("random_bundle", "conjugacy_transport", check_transport),
        ("random_bundle", "fiber_min_growth", check_growth),
    ]


def run_battery(cfg):
    """Every check in order, as ((module, name, status, detail), seconds)."""
    timed = []
    for module, name, fn in _battery(cfg):
        start = time.perf_counter()
        try:
            row = (module, name, "pass", fn())
        except Exception as exc:
            row = (module, name, "fail", "%s: %s" % (type(exc).__name__, exc))
        timed.append((row, time.perf_counter() - start))
    return timed
