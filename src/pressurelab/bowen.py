"""Repeller dimension from the zero of the pressure function.

The dimension estimate is the parameter t at which the pressure of the
geometric potential vanishes.  Two pressure functions bracket the truth on
the torus: weighing words by the largest stretch of the derivative product
gives the lower root, the smallest stretch gives the upper root.  On
interval maps the two coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cylinders import CylinderSet
from .errors import NoSignChange
from .pressure import Potential, _pressure_at, _resolve_epsilon, logsumexp


def bowen_root(pressure_fn, lo=0.0, hi=1.0, tol=1e-10):
    """Bisection zero of a strictly decreasing function of one variable."""
    lo = float(lo)
    hi = float(hi)
    f_lo = pressure_fn(lo)
    f_hi = pressure_fn(hi)
    if not (f_lo > 0.0 > f_hi):
        raise NoSignChange("no sign change on [%g, %g]: endpoints %g and %g"
                           % (lo, hi, f_lo, f_hi))
    while hi - lo > 2.0 * tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if pressure_fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _clamped_root(pressure_fn, hi_bound, tol):
    if pressure_fn(0.0) <= 0.0:
        return 0.0
    if pressure_fn(hi_bound) >= 0.0:
        return float(hi_bound)
    return bowen_root(pressure_fn, 0.0, hi_bound, tol)


def _pressure_functions(mapping, depth):
    """Pair (lower root function, upper root function) at one depth."""
    if mapping.dim == 1:
        cyl = CylinderSet(mapping, depth)
        logd = cyl.log_derivative_sums()[-1]

        def fn(t):
            return logsumexp(-t * logd) / depth

        return fn, fn

    def fn_lower(t):
        return _pressure_at(mapping, Potential.singular_upper(t), [depth])[0]

    def fn_upper(t):
        return _pressure_at(mapping, Potential.singular_lower(t), [depth])[0]

    return fn_lower, fn_upper


@dataclass(frozen=True)
class DimensionReport:
    """Bracketing dimension roots with their refinement history."""

    t_lower: float
    t_upper: float
    t_root: float
    depth: int
    separation: float
    per_depth: tuple


def dimension_report(mapping, depth=12, tol=1e-9, epsilon=None):
    """Dimension bracket of the repeller at the given cylinder depth.

    Roots are computed at half depth and full depth; the leading finite
    depth error of a root is of order 1/depth, so the reported values are
    the extrapolants 2 t(n) - t(n/2), clamped into [0, ambient dimension].
    When the bracket is tight the single root t_root is their mean,
    otherwise it is nan.
    """
    eps = _resolve_epsilon(mapping, epsilon)
    ambient = float(mapping.dim)
    depths = [depth] if depth <= 1 else [max(1, depth // 2), depth]
    per_depth = []
    for d in depths:
        fn_lower, fn_upper = _pressure_functions(mapping, d)
        t_l = _clamped_root(fn_lower, ambient, tol)
        t_u = _clamped_root(fn_upper, ambient, tol)
        per_depth.append((d, t_l, t_u))
    if len(per_depth) == 2:
        t_l = 2.0 * per_depth[1][1] - per_depth[0][1]
        t_u = 2.0 * per_depth[1][2] - per_depth[0][2]
    else:
        t_l, t_u = per_depth[0][1], per_depth[0][2]
    t_l = min(max(t_l, 0.0), ambient)
    t_u = min(max(t_u, 0.0), ambient)
    t_root = 0.5 * (t_l + t_u) if abs(t_u - t_l) <= 2.0 * tol else math.nan
    return DimensionReport(t_lower=t_l, t_upper=t_u, t_root=t_root,
                           depth=depth, separation=eps,
                           per_depth=tuple(per_depth))
