"""Repeller dimension from the zero of the pressure function.

The dimension estimate is the parameter t at which the pressure of the
geometric potential vanishes.  Two pressure functions bracket the truth on
the torus: weighing words by the largest stretch of the derivative product
gives the lower root, the smallest stretch gives the upper root.  On
interval maps the two coincide.

Every walked root is found by Newton steps from t = 0, each step one
evaluation of both P and P'; bisection (``bowen_root``) then certifies
the sign change in a bracket of width tol around the Newton iterate, and
takes over the whole bracket when a step stalls, leaves the bracket, or
the certificate fails.  On interval maps P is a log-sum-exp of Birkhoff
sums S of log |f'|, P(t) = log sum exp(-t S) / n, convex and decreasing.
On linear torus maps every word of length k has derivative A^k, so P is
the closed form (log N_k - t log sigma(A^k)) / k at any depth, and its
root log N_k / log sigma(A^k) needs no solve.  Random fiber roots
(``random_bundle``) hand the solver transfer-operator pressures.
"""

import math
from typing import NamedTuple

import numpy as np

from .cylinders import CylinderSet
from .errors import NoSignChange


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


_NEWTON_STEPS = 20
# root tolerance of ``dimension_report``
DIMENSION_TOL = 1e-9


def _logsumexp_pressure(sums, depth):
    """P and P' at t of the log-sum-exp pressure of the Birkhoff sums S.

    P(t) = log sum exp(-t S) / depth.  Each call is one exp pass over
    ``sums``: with softmax weights w of -t S, the derivative of the
    log-sum-exp is -<w, S>.
    """
    def pressure_and_slope(t):
        x = -t * sums
        top = float(x.max())
        w = np.exp(x - top)
        total = float(w.sum())
        return ((top + math.log(total)) / depth,
                -(float((w * sums).sum()) / total) / depth)

    return pressure_and_slope


def _newton_solve(pressure_and_slope, hi_bound, tol):
    """Zeros in [0, hi_bound] of convex decreasing pressures, one per window.

    ``pressure_and_slope(t)`` returns the pair (P(t), P'(t)): floats for
    one pressure, or arrays with one entry per window, t then being an
    array with one parameter per window (the first call passes t = 0.0).
    The roots come back as a float or as an array to match.  Each root
    clamps into the bracket: 0 when P(0) <= 0, hi_bound when
    P(hi_bound) >= 0.  Otherwise Newton steps run from t = 0 inside the
    bracket [lo, hi] of the signs seen so far; P is convex and
    decreasing, so the steps climb monotonically to the root.  All
    windows step together, one evaluation per step.

    Once a step is below tol / 2 its end point is the center of a bracket
    of width tol, evaluated at both ends for all such windows at once;
    ``bowen_root`` checks the sign change there and, the bracket being
    narrow enough already, returns its center without further
    evaluations.  A non-negative slope, a step leaving the bracket, no
    convergence or a failed certificate hand that window's whole bracket
    to ``bowen_root`` instead.
    """
    value, slope = pressure_and_slope(0.0)
    single = np.ndim(value) == 0
    if single:
        scalar = pressure_and_slope

        def pressure_and_slope(t):
            v, s = scalar(float(t[0]))
            return np.array([v]), np.array([s])

        value, slope = np.array([value]), np.array([slope])
    count = len(value)
    roots = np.zeros(count)
    lo = np.zeros(count)
    hi = np.full(count, float(hi_bound))
    settled = value <= 0.0
    if not settled.all():
        at_hi = ~settled & (pressure_and_slope(hi)[0] >= 0.0)
        roots[at_hi] = hi[at_hi]
        settled |= at_hi
    t = np.zeros(count)
    centers = np.zeros(count)
    stepping = ~settled
    converged = np.zeros(count, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        stepping &= ~(slope >= 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_next = t - value / slope
        close = stepping & (np.abs(t_next - t) <= 0.5 * tol)
        centers[close] = t_next[close]
        converged |= close
        stepping &= ~close & (lo < t_next) & (t_next < hi)
        if not stepping.any():
            break
        t = np.where(stepping, t_next, t)
        value, slope = pressure_and_slope(t)
        lo = np.where(stepping & (value > 0.0), t, lo)
        hi = np.where(stepping & (value < 0.0), t, hi)
    below = centers - 0.5 * tol
    above = centers + 0.5 * tol
    if converged.any():
        at_below = pressure_and_slope(below)[0]
        at_above = pressure_and_slope(above)[0]
    for k in np.flatnonzero(~settled):
        def pressure(x, k=k):
            return pressure_and_slope(np.full(count, x))[0][k]

        if converged[k]:
            known = {float(below[k]): at_below[k],
                     float(above[k]): at_above[k]}
            try:
                roots[k] = bowen_root(known.__getitem__, below[k], above[k],
                                      tol)
                continue
            except NoSignChange:
                pass
        roots[k] = bowen_root(pressure, lo[k], hi[k], tol)
    return float(roots[0]) if single else roots


def _roots_at_depth(mapping, depth, ambient):
    """Pair (lower root, upper root) at one depth, to ``DIMENSION_TOL``."""
    if mapping.dim == 1:
        pressure = _logsumexp_pressure(
            CylinderSet(mapping, depth).log_derivative_sums()[-1], depth)
        # one solve per side, so every depth counts a lower and an upper
        # solve
        return (_newton_solve(pressure, ambient, DIMENSION_TOL),
                _newton_solve(pressure, ambient, DIMENSION_TOL))
    # P_k(t) = (log N_k - t l_k) / k vanishes at log N_k / l_k, clamped
    # into [0, ambient] as every root is
    log_count, log_hi, log_lo = mapping._torus_logs(depth)
    return tuple(min(max(float(log_count / log_sigma), 0.0), ambient)
                 for log_sigma in (log_hi, log_lo))


class DimensionReport(NamedTuple):
    """Bracketing dimension roots with their refinement history."""

    t_lower: float
    t_upper: float
    t_root: float
    depth: int
    separation: float
    per_depth: tuple


def dimension_report(mapping, depth=12):
    """Dimension bracket of the repeller at the given cylinder depth.

    Roots are computed at m = n // 2 and at n to ``DIMENSION_TOL``; the
    leading finite depth error of a root is of order 1/depth, so the
    reported values are the extrapolants t(n) + (t(n) - t(m)) m / (n - m),
    which cancel it at every depth (2 t(n) - t(m) at even n), clamped into
    [0, ambient dimension].  When the bracket is within 2 DIMENSION_TOL
    the single root t_root is their mean, otherwise it is nan.
    """
    eps = mapping.resolve_epsilon()
    ambient = float(mapping.dim)
    depths = [depth] if depth <= 1 else [max(1, depth // 2), depth]
    per_depth = []
    for d in depths:
        per_depth.append((d,) + _roots_at_depth(mapping, d, ambient))
    if len(per_depth) == 2:
        (m, lower_m, upper_m), (n, lower_n, upper_n) = per_depth
        ratio = m / (n - m)
        t_l = lower_n + (lower_n - lower_m) * ratio
        t_u = upper_n + (upper_n - upper_m) * ratio
    else:
        t_l, t_u = per_depth[0][1], per_depth[0][2]
    t_l = min(max(t_l, 0.0), ambient)
    t_u = min(max(t_u, 0.0), ambient)
    t_root = (0.5 * (t_l + t_u) if abs(t_u - t_l) <= 2.0 * DIMENSION_TOL
              else math.nan)
    return DimensionReport(t_lower=t_l, t_upper=t_u, t_root=t_root,
                           depth=depth, separation=eps,
                           per_depth=tuple(per_depth))
