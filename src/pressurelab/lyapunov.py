"""Expansion exponents from exact cycles and orbit cocycles."""

import math
from typing import NamedTuple

import numpy as np

from . import dynamics as dyn
from .errors import BadSpec, InadmissibleWord, NoConvergence, SingularMatrix

# largest spread of the extreme exponents that counts as conformal
CONFORMAL_SPREAD = 1e-6


def _check_closable(mapping, word):
    word = mapping.check_word(word)
    if not mapping.adjacency[word[-1]][word[0]]:
        raise InadmissibleWord("word does not close up: %d -> %d forbidden"
                               % (word[-1], word[0]))
    return word


_ORBIT_PASSES = 300


def periodic_orbit(mapping, word):
    """The periodic orbit whose itinerary repeats the given closable word.

    Row j is the periodic point of the rotation word[j:] + word[:j], so
    row j + 1 is the image of row j and row 0 comes back to itself after
    p = len(word) steps.  The result has shape (p,) on interval maps and
    (p, 2) on the torus.

    Row 0 is the fixed point of the composite inverse branch G, solved by
    Newton's method on G(x) - x from the centre of the domain of word[0].
    One inverse branch pass from x visits every row of the orbit and gives
    G(x); the slope of G rides along by the chain rule, as the product of
    1/f' at the points of the pass (interval) or of the inverse cell
    matrices (torus, where G is affine and one step is exact).  A Newton
    step that leaves the domain of word[0] takes the contraction value
    G(x) instead.  The orbit is returned from the first pass whose G moves
    x by at most 1e-15 (1e-14 on the torus), and NoConvergence is raised
    if none does within 300 passes.
    """
    word = _check_closable(mapping, word)
    branches = [mapping.branches[s] for s in word]
    first = branches[0]
    p = len(word)
    if mapping.dim == 1:
        tol, orbit, unit = 1e-15, np.empty(p), 1.0

        def chain(slope, br, z):
            return slope / float(br.deriv(z))

        def inside(x):
            return first.lo - dyn._ALIGN_TOL <= x <= first.hi + dyn._ALIGN_TOL

        def newton(x, g, slope):
            return x - (g - x) / (slope - 1.0) if slope != 1.0 else math.nan
    else:
        tol, orbit, unit = 1e-14, np.empty((p, 2)), np.eye(2)

        def chain(slope, br, z):
            return dyn._apply2(br.inv_matrix, slope.T).T

        def inside(x):
            z = dyn._apply2(first.matrix, x) - first.offset
            return bool(np.all((z >= -dyn._ALIGN_TOL)
                               & (z <= 1.0 + dyn._ALIGN_TOL)))

        def newton(x, g, slope):
            return x - dyn._apply2(dyn._inv2(slope - unit), g - x)

    x = first.center
    for _ in range(_ORBIT_PASSES):
        z, slope = x, unit
        for j in range(p - 1, -1, -1):
            z = branches[j].inv(z)
            orbit[j] = z
            slope = chain(slope, branches[j], z)
        g = orbit[0].copy()
        if float(np.max(np.abs(g - x))) <= tol:
            return orbit
        step = newton(x, g, slope)
        x = step if inside(step) else g
    raise NoConvergence("periodic orbit of %r did not settle in %d passes"
                        % (word, _ORBIT_PASSES), estimate=orbit)


def periodic_point(mapping, word):
    """The periodic point whose itinerary repeats the given closable word.

    Row 0 of ``periodic_orbit``: a float on interval maps, a pair on the
    torus.
    """
    x = periodic_orbit(mapping, word)[0]
    return float(x) if mapping.dim == 1 else x


def _eig_moduli2(m):
    """Eigenvalue moduli of a 2x2 matrix, descending, from trace and det."""
    (a, b), (c, d) = m.tolist()
    tr, det = a + d, a * d - b * c
    disc = tr * tr - 4.0 * det
    if disc < 0.0:
        return math.sqrt(det), math.sqrt(det)
    # the larger modulus needs no subtraction; the smaller is |det| over it
    hi = 0.5 * (abs(tr) + math.sqrt(disc))
    return hi, (abs(det) / hi if hi else 0.0)


def _torus_exponents(mapping):
    """Exponents of every cycle of a torus map, descending.

    Every cell has derivative A, so a cycle of period p has derivative
    A^p, and its exponents (1/p) log|eigenvalues of A^p| are the
    log|eigenvalues of A| whatever the cycle.
    """
    moduli = _eig_moduli2(mapping.constant_derivative)
    if moduli[1] <= 0.0:
        raise SingularMatrix("torus derivative has a zero eigenvalue")
    return tuple(math.log(v) for v in moduli)


def lyapunov_exponents(mapping, source, steps=None):
    """Expansion exponents, sorted descending.

    A tuple source is read as a closable word: the cycle is exact, interval
    exponents are mean log slopes over its periodic orbit, and torus
    exponents are log|eigenvalues of A|, shared by every cycle.
    A numeric source is a starting point and requires at least 32 steps.
    Interval exponents then come from a finite orbit cocycle.  On the
    torus every step has derivative A, so once the point is found in a
    cell the exponents are log|eigenvalues of A| again.
    """
    if isinstance(source, tuple):
        word = _check_closable(mapping, source)
        p = len(word)
        if mapping.dim == 1:
            orbit = periodic_orbit(mapping, word)
            total = 0.0
            for j in range(p):
                total += math.log(float(
                    mapping.branches[word[j]].deriv(orbit[j])))
            return (total / p,)
        return _torus_exponents(mapping)
    steps = 64 if steps is None else int(steps)
    if steps < 32:
        raise BadSpec("orbit exponents need at least 32 steps")
    if mapping.dim == 1:
        cp = dyn.cocycle(mapping, float(source), steps)
        return (cp.log_norm / steps,)
    mapping.symbol(np.asarray(source, dtype=float))
    return _torus_exponents(mapping)


class ConformalityReport(NamedTuple):
    spread: float
    conformal: bool


def average_conformal_check(mapping):
    """Screen for equality of the extreme expansion exponents.

    Interval maps have a single exponent and pass by construction.  Every
    invariant measure of a torus map has the exponents of its cycles,
    log|eigenvalues of A|, so the spread is their difference, conformal
    when at most ``CONFORMAL_SPREAD``.
    """
    if mapping.dim == 1:
        return ConformalityReport(0.0, True)
    exponents = _torus_exponents(mapping)
    spread = exponents[0] - exponents[-1]
    return ConformalityReport(spread=spread,
                              conformal=spread <= CONFORMAL_SPREAD)
