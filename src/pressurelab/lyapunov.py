"""Expansion exponents from exact cycles and orbit cocycles."""

import math
from typing import NamedTuple

import numpy as np

from . import dynamics as dyn
from .errors import BadSpec, InadmissibleWord, NoConvergence, SingularMatrix


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
            return br.inv_matrix @ slope

        def inside(x):
            z = first.matrix @ x - first.offset
            return bool(np.all((z >= -dyn._ALIGN_TOL)
                               & (z <= 1.0 + dyn._ALIGN_TOL)))

        def newton(x, g, slope):
            return x - np.linalg.solve(slope - unit, g - x)

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


def _cycle_exponents(mapping, words):
    """Exponents of torus cycles of one period, one row per word, descending.

    Every cell of a torus map has derivative A, so every cycle of period p
    has derivative product A^p: one matrix power and one eigvals call
    give the row shared by all the words.
    """
    p = len(words[0])
    m = np.linalg.matrix_power(mapping.constant_derivative, p)
    moduli = np.sort(np.abs(np.linalg.eigvals(m)))[::-1]
    if moduli[-1] <= 0.0:
        raise SingularMatrix("cycle derivative product has a zero eigenvalue")
    return np.tile(np.log(moduli) / p, (len(words), 1))


def lyapunov_exponents(mapping, source, steps=None):
    """Expansion exponents, sorted descending.

    A tuple source is read as a closable word: the cycle is exact, interval
    exponents are mean log slopes over its periodic orbit, and torus
    exponents are the eigenvalue moduli of the cycle derivative product.
    A numeric source is a starting point; exponents then come from a
    finite orbit cocycle and require at least 32 steps.
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
        return tuple(float(v) for v in _cycle_exponents(mapping, [word])[0])
    steps = 64 if steps is None else int(steps)
    if steps < 32:
        raise BadSpec("orbit exponents need at least 32 steps")
    if mapping.dim == 1:
        cp = dyn.cocycle(mapping, float(source), steps)
        return (cp.log_norm / steps,)
    _, syms = dyn.orbit(mapping, np.asarray(source, dtype=float), steps)
    q = np.eye(2)
    sums = np.zeros(2)
    for s in syms:
        z = mapping.branches[s].matrix @ q
        q, r = np.linalg.qr(z)
        d = np.abs(np.diag(r))
        if np.any(d <= 0.0):
            raise SingularMatrix("derivative product collapsed along the orbit")
        sums += np.log(d)
    return tuple(sorted((sums / steps).tolist(), reverse=True))


def _primitive_cycles(mapping, period_cap, budget):
    """Primitive closed words up to rotation, shortest periods first.

    The periods run from 1 while they stay within the cap and their word
    count within budget.  Torus cells form a full shift, so these words
    are the Lyndon words on the map's symbols, which Duval's algorithm
    generates in lexicographic order.
    """
    n = mapping.n_symbols
    longest = 0
    while longest < period_cap and mapping.count_words(longest + 1) <= budget:
        longest += 1
    words = []
    word = [-1] if longest else []
    while word:
        word[-1] += 1
        words.append(tuple(word))
        word = (word * longest)[:longest]
        while word and word[-1] == n - 1:
            word.pop()
    return sorted(words, key=len)


def _random_word(mapping, length, rng):
    n = mapping.n_symbols
    adj = mapping.adjacency
    s = int(rng.integers(n))
    word = [s]
    for _ in range(length - 1):
        choices = [b for b in range(n) if adj[word[-1]][b]]
        word.append(choices[int(rng.integers(len(choices)))])
    return tuple(word)


class ConformalityReport(NamedTuple):
    spread: float
    conformal: bool
    periodic_orbits: int
    sample_orbits: int


def average_conformal_check(mapping, period_cap=8, budget=2048, samples=32,
                            depth=16, threshold=1e-6, seed=0):
    """Screen for equality of the extreme expansion exponents.

    Interval maps have a single exponent and pass by construction.  On the
    torus the screen takes every primitive closed word up to the period cap
    (while the word count stays within budget) plus random admissible
    words, and reports the worst per step split between the largest and
    smallest exponents.
    """
    if mapping.dim == 1:
        return ConformalityReport(0.0, True, 0, 0)
    by_period = {}
    for word in _primitive_cycles(mapping, period_cap, budget):
        by_period.setdefault(len(word), []).append(word)
    spread = 0.0
    count = 0
    for words in by_period.values():
        ex = _cycle_exponents(mapping, words)
        spread = max(spread, float(np.max(ex[:, 0] - ex[:, -1])))
        count += len(words)
    rng = np.random.default_rng(np.random.PCG64(seed))
    used = 0
    for _ in range(samples):
        word = _random_word(mapping, depth, rng)
        x = dyn.cylinder_point(mapping, word)
        cp = dyn.cocycle(mapping, x, depth)
        spread = max(spread, (cp.log_norm - cp.log_conorm) / depth)
        used += 1
    return ConformalityReport(spread=float(spread),
                              conformal=bool(spread <= threshold),
                              periodic_orbits=count,
                              sample_orbits=used)
