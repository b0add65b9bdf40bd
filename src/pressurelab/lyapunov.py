"""Expansion exponents from exact cycles and orbit cocycles."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn
from .errors import BadSpec, InadmissibleWord, SingularMatrix


def _check_closable(mapping, word):
    word = mapping.check_word(word)
    if not mapping.adjacency[word[-1]][word[0]]:
        raise InadmissibleWord("word does not close up: %d -> %d forbidden"
                               % (word[-1], word[0]))
    return word


def periodic_point(mapping, word):
    """The periodic point whose itinerary repeats the given closable word.

    Found as the fixed point of the composite inverse branch, which
    contracts at rate gamma^p, so the iteration settles to machine
    precision.
    """
    word = _check_closable(mapping, word)
    branches = [mapping.branches[s] for s in word]
    if mapping.dim == 1:
        x = branches[0].center
        for _ in range(300):
            z = x
            for br in reversed(branches):
                z = float(br.inv(z))
            if abs(z - x) <= 1e-15:
                return z
            x = z
        return x
    x = branches[0].center
    for _ in range(300):
        z = x
        for br in reversed(branches):
            z = br.inv(z)
        if float(np.max(np.abs(z - x))) <= 1e-14:
            return z
        x = z
    return x


def lyapunov_exponents(mapping, source, steps=None):
    """Expansion exponents, sorted descending.

    A tuple source is read as a closable word: the cycle is exact, interval
    exponents are mean log slopes over it, and torus exponents are the
    eigenvalue moduli of the cycle derivative product.  A numeric source is
    a starting point; exponents then come from a finite orbit cocycle and
    require at least 32 steps.
    """
    if isinstance(source, tuple):
        word = _check_closable(mapping, source)
        p = len(word)
        if mapping.dim == 1:
            total = 0.0
            for j in range(p):
                x = periodic_point(mapping, word[j:] + word[:j])
                total += math.log(float(mapping.branches[word[j]].deriv(x)))
            return (total / p,)
        m = np.eye(2)
        for j in range(p):
            m = mapping.branches[word[j]].matrix @ m
        moduli = sorted((abs(complex(v)) for v in np.linalg.eigvals(m)),
                        reverse=True)
        if moduli[-1] <= 0.0:
            raise SingularMatrix("cycle derivative product has a zero eigenvalue")
        return tuple(math.log(v) / p for v in moduli)
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


def _is_power(word):
    p = len(word)
    for d in range(1, p):
        if p % d == 0 and word == word[:d] * (p // d):
            return True
    return False


def _primitive_cycles(mapping, period_cap, budget):
    """Primitive closable words up to rotation, shortest periods first."""
    n = mapping.n_symbols
    adj = mapping.adjacency
    words = [(s,) for s in range(n)]
    p = 1
    while p <= period_cap and mapping.count_words(p) <= budget:
        for w in words:
            if not adj[w[-1]][w[0]]:
                continue
            canon = min(w[i:] + w[:i] for i in range(p))
            if canon != w or _is_power(w):
                continue
            yield w
        p += 1
        if p <= period_cap:
            words = [w + (b,) for w in words for b in range(n) if adj[w[-1]][b]]


def _random_word(mapping, length, rng):
    n = mapping.n_symbols
    adj = mapping.adjacency
    s = int(rng.integers(n))
    word = [s]
    for _ in range(length - 1):
        choices = [b for b in range(n) if adj[word[-1]][b]]
        word.append(choices[int(rng.integers(len(choices)))])
    return tuple(word)


@dataclass(frozen=True)
class ConformalityReport:
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
    spread = 0.0
    count = 0
    for word in _primitive_cycles(mapping, period_cap, budget):
        ex = lyapunov_exponents(mapping, word)
        spread = max(spread, ex[0] - ex[-1])
        count += 1
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
