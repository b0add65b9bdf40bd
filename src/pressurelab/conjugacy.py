"""Symbolic conjugacies of random fibers and the pressure they transport.

The stability sweep certifies its conjugacy budgets with the batched
``random_bundle._conjugacy_defects``.  This module holds the one-window
conjugacy evaluator, the public displacement and equivariance measures,
the walked random pressure and the transport of a potential's pressure
through the conjugacy, which the checks battery and library callers use.
No stability or entropy run loads it.
"""

from typing import NamedTuple

import numpy as np

from .cylinders import CylinderSet
from .errors import BadSpec, InadmissibleWord
from .random_bundle import (FiberCylinders, _conjugacy_defects,
                            _equivariance_bound, _largest_gap, _letter_table,
                            _std_error, _window_chunks)
from .transfer import _require_full_shift


class FiberConjugacy:
    """Symbolic conjugacy from the unperturbed repeller into one fiber window.

    ``letters`` is one window, as for ``FiberCylinders``: word position i
    reads the fiber map of ``letters[i]``, and the depth is the window's
    width.  A base word of at most that many symbols, such as the
    itinerary ``orbit(base_map, x, depth)[1]`` of a base point x, is
    rebuilt through the fiber inverse branches, innermost first, seeded at
    the branch domain center of the deepest symbol.  Truncating at depth
    m moves the result by at most gamma^m times the diameter.
    """

    def __init__(self, family, letters):
        letters = np.asarray(letters, dtype=np.intp)
        if letters.ndim != 1 or letters.size == 0:
            raise BadSpec("a conjugacy takes one non-empty letter window")
        self.family = family
        self.letters = letters
        self.depth = len(letters)

    def map_words(self, words):
        """Fiber points of the rows of ``words``, all of one length.

        Every row is rebuilt as ``map_word`` does, and each position makes
        one inverse branch call per symbol for all rows.  Words wider than
        the letter window are inadmissible.
        """
        base = self.family.base_map
        words = np.asarray(words, dtype=np.intp)
        if words.ndim != 2 or words.shape[1] == 0:
            raise InadmissibleWord("need a table of non-empty words")
        if words.shape[1] > self.depth:
            raise InadmissibleWord("words of %d symbols pass the %d letter "
                                   "window" % (words.shape[1], self.depth))
        if words.min() < 0 or words.max() >= base.n_symbols:
            raise InadmissibleWord("symbol out of range")
        if not base.adjacency_matrix[words[:, :-1], words[:, 1:]].all():
            raise InadmissibleWord("forbidden transition in a word")
        maps = [self.family.fiber_map(a)
                for a in self.letters[:words.shape[1]]]
        z = maps[-1].centers[words[:, -1]]
        for i in range(len(maps) - 2, -1, -1):
            for s in range(base.n_symbols):
                rows = words[:, i] == s
                if rows.any():
                    z[rows] = maps[i].branches[s].inv(z[rows])
        return z

    def map_word(self, word):
        word = self.family.base_map.check_word(word)
        return float(self.map_words([word])[0])

    def shifted(self, k=1):
        return FiberConjugacy(self.family, self.letters[k:])


def conjugacy_displacement(family, letters):
    """Largest distance the depth n conjugacy moves a cylinder point.

    ``letters`` is one window of n letters, or a table of them measured
    by its worst row and walked in batches of ``_window_chunks``.
    """
    letters = _letter_table(letters)
    depth = letters.shape[1]
    base = CylinderSet(family.base_map, depth).leaves.points
    return float(max(_largest_gap(
        FiberCylinders(family, letters[rows]).leaves.points, base).max()
        for rows in _window_chunks(family, len(letters), depth)))


def measure_equivariance(family, letters):
    """Worst defect of (map then conjugate) against (conjugate then shift).

    ``letters`` is one window of n + 1 letters, or a table of them
    measured by its worst row.  Both sides are evaluated on every word of
    length n + 1 with the depth m = n conjugacy.  The mismatch comes only
    from the truncation seeds, so it must stay below 2 gamma^n times the
    diameter.  Returns (measured, bound).
    """
    letters = _letter_table(letters)
    if letters.shape[1] < 3:
        raise BadSpec("equivariance needs windows of at least 3 letters")
    _, defect = _conjugacy_defects(family, letters)
    return float(defect.max()), float(_equivariance_bound(
        family, letters.shape[1] - 1))


# -- walked random pressure -------------------------------------------------

class RandomEstimate(NamedTuple):
    value: float
    std_error: float
    per_sample: tuple


def random_pressure(family, potential, letters):
    """Finite depth fiber pressure averaged over windows.

    Per row of ``letters`` (one window of n letters) the value is (1/n)
    log of the summed exponential of the accumulated potential over depth
    n fiber cylinders; the estimate is the mean over the rows with its
    sampling spread.
    """
    # the pressure layer loads only with the modes that fold potentials
    from .pressure import logsumexp

    table = _letter_table(letters)
    depth = table.shape[1]
    vals = [logsumexp(FiberCylinders(family, row).birkhoff(
        potential.step_values)[-1]) / depth for row in table]
    return RandomEstimate(value=float(np.mean(vals)), std_error=_std_error(vals),
                          per_sample=tuple(vals))


# -- pressure transport through the conjugacy --------------------------------

class RandomConjugacyReport(NamedTuple):
    pressure_direct: float
    pressure_pulled: float
    residual: float
    bound: float
    depth: int
    margin: int


def random_conjugacy_pressure_check(family, conj, potential, depth=8):
    """Fiber pressure computed directly and through the conjugacy.

    Both routes score the depth n words extended by the conjugacy margin
    (trailing zero symbols), so every orbit position keeps at least
    margin = conj.depth - n known symbols ahead.  The direct route folds
    the potential along exact fiber chains inside one vectorized walker;
    the pulled route rebuilds every orbit point through the public
    word evaluator of the shifted conjugacies and scores the pulled back
    potential on the unperturbed system's words.  Both land within
    lipschitz * diam * gamma^margin / (1 - gamma) of the ideal depth n
    sum, and the reported residual is their difference, which exposes any
    misalignment between the walker and the evaluator.

    ``lipschitz`` is the potential weight times the worst fiber log slope
    variation, exact for the built in geometric and singular potentials.
    That variation is 0 on affine cookie fibers and grows with
    |amp + epsilon a| on circle fibers, so the fibers of the first and the
    last letter, whose coefficients a are extreme, attain it.
    """
    from .pressure import _per_symbol, logsumexp

    base = family.base_map
    _require_full_shift(base)
    if conj.family is not family:
        raise BadSpec("conjugacy was built for a different family")
    margin = conj.depth - int(depth)
    if margin < 1:
        raise BadSpec("conjugacy depth must exceed the word depth")
    n_sym = base.n_symbols
    total = conj.depth
    letters = conj.letters
    chain = FiberCylinders(family, letters)
    sums = chain.birkhoff(potential.step_values)

    sel = np.arange(n_sym ** depth, dtype=np.int64) * (n_sym ** margin)
    # climbing from a leaf to its suffix reads the word's leading symbols;
    # the margin symbols of a selected leaf are zeros
    digits = np.zeros((len(sel), total), dtype=np.int64)
    anc = sel.copy()
    for li in range(total - 1, margin - 1, -1):
        digits[:, total - 1 - li] = chain.levels[li].first[anc]
        anc = chain.levels[li].parent[anc]
    s_direct = sums[-1][sel] - sums[margin - 1][anc]
    p_direct = logsumexp(s_direct) / depth

    s_pulled = np.zeros(len(sel), dtype=float)
    for pos, letter in enumerate(letters[:depth]):
        points = conj.shifted(pos).map_words(digits[:, pos:])
        s_pulled += _per_symbol(potential.step_values,
                                family.fiber_map(letter), digits[:, pos],
                                points)
    p_pulled = logsumexp(s_pulled) / depth

    lipschitz = abs(potential.weight) * max(
        family.fiber_map(a).log_deriv_lipschitz
        for a in {0, family.n_letters - 1})
    gamma = family.gamma_bound
    bound = lipschitz * base.diam * gamma ** margin / (1.0 - gamma)
    return RandomConjugacyReport(pressure_direct=float(p_direct),
                                 pressure_pulled=float(p_pulled),
                                 residual=float(abs(p_direct - p_pulled)),
                                 bound=float(bound), depth=int(depth),
                                 margin=int(margin))
