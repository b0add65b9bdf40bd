"""Random perturbations of expanding interval maps over an i.i.d. base.

A realization is a two sided sequence of letters sampled independently
from a finite alphabet.  Each letter names one perturbed map from a fixed
family, and time n composes the maps read off the sequence from position
0 to n - 1.  Only ``sample_base`` turns seeds into letters: every fiber
walk and operator product takes a letter array instead, one window as a
1-D array or one window per row of a 2-D table, and reads its depth from
the array's width.  Perturbed maps keep the branch combinatorics of the
unperturbed map, so cylinder words mean the same thing in every fiber and
symbolic conjugacies exist by construction.

This module holds the stability sweep and what it runs.  The collocated
transfer operators behind its roots live in ``transfer``; the one-window
conjugacy evaluator, the walked random pressure and the pressure
transport, which only the checks battery and library callers run, live
in ``conjugacy``.

Only interval families are supported.  Their derivative cocycles are
scalar, hence conformal, and the upper and lower singular value routes
through any computation coincide by construction.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import dynamics as dyn
from .bowen import _newton_solve, dimension_report
from .cylinders import (DISTORTION_DEPTH, GROWTH_DEPTH, REFERENCE_DEPTH,
                        WORD_CAP, CylinderSet, MapColumn)
from .errors import BadSpec, PerturbationTooLarge, PressureLabError
from .transfer import (ROOT_TOL, _require_full_shift, _root_operators,
                       fiber_pressures)

TWO_PI = 2.0 * math.pi

# names of ``conjugacy`` that perfbench/tracer.py reaches through this
# module; the forward goes with the next benchmark change, which points the
# tracer at ``conjugacy`` (ROADMAP item 9)
_MOVED_TO_CONJUGACY = frozenset({
    "FiberConjugacy", "conjugacy_displacement", "measure_equivariance",
    "random_conjugacy_pressure_check"})


def __getattr__(name):
    if name in _MOVED_TO_CONJUGACY:
        from . import conjugacy
        return getattr(conjugacy, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


# -- base process ---------------------------------------------------------

class BaseSample(NamedTuple):
    """One realization of the two sided driving letter sequence.

    The letter at position p is ``_draw(seed, p, n_letters)``, read on
    demand, so every position of the realization exists and no window has
    to be drawn in advance.
    """

    seed: int
    n_letters: int

    def letters(self, start, stop):
        """Letters at positions start .. stop - 1, in one draw."""
        counters = np.arange(start, stop)
        return _draw(self.seed, counters, self.n_letters).astype(np.intp)


# SplitMix64 (Steele, Lea and Flood 2014): the golden gamma and the
# finaliser multipliers and shifts, as published
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))
_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))


def _draw(seed, counters, n):
    """Uniform integers in [0, n), one per integer counter, keyed on seed.

    Counter p gets the SplitMix64 finaliser of seed + (p + 1) gamma mod
    2^64, which is the p-th output of SplitMix64 seeded with ``seed``
    (negative p run it backwards).  The high 32 bits of each output map to
    [0, n) by multiply-shift, so n must not exceed 2^32.  No generator
    state is kept: a draw depends on its seed and counter alone.
    """
    # every step runs in place on one copy of the counters and one scratch
    z = np.array(counters, dtype=np.int64).view(np.uint64)
    scratch = np.empty_like(z)
    z += np.uint64(1)
    z *= _GAMMA
    z += np.uint64(seed)
    for shift, mix in zip(_SHIFTS, _MIX):
        z ^= np.right_shift(z, shift, out=scratch)
        z *= mix
    z ^= np.right_shift(z, _SHIFTS[2], out=scratch)
    z >>= np.uint64(32)
    z *= np.uint64(n)
    z >>= np.uint64(32)
    return z


def _check_letter_count(n_letters):
    # the multiply-shift of ``_draw`` reaches at most 2^32 letters
    if not 1 <= n_letters <= 2 ** 32:
        raise BadSpec("the letter count must lie in 1 .. 2^32")


def sample_base(seed, n_letters=2):
    """The realization of i.i.d. uniform letters keyed on ``seed``.

    Position p holds the letter ``_draw(seed, p, n_letters)``: a
    counter-based hash of the seed and the position, so every operation
    reading any range of positions from one seed sees one and the same
    realization.  Seeds key a 64-bit hash and must lie in 0 .. 2^64 - 1.
    """
    _check_letter_count(n_letters)
    if not 0 <= seed < 2 ** 64:
        raise BadSpec("seed must lie in 0 .. 2^64 - 1")
    return BaseSample(int(seed), int(n_letters))


# -- perturbation families ------------------------------------------------

class RandomFamily:
    """Finite family of perturbed maps indexed by base letters.

    Letter coefficients a are evenly spaced in [-1, 1] (``coefficient``).
    Kind "circle" shifts the lift amplitude by epsilon times a, so the
    branch maps become x -> degree x + (amp + eps a) sin(2 pi x) mod 1.
    Kind "cookie" scales both branch slopes by 1 + epsilon * coefficient
    and recomputes the branch domains accordingly.  Construction certifies
    a uniform expansion margin: every fiber must keep at least half of the
    unperturbed margin, otherwise PerturbationTooLarge.
    """

    def __init__(self, kind, params, epsilon, n_letters=2):
        self.kind = str(kind)
        self.params = tuple(float(v) for v in params)
        self.epsilon = float(epsilon)
        self.n_letters = int(n_letters)
        if self.epsilon < 0.0:
            raise BadSpec("perturbation size must not be negative")
        _check_letter_count(self.n_letters)
        if self.kind == "cookie":
            if len(self.params) != 2:
                raise BadSpec("cookie family takes two branch slopes")
            self.base_map = dyn.cookie_cutter(*self.params)
        elif self.kind == "circle":
            if not 1 <= len(self.params) <= 2:
                raise BadSpec("circle family takes degree and optional amplitude")
            self.base_map = dyn.circle_map(self.params[0],
                                           self._base_amplitude)
        else:
            raise BadSpec("unknown random family kind %r" % kind)
        self._fibers = {}
        self.certificate = self._certify()
        self.certified_expansion = self.certificate["worst_expansion"]

    @property
    def _base_amplitude(self):
        return self.params[1] if len(self.params) == 2 else 0.0

    def coefficient(self, letter):
        """np.linspace(-1, 1, n)[letter] bit for bit, without the array."""
        n = self.n_letters
        if n == 1:
            return 0.0
        if letter == n - 1:
            return 1.0
        return letter * (2.0 / (n - 1)) - 1.0

    def _certify(self):
        # the last letter's coefficient is the largest in magnitude
        reach = self.epsilon * self.coefficient(self.n_letters - 1)
        margin = self.base_map.min_expansion - 1.0
        required = 1.0 + 0.5 * margin
        if self.kind == "circle":
            worst = int(self.params[0]) - TWO_PI * (abs(self._base_amplitude)
                                                    + reach)
        else:
            r_min = min(self.params)
            worst = r_min * (1.0 - reach)
            r1, r2 = (r * (1.0 - reach) for r in self.params)
            if worst > 1.0 and 1.0 / r1 + 1.0 / r2 > 1.0:
                raise PerturbationTooLarge(
                    "slopes %.6g, %.6g let the branch domains overlap" % (r1, r2))
        if worst < required:
            raise PerturbationTooLarge(
                "worst fiber expansion %.6g is below the certified margin %.6g "
                "at epsilon %g" % (worst, required, self.epsilon))
        return {"base_margin": margin, "required_expansion": required,
                "worst_expansion": worst, "reach": reach}

    @property
    def gamma_bound(self):
        """Certified contraction rate valid for every fiber."""
        return 1.0 / self.certified_expansion

    @property
    def holder_budget(self):
        """C1 distance between any fiber and the base, per unit epsilon."""
        reach_unit = self.coefficient(self.n_letters - 1)
        if self.kind == "circle":
            return (1.0 + TWO_PI) * reach_unit
        return 2.0 * max(self.params) * reach_unit

    @property
    def displacement_bound(self):
        """Analytic bound on how far the fiber conjugacy can move a point."""
        delta = self.certificate["reach"] / self.certified_expansion
        return delta / (1.0 - self.gamma_bound)

    @property
    def slope_variation(self):
        """Analytic Lipschitz constant of f' valid for every fiber."""
        if self.kind != "circle":
            return 0.0
        return TWO_PI ** 2 * (abs(self._base_amplitude)
                              + self.certificate["reach"])

    def fiber_map(self, letter):
        letter = int(letter)
        if not 0 <= letter < self.n_letters:
            raise BadSpec("letter %d out of range" % letter)
        if letter not in self._fibers:
            a = self.coefficient(letter)
            if self.kind == "circle":
                fiber = dyn.circle_map(self.params[0],
                                       self._base_amplitude + self.epsilon * a)
            else:
                scale = 1.0 + self.epsilon * a
                fiber = dyn.cookie_cutter(self.params[0] * scale,
                                          self.params[1] * scale)
            if fiber.adjacency != self.base_map.adjacency:
                raise BadSpec("fiber transition matrix drifted from the base")
            self._fibers[letter] = fiber
        return self._fibers[letter]

    def describe(self):
        return "random(kind=%s, params=%s, eps=%g, letters=%d)" % (
            self.kind, ",".join("%g" % v for v in self.params),
            self.epsilon, self.n_letters)


# -- fiber cylinder chains -------------------------------------------------

class FiberCylinders(CylinderSet):
    """Cylinder walker through the position dependent fiber maps.

    Word position i reads the fiber map of ``letters[..., i]``, so the
    depth is the width of ``letters``.  Leaves are the depth n fiber
    cylinder representatives of that window, enumerated in the same
    lexicographic order as the walker of the base map.  ``letters`` is
    one window, or a 2-D table walked at once, one window per row: every
    position then holds a ``MapColumn`` and the level points one row per
    window (see ``_window_chunks`` for how many windows fit one walk).
    """

    def __init__(self, family, letters):
        letters = np.asarray(letters, dtype=np.intp)
        if letters.ndim == 1:
            maps = [family.fiber_map(a) for a in letters]
        elif letters.ndim == 2:
            maps = [MapColumn(family.fiber_map(a) for a in column)
                    for column in letters.T]
        else:
            raise BadSpec("fiber letters are one window or a table of them")
        super().__init__(maps, letters.shape[-1])


def _letter_table(letters):
    """``letters`` as a table with one window per row; 1-D is one window."""
    table = np.atleast_2d(np.asarray(letters, dtype=np.intp))
    if table.ndim != 2 or table.size == 0:
        raise BadSpec("need a nonempty letter table, one window per row")
    return table


def _window_chunks(family, count, depth):
    """Slices batching ``count`` windows for walks of depth ``depth``.

    A batched walk holds one point per window and word, so each batch
    keeps windows x words within ``WORD_CAP``; a walk of more words than
    that gets one window per batch.
    """
    size = max(1, WORD_CAP // family.base_map.count_words(depth))
    return [slice(lo, lo + size) for lo in range(0, count, size)]


# -- conjugacy defects ------------------------------------------------------

def _conjugacy_defects(family, letters, base=None):
    """Conjugacy displacement and equivariance defect per row of ``letters``.

    Each row holds n + 1 letters.  Base and fiber walkers enumerate the
    same words in the same order, so the depth n conjugacy image of every
    base representative is the fiber representative at the same index of
    the walk of columns 0 .. n - 1; the displacement is their largest
    distance.  Level n - 2 of that walk holds the words at positions
    1 .. n - 1 (conjugate then shift), and the leaves of the walk of
    columns 1 .. n map them (map then conjugate); the defect is their
    largest mismatch over the prefix relation.  The base map is walked
    once for all rows, unless ``base`` already holds the leaf points of
    that walk.  Returns two arrays.
    """
    _require_full_shift(family.base_map)
    n_sym = family.base_map.n_symbols
    depth = letters.shape[1] - 1
    if base is None:
        base = CylinderSet(family.base_map, depth).leaves.points
    moved = np.empty(len(letters))
    defect = np.empty(len(letters))
    for rows in _window_chunks(family, len(letters), depth):
        levels = FiberCylinders(family, letters[rows, :-1]).levels
        moved[rows] = _largest_gap(levels[-1].points, base)
        shifted = levels[-2].points[..., None]
        # free the first walk before the shifted walk is built
        del levels
        mapped = FiberCylinders(family, letters[rows, 1:]).leaves.points
        # leaf i of the shifted walk extends word i // n_sym of ``shifted``
        defect[rows] = _largest_gap(
            mapped.reshape(len(mapped), -1, n_sym), shifted)
    return moved, defect


def _largest_gap(points, targets):
    """Largest |points - targets| per leading row; overwrites ``points``."""
    points -= targets
    return np.abs(points, out=points).reshape(len(points), -1).max(axis=1)


def _equivariance_bound(family, depth):
    return 2.0 * family.gamma_bound ** depth * family.base_map.diam


# -- averaged pressure and roots --------------------------------------------

def _std_error(values):
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


class RandomRoots(NamedTuple):
    t_root: float
    std_error: float
    per_sample: tuple
    nodes: int


def random_bowen_roots(family, letters):
    """Root of the averaged fiber pressure, with per window spread.

    t_root solves mean pressure = 0 for the potential -t log |f'| along
    fibers.  Interval fibers are conformal, so the derivative norm and
    conorm roots coincide and one root covers both.  The depth n fiber
    pressures are those of the cylinder walker, computed as products of
    collocated fiber operators (``fiber_pressures``) on the ``nodes``
    that ``_root_operators`` picks, so no word is enumerated.  The mean
    root is one Newton solve; the per window roots are one more,
    vectorised over windows with one t per window.  ``letters`` holds
    one window of n letters per row, so n is its width.
    """
    letters = _letter_table(letters)
    ops, probes = _root_operators(family, letters)

    def per_window(t):
        # the clamp probes at t = 0 and 1 reuse the node check's values
        for at, values in probes.items():
            if np.all(t == at):
                return values
        return fiber_pressures(ops, letters, t)

    def mean(t):
        value, slope = per_window(t)
        return float(value.mean()), float(slope.mean())

    root = _newton_solve(mean, 1.0, ROOT_TOL)
    per = tuple(float(r) for r in _newton_solve(per_window, 1.0, ROOT_TOL))
    return RandomRoots(t_root=float(root), std_error=_std_error(per),
                       per_sample=per, nodes=ops.nodes)


def random_entropy(family):
    """Fiber entropy: log N_n / n for the base map's word count N_n.

    Letters never change word counts and every family is a full shift, so
    every fiber has the base map's N_n = k^n words of length n for k
    symbols, and the zero potential ``random_pressure`` of any seeds and
    depth is log k.  No word is walked or counted.
    """
    _require_full_shift(family.base_map)
    return math.log(family.base_map.n_symbols)


def expansivity_min_growth(family, letters):
    """Smallest per step log expansion over depth n fiber words.

    ``letters`` is one window of n letters, or a table of them measured
    by its worst row and walked in batches of ``_window_chunks``.
    """
    letters = _letter_table(letters)
    depth = letters.shape[1]
    return float(min(
        FiberCylinders(family, letters[rows]).log_derivative_sums()[-1].min()
        for rows in _window_chunks(family, len(letters), depth)) / depth)


# -- distortion --------------------------------------------------------------

class DistortionReport(NamedTuple):
    k0: float
    k_value: float
    radius: float
    worst_violation: float
    pairs: int


# pairs per distortion report, and the seed the sampled ones are drawn from
_DISTORTION_PAIRS = 12000
_DISTORTION_SEED = 0
# sampled pairs per block of the distortion scan
_PAIR_BLOCK = 2048


@lru_cache(maxsize=8)
def _distortion_pairs(leaves):
    """Leaf index pairs (i, j), i != j, of ``distortion_constants``.

    Every neighbouring pair of the ``leaves`` leaves comes first, then
    extra = ``_DISTORTION_PAIRS - (leaves - 1)`` pairs drawn from
    ``_DISTORTION_SEED``: i takes counters 0 .. extra - 1 and j the next
    extra, drawn ``_PAIR_BLOCK`` counters at a time straight into the
    arrays.  The arrays are read-only int32, so every call on one key
    shares them.
    """
    extra = max(0, _DISTORTION_PAIRS - (leaves - 1))
    i = np.empty(leaves - 1 + extra, dtype=np.int32)
    j = np.empty_like(i)
    i[:leaves - 1] = np.arange(leaves - 1, dtype=np.int32)
    j[:leaves - 1] = np.arange(1, leaves, dtype=np.int32)
    for first, drawn in ((0, i[leaves - 1:]), (extra, j[leaves - 1:])):
        for lo in range(0, extra, _PAIR_BLOCK):
            hi = min(lo + _PAIR_BLOCK, extra)
            drawn[lo:hi] = _draw(_DISTORTION_SEED,
                                 np.arange(first + lo, first + hi), leaves)
    keep = i != j
    i, j = i[keep], j[keep]
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _pair_blocks(pairs):
    """The (i, j) index arrays of ``pairs`` in blocks of ``_PAIR_BLOCK``.

    Each block is cast to ``np.intp`` once, since every gather would
    cast narrower indices again.
    """
    i, j = pairs
    for lo in range(0, len(i), _PAIR_BLOCK):
        yield (i[lo:lo + _PAIR_BLOCK].astype(np.intp),
               j[lo:lo + _PAIR_BLOCK].astype(np.intp))


def distortion_constants(family, letters):
    """Uniform two sided distortion inequality for the origin fiber map.

    Sampled pairs x, y of depth n fiber cylinder points must satisfy, in
    both orientations,

        |f'(x)| - K d <= d(f x, f y) / d(x, y) <= |f'(x)| + K d

    with d = d(x, y).  k0 is the empirical Lipschitz constant of f' over
    the sampled pairs; K = max(k0, diam / r0, max |f'| / r0), where the
    locality terms absorb pairs farther apart than the scale r0 (half the
    smallest domain gap, or a quarter of the diameter for gapless maps).
    Circle families use circle distance, so the inequality also covers
    pairs straddling a branch boundary.  worst_violation is the smallest
    slack over all sampled pairs; the inequality holds when it is not
    negative.  ``letters`` is one window of n letters or a table of them,
    walked in batches of ``_window_chunks``, and the reports come one per
    window; windows share the word count, so they share the pairs of
    ``_distortion_pairs``.  k0 and then the slack are scanned over blocks of
    ``_PAIR_BLOCK`` pairs.  ``DISTORTION_DEPTH`` copies of one letter
    probe that letter's map.
    """
    windows = _letter_table(letters)
    if windows.shape[1] < 2:
        raise BadSpec("distortion sampling needs depth at least 2")
    circle = family.kind == "circle"

    def metric(u, v):
        d = np.abs(u - v)
        return np.minimum(d, 1.0 - d) if circle else d

    reports = []
    for rows in _window_chunks(family, len(windows), windows.shape[1]):
        chain = FiberCylinders(family, windows[rows])
        leaves = chain.leaves
        m = len(leaves.first)
        pairs = _distortion_pairs(m)
        for w, window in enumerate(windows[rows]):
            pts = leaves.points[w]
            images = chain.levels[-2].points[w][leaves.parent]
            mp = family.fiber_map(window[0])
            derivs = np.empty(m, dtype=float)
            for s, a, b in leaves.blocks:
                derivs[a:b] = mp.branches[s].deriv(pts[a:b])
            r0 = 0.25 * mp.diam
            if mp.domain_gaps:
                r0 = min(r0, 0.5 * min(mp.domain_gaps))
            # a max or min of block extremes is the extreme of all pairs
            k0 = float(np.max([(np.abs(derivs[i] - derivs[j])
                                / metric(pts[i], pts[j])).max()
                               for i, j in _pair_blocks(pairs)]))
            k_val = max(k0, mp.diam / r0, mp.max_expansion / r0)
            worst = float(np.min([
                _pair_slack(derivs[i], derivs[j], metric(pts[i], pts[j]),
                            metric(images[i], images[j]), k_val)
                for i, j in _pair_blocks(pairs)]))
            reports.append(DistortionReport(
                k0=k0, k_value=float(k_val), radius=float(r0),
                worst_violation=worst, pairs=len(pairs[0])))
    return reports


def _pair_slack(deriv_i, deriv_j, dx, dy, k_val):
    """Smallest slack of the distortion inequality over one block of pairs."""
    ratio = dy / dx
    pad = k_val * dx
    return np.minimum(
        np.minimum(deriv_i + pad - ratio, ratio - deriv_i + pad),
        np.minimum(deriv_j + pad - ratio, ratio - deriv_j + pad)).min()


# -- shrinking noise experiment ----------------------------------------------

# largest truncation error of the conjugacy evaluator a sweep aims for
CONJ_TOL = 1e-4
# windows the conjugacy and growth certificates of a sweep walk: the bounds
# they cross-check hold for every realization, so a few windows test them
# as well as many, and the roots still average every seed
_WALKED_WINDOWS = 4


class StabilityRow(NamedTuple):
    epsilon: float
    t_root: float
    gap_t: float
    std_error: float
    h_sup: float
    equivariance: float
    equivariance_bound: float
    failure: str = ""


class StabilityResult(NamedTuple):
    rows: tuple
    t_reference: float
    certificates: dict


def _cap_depth(family):
    """Largest d whose base map words fit under WORD_CAP, but at least 2."""
    count = family.base_map.count_words
    depth = 2
    while count(depth + 1) <= WORD_CAP:
        depth += 1
    return depth


def _conjugacy_depth_for(family, cap_depth):
    """Depth matching the evaluator error to ``CONJ_TOL``, at most the
    base map's ``cap_depth``; certificates carry the bounds of the depth."""
    depth = max(2, math.ceil(math.log(CONJ_TOL)
                             / math.log(family.gamma_bound)))
    return min(depth, cap_depth)


def _distortion_probes(n_letters):
    """Row a holds ``DISTORTION_DEPTH`` copies of letter a, probing its map."""
    return np.tile(np.arange(n_letters)[:, None], (1, DISTORTION_DEPTH))


def stability_experiment(family, schedule=(0.2, 0.1, 0.05, 0.025), depth=16,
                         seeds=16, conj_depth=None, base_seed=0):
    """Root convergence of randomly perturbed repellers as noise shrinks.

    ``family`` fixes the perturbation shape; its own noise level is
    ignored and each schedule entry rebuilds the family at that level.
    The same base seeds (common random numbers) drive every level, so
    root gaps are comparable across the schedule.  Each row carries the
    averaged dimension roots, their distance to the unperturbed root, the
    conjugacy displacement and the measured equivariance defect with its
    certified bound.  The roots come from products of collocated fiber
    operators (``random_bowen_roots``), not from enumerated fiber words;
    only the conjugacy, the reference root, the growth and the
    distortion probes walk cylinders.  One letter table, a row per seed
    and as wide as the deepest walk of any level, is drawn once per sweep,
    and every level slices it: the first ``depth`` columns of every row
    for the roots, and of the first min(seeds, ``_WALKED_WINDOWS``) rows
    columns 0 .. m - 1 and 1 .. m for the depth m conjugacy and the first
    ``GROWTH_DEPTH`` for the growth.  Each level certifies those rows
    together: batched fiber walks of both conjugacy slices, one batched
    growth walk, batched walks (``_window_chunks``) of the constant
    windows of all letters for distortion, whose sampled pairs are drawn
    once per sweep, and one vectorised Newton pass for the per-seed roots.
    The base map is walked once per distinct conjugacy depth.
    Certificates collect per noise level the expansion margin, the node
    count of the root operators (``root_nodes``), displacement and
    equivariance budgets, the smallest fiber growth rate, the count of
    walked rows (``walked_windows``) and distortion constants per letter.
    A noise level that fails certification produces a row holding the
    failure message instead of aborting the experiment.  When conj_depth
    is omitted it is chosen per level so the truncation error stays below
    ``CONJ_TOL``, or as deep as ``WORD_CAP`` allows when that is not deep
    enough.
    """
    if seeds < 1:
        raise BadSpec("need at least one base seed")
    t_reference = dimension_report(family.base_map, REFERENCE_DEPTH).t_root
    # levels share the base map, so automatic depths share its word cap
    deepest = conj_depth or _cap_depth(family)
    width = max(depth, GROWTH_DEPTH, deepest + 1)
    table = np.array([sample_base(base_seed + k, family.n_letters).letters(
        0, width) for k in range(seeds)])
    walked = table[:_WALKED_WINDOWS]
    probes = _distortion_probes(family.n_letters)
    # base map leaves per conjugacy depth, shared by levels of one depth
    base_walks = {}
    rows = []
    certificates = {"per_epsilon": {}}
    for eps in schedule:
        try:
            fam = RandomFamily(family.kind, family.params, eps,
                               family.n_letters)
            cd = conj_depth or _conjugacy_depth_for(fam, deepest)
            roots = random_bowen_roots(fam, table[:, :depth])
            if cd not in base_walks:
                base_walks[cd] = CylinderSet(family.base_map,
                                             cd).leaves.points
            h_vals, eq_vals = _conjugacy_defects(fam, walked[:, :cd + 1],
                                                 base=base_walks[cd])
            growth = expansivity_min_growth(fam, walked[:, :GROWTH_DEPTH])
            h_sup = float(h_vals.max())
            eq_meas = float(eq_vals.max())
            eq_bound = _equivariance_bound(fam, cd)
            reports = distortion_constants(fam, probes)
            distortion = {letter: rep._asdict()
                          for letter, rep in enumerate(reports)}
            rows.append(StabilityRow(
                epsilon=float(eps), t_root=roots.t_root,
                gap_t=abs(roots.t_root - t_reference),
                std_error=roots.std_error, h_sup=h_sup,
                equivariance=eq_meas, equivariance_bound=eq_bound))
            certificates["per_epsilon"][float(eps)] = {
                "expansion_margin": fam.certified_expansion - 1.0,
                "conj_depth": int(cd),
                "root_nodes": roots.nodes,
                "h_sup": h_sup,
                "h_sup_analytic": fam.displacement_bound,
                "equivariance": eq_meas,
                "equivariance_bound": eq_bound,
                "min_growth": growth,
                "walked_windows": len(walked),
                "distortion": distortion,
            }
        except PressureLabError as exc:
            nan = float("nan")
            rows.append(StabilityRow(
                epsilon=float(eps), t_root=nan, gap_t=nan, std_error=nan,
                h_sup=nan, equivariance=nan, equivariance_bound=nan,
                failure=str(exc)))
            certificates["per_epsilon"][float(eps)] = {"failure": str(exc)}
    return StabilityResult(rows=tuple(rows), t_reference=float(t_reference),
                           certificates=certificates)
