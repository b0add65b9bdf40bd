"""Random perturbations of expanding interval maps over an i.i.d. base.

A realization is a two sided sequence of letters sampled independently
from a finite alphabet.  Each letter names one perturbed map from a fixed
family, and time n composes the maps read off the sequence from position
0 to n - 1.  Perturbed maps keep the branch combinatorics of the
unperturbed map, so cylinder words mean the same thing in every fiber and
symbolic conjugacies exist by construction.

Only interval families are supported.  Their derivative cocycles are
scalar, hence conformal, and the upper and lower singular value routes
through any computation coincide by construction.
"""

import math
from typing import NamedTuple

import numpy as np

from . import dynamics as dyn
from .bowen import _newton_solve, dimension_report
from .cylinders import (GROWTH_DEPTH, REFERENCE_DEPTH, WORD_CAP, CylinderSet,
                        MapColumn)
from .errors import (BadSpec, InadmissibleWord, NoConvergence,
                     PerturbationTooLarge, PressureLabError)

TWO_PI = 2.0 * math.pi


# -- base process ---------------------------------------------------------

class BaseSample(NamedTuple):
    """One realization of the two sided driving letter sequence.

    The letter at position p is ``_draw(seed, origin + p, n_letters)``,
    read on demand, so every position of the realization exists and no
    window has to be drawn in advance.  A ``constant`` letter, when set,
    stands at every position instead (see ``constant_sample``).
    """

    seed: int
    n_letters: int
    origin: int = 0
    constant: int | None = None

    def letters(self, start, stop):
        """Letters at positions start .. stop - 1, in one draw."""
        counters = np.arange(self.origin + start, self.origin + stop)
        if self.constant is not None:
            return np.full(len(counters), self.constant, dtype=np.intp)
        return _draw(self.seed, counters, self.n_letters).astype(np.intp)

    def symbol(self, j):
        return int(self.letters(j, j + 1)[0])

    def shifted(self, k=1):
        return self._replace(origin=self.origin + int(k))


# SplitMix64 (Steele, Lea and Flood 2014): the golden gamma and the
# finaliser multipliers, as published
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def _draw(seed, counters, n):
    """Uniform integers in [0, n), one per integer counter, keyed on seed.

    Counter p gets the SplitMix64 finaliser of seed + (p + 1) gamma mod
    2^64, which is the p-th output of SplitMix64 seeded with ``seed``
    (negative p run it backwards).  The high 32 bits of each output map to
    [0, n) by multiply-shift, so n must not exceed 2^32.  No generator
    state is kept: a draw depends on its seed and counter alone.
    """
    steps = np.asarray(counters, dtype=np.int64).view(np.uint64)
    z = np.uint64(seed) + (steps + np.uint64(1)) * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX[0]
    z = (z ^ (z >> np.uint64(27))) * _MIX[1]
    z ^= z >> np.uint64(31)
    return ((z >> np.uint64(32)) * np.uint64(n)) >> np.uint64(32)


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


def constant_sample(letter, n_letters=2):
    """Realization holding one letter everywhere; handy for worst case probes."""
    return BaseSample(-1, int(n_letters), constant=int(letter))


# -- perturbation families ------------------------------------------------

class RandomFamily:
    """Finite family of perturbed maps indexed by base letters.

    Letter coefficients are evenly spaced in [-1, 1].  Kind "circle"
    shifts the lift amplitude by epsilon times the coefficient, so the
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
        if self.n_letters == 1:
            self.coefficients = (0.0,)
        else:
            self.coefficients = tuple(np.linspace(-1.0, 1.0, self.n_letters))
        if self.kind == "cookie":
            if len(self.params) != 2:
                raise BadSpec("cookie family takes two branch slopes")
            self.base_map = dyn.cookie_cutter(*self.params)
        elif self.kind == "circle":
            if not 1 <= len(self.params) <= 2:
                raise BadSpec("circle family takes degree and optional amplitude")
            self.base_map = dyn.circle_map(int(self.params[0]),
                                           self._base_amplitude)
        else:
            raise BadSpec("unknown random family kind %r" % kind)
        self._fibers = {}
        self.certificate = self._certify()
        self.certified_expansion = self.certificate["worst_expansion"]

    @property
    def _base_amplitude(self):
        return self.params[1] if len(self.params) == 2 else 0.0

    def _certify(self):
        reach = self.epsilon * max(abs(c) for c in self.coefficients)
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
        reach_unit = max(abs(c) for c in self.coefficients)
        if self.kind == "circle":
            return (1.0 + TWO_PI) * reach_unit
        return 2.0 * max(self.params) * reach_unit

    @property
    def displacement_bound(self):
        """Analytic bound on how far the fiber conjugacy can move a point."""
        reach = self.certificate["reach"]
        if self.kind == "circle":
            delta = reach / self.certified_expansion
        else:
            r_min = min(self.params)
            delta = reach / (r_min * (1.0 - reach)) if reach > 0.0 else 0.0
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
            a = self.coefficients[letter]
            if self.kind == "circle":
                fiber = dyn.circle_map(int(self.params[0]),
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


def perturbed_map(family, sample):
    """The fiber map acting at position 0 of the realization."""
    return family.fiber_map(sample.symbol(0))


# -- fiber cylinder chains -------------------------------------------------

class FiberCylinders(CylinderSet):
    """Cylinder walker through the position dependent fiber maps.

    The chain holds the fiber map of every position in the window
    ``start .. start + depth - 1``.  Leaves are the depth n fiber cylinder
    representatives for that window, enumerated in the same lexicographic
    order as the walker of the base map.  ``samples`` is one window, or a
    sequence of windows walked at once: every position then holds a
    ``MapColumn`` and the level points one row per window (see
    ``_window_chunks`` for how many windows fit one walk).
    """

    def __init__(self, family, samples, depth, start=0, cap=WORD_CAP):
        self.family = family
        self.samples = samples
        self.start = int(start)
        stop = self.start + int(depth)
        if isinstance(samples, BaseSample):
            maps = [family.fiber_map(a)
                    for a in samples.letters(self.start, stop)]
        else:
            rows = [smp.letters(self.start, stop) for smp in samples]
            maps = [MapColumn(family.fiber_map(a) for a in column)
                    for column in zip(*rows)]
        super().__init__(maps, depth, cap)


def _window_chunks(family, count, depth):
    """Slices batching ``count`` windows for walks of depth ``depth``.

    A batched walk holds one point per window and word, so each batch
    keeps windows x words within WORD_CAP; a walk too deep for two
    windows gets one window per batch.
    """
    size = max(1, WORD_CAP // int(family.base_map.count_words(depth)))
    return [slice(lo, lo + size) for lo in range(0, count, size)]


def _require_full_shift(mapping):
    if any(v != 1 for row in mapping.adjacency for v in row):
        raise BadSpec("this check needs a full transition matrix")


# -- symbolic conjugacies ---------------------------------------------------

class FiberConjugacy:
    """Symbolic conjugacy from the unperturbed repeller into one fiber.

    A point is mapped by reading its itinerary under the base map and
    rebuilding a point with the same symbols through the fiber inverse
    branches, innermost first, seeded at the branch domain center of the
    deepest symbol.  Truncating at depth m moves the result by at most
    gamma^m times the diameter.
    """

    def __init__(self, family, sample, depth):
        if depth < 1:
            raise BadSpec("conjugacy depth must be positive")
        self.family = family
        self.sample = sample
        self.depth = int(depth)

    @property
    def error_bound(self):
        return self.family.gamma_bound ** self.depth * self.family.base_map.diam

    def map_words(self, words):
        """Fiber points of the rows of ``words``, all of one length.

        Every row is rebuilt as ``map_word`` does, and each position makes
        one inverse branch call per symbol for all rows.
        """
        base = self.family.base_map
        words = np.asarray(words, dtype=np.intp)
        if words.ndim != 2 or words.shape[1] == 0:
            raise InadmissibleWord("need a table of non-empty words")
        if words.min() < 0 or words.max() >= base.n_symbols:
            raise InadmissibleWord("symbol out of range")
        if not base.adjacency_matrix[words[:, :-1], words[:, 1:]].all():
            raise InadmissibleWord("forbidden transition in a word")
        maps = [self.family.fiber_map(a)
                for a in self.sample.letters(0, words.shape[1])]
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

    def map_point(self, x):
        return self.map_word(dyn.itinerary(self.family.base_map, x, self.depth))

    def shifted(self, k=1):
        return FiberConjugacy(self.family, self.sample.shifted(k), self.depth)


def build_conjugacy(family, sample, depth):
    """Depth m symbolic conjugacy for the realization in the sample."""
    return FiberConjugacy(family, sample, depth)


def fiber_repeller(conj, depth):
    """Conjugacy images of the depth n cylinder representatives.

    For depth up to the conjugacy depth these are exact fiber chain
    points; deeper words are mapped through the truncated evaluator, so
    several words can share one image.
    """
    family, sample = conj.family, conj.sample
    if depth <= conj.depth:
        return FiberCylinders(family, sample, depth).leaves.points.copy()
    _require_full_shift(family.base_map)
    n_sym = family.base_map.n_symbols
    pts = FiberCylinders(family, sample, conj.depth).leaves.points
    idx = np.arange(n_sym ** depth, dtype=np.int64)
    return pts[idx // n_sym ** (depth - conj.depth)].copy()


def _conjugacy_defects(family, windows, depth, equivariance=True, base=None):
    """Conjugacy displacement and equivariance defect per window.

    Base and fiber walkers enumerate the same words in the same order, so
    the depth n conjugacy image of every base representative is the fiber
    representative at the same index; the displacement is their largest
    distance.  Level n - 2 of that start 0 walk holds the words at
    positions 1 .. n - 1 (conjugate then shift), and the leaves of a
    start 1 walk at depth n map them (map then conjugate); the defect is
    their largest mismatch over the prefix relation.  The base map is
    walked once for all windows, unless ``base`` already holds the leaf
    points of that walk.  Returns two arrays, the second all nan when
    ``equivariance`` is off.
    """
    if equivariance:
        _require_full_shift(family.base_map)
    n_sym = family.base_map.n_symbols
    if base is None:
        base = CylinderSet(family.base_map, depth).leaves.points
    moved = np.empty(len(windows))
    defect = np.full(len(windows), np.nan)
    for rows in _window_chunks(family, len(windows), depth):
        levels = FiberCylinders(family, windows[rows], depth).levels
        moved[rows] = _largest_gap(levels[-1].points, base)
        if not equivariance:
            continue
        shifted = levels[-2].points[..., None]
        # free the start 0 walk before the start 1 walk is built
        del levels
        mapped = FiberCylinders(family, windows[rows], depth,
                                start=1).leaves.points
        # leaf i of the start 1 walk extends word i // n_sym of ``shifted``
        defect[rows] = _largest_gap(
            mapped.reshape(len(mapped), -1, n_sym), shifted)
    return moved, defect


def _largest_gap(points, targets):
    """Largest |points - targets| per leading row, in one scratch array."""
    gap = points - targets
    return np.abs(gap, out=gap).reshape(len(gap), -1).max(axis=1)


def _equivariance_bound(family, depth):
    return 2.0 * family.gamma_bound ** depth * family.base_map.diam


def conjugacy_displacement(family, sample, depth):
    """Largest distance the depth n conjugacy moves a cylinder point."""
    moved, _ = _conjugacy_defects(family, [sample], depth, equivariance=False)
    return float(moved[0])


def measure_equivariance(family, sample, depth):
    """Worst defect of (map then conjugate) against (conjugate then shift).

    Both sides are evaluated on every word of length depth + 1 with the
    depth m = depth conjugacy.  The mismatch comes only from the
    truncation seeds, so it must stay below 2 gamma^depth times the
    diameter.  Returns (measured, bound).
    """
    if depth < 2:
        raise BadSpec("equivariance needs depth at least 2")
    _, defect = _conjugacy_defects(family, [sample], depth)
    return float(defect[0]), float(_equivariance_bound(family, depth))


# -- fiber transfer operators --------------------------------------------------

# node counts tried for random roots: 8, 16, ... up to this many
MAX_ROOT_NODES = 256
# operator steps between rescalings of a fiber product by its largest value
_RESCALE_STEPS = 16


class FiberOperators(NamedTuple):
    """Chebyshev collocation of the fiber Ruelle operators of a family.

    Functions on the hull of the base map are held by their values at
    ``nodes`` Chebyshev points x_j.  For letter a, ``interp[a, j, b]`` is
    the row mapping node values to the value of their interpolant at
    g_b(x_j), with g_b the inverse branch b of fiber a, and
    ``log_slopes[a, j, b]`` is log f_a' at g_b(x_j).  ``end_rows[a]``
    evaluates the interpolant at the branch centres of fiber a, where the
    cylinder walker seeds, and ``end_log_slopes[a]`` holds log f_a' at
    those centres.
    """

    nodes: int
    interp: np.ndarray
    log_slopes: np.ndarray
    end_rows: np.ndarray
    end_log_slopes: np.ndarray


def _interpolation_rows(nodes, weights, points):
    """Barycentric rows evaluating the interpolant on ``nodes`` at ``points``."""
    diff = points[:, None] - nodes[None, :]
    hit = diff == 0.0
    rows = weights / np.where(hit, 1.0, diff)
    rows /= rows.sum(axis=1, keepdims=True)
    exact = hit.any(axis=1)
    rows[exact] = hit[exact]
    return rows


def fiber_operators(family, nodes):
    """Collocated fiber operators of ``family`` on ``nodes`` Chebyshev points.

    The nodes are the Chebyshev points of the second kind on the hull of
    the base map, which every fiber shares.  Affine (cookie) branches keep
    constants constant, so there the interpolation is exact.
    """
    if nodes < 2:
        raise BadSpec("collocation needs at least two nodes")
    _require_full_shift(family.base_map)
    lo, hi = family.base_map.hull
    j = np.arange(int(nodes))
    x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * j / (nodes - 1))
    w = np.where(j % 2 == 0, 1.0, -1.0)
    w[[0, -1]] *= 0.5
    interp, log_slopes, end_rows, end_log_slopes = [], [], [], []
    for letter in range(family.n_letters):
        fiber = family.fiber_map(letter)
        pulled = [br.inv(x) for br in fiber.branches]
        interp.append([_interpolation_rows(x, w, y) for y in pulled])
        log_slopes.append([np.log(br.deriv(y))
                           for br, y in zip(fiber.branches, pulled)])
        end_rows.append(_interpolation_rows(x, w, fiber.centers))
        end_log_slopes.append([math.log(float(br.deriv(br.center)))
                               for br in fiber.branches])
    return FiberOperators(
        nodes=int(nodes), interp=np.array(interp).transpose(0, 2, 1, 3),
        log_slopes=np.array(log_slopes).transpose(0, 2, 1),
        end_rows=np.array(end_rows), end_log_slopes=np.array(end_log_slopes))


def fiber_pressures(ops, letters, t):
    """Depth n fiber pressures P_n(t) and slopes P_n'(t), one per window.

    Row k of ``letters`` holds the n letters of one window, position 0
    first; ``t`` is one parameter for all windows, or an array holding
    one per window.  The depth n fiber sum over words w of exp(-t S_w),
    with S_w the Birkhoff sum of log f' along the walker's representative
    orbit, is the end row of the last letter applied to L_{n-2} ... L_0 1,
    where L_i is the collocated operator phi -> sum_b |f'(g_b)|^-t phi(g_b)
    of the fiber at position i.  Its t-derivative rides along in the block
    operator [[L, 0], [L', L]] acting on [phi; phi'], so one pass gives P
    and P'.  Each step is divided by the largest value of L 1, whose
    logarithm is kept, and every ``_RESCALE_STEPS`` steps the product is
    rescaled by its largest value, so no step overflows or underflows.
    """
    letters = np.asarray(letters, dtype=np.intp)
    n_windows, depth = letters.shape
    n = ops.nodes
    t = np.asarray(t, dtype=float)
    # operators per distinct t: a leading axis of one, or one per window
    per = np.arange(n_windows) if t.ndim else np.zeros(n_windows, np.intp)
    t = t.reshape(-1, 1, 1, 1)
    weight = np.exp(-t * ops.log_slopes)
    # interpolation rows sum to 1, so L 1 is the weight summed over branches
    norm = weight.sum(axis=3).max(axis=2)
    weight /= norm[..., None, None]
    # rows of L and of L' per letter: (t, letters, nodes, 2, nodes)
    pair = np.stack([weight, -ops.log_slopes * weight], axis=3) @ ops.interp
    block = np.zeros(pair.shape[:2] + (2 * n, 2 * n))
    block[..., :n, :n] = block[..., n:, n:] = pair[..., 0, :]
    block[..., n:, :n] = pair[..., 1, :]
    state = np.zeros((n_windows, 2 * n, 1))
    state[:, :n] = 1.0
    log_scale = np.log(norm)[per[:, None], letters[:, :-1]].sum(axis=1)
    for i in range(1, depth):
        state = block[per, letters[:, i - 1]] @ state
        if i % _RESCALE_STEPS == 0:
            top = state[:, :n, 0].max(axis=1)
            state /= top[:, None, None]
            log_scale += np.log(top)
    last = letters[:, -1]
    ell = ops.end_log_slopes[last]
    end_weight = np.exp(-t[per, 0, 0] * ell)
    # end values of phi and phi' at the centres: (windows, symbols, 2)
    ends = ops.end_rows[last] @ state.reshape(n_windows, 2, n).transpose(0, 2, 1)
    total = (end_weight * ends[..., 0]).sum(axis=1)
    d_total = (end_weight * (ends[..., 1] - ell * ends[..., 0])).sum(axis=1)
    return (np.log(total) + log_scale) / depth, d_total / total / depth


def _root_operators(family, letters, tol):
    """Fiber operators on the fewest nodes that resolve the pressures.

    Starting at 8, the node count doubles until P_n at t = 0 and t = 1
    agrees with that on twice as many nodes to within tol / 10 for every
    window.  Past ``MAX_ROOT_NODES`` nodes the pressures count as
    unresolved and NoConvergence is raised.  Returns the operators and
    their ``fiber_pressures`` of all windows at t = 0 and t = 1.
    """
    def probe(nodes):
        ops = fiber_operators(family, nodes)
        return ops, {t: fiber_pressures(ops, letters, t) for t in (0.0, 1.0)}

    coarse, probes = probe(8)
    while True:
        fine, fine_probes = probe(2 * coarse.nodes)
        if all(np.abs(probes[t][0] - fine_probes[t][0]).max() <= 0.1 * tol
               for t in probes):
            return coarse, probes
        if fine.nodes > MAX_ROOT_NODES:
            raise NoConvergence("fiber pressures of %s are unresolved on %d "
                                "nodes" % (family.describe(), coarse.nodes))
        coarse, probes = fine, fine_probes


# -- averaged pressure and roots --------------------------------------------

class RandomEstimate(NamedTuple):
    value: float
    std_error: float
    per_sample: tuple
    depth: int

    @property
    def omega_samples(self):
        return len(self.per_sample)


def _std_error(values):
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def _seed_windows(family, seeds):
    """Base realizations of the seeds; realizations pass through."""
    if not seeds:
        raise BadSpec("need at least one base seed")
    return [seed if isinstance(seed, BaseSample)
            else sample_base(seed, family.n_letters)
            for seed in seeds]


def random_pressure(family, potential, seeds, depth=12):
    """Finite depth fiber pressure averaged over base realizations.

    Per realization the value is (1/n) log of the summed exponential of
    the accumulated potential over depth n fiber cylinders; the estimate
    is the mean over the seeded realizations with its sampling spread.
    """
    # the pressure layer loads only with the modes that fold potentials
    from .pressure import logsumexp

    vals = []
    for smp in _seed_windows(family, seeds):
        chain = FiberCylinders(family, smp, depth)
        vals.append(logsumexp(chain.birkhoff(potential.step_values)[-1])
                    / depth)
    return RandomEstimate(value=float(np.mean(vals)), std_error=_std_error(vals),
                          per_sample=tuple(vals), depth=int(depth))


class RandomRoots(NamedTuple):
    t_root: float
    std_error: float
    per_sample: tuple
    depth: int
    nodes: int


def random_bowen_roots(family, seeds, depth=16, tol=1e-10):
    """Root of the averaged fiber pressure, with per realization spread.

    t_root solves mean pressure = 0 for the potential -t log |f'| along
    fibers.  Interval fibers are conformal, so the derivative norm and
    conorm roots coincide and one root covers both.  The depth n fiber
    pressures are those of the cylinder walker, computed as products of
    collocated fiber operators (``fiber_pressures``) on the ``nodes``
    that ``_root_operators`` picks, so no word is enumerated.  The mean
    root is one Newton solve; the per realization roots are one more,
    vectorised over windows with one t per window.  ``seeds`` are base
    seeds, or windows already drawn from them.
    """
    if depth < 1:
        raise BadSpec("cylinder depth must be positive")
    letters = np.array([smp.letters(0, depth)
                        for smp in _seed_windows(family, seeds)])
    ops, probes = _root_operators(family, letters, tol)

    def per_window(t):
        # the clamp probes at t = 0 and 1 reuse the node check's values
        for at, values in probes.items():
            if np.all(t == at):
                return values
        return fiber_pressures(ops, letters, t)

    def mean(t):
        value, slope = per_window(t)
        return float(value.mean()), float(slope.mean())

    root = _newton_solve(mean, 1.0, tol)
    per = tuple(float(r) for r in _newton_solve(per_window, 1.0, tol))
    return RandomRoots(t_root=float(root), std_error=_std_error(per),
                       per_sample=per, depth=int(depth), nodes=ops.nodes)


def random_entropy(family, depth=12):
    """Fiber entropy at depth n: log N_n / n for the base map's word count.

    Letters never change word counts and every family is a full shift, so
    every fiber has the base map's N_n words of length n, and the zero
    potential ``random_pressure`` of any seeds is this value.  No word is
    walked.  A count past float range is a BadSpec.
    """
    with np.errstate(over="ignore"):
        count = family.base_map.count_words(depth)
    if not math.isfinite(count):
        raise BadSpec("the word count at depth %d overflows" % depth)
    return math.log(count) / depth


def _min_growths(family, windows, depth=GROWTH_DEPTH):
    """Smallest per step log expansion over depth n fiber words, per window."""
    growth = np.empty(len(windows))
    for rows in _window_chunks(family, len(windows), depth):
        chain = FiberCylinders(family, windows[rows], depth)
        growth[rows] = chain.log_derivative_sums()[-1].min(axis=1) / depth
    return growth


def expansivity_min_growth(family, sample, depth=GROWTH_DEPTH):
    """Smallest per step log expansion over depth n fiber words."""
    return float(_min_growths(family, [sample], depth)[0])


# -- distortion --------------------------------------------------------------

class DistortionReport(NamedTuple):
    k0: float
    k_value: float
    worst_violation: float
    slope_variation: float
    radius: float
    alpha: float
    pairs: int


def distortion_constants(family, samples, sample_pairs=12000, depth=10,
                         alpha=1.0, seed=0):
    """Uniform two sided distortion inequality for the origin fiber map.

    Sampled pairs x, y of depth n fiber cylinder points must satisfy, in
    both orientations,

        |f'(x)| - K d^alpha <= d(f x, f y) / d(x, y) <= |f'(x)| + K d^alpha

    with d = d(x, y).  k0 is the empirical Holder constant of f' over the
    sampled pairs; K = max(k0, diam / r0, max |f'| / r0^alpha), where the
    locality terms absorb pairs farther apart than the scale r0 (half the
    smallest domain gap, or a quarter of the diameter for gapless maps).
    Circle families use circle distance, so the inequality also covers
    pairs straddling a branch boundary.  worst_violation is the smallest
    slack over all sampled pairs; the inequality holds when it is not
    negative.  ``samples`` is one window, or a sequence of windows walked
    at once with one report each; windows share the word count, so they
    share the pairs drawn from ``seed``.
    """
    if depth < 2:
        raise BadSpec("distortion sampling needs depth at least 2")
    if sample_pairs < 100:
        raise BadSpec("need at least 100 sample pairs")
    single = isinstance(samples, BaseSample)
    windows = [samples] if single else list(samples)
    chain = FiberCylinders(family, windows, depth)
    leaves = chain.leaves
    m = len(leaves.first)
    extra = max(0, int(sample_pairs) - (m - 1))
    drawn = _draw(seed, np.arange(2 * extra), m).astype(np.intp)
    i = np.concatenate([np.arange(m - 1), drawn[:extra]])
    j = np.concatenate([np.arange(1, m), drawn[extra:]])
    keep = i != j
    i, j = i[keep], j[keep]
    circle = family.kind == "circle"

    def metric(u, v):
        d = np.abs(u - v)
        return np.minimum(d, 1.0 - d) if circle else d

    reports = []
    for w, window in enumerate(windows):
        pts = leaves.points[w]
        images = chain.levels[-2].points[w][leaves.parent]
        mp = family.fiber_map(window.symbol(0))
        derivs = np.empty(m, dtype=float)
        for s, a, b in leaves.blocks:
            derivs[a:b] = mp.branches[s].deriv(pts[a:b])
        r0 = 0.25 * mp.diam
        if mp.domain_gaps:
            r0 = min(r0, 0.5 * min(mp.domain_gaps))
        dx = metric(pts[i], pts[j])
        k0 = float((np.abs(derivs[i] - derivs[j]) / dx ** alpha).max())
        k_val = max(k0, mp.diam / r0, mp.max_expansion / r0 ** alpha)
        ratio = metric(images[i], images[j]) / dx
        pad = k_val * dx ** alpha
        slack = np.minimum(
            np.minimum(derivs[i] + pad - ratio, ratio - derivs[i] + pad),
            np.minimum(derivs[j] + pad - ratio, ratio - derivs[j] + pad))
        reports.append(DistortionReport(
            k0=k0, k_value=float(k_val), worst_violation=float(slack.min()),
            slope_variation=float(family.slope_variation), radius=float(r0),
            alpha=float(alpha), pairs=int(len(i))))
    return reports[0] if single else reports


# -- pressure transport through the conjugacy --------------------------------

class RandomConjugacyReport(NamedTuple):
    pressure_direct: float
    pressure_pulled: float
    residual: float
    bound: float
    depth: int
    margin: int


def random_conjugacy_pressure_check(family, conj, potential, depth=8,
                                    lipschitz=None):
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

    ``lipschitz`` defaults to the potential weight times the worst fiber
    log slope variation, exact for the built in geometric and singular
    potentials.
    """
    from .pressure import logsumexp

    base = family.base_map
    _require_full_shift(base)
    if conj.family is not family:
        raise BadSpec("conjugacy was built for a different family")
    margin = conj.depth - int(depth)
    if margin < 1:
        raise BadSpec("conjugacy depth must exceed the word depth")
    n_sym = base.n_symbols
    total = conj.depth
    chain = FiberCylinders(family, conj.sample, total)
    sums = chain.birkhoff(potential.step_values)

    sel = np.arange(n_sym ** depth, dtype=np.int64) * (n_sym ** margin)
    anc = sel.copy()
    for li in range(total - 1, margin - 1, -1):
        anc = chain.levels[li].parent[anc]
    s_direct = sums[-1][sel] - sums[margin - 1][anc]
    p_direct = logsumexp(s_direct) / depth

    s_pulled = np.zeros(len(sel), dtype=float)
    digits = np.zeros((len(sel), total), dtype=np.int64)
    rem = np.arange(n_sym ** depth, dtype=np.int64)
    for pos in range(depth - 1, -1, -1):
        digits[:, pos] = rem % n_sym
        rem //= n_sym
    for pos, letter in enumerate(conj.sample.letters(0, depth)):
        points = conj.shifted(pos).map_words(digits[:, pos:])
        fiber = family.fiber_map(letter)
        for s in range(n_sym):
            rows = digits[:, pos] == s
            s_pulled[rows] += potential.step_values(fiber, s, points[rows])
    p_pulled = logsumexp(s_pulled) / depth

    if lipschitz is None:
        lipschitz = abs(potential.weight) * max(
            family.fiber_map(a).log_deriv_lipschitz
            for a in range(family.n_letters))
    gamma = family.gamma_bound
    bound = lipschitz * base.diam * gamma ** margin / (1.0 - gamma)
    return RandomConjugacyReport(pressure_direct=float(p_direct),
                                 pressure_pulled=float(p_pulled),
                                 residual=float(abs(p_direct - p_pulled)),
                                 bound=float(bound), depth=int(depth),
                                 margin=int(margin))


# -- shrinking noise experiment ----------------------------------------------

# largest truncation error of the conjugacy evaluator a sweep aims for
CONJ_TOL = 1e-4


class StabilityRow(NamedTuple):
    epsilon: float
    t_root: float
    t_reference: float
    gap_t: float
    std_error: float
    depth: int
    seeds: int
    h_sup: float
    equivariance: float
    equivariance_bound: float
    failure: str = ""


class StabilityResult(NamedTuple):
    rows: tuple
    t_reference: float
    certificates: dict


def _cap_depth(family):
    """Deepest conjugacy whose words, one level deeper, fit under WORD_CAP."""
    n_sym = family.base_map.n_symbols
    depth = 2
    while n_sym ** (depth + 1) <= WORD_CAP:
        depth += 1
    return depth


def _conjugacy_depth_for(family):
    """Truncation depth matching the evaluator error to ``CONJ_TOL``.

    The depth is capped where its words still fit under ``WORD_CAP``; the
    certificates then carry the bounds of the capped depth.
    """
    depth = max(2, math.ceil(math.log(CONJ_TOL)
                             / math.log(family.gamma_bound)))
    return min(depth, _cap_depth(family))


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
    distortion probes walk cylinders.  Each seed's realization is made
    once per sweep and read on demand, and each level certifies all
    realizations together: batched fiber walks from positions 0 and 1 at
    the conjugacy depth, one batched growth walk, one walk of the
    constant realizations of all letters for distortion, and one
    vectorised Newton pass for the per-seed roots.  The base map is
    walked once per distinct conjugacy depth.  Certificates collect per
    noise level the expansion margin, the node count of the root
    operators (``root_nodes``), displacement and equivariance budgets,
    the smallest fiber growth rate and distortion constants per letter.
    A noise level that fails certification produces a row holding the
    failure message instead of aborting the experiment.  When conj_depth
    is omitted it is chosen per level so the truncation error stays below
    ``CONJ_TOL``, or as deep as ``WORD_CAP`` allows when that is not deep
    enough.
    """
    t_reference = dimension_report(family.base_map, REFERENCE_DEPTH).t_root
    seed_list = [base_seed + k for k in range(seeds)]
    windows = _seed_windows(family, seed_list)
    probes = [constant_sample(letter, family.n_letters)
              for letter in range(family.n_letters)]
    # base map leaves per conjugacy depth, shared by levels of one depth
    base_walks = {}
    rows = []
    certificates = {"reference_root": float(t_reference), "per_epsilon": {}}
    for eps in schedule:
        try:
            fam = RandomFamily(family.kind, family.params, eps,
                               family.n_letters)
            cd = conj_depth or _conjugacy_depth_for(fam)
            roots = random_bowen_roots(fam, windows, depth=depth)
            if cd not in base_walks:
                base_walks[cd] = CylinderSet(family.base_map,
                                             cd).leaves.points
            h_vals, eq_vals = _conjugacy_defects(fam, windows, cd,
                                                 base=base_walks[cd])
            growth = float(_min_growths(fam, windows).min())
            h_sup = float(h_vals.max())
            eq_meas = float(eq_vals.max())
            eq_bound = _equivariance_bound(fam, cd)
            reports = distortion_constants(fam, probes)
            distortion = {letter: {key: getattr(rep, key) for key in (
                "k0", "k_value", "radius", "worst_violation", "pairs")}
                for letter, rep in enumerate(reports)}
            rows.append(StabilityRow(
                epsilon=float(eps), t_root=roots.t_root,
                t_reference=float(t_reference),
                gap_t=abs(roots.t_root - t_reference),
                std_error=roots.std_error, depth=int(depth),
                seeds=len(seed_list), h_sup=h_sup,
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
                "distortion": distortion,
            }
        except PressureLabError as exc:
            nan = float("nan")
            rows.append(StabilityRow(
                epsilon=float(eps), t_root=nan,
                t_reference=float(t_reference), gap_t=nan,
                std_error=nan, depth=int(depth), seeds=len(seed_list),
                h_sup=nan, equivariance=nan, equivariance_bound=nan,
                failure=str(exc)))
            certificates["per_epsilon"][float(eps)] = {"failure": str(exc)}
    return StabilityResult(rows=tuple(rows), t_reference=float(t_reference),
                           certificates=certificates)
