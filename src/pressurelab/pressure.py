"""Pressure estimators over separated orbit sets.

Finite depth pressure is the normalized log of a weighted orbit count: sum
exp of the accumulated potential over one representative per cylinder.
Representatives of distinct cylinders of depth n form an (n, eps) separated
set for every eps below the map's separation threshold, and this canonical
family is the single systematic approximation used throughout, so no
scale is an input: estimates only report the default scale.
"""

import math
from typing import NamedTuple

import numpy as np

from .cylinders import CylinderSet
from .errors import BadSpec, MatrixTooLarge, NoConvergence, NotSemiConjugate

TRANSFER_CAP = 1 << 16
TRANSFER_TOL = 1e-10         # relative width the bracket must close to
TRANSFER_ITERATIONS = 500    # power steps allowed to close it
LIMIT_TOL = 1e-3             # step of raw or extrapolated pressure to stop at
LIMIT_DEPTH = 16             # deepest walk of ``pressure_limit``
EQUIVARIANCE_TOL = 1e-8      # largest defect a factor map may show
EQUIVARIANCE_SAMPLES = 2048  # most sample points the defect is measured on

_KINDS = ("additive", "singular_upper", "singular_lower")

# where ``TorusMap._torus_logs`` puts the log singular value of each kind
_TORUS_SIDE = {"singular_upper": 1, "singular_lower": 2}


def _torus_word_sum(mapping, potential, k):
    """Sum of a singular potential along each word of length k of a torus map."""
    return -potential.weight * mapping._torus_logs(k)[_TORUS_SIDE[potential.kind]]


def logsumexp(values):
    """Stable log of a sum of exponentials."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return -math.inf
    m = float(arr.max())
    if not math.isfinite(m):
        return m
    return m + float(np.log(np.exp(arr - m).sum()))


class Potential:
    """Weight model for pressure sums.

    kind "additive" carries a branchwise value function that is Birkhoff
    summed along orbits.  The singular kinds weight an orbit segment by the
    extreme singular values of the derivative product: "singular_upper"
    contributes -weight * log of the largest one (a subadditive family),
    "singular_lower" uses the smallest one (superadditive).  On interval
    maps the two coincide.
    """

    def __init__(self, kind, value_fn=None, weight=0.0, name=""):
        if kind not in _KINDS:
            raise BadSpec("unknown potential kind %r" % (kind,))
        if kind == "additive" and value_fn is None:
            raise BadSpec("additive potentials need a value function")
        self.kind = kind
        self.value_fn = value_fn
        self.weight = float(weight)
        self.name = name or kind
        # set by ``from_function``: the value function ignores the symbol
        self.symbol_free = False

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls):
        return cls.constant(0.0)

    @classmethod
    def constant(cls, c):
        c = float(c)
        return cls.from_function(lambda pts: np.full(len(np.atleast_1d(pts)), c),
                                 name="constant(%g)" % c)

    @classmethod
    def from_function(cls, func, name="function"):
        """Pointwise potential; func must be vectorized over point arrays."""

        def value_fn(mapping, symbol, pts):
            return np.asarray(func(pts), dtype=float)

        potential = cls("additive", value_fn, name=name)
        potential.symbol_free = True
        return potential

    @classmethod
    def geometric(cls, t):
        """-t log |f'|, the conformal dimension potential (1d maps)."""
        t = float(t)

        def value_fn(mapping, symbol, pts):
            if mapping.dim != 1:
                raise BadSpec("geometric potentials need an interval map; on "
                              "torus maps use singular_upper or singular_lower")
            return -t * np.log(mapping.branches[symbol].deriv(np.asarray(pts, dtype=float)))

        return cls("additive", value_fn, weight=t, name="geometric(%g)" % t)

    @classmethod
    def singular_upper(cls, t):
        return cls("singular_upper", weight=t, name="singular_upper(%g)" % float(t))

    @classmethod
    def singular_lower(cls, t):
        return cls("singular_lower", weight=t, name="singular_lower(%g)" % float(t))

    # -- evaluation -----------------------------------------------------

    def step_values(self, mapping, symbol, pts):
        """Single step values on one branch; the CylinderSet.birkhoff signature.

        The singular kinds fold pointwise as -weight * log f' on interval
        maps; on torus maps they have no pointwise form.
        """
        if self.kind == "additive":
            return self.value_fn(mapping, symbol, pts)
        if mapping.dim != 1:
            raise BadSpec("singular potentials fold pointwise only on interval maps")
        return -self.weight * np.log(mapping.branches[symbol].deriv(np.asarray(pts, dtype=float)))

    def pointwise(self, mapping, pts):
        """Single step values at arbitrary points of the map's domain.

        The points are read with ``mapping.symbol`` and each branch's value
        function is called once, on the points of that branch.
        """
        if self.kind != "additive":
            raise BadSpec("pointwise evaluation needs an additive potential")
        pts = np.asarray(pts, dtype=float)
        if self.symbol_free:
            return self.value_fn(mapping, None, pts)
        return _per_symbol(self.value_fn, mapping, mapping.symbol(pts), pts)


def _per_symbol(value_fn, mapping, syms, pts):
    """value_fn(mapping, s, points) at every row, one call per symbol s."""
    out = np.empty(len(syms))
    for s in range(mapping.n_symbols):
        at = syms == s
        if at.any():
            out[at] = value_fn(mapping, s, pts[at])
    return out


class PressureEstimate(NamedTuple):
    """Finite depth pressure value with its refinement history."""

    value: float
    depth: int
    separation: float
    per_depth: tuple
    extrapolated: float
    residual: float
    advisory: str = ""


class SeparatedSet(NamedTuple):
    points: np.ndarray
    epsilon: float
    depth: int

    @property
    def count(self):
        return len(self.points)


def separated_set(mapping, depth):
    """Representatives of all depth n cylinders, one per word.

    Any two of them are (depth, eps) separated for the reported eps: the
    orbits of two representatives disagreeing last at position i either end
    on two distinct branch centers or pass through two different inverse
    branches applied to one common point.
    """
    eps = mapping.resolve_epsilon()
    cyl = CylinderSet(mapping, depth)
    return SeparatedSet(points=cyl.leaves.points.copy(), epsilon=eps, depth=depth)


def _pressure_at(mapping, potential, depths, walk=None):
    """P_k for each k of the ascending ``depths``, from one walk.

    ``walk`` is a CylinderSet of the map at depth ``depths[-1]`` to read
    instead of walking again.  Singular potentials on linear torus maps
    weigh every word of length k alike, so P_k is then a closed form in the
    word count.
    """
    if potential.kind != "additive" and mapping.dim == 2:
        log_n = math.log(mapping.n_symbols)
        return [(k * log_n + _torus_word_sum(mapping, potential, k)) / k
                for k in depths]
    if walk is None:
        walk = CylinderSet(mapping, depths[-1])
    elif walk.depth != depths[-1]:
        raise BadSpec("walk of depth %d cannot give pressure at depth %d"
                      % (walk.depth, depths[-1]))
    sums = walk.birkhoff(potential.step_values)
    return [logsumexp(sums[k - 1]) / k for k in depths]


def pressure_additive(mapping, potential, depth, walk=None):
    """Finite depth pressure over the canonical separated set.

    Singular potentials give the final depth value of
    ``pressure_subadditive``.  ``walk`` may pass a CylinderSet of the map
    at this depth, so several potentials read one walk.
    """
    return _pressure_at(mapping, potential, [depth], walk)[0]


def pressure_limit(mapping, potential):
    """Depth refined pressure with Richardson extrapolation.

    Depth doubles up to ``LIMIT_DEPTH`` until either the raw increment or
    the change of the extrapolated value drops to ``LIMIT_TOL`` (else
    NoConvergence).  The leading finite depth error is of order 1/depth,
    so 2 P(2n) - P(n) cancels it.
    """
    eps = mapping.resolve_epsilon()
    history, extraps = [], []
    depth = 2
    prev = None
    while depth <= LIMIT_DEPTH:
        value = pressure_additive(mapping, potential, depth)
        history.append((depth, value))
        if prev is not None:
            extraps.append(2.0 * value - prev)
            raw_step = abs(value - prev)
            extrap_step = (abs(extraps[-1] - extraps[-2])
                           if len(extraps) >= 2 else math.inf)
            if raw_step <= LIMIT_TOL or extrap_step <= LIMIT_TOL:
                return PressureEstimate(
                    value=extraps[-1], depth=depth, separation=eps,
                    per_depth=tuple(history), extrapolated=extraps[-1],
                    residual=min(raw_step, extrap_step))
        prev = value
        depth *= 2
    # LIMIT_DEPTH walks depths 2 .. 16, so two extrapolants exist
    partial = PressureEstimate(
        value=extraps[-1], depth=history[-1][0], separation=eps,
        per_depth=tuple(history), extrapolated=extraps[-1],
        residual=abs(extraps[-1] - extraps[-2]),
        advisory="depth limit reached before tolerance")
    raise NoConvergence("pressure did not settle within depth %d"
                        % LIMIT_DEPTH, estimate=partial)


def pressure_subadditive(mapping, potential, depth=8):
    """Pressure of a singular value potential at doubling depths.

    The weight of a word is the extreme singular value of the derivative
    product along its representative orbit; on interval maps this folds
    exactly, on linear torus maps it is a closed form.  One walk gives the
    powers of two up to n, m = n // 2 and n.  The extrapolant
    (n P(n) - m P(m)) / (n - m) cancels the order 1/n error; the residual
    is |P(n) - P(m)|.
    """
    if potential.kind == "additive":
        raise BadSpec("use pressure_additive for additive potentials")
    if depth < 1:
        raise BadSpec("pressure depth must be positive")
    eps = mapping.resolve_epsilon()
    half = depth // 2
    depths = sorted({depth, half} - {0}
                    | {1 << k for k in range(int(depth).bit_length())})
    history = tuple((k, float(p))
                    for k, p in zip(depths, _pressure_at(mapping, potential, depths)))
    value = history[-1][1]
    advisory = ""
    if mapping.dim == 2:
        _, log_hi, log_lo = mapping._torus_logs(1)
        if log_hi - log_lo > 1e-6:
            advisory = ("singular spectrum is split; upper and lower "
                        "pressures bound the limit from two sides")
    extrap = residual = math.nan
    if half:
        prev = dict(history)[half]
        extrap = (depth * value - half * prev) / (depth - half)
        residual = abs(value - prev)
    return PressureEstimate(value=value, depth=depth, separation=eps,
                            per_depth=history, extrapolated=extrap,
                            residual=residual, advisory=advisory)


def iterated_singular_pressure(mapping, t, k, budget=16, kind="upper"):
    """Pressure of the k-step singular potential, normalized per base step.

    Words of the k-fold composition with inner length budget/k are exactly
    the base words of length budget, and on interval maps the k-step log
    derivative telescopes, so the value is k-invariant there by the chain
    rule.  On linear torus maps the k-step weight uses the largest
    (``kind="upper"``) or smallest (``kind="lower"``) singular value of
    the k-th matrix power; on interval maps the two kinds coincide.
    """
    t = float(t)
    k = int(k)
    if kind not in ("upper", "lower"):
        raise BadSpec("singular pressure kind must be 'upper' or 'lower', "
                      "got %r" % (kind,))
    if k < 1:
        raise BadSpec("iteration order must be positive")
    if budget % k != 0:
        raise BadSpec("budget %d is not divisible by k=%d" % (budget, k))
    n_inner = budget // k
    if n_inner < 1:
        raise BadSpec("budget too small for k=%d" % k)
    if mapping.dim == 1:
        cyl = CylinderSet(mapping, budget)
        sums = cyl.log_derivative_sums()
        return logsumexp(-t * sums[-1]) / budget
    log_sigma = mapping._torus_logs(k)[_TORUS_SIDE["singular_" + kind]]
    return mapping._torus_logs(budget)[0] / budget - (t / k) * log_sigma


def transfer_pressure(mapping, potential, block_length):
    """Pressure from the spectral radius of the block weighted transfer matrix.

    States are admissible words of the block length; a word v may follow u
    when the transition from the last symbol of u to the first symbol of v
    is allowed, and the weight of u is exp of its accumulated potential.
    Power iteration with Collatz-Wielandt brackets gives the spectral
    radius to ``TRANSFER_TOL`` within ``TRANSFER_ITERATIONS`` steps (else
    NoConvergence); paths of this graph biject with admissible words, so
    on full shifts the value is exact at every block length.
    """
    if mapping.count_words(block_length, cap=TRANSFER_CAP) > TRANSFER_CAP:
        raise MatrixTooLarge("block transfer of length %d needs more states "
                             "than the cap of %d" % (block_length, TRANSFER_CAP))
    cyl = CylinderSet(mapping, block_length)
    leaves = cyl.leaves
    if potential.kind != "additive" and mapping.dim == 2:
        s_vals = np.full(len(leaves.first),
                         _torus_word_sum(mapping, potential, block_length))
    else:
        s_vals = cyl.birkhoff(potential.step_values)[-1]
    shift = float(s_vals.max())
    weights = np.exp(s_vals - shift)
    adj = mapping.adjacency_matrix
    n_sym = mapping.n_symbols
    first = leaves.first
    last = leaves.last
    x = np.ones(len(weights))
    lam_lo = lam_hi = math.nan
    for _ in range(TRANSFER_ITERATIONS):
        by_first = np.bincount(first, weights=x, minlength=n_sym)
        reachable = (adj * by_first).sum(axis=1)
        y = weights * reachable[last]
        ratio = y / x
        lam_lo = float(ratio.min())
        lam_hi = float(ratio.max())
        if lam_hi - lam_lo <= TRANSFER_TOL * max(1.0, abs(lam_hi)):
            return (math.log(0.5 * (lam_lo + lam_hi)) + shift) / block_length
        x = y / y.sum()
    estimate = (math.log(0.5 * (lam_lo + lam_hi)) + shift) / block_length
    raise NoConvergence("transfer spectral radius bracket [%g, %g] did not close"
                        % (lam_lo, lam_hi), estimate=estimate)


def variational_gaps(mapping, potential, words, depth=12):
    """Pressure minus the orbit average of the potential on closed words.

    One array entry per word of ``words``.  The orbit measure of a periodic
    point has zero entropy contribution here, so every gap must be
    nonnegative up to the finite depth error of the pressure term.  The
    pressure is one walk at ``depth`` shared by all words; each word's
    orbit is one ``periodic_orbit`` solve, and the potential is evaluated
    once per symbol on the orbit points of every word.  Singular
    potentials on the torus weigh a cycle by the singular values of the
    derivative power, a closed form in the period.
    """
    from .lyapunov import _check_closable, periodic_orbit

    words = [_check_closable(mapping, word) for word in words]
    if potential.kind == "additive" or mapping.dim == 1:
        syms = np.concatenate([np.array(word, dtype=np.intp)
                               for word in words])
        pts = np.concatenate([periodic_orbit(mapping, word)
                              for word in words])
        values = _per_symbol(potential.step_values, mapping, syms, pts)
        lengths = np.array([len(word) for word in words])
        averages = np.add.reduceat(values, np.cumsum(lengths) - lengths) \
            / lengths
    else:
        averages = np.array([_torus_word_sum(mapping, potential, len(word))
                             / len(word) for word in words])
    return pressure_additive(mapping, potential, depth) - averages


def variational_gap(mapping, potential, word, depth=12):
    """The variational gap of one closed word; see ``variational_gaps``."""
    return float(variational_gaps(mapping, potential, [word], depth)[0])


class ConjugacyReport(NamedTuple):
    """Pressure comparison across a factor map."""

    pressure_target: float
    pressure_pulled: float
    slack: float
    residual: float


def conjugate_pressure_check(map_src, map_dst, phi, potential, depth=10):
    """Compare pressure of a potential with its pullback across a factor map.

    ``phi`` must intertwine the two maps: phi(f_src x) = f_dst(phi x) on the
    source repeller.  It is called on whole point arrays (a stack of
    floats on the interval, of rows on the torus), as
    ``Potential.from_function`` requires of its function.  The
    equivariance defect is measured at once on the canonical depth sample,
    thinned to ``EQUIVARIANCE_SAMPLES`` evenly spaced points; beyond
    ``EQUIVARIANCE_TOL`` the check refuses.  For a genuine factor map the
    pulled back pressure dominates the target pressure, with equality under
    a bijective change of coordinates.  The pulled back pressure reads the
    sample's walk.
    """
    if potential.kind != "additive":
        raise BadSpec("conjugacy comparison is defined for additive potentials")
    cyl = CylinderSet(map_src, depth)
    pts = cyl.leaves.points
    if len(pts) > EQUIVARIANCE_SAMPLES:
        idx = np.linspace(0, len(pts) - 1, EQUIVARIANCE_SAMPLES).astype(int)
        pts = pts[idx]
    left = phi(map_src.apply(pts))
    right = map_dst.apply(phi(pts))
    residual = float(np.max(map_dst.distance(left, right), initial=0.0))
    if not residual <= EQUIVARIANCE_TOL:
        raise NotSemiConjugate("equivariance defect %.3g exceeds tolerance "
                               "%.3g" % (residual, EQUIVARIANCE_TOL))

    pulled = Potential.from_function(
        lambda pts_arr: potential.pointwise(map_dst, phi(pts_arr)),
        name="pullback(%s)" % potential.name)
    p_target = pressure_additive(map_dst, potential, depth)
    p_pulled = pressure_additive(map_src, pulled, depth, walk=cyl)
    return ConjugacyReport(pressure_target=p_target,
                           pressure_pulled=p_pulled,
                           slack=p_pulled - p_target,
                           residual=residual)
