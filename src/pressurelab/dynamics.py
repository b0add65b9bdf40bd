"""Expanding Markov maps on the interval, their orbits and the map registry.

Maps are presented branchwise.  Each branch carries its domain, the forward
formula, an increasing inverse, and derivative bounds.  The map object
validates the combinatorial data once at construction time, so downstream
modules can rely on uniform expansion, Markov alignment of branch images,
and irreducibility of the transition matrix without rechecking.  Torus
maps subclass ``ExpandingMap`` in ``torus``, which only their factories
here import.
"""

import math
import operator
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (BadSpec, EscapedRepeller, InadmissibleWord, NonExpanding,
                     NonMarkov, SingularMatrix)

_ALIGN_TOL = 1e-9

GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0


class Branch1D:
    """One increasing branch of a piecewise expanding interval map.

    ``fwd``, ``inv`` and ``deriv`` must accept floats or numpy arrays.
    ``tag`` is a tuple of strings describing the construction; it feeds
    ``ExpandingMap.describe``, and its first entry is ``"custom"`` for
    branches built from arbitrary callables.
    """

    __slots__ = ("lo", "hi", "fwd", "inv", "deriv", "min_slope", "max_slope",
                 "log_deriv_lipschitz", "tag")

    def __init__(self, lo, hi, fwd, inv, deriv, min_slope, max_slope,
                 log_deriv_lipschitz=0.0, tag=("custom",)):
        lo = float(lo)
        hi = float(hi)
        if not hi > lo:
            raise BadSpec("branch domain [%r, %r] is empty" % (lo, hi))
        if not float(min_slope) > 0.0:
            raise BadSpec("branches must be increasing, got slope %r" % (min_slope,))
        if not float(max_slope) >= float(min_slope):
            raise BadSpec("max slope %r is below min slope %r"
                          % (max_slope, min_slope))
        self.lo = lo
        self.hi = hi
        self.fwd = fwd
        self.inv = inv
        self.deriv = deriv
        self.min_slope = float(min_slope)
        self.max_slope = float(max_slope)
        self.log_deriv_lipschitz = float(log_deriv_lipschitz)
        self.tag = tuple(tag)

    @property
    def center(self):
        return 0.5 * (self.lo + self.hi)

    @property
    def image(self):
        return (float(self.fwd(self.lo)), float(self.fwd(self.hi)))


def _integer(value, what):
    """value as an int; a float must be integral, so 3.0 passes and 3.5 fails."""
    if (not isinstance(value, (int, np.integer))
            and not float(value).is_integer()):
        raise BadSpec("%s must be an integer, got %r" % (what, value))
    return int(value)


def affine_branch(lo, hi, image_lo, image_hi):
    """Affine increasing branch mapping [lo, hi] onto [image_lo, image_hi]."""
    lo = float(lo)
    hi = float(hi)
    image_lo = float(image_lo)
    image_hi = float(image_hi)
    if not hi > lo or not image_hi > image_lo:
        raise BadSpec("degenerate affine branch [%g, %g] -> [%g, %g]"
                      % (lo, hi, image_lo, image_hi))
    slope = (image_hi - image_lo) / (hi - lo)

    def fwd(x):
        return image_lo + slope * (x - lo)

    def inv(y):
        return lo + (y - image_lo) / slope

    def deriv(x):
        return slope + 0.0 * np.asarray(x, dtype=float)

    tag = ("affine", repr(lo), repr(hi), repr(image_lo), repr(image_hi))
    return Branch1D(lo, hi, fwd, inv, deriv, slope, slope, 0.0, tag)


def circle_branch(degree, amplitude, index):
    """Branch ``index`` of the lift x -> degree*x + amplitude*sin(2 pi x).

    Domain endpoints and the inverse are found by Newton iteration from the
    affine initial guess, which is exact when the amplitude vanishes.
    """
    degree = _integer(degree, "covering degree")
    amplitude = float(amplitude)
    index = _integer(index, "branch index")
    two_pi = 2.0 * math.pi
    floor_slope = degree - two_pi * abs(amplitude)
    if floor_slope <= 0.0:
        raise BadSpec("lift is not monotone: degree %d, amplitude %g"
                      % (degree, amplitude))

    def lift(x):
        return degree * x + amplitude * np.sin(two_pi * x)

    def dlift(x):
        return degree + amplitude * two_pi * np.cos(two_pi * x)

    def solve(target):
        x = target / degree
        for _ in range(64):
            r = degree * x + amplitude * math.sin(two_pi * x) - target
            if abs(r) < 1e-13:
                break
            x -= r / (degree + amplitude * two_pi * math.cos(two_pi * x))
        return x

    lo = solve(float(index))
    hi = solve(float(index + 1))

    def fwd(x):
        return lift(x) - index

    def inv(y):
        arr = np.asarray(y, dtype=float)
        if arr.size == 0:
            return arr + 0.0
        x = (arr + index) / degree
        for _ in range(64):
            r = lift(x) - (arr + index)
            x = x - r / dlift(x)
            # the step from a residual this small is exact to rounding
            if np.max(np.abs(r)) < 1e-13:
                break
        x = np.clip(x, lo, hi)
        return float(x) if np.ndim(y) == 0 else x

    tag = ("circle", str(degree), repr(amplitude), str(index))
    return Branch1D(lo, hi, fwd, inv, dlift,
                    min_slope=floor_slope,
                    max_slope=degree + two_pi * abs(amplitude),
                    log_deriv_lipschitz=(two_pi ** 2) * abs(amplitude) / floor_slope,
                    tag=tag)


def _det2(m):
    (a, b), (c, d) = m.tolist()
    return a * d - b * c


def _inv2(m):
    """Inverse of a 2x2 matrix, adj(m) / det(m)."""
    (a, b), (c, d) = m.tolist()
    return np.array([[d, -b], [-c, a]]) / (a * d - b * c)


def _sv2(m):
    """(sigma_max, sigma_min) of a 2x2 matrix."""
    (a, b), (c, d) = m.tolist()
    hi = 0.5 * (math.hypot(a + d, b - c) + math.hypot(a - d, b + c))
    return hi, abs(a * d - b * c) / hi


def _apply2(m, x):
    """A 2x2 matrix m applied to a point x, or to every row of a stack x.

    x @ m.T in closed form: a numpy call of this size cannot pay for BLAS,
    whose first call pages its kernels into the process.  The product
    a @ b of two 2x2 matrices is _apply2(a, b.T).T.
    """
    (a, b), (c, d) = m.tolist()
    if x.ndim == 1:
        p, q = x.tolist()
        return np.array([a * p + b * q, c * p + d * q])
    p, q = x[..., 0], x[..., 1]
    out = np.empty(x.shape)
    out[..., 0] = a * p + b * q
    out[..., 1] = c * p + d * q
    return out


class Branch2D:
    """One affine cell of a linear expanding torus endomorphism.

    The cell with integer ``offset`` k is the preimage of the unit square
    shifted by k, and its inverse branch is y -> A^(-1) (y + k).  The
    determinant, the inverse adj(A)/det A and the singular values come
    from 2x2 closed forms: sigma_max is (|(a+d, b-c)| + |(a-d, b+c)|)/2
    and sigma_min is |det A|/sigma_max.
    """

    __slots__ = ("matrix", "offset", "inv_matrix", "min_slope", "max_slope",
                 "log_deriv_lipschitz", "tag")

    def __init__(self, matrix, offset):
        self.matrix = np.array(matrix, dtype=float).reshape(2, 2)
        self.offset = np.array(offset, dtype=float).reshape(2)
        if abs(_det2(self.matrix)) < 1e-12:
            raise SingularMatrix("cell matrix is singular")
        self.inv_matrix = _inv2(self.matrix)
        self.max_slope, self.min_slope = _sv2(self.matrix)
        self.log_deriv_lipschitz = 0.0
        self.tag = ("cell",) + tuple(repr(float(v)) for v in self.matrix.ravel()) \
            + tuple(repr(float(v)) for v in self.offset)

    @property
    def center(self):
        return _apply2(self.inv_matrix, self.offset + 0.5)

    def inv(self, y):
        y = np.asarray(y, dtype=float)
        return _apply2(self.inv_matrix, y + self.offset)


class CocycleProduct(NamedTuple):
    """Logarithms of the extreme singular values of a derivative product."""

    log_norm: float
    log_conorm: float
    steps: int


def _int_product(a, b, top):
    """Product of two matrices of Python ints given as tuples of rows, with
    every entry clipped to ``top``."""
    cols = tuple(zip(*b))
    return tuple(tuple(min(sum(x * y for x, y in zip(row, col)), top)
                       for col in cols) for row in a)


class ExpandingMap:
    """Piecewise expanding Markov map of the interval with explicit inverse
    branches; ``torus.TorusMap`` is the torus subclass."""

    dim = 1
    _BRANCH = Branch1D

    def __init__(self, branches, adjacency=None, name="custom"):
        branches = list(branches)
        if not branches:
            raise BadSpec("a map needs at least one branch")
        if not all(isinstance(br, self._BRANCH) for br in branches):
            raise BadSpec("%s takes %s branches only: Branch1D branches build "
                          "an ExpandingMap and Branch2D cells a TorusMap"
                          % (type(self).__name__, self._BRANCH.__name__))
        self.branches = branches
        self.name = str(name)
        n = len(branches)
        if adjacency is None:
            adjacency = tuple(tuple(1 for _ in range(n)) for _ in range(n))
        adj = tuple(tuple(int(v) for v in row) for row in adjacency)
        if len(adj) != n or any(len(row) != n for row in adj):
            raise BadSpec("transition matrix must be %d x %d" % (n, n))
        if any(v not in (0, 1) for row in adj for v in row):
            raise BadSpec("transition matrix entries must be 0 or 1")
        self.adjacency = adj
        self._validate_expansion()
        self._validate_layout()
        self._validate_irreducible()

    def _validate_expansion(self):
        worst = min(br.min_slope for br in self.branches)
        if not worst > 1.0:
            raise NonExpanding("minimal expansion %.6g is not greater than 1" % worst)

    def _validate_layout(self):
        """Disjoint branch domains whose images are Markov aligned."""
        n = self.n_symbols
        order = sorted(range(n), key=lambda i: self.branches[i].lo)
        for i, j in zip(order, order[1:]):
            if self.branches[j].lo < self.branches[i].hi - _ALIGN_TOL:
                raise BadSpec("branch domains %d and %d overlap" % (i, j))
        for a, br in enumerate(self.branches):
            img_lo, img_hi = br.image
            for c, dom in enumerate(self.branches):
                if self.adjacency[a][c]:
                    if dom.lo < img_lo - _ALIGN_TOL or dom.hi > img_hi + _ALIGN_TOL:
                        raise NonMarkov(
                            "image of branch %d does not cover domain %d" % (a, c))
                else:
                    overlap = min(dom.hi, img_hi) - max(dom.lo, img_lo)
                    if overlap > _ALIGN_TOL:
                        raise NonMarkov(
                            "image of branch %d enters forbidden domain %d" % (a, c))

    def _validate_irreducible(self):
        reach = np.array(self.adjacency, dtype=bool)
        for _ in range(max(1, int(math.ceil(math.log2(max(2, len(reach))))) + 1)):
            reach = reach | ((reach.astype(np.int64) @ reach.astype(np.int64)) > 0)
        if not reach.all():
            raise NonMarkov("transition matrix is not irreducible")

    # -- basic data ---------------------------------------------------

    @property
    def n_symbols(self):
        return len(self.branches)

    @cached_property
    def adjacency_matrix(self):
        return np.array(self.adjacency, dtype=float)

    @cached_property
    def min_expansion(self):
        return min(br.min_slope for br in self.branches)

    @cached_property
    def max_expansion(self):
        return max(br.max_slope for br in self.branches)

    @cached_property
    def log_deriv_lipschitz(self):
        return max(br.log_deriv_lipschitz for br in self.branches)

    @cached_property
    def hull(self):
        return (min(br.lo for br in self.branches),
                max(br.hi for br in self.branches))

    @cached_property
    def diam(self):
        lo, hi = self.hull
        return hi - lo

    @cached_property
    def centers(self):
        return np.array([br.center for br in self.branches])

    @cached_property
    def domain_gaps(self):
        """Positive gaps between consecutive branch domains."""
        doms = sorted((br.lo, br.hi) for br in self.branches)
        gaps = []
        for (_, prev_hi), (next_lo, _) in zip(doms, doms[1:]):
            g = next_lo - prev_hi
            if g > _ALIGN_TOL:
                gaps.append(g)
        return tuple(gaps)

    # interval branches share no derivative matrix; torus cells do
    constant_derivative = None

    @cached_property
    def separation_threshold(self):
        """Largest scale below which distinct cylinder points stay apart.

        Representatives of two different words of equal length disagree last
        at some position i.  If i is the final position the orbits reach two
        distinct branch centers; otherwise they reach two different inverse
        branches applied to one common point of a shared successor domain.
        The threshold is the smallest displacement either case can produce.
        """
        best = math.inf
        n = self.n_symbols
        for a in range(n):
            for b in range(a + 1, n):
                best = min(best, abs(self.branches[a].center - self.branches[b].center))
                for c in range(n):
                    if self.adjacency[a][c] and self.adjacency[b][c]:
                        grid = np.linspace(self.branches[c].lo, self.branches[c].hi, 65)
                        disp = np.abs(self.branches[a].inv(grid) - self.branches[b].inv(grid))
                        best = min(best, float(np.min(disp)))
        return best

    def resolve_epsilon(self):
        """Separation scale reported with a pressure estimate.

        It is half the smaller of the separation threshold and the
        diameter; cylinder representatives are separated at every scale
        below the threshold, so the scale never changes an estimate.
        """
        scale = min(self.separation_threshold, self.diam)
        return 0.5 * scale if math.isfinite(scale) else 0.5 * self.diam

    # -- pointwise dynamics -------------------------------------------

    def _rows(self, x):
        """(points as a stack of rows, whether x was a single point)."""
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == self.dim - 1
        return pts.reshape((-1,) if self.dim == 1 else (-1, 2)), single

    def symbol(self, x):
        """Index of the branch domain containing x.

        x is one point or a stack of rows; a stack gives one symbol per
        row.  The first branch in index order whose closed domain holds
        the point wins, then the first within ``_ALIGN_TOL`` of it.
        Raises EscapedRepeller for the first row that lies in no domain.
        """
        rows, single = self._rows(x)
        syms = np.full(len(rows), -1, dtype=np.intp)
        for tol in (0.0, _ALIGN_TOL):
            free = syms < 0
            if not free.any():
                break
            for s in reversed(range(self.n_symbols)):
                br = self.branches[s]
                syms[free & (br.lo - tol <= rows)
                     & (rows <= br.hi + tol)] = s
        escaped = np.nonzero(syms < 0)[0]
        if escaped.size:
            raise EscapedRepeller("point %r lies in no branch domain"
                                  % float(rows[escaped[0]]))
        return int(syms[0]) if single else syms

    def apply(self, x, symbol=None):
        """One forward step of a point or of a stack of rows.

        ``symbol`` names the branch of every row (one symbol or one per
        row); by default it is read with ``symbol``, which raises
        EscapedRepeller off the branch domains.
        """
        rows, single = self._rows(x)
        syms = self.symbol(rows) if symbol is None else symbol
        syms = np.broadcast_to(np.asarray(syms, dtype=np.intp), len(rows))
        out = np.empty_like(rows)
        for s, br in enumerate(self.branches):
            at = syms == s
            if at.any():
                out[at] = br.fwd(rows[at])
        return float(out[0]) if single else out

    def distance(self, x, y):
        """Interval distance of points or of stacks of rows."""
        d = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
        return float(d) if d.ndim == 0 else d

    def check_word(self, word):
        """Validate a symbol word against the transition matrix."""
        try:
            word = tuple(operator.index(s) for s in word)
        except TypeError:
            raise InadmissibleWord("word symbols must be integers: %r" % (word,))
        if not word:
            raise InadmissibleWord("empty word")
        n = self.n_symbols
        for s in word:
            if not 0 <= s < n:
                raise InadmissibleWord("symbol %d out of range" % s)
        for a, b in zip(word, word[1:]):
            if not self.adjacency[a][b]:
                raise InadmissibleWord("forbidden transition %d -> %d" % (a, b))
        return word

    def count_words(self, length, cap=None):
        """Number of admissible words of the given length, an exact int.

        The row of ones times the 0/1 adjacency to the power length - 1 in
        Python integers, so no count rounds or overflows.  Short words take
        a row product (n^2 for n symbols) per letter, long ones square the
        adjacency (n^3).  With ``cap``, every step clips at cap + 1, entries
        being nonnegative, so a cap check keeps small ints at any length.
        A capped count first takes row products and stops once the row sum
        reaches cap + 1: every row of an irreducible adjacency holds a 1, so
        the count never falls as words grow, and a deep cap check costs
        about log(cap) row products instead of log(length) squarings.
        """
        if length < 1:
            raise BadSpec("word length must be positive")
        top = math.inf if cap is None else cap + 1
        row = (1,) * self.n_symbols
        power = self.adjacency
        steps = length - 1
        if cap is not None:
            # at most as many row products as the squarings below would cost
            for _ in range(min(steps, self.n_symbols * top.bit_length())):
                if sum(row) >= top:
                    return top
                row = _int_product((row,), power, top)[0]
                steps -= 1
        # square while that costs less than a row product per step left
        while steps > self.n_symbols * steps.bit_length():
            if steps & 1:
                row = _int_product((row,), power, top)[0]
            steps >>= 1
            power = _int_product(power, power, top)
        for _ in range(steps):
            row = _int_product((row,), power, top)[0]
        return min(sum(row), top)

    def describe(self):
        """Canonical text form, stable across runs."""
        rows = ";".join("".join(str(v) for v in row) for row in self.adjacency)
        tags = "|".join(",".join(br.tag) for br in self.branches)
        return "map:%s|dim=%d|%s|adj=%s" % (self.name, self.dim, tags, rows)


def orbit(mapping, x, length):
    """Forward orbit (x, f x, ..., f^(length-1) x) and its symbol string."""
    if length < 1:
        raise BadSpec("orbit length must be positive")
    pts = []
    syms = []
    cur = float(x) if mapping.dim == 1 else np.asarray(x, dtype=float)
    for i in range(length):
        try:
            s = mapping.symbol(cur)
        except EscapedRepeller:
            raise EscapedRepeller("orbit left the branch domains at step %d" % i)
        pts.append(cur)
        syms.append(s)
        cur = mapping.apply(cur, symbol=s)
    return np.array(pts), tuple(syms)


def cocycle(mapping, x, length):
    """Extreme singular values of the derivative of f^length at x.

    On the torus every step has derivative A, so the product is A^length
    at any point of the repeller; ``TorusMap._torus_logs`` gives it
    without overflow once the start point is found in a cell.
    """
    if mapping.dim == 2:
        mapping.symbol(np.asarray(x, dtype=float))
        _, log_hi, log_lo = mapping._torus_logs(length)
        return CocycleProduct(log_hi, log_lo, length)
    pts, syms = orbit(mapping, x, length)
    total = 0.0
    for p, s in zip(pts, syms):
        slope = float(mapping.branches[s].deriv(float(p)))
        if not slope > 0.0:
            raise SingularMatrix("vanishing derivative along orbit")
        total += math.log(slope)
    return CocycleProduct(total, total, length)


# -- named families ----------------------------------------------------


def doubling_map():
    """Full two branch doubling map x -> 2x mod 1 with exact dyadic branches."""
    b0 = affine_branch(0.0, 0.5, 0.0, 1.0)
    b1 = affine_branch(0.5, 1.0, 0.0, 1.0)
    return ExpandingMap([b0, b1], name="doubling")


def cookie_cutter(r1=3.0, r2=3.0):
    """Two affine full branches with slopes r1 and r2 and a middle gap."""
    r1 = float(r1)
    r2 = float(r2)
    if min(r1, r2) <= 1.0:
        raise NonExpanding("cookie cutter slopes must exceed 1, got %g and %g"
                           % (r1, r2))
    if 1.0 / r1 + 1.0 / r2 > 1.0 + _ALIGN_TOL:
        raise BadSpec("branch domains overlap: 1/%g + 1/%g > 1" % (r1, r2))
    b0 = affine_branch(0.0, 1.0 / r1, 0.0, 1.0)
    b1 = affine_branch(1.0 - 1.0 / r2, 1.0, 0.0, 1.0)
    return ExpandingMap([b0, b1], name="cookie_cutter")


def circle_map(degree=3, amplitude=0.0):
    """Full branch covering map of the circle from a sinusoidal lift."""
    degree = _integer(degree, "covering degree")
    if degree < 2:
        raise BadSpec("covering degree must be at least 2")
    branches = [circle_branch(degree, amplitude, k) for k in range(degree)]
    return ExpandingMap(branches, name="circle")


def toral_map(a=2, b=2):
    """Diagonal expanding torus endomorphism with matrix diag(a, b)."""
    from .torus import TorusMap

    a = _integer(a, "diagonal entry")
    b = _integer(b, "diagonal entry")
    if min(a, b) < 2:
        raise BadSpec("diagonal entries must be at least 2")
    mat = np.array([[float(a), 0.0], [0.0, float(b)]])
    branches = [Branch2D(mat, (i, j)) for i in range(a) for j in range(b)]
    return TorusMap(branches, name="toral")


def toral_conformal_map(scale=3):
    """Conformal torus endomorphism: quarter turn times an integer scale."""
    from .torus import TorusMap

    s = _integer(scale, "conformal scale")
    if s < 2:
        raise BadSpec("conformal scale must be at least 2")
    mat = np.array([[0.0, -float(s)], [float(s), 0.0]])
    branches = [Branch2D(mat, (k1, k2)) for k1 in range(-s, 0) for k2 in range(s)]
    return TorusMap(branches, name="toral_conformal")


def linear_markov(domains, images):
    """Affine Markov map from explicit domain and image intervals.

    The transition matrix is derived from geometry: symbol b may follow
    symbol a exactly when the image of branch a contains the domain of
    branch b.  Misaligned images fail validation.
    """
    domains = [tuple(float(v) for v in d) for d in domains]
    images = [tuple(float(v) for v in d) for d in images]
    if not domains or len(domains) != len(images):
        raise BadSpec("need one image interval per domain interval")
    branches = [affine_branch(d[0], d[1], im[0], im[1])
                for d, im in zip(domains, images)]
    adj = tuple(
        tuple(1 if (dom[0] >= im[0] - _ALIGN_TOL and dom[1] <= im[1] + _ALIGN_TOL)
              else 0
              for dom in domains)
        for im in images)
    return ExpandingMap(branches, adj, name="linear_markov")


def golden_mean_map():
    """Two branch Markov map whose itineraries avoid the block (1, 1)."""
    a = GOLDEN_MEAN
    m = linear_markov(((0.0, a), (a, 1.0)), ((0.0, 1.0), (0.0, a)))
    m.name = "golden_mean"
    return m


# Named families and their aliases; config map specs look names up here.
_FAMILIES = {
    "doubling": doubling_map,
    "cookie_cutter": cookie_cutter,
    "cookie": cookie_cutter,
    "circle": circle_map,
    "circle_map": circle_map,
    "toral": toral_map,
    "toral_map": toral_map,
    "toral_conformal": toral_conformal_map,
    "linear_markov": linear_markov,
    "golden_mean": golden_mean_map,
    "golden": golden_mean_map,
}


def build_markov_map(kind, **params):
    """Build a named map family; raises BadSpec for unknown kinds.

    Not exported (``config.build_map`` is the entry point); it stays while
    ``perfbench/tracer.py`` wraps it by name.
    """
    try:
        factory = _FAMILIES[str(kind)]
    except KeyError:
        raise BadSpec("unknown map kind %r; known kinds: %s"
                      % (kind, ", ".join(sorted(_FAMILIES))))
    try:
        return factory(**params)
    except TypeError as exc:
        raise BadSpec("bad parameters for map kind %r: %s" % (kind, exc))
