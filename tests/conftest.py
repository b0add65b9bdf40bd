"""Shared fixtures and independent oracles for the test suite.

Every expected value used in a tolerance check is produced here with the
standard library and raw numpy only, so nothing under test can leak into
its own oracle.  Bisections run 200 halvings, far past double precision.
"""

import itertools
import math

import pytest


def moran_root(slopes, hi=2.0):
    """Zero of sum(s**-t) - 1 by plain bisection."""
    slopes = [float(s) for s in slopes]

    def g(t):
        return sum(s ** (-t) for s in slopes) - 1.0

    lo = 0.0
    assert g(lo) > 0.0 > g(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def spectral_radius(matrix):
    """Perron root of a primitive nonnegative matrix by power iteration.

    The Collatz-Wielandt quotients (M v)_i / v_i bracket the root at every
    step, so the iteration stops once their extremes meet.
    """
    n = len(matrix)
    v = [1.0] * n
    for _ in range(10000):
        w = [sum(matrix[i][j] * v[j] for j in range(n)) for i in range(n)]
        ratios = [w[i] / v[i] for i in range(n)]
        if max(ratios) - min(ratios) <= 1e-15 * max(ratios):
            return max(ratios)
        top = max(w)
        v = [x / top for x in w]
    raise AssertionError("power iteration did not settle")


def markov_root(domains, images):
    """Zero of log rho(M(t)) for an affine Markov interval map.

    Branch i stretches domains[i] onto images[i] with slope s_i, and
    symbol j may follow i when images[i] covers domains[j].  The pressure
    of -t log |f'| is log rho(M(t)) with M_ij(t) = s_i^-t on every allowed
    transition and 0 elsewhere; its zero is found by bisection.
    """
    slopes = [(ih - il) / (dh - dl)
              for (dl, dh), (il, ih) in zip(domains, images)]
    allowed = [[il <= dl and dh <= ih for dl, dh in domains]
               for il, ih in images]

    def pressure(t):
        return math.log(spectral_radius(
            [[s ** (-t) if ok else 0.0 for ok in row]
             for s, row in zip(slopes, allowed)]))

    lo, hi = 0.0, 1.0
    assert pressure(lo) > 0.0 > pressure(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if pressure(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def admissible_count(adj, length):
    """Number of admissible words via exact integer matrix powers."""
    n = len(adj)
    if length < 1:
        raise ValueError("length must be positive")
    power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(length - 1):
        power = [[sum(power[i][k] * adj[k][j] for k in range(n))
                  for j in range(n)] for i in range(n)]
    return sum(power[i][j] for i in range(n) for j in range(n))


def expectation_root(eps, slopes=(3.0, 3.0), coeffs=(-1.0, 1.0)):
    """Root of the letter-averaged pressure of a random cookie family.

    Each letter scales every branch slope by (1 + eps * a); by independence
    the quenched pressure at parameter t is the plain average over letters
    of log sum_i s_i(letter)**-t, and its zero is the expected dimension.
    """
    def mean_p(t):
        total = 0.0
        for a in coeffs:
            total += math.log(sum((s * (1.0 + eps * a)) ** (-t)
                                  for s in slopes))
        return total / len(coeffs)

    lo, hi = 0.0, 1.0
    assert mean_p(lo) > 0.0
    if mean_p(hi) >= 0.0:
        return 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_p(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def affine_fiber_pressure(slopes, scales, t):
    """Depth n fiber pressure P_n(t) and slope P_n'(t) of affine fibers.

    Position k scales every branch slope s_i by scales[k], and n is
    len(scales).  Derivatives are constant along each branch, so the fiber
    sum over words is the product over positions of sum_i x_ik**-t with
    x_ik = s_i * scales[k]: P_n(t) is the mean over positions of its
    logarithm, and P_n'(t) the mean of minus the average of log x_ik under
    the weights x_ik**-t.
    """
    values, derivatives = [], []
    for scale in scales:
        logs = [math.log(s * scale) for s in slopes]
        weights = [math.exp(-t * x) for x in logs]
        total = math.fsum(weights)
        values.append(math.log(total))
        derivatives.append(-math.fsum(w * x for w, x in zip(weights, logs))
                           / total)
    return (math.fsum(values) / len(scales),
            math.fsum(derivatives) / len(scales))


def primitive_cycles(adj, period_cap):
    """All primitive admissible cycles up to rotation, as tuples."""
    n = len(adj)
    out = []
    for p in range(1, period_cap + 1):
        for w in itertools.product(range(n), repeat=p):
            if any(not adj[w[i]][w[(i + 1) % p]] for i in range(p)):
                continue
            if min(w[i:] + w[:i] for i in range(p)) != w:
                continue
            if any(p % d == 0 and w == w[:d] * (p // d)
                   for d in range(1, p)):
                continue
            out.append(w)
    return out


GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

COOKIE_PARAMS = ((3.0, 3.0), (2.0, 4.0), (2.5, 3.5))


def cookie_branches(r1, r2):
    """(domain, image) intervals of the two affine cookie cutter branches."""
    return [((0.0, 1.0 / r1), (0.0, 1.0)),
            ((1.0 - 1.0 / r2, 1.0), (0.0, 1.0))]


def golden_branches():
    """(domain, image) intervals of the golden mean map's two branches."""
    a = (math.sqrt(5.0) - 1.0) / 2.0
    return [((0.0, a), (0.0, 1.0)), ((a, 1.0), (0.0, a))]


def affine_cycle(branches, word):
    """Periodic orbit of an affine Markov map, rotation by rotation.

    Every inverse branch is y -> lo + (y - image_lo) * scale, so the
    composite inverse of a rotation is an affine map x -> a x + b and its
    fixed point is b / (1 - a).
    """
    p = len(word)
    out = []
    for j in range(p):
        a, b = 1.0, 0.0
        for s in reversed(word[j:] + word[:j]):
            (lo, hi), (img_lo, img_hi) = branches[s]
            scale = (hi - lo) / (img_hi - img_lo)
            a, b = scale * a, lo + (b - img_lo) * scale
        out.append(b / (1.0 - a))
    return out


def circle_inverse(degree, amplitude, index, y):
    """Inverse of branch ``index`` of x -> degree x + amplitude sin(2 pi x).

    Newton's method from the affine guess until the step vanishes at
    double precision.
    """
    two_pi = 2.0 * math.pi
    target = y + index
    x = target / degree
    for _ in range(100):
        step = ((degree * x + amplitude * math.sin(two_pi * x) - target)
                / (degree + amplitude * two_pi * math.cos(two_pi * x)))
        x -= step
        if abs(step) <= 1e-17:
            break
    return x


def circle_cycle(degree, amplitude, word):
    """Periodic orbit of the circle map, rotation by rotation.

    The fixed point of the composite inverse is iterated until it stops
    moving (2000 passes at most); one more pull back from it gives every
    rotation.
    """
    def pull(x):
        pts = [0.0] * len(word)
        for j in range(len(word) - 1, -1, -1):
            x = circle_inverse(degree, amplitude, word[j], x)
            pts[j] = x
        return pts

    x = 0.5
    for _ in range(2000):
        z = pull(x)[0]
        if z == x:
            break
        x = z
    return pull(x)


def torus_cycle_exponents(matrix):
    """Exponents of every cycle of a diagonal or quarter-turn torus map.

    All cells share the matrix A, so a cycle of period p has derivative
    A^p.  For diag(a, b) its eigenvalues are a^p and b^p; for the quarter
    turn [[0, -s], [s, 0]] both have modulus s^p.  Per step the exponents
    do not depend on p.
    """
    (a, b), (c, d) = matrix
    if b == 0.0 and c == 0.0:
        return (math.log(max(abs(a), abs(d))), math.log(min(abs(a), abs(d))))
    assert a == d == 0.0 and c == -b
    return (math.log(abs(c)),) * 2


def toral_dimension(a, b):
    """(lower root, upper root) of the torus map diag(a, b), clamped to 2.

    Its ab cells form a full shift and every word of length k has
    derivative diag(a, b)^k, with extreme singular values max(a, b)^k
    and min(a, b)^k.  So the lower pressure k log(ab) - t k log max(a, b)
    vanishes at log(ab) / log max(a, b), at most 2, and the upper root
    log(ab) / log min(a, b) is at least 2 and clamps to the ambient 2.
    """
    return math.log(a * b) / math.log(max(a, b)), 2.0


def branch_symbol(domains, x, tol):
    """First branch whose closed domain holds x, then first within tol."""
    for pad in (0.0, tol):
        for s, (lo, hi) in enumerate(domains):
            if lo - pad <= x <= hi + pad:
                return s
    return None


@pytest.fixture(scope="session")
def markov_example():
    """Domain and image intervals of a two branch affine Markov map.

    Branch 0 doubles [0, 1/4] onto [0, 1/2]; branch 1 quadruples
    [3/8, 1/2] onto [0, 1/2].  Both images cover both domains, so the
    shift is full and the invariant set is an affine copy (half scale)
    of the cookie cutter with slopes 2 and 4.
    """
    return ((0.0, 0.25), (0.375, 0.5)), ((0.0, 0.5), (0.0, 0.5))
