"""Collocated Ruelle transfer operators of random fiber maps.

The depth n fiber pressures of a window of letters are products of the
fiber Ruelle operators phi -> sum_b |f'(g_b)|^-t phi(g_b), held on
Chebyshev nodes over the hull of the base map.  ``random_bundle`` solves
its random Bowen roots on these products, so no fiber word is enumerated.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import BadSpec, NoConvergence

# node counts tried for random roots: 8, 16, ... up to this many
MAX_ROOT_NODES = 256
# tolerance of the random roots and of their node count check
ROOT_TOL = 1e-10
# operator steps between rescalings of a fiber product by its largest value
_RESCALE_STEPS = 16


def _require_full_shift(mapping):
    if any(v != 1 for row in mapping.adjacency for v in row):
        raise BadSpec("this check needs a full transition matrix")


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
    # the one place BLAS pays: the products below grow with depth x
    # windows x nodes^2, where the 2x2 and short sums elsewhere do not
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


def _root_operators(family, letters):
    """Fiber operators on the fewest nodes that resolve the pressures.

    Starting at 8, the node count doubles until P_n and its slope at t = 0
    and t = 1 agree with those on twice as many nodes to within
    ROOT_TOL / 10 for every window.  Past ``MAX_ROOT_NODES`` nodes the pressures count as
    unresolved and NoConvergence is raised.  Returns the operators and
    their ``fiber_pressures`` of all windows at t = 0 and t = 1.
    """
    def probe(nodes):
        ops = fiber_operators(family, nodes)
        return ops, {t: fiber_pressures(ops, letters, t) for t in (0.0, 1.0)}

    coarse, probes = probe(8)
    while True:
        fine, fine_probes = probe(2 * coarse.nodes)
        if all(np.abs(coarse_part - fine_part).max() <= 0.1 * ROOT_TOL
               for t in probes
               for coarse_part, fine_part in zip(probes[t], fine_probes[t])):
            return coarse, probes
        if fine.nodes > MAX_ROOT_NODES:
            raise NoConvergence("fiber pressures of %s are unresolved on %d "
                                "nodes" % (family.describe(), coarse.nodes))
        coarse, probes = fine, fine_probes
