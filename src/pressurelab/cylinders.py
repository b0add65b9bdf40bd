"""Vectorized enumeration of cylinder representatives.

A depth n cylinder is an admissible word of n symbols.  One walker covers
deterministic maps and random fibers alike: it runs through a chain of
maps, one per word position, so the word w_0 ... w_{n-1} names a cylinder
of the composition f_{n-1} o ... o f_0.  A single map is the constant
chain.  The walker stores one representative point per word, level by
level, sharing suffixes: the representative of (a, w) is the inverse
branch of a, under the map acting at a's position, applied to the
representative of w.  The forward orbit of a representative climbs the
parent chain, so Birkhoff sums fold level by level and carry no forward
iteration error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadSpec, MatrixTooLarge

WORD_CAP = 1 << 20


@dataclass
class _Level:
    points: np.ndarray
    first: np.ndarray
    last: np.ndarray
    parent: np.ndarray
    blocks: tuple


def build_levels(maps, cap=WORD_CAP):
    """Level arrays for a chain of maps, one map per word position.

    ``maps[i]`` acts at position i, so level k (words of length k) seeds at
    the branch centers of ``maps[-1]`` and extends by the inverse branches
    of the map one position earlier.  All maps must share one transition
    matrix.
    """
    depth = len(maps)
    last = maps[-1]
    for mp in maps:
        if mp.adjacency != last.adjacency:
            raise BadSpec("maps in a chain must share the transition matrix")
    n_sym = last.n_symbols
    adj = np.array(last.adjacency, dtype=np.int64)
    levels = [
        _Level(points=np.array(last.centers, dtype=float),
               first=np.arange(n_sym, dtype=np.int32),
               last=np.arange(n_sym, dtype=np.int32),
               parent=np.full(n_sym, -1, dtype=np.int64),
               blocks=tuple((s, s, s + 1) for s in range(n_sym)))
    ]
    for k in range(1, depth):
        mp = maps[depth - 1 - k]
        prev = levels[-1]
        counts = np.bincount(prev.first, minlength=n_sym)
        total = int((adj @ counts).sum())
        if total > cap:
            raise MatrixTooLarge("level %d needs %d words, cap is %d"
                                 % (k + 1, total, cap))
        pts, first, lasts, parent, blocks = [], [], [], [], []
        start = 0
        for a in range(n_sym):
            idx = np.nonzero(adj[a, prev.first] == 1)[0]
            if idx.size == 0:
                continue
            pts.append(mp.branches[a].inv(prev.points[idx]))
            first.append(np.full(idx.size, a, dtype=np.int32))
            lasts.append(prev.last[idx])
            parent.append(idx.astype(np.int64))
            blocks.append((a, start, start + idx.size))
            start += idx.size
        levels.append(_Level(points=np.concatenate(pts),
                             first=np.concatenate(first),
                             last=np.concatenate(lasts),
                             parent=np.concatenate(parent),
                             blocks=tuple(blocks)))
    return levels


class CylinderSet:
    """All admissible words of a fixed depth with representative points.

    ``maps`` is either one map, acting at every position, or a sequence
    of ``depth`` maps, ``maps[i]`` acting at word position i.  Entries at
    every level are ordered lexicographically by word, so runs are
    reproducible and each level is grouped into contiguous blocks by
    leading symbol.
    """

    def __init__(self, maps, depth, cap=WORD_CAP):
        if depth < 1:
            raise BadSpec("cylinder depth must be positive")
        self.depth = int(depth)
        self.maps = (list(maps) if isinstance(maps, (list, tuple))
                     else [maps] * self.depth)
        if len(self.maps) != self.depth:
            raise BadSpec("a chain needs one map per word position")
        self.levels = build_levels(self.maps, cap)
        self._logd = None

    @property
    def leaves(self):
        return self.levels[-1]

    @property
    def leaf_count(self):
        return len(self.leaves.first)

    def word(self, index, length=None):
        """Reconstruct the word behind an entry of the deepest level."""
        length = self.depth if length is None else int(length)
        syms = []
        li = length - 1
        i = int(index)
        while li >= 0:
            lvl = self.levels[li]
            syms.append(int(lvl.first[i]))
            i = int(lvl.parent[i])
            li -= 1
        return tuple(syms)

    def orbit_points(self, index):
        """Exact forward orbit of a leaf representative (one point per step)."""
        pts = []
        li = self.depth - 1
        i = int(index)
        while li >= 0:
            lvl = self.levels[li]
            pts.append(lvl.points[i])
            i = int(lvl.parent[i])
            li -= 1
        return np.array(pts)

    def birkhoff(self, value_fn):
        """Birkhoff sums of a branchwise function along representative orbits.

        ``value_fn(mapping, symbol, points)`` must return one value per
        point; it is called on contiguous blocks sharing a leading symbol,
        with the map acting at that symbol's position, so every step reads
        the function of the right map.  Returns one array per level: entry
        k holds the depth k+1 sums for every word of that length, aligned
        with the level arrays.
        """
        sums = []
        for lvl, mp in zip(self.levels, reversed(self.maps)):
            vals = np.empty(len(lvl.first), dtype=float)
            for s, start, stop in lvl.blocks:
                vals[start:stop] = value_fn(mp, s, lvl.points[start:stop])
            if sums:
                vals = vals + sums[-1][lvl.parent]
            sums.append(vals)
        return sums

    def log_derivative_sums(self):
        """Birkhoff sums of log f' along representative orbits (1d only)."""
        if self.maps[0].dim != 1:
            raise BadSpec("pointwise log derivative needs a one dimensional map")
        if self._logd is None:
            self._logd = self.birkhoff(
                lambda mp, s, pts: np.log(mp.branches[s].deriv(pts)))
        return self._logd
