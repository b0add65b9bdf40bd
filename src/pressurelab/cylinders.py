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

A chain position may instead hold a ``MapColumn``, one map per window, so
one walk covers several fiber windows.  All maps share the transition
matrix, so words, parents and blocks are those of one window; only the
points gain a leading window axis, and each step makes one inverse branch
call per distinct map and symbol.
"""

from typing import NamedTuple

import numpy as np

from .errors import BadSpec, MatrixTooLarge

WORD_CAP = 1 << 20
# cylinder depth of the unperturbed root every stability sweep compares to
REFERENCE_DEPTH = 12
# cylinder depth of the smallest fiber growth rate in every certificate
GROWTH_DEPTH = 8
# cylinder depth of the constant-letter distortion probes
DISTORTION_DEPTH = 10


class MapColumn:
    """The maps acting at one chain position, one per window.

    Windows reading the same map object share its inverse branch calls:
    ``groups`` pairs every distinct map with the index of its windows.
    """

    __slots__ = ("maps", "groups")

    def __init__(self, maps):
        self.maps = tuple(maps)
        if not self.maps:
            raise BadSpec("a map column needs at least one window")
        rows = {}
        for w, mp in enumerate(self.maps):
            rows.setdefault(id(mp), (mp, []))[1].append(w)
        if len(rows) == 1:
            self.groups = ((self.maps[0], (slice(None),)),)
        else:
            self.groups = tuple((mp, (np.array(r),))
                                for mp, r in rows.values())

    def __len__(self):
        return len(self.maps)

    def describe(self):
        """Canonical text form, stable across runs: the maps in order."""
        named = {id(mp): mp.describe() for mp, _ in self.groups}
        return "column[%s]" % ";".join(named[id(mp)] for mp in self.maps)


def _groups(position, windowed):
    """(map, window index) pairs of one chain position.

    The index is a prefix for point arrays: empty on a plain chain, whose
    points have no window axis, and all windows for a plain map inside a
    windowed chain.
    """
    if isinstance(position, MapColumn):
        return position.groups
    return ((position, (slice(None),) if windowed else ()),)


def _chain_windows(maps):
    """Window count of a chain: None when no position holds a column."""
    counts = {len(mp) for mp in maps if isinstance(mp, MapColumn)}
    if len(counts) > 1:
        raise BadSpec("map columns of a chain must have one map per window")
    return counts.pop() if counts else None


class _Level(NamedTuple):
    points: np.ndarray
    first: np.ndarray
    last: np.ndarray
    parent: np.ndarray
    blocks: tuple


def build_levels(maps):
    """Level arrays for a chain of maps, one map per word position.

    ``maps[i]`` acts at position i, so level k (words of length k) seeds at
    the branch centers of ``maps[-1]`` and extends by the inverse branches
    of the map one position earlier.  An entry may be a ``MapColumn``;
    the points of every level then have a leading axis with one row per
    window, and a level holds at most ``WORD_CAP`` points in all windows.
    All maps must share one transition matrix.
    """
    depth = len(maps)
    windows = _chain_windows(maps)
    windowed = windows is not None
    lead = (windows,) if windowed else ()
    groups = [_groups(mp, windowed) for mp in maps]
    last = groups[-1][0][0]
    for column in groups:
        for mp, _ in column:
            if mp.adjacency != last.adjacency:
                raise BadSpec("maps in a chain must share the transition "
                              "matrix")
    n_sym = last.n_symbols
    adj = np.array(last.adjacency, dtype=np.int64)
    seeds = np.empty(lead + np.shape(last.centers), dtype=float)
    for mp, rows in groups[-1]:
        seeds[rows] = mp.centers
    levels = [
        _Level(points=seeds,
               first=np.arange(n_sym, dtype=np.int32),
               last=np.arange(n_sym, dtype=np.int32),
               parent=np.full(n_sym, -1, dtype=np.int64),
               blocks=tuple((s, s, s + 1) for s in range(n_sym)))
    ]
    words = (slice(None),) * len(lead)
    for k in range(1, depth):
        column = groups[depth - 1 - k]
        prev = levels[-1]
        counts = np.bincount(prev.first, minlength=n_sym)
        total = int((adj @ counts).sum())
        if total * (windows or 1) > WORD_CAP:
            raise MatrixTooLarge("level %d needs %d words%s, cap is %d"
                                 % (k + 1, total, " x %d windows" % windows
                                    if windowed else "", WORD_CAP))
        pts = np.empty(lead + (total,) + prev.points.shape[len(lead) + 1:])
        first, lasts, parent, blocks = [], [], [], []
        start = 0
        for a in range(n_sym):
            # irreducible maps extend some word of every level by each symbol
            idx = np.nonzero(adj[a, prev.first] == 1)[0]
            stop = start + idx.size
            # a symbol following every word reads the level as it is
            taken = (prev.points if idx.size == len(prev.first)
                     else prev.points[words + (idx,)])
            for mp, rows in column:
                pts[rows + (slice(start, stop),)] = mp.branches[a].inv(
                    taken[rows])
            first.append(np.full(idx.size, a, dtype=np.int32))
            lasts.append(prev.last[idx])
            parent.append(idx.astype(np.int64))
            blocks.append((a, start, stop))
            start = stop
        levels.append(_Level(points=pts,
                             first=np.concatenate(first),
                             last=np.concatenate(lasts),
                             parent=np.concatenate(parent),
                             blocks=tuple(blocks)))
    return levels


class CylinderSet:
    """All admissible words of a fixed depth with representative points.

    ``maps`` is either one map, acting at every position, or a sequence
    of ``depth`` maps, ``maps[i]`` acting at word position i; entries may
    be ``MapColumn``s, and ``windows`` is then their window count (None
    for a chain of plain maps).  Entries at every level are ordered
    lexicographically by word, so runs are reproducible and each level is
    grouped into contiguous blocks by leading symbol.
    """

    def __init__(self, maps, depth):
        if depth < 1:
            raise BadSpec("cylinder depth must be positive")
        self.depth = int(depth)
        self.maps = (list(maps) if isinstance(maps, (list, tuple))
                     else [maps] * self.depth)
        if len(self.maps) != self.depth:
            raise BadSpec("a chain needs one map per word position")
        self.windows = _chain_windows(self.maps)
        self.levels = build_levels(self.maps)

    @property
    def leaves(self):
        return self.levels[-1]

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

    def birkhoff(self, value_fn):
        """Birkhoff sums of a branchwise function along representative orbits.

        ``value_fn(mapping, symbol, points)`` must return one value per
        point; it is called on contiguous blocks sharing a leading symbol,
        with the map acting at that symbol's position, so every step reads
        the function of the right map.  On a windowed chain it is called
        once per distinct map of a column, on the rows of that map's
        windows.  Returns one array per level: entry k holds the depth k+1
        sums for every word of that length, aligned with the level arrays.
        """
        windowed = self.windows is not None
        lead = (self.windows,) if windowed else ()
        sums = []
        for lvl, position in zip(self.levels, reversed(self.maps)):
            vals = np.empty(lead + (len(lvl.first),), dtype=float)
            for s, start, stop in lvl.blocks:
                for mp, rows in _groups(position, windowed):
                    at = rows + (slice(start, stop),)
                    vals[at] = value_fn(mp, s, lvl.points[at])
            if sums:
                vals = vals + sums[-1][..., lvl.parent]
            sums.append(vals)
        return sums

    def log_derivative_sums(self):
        """Birkhoff sums of log f' along representative orbits (1d only)."""
        if _groups(self.maps[0], False)[0][0].dim != 1:
            raise BadSpec("pointwise log derivative needs a one dimensional map")
        return self.birkhoff(
            lambda mp, s, pts: np.log(mp.branches[s].deriv(pts)))
