"""Linear expanding endomorphisms of the torus.

A torus map is |det A| affine cells that share one derivative matrix A,
so every word of length k has derivative A^k and the singular value
pressures and dimension brackets of the map are closed forms in the word
count.  These maps are the non-conformal side of the package: their two
singular value pressures bracket the dimension.  ``dynamics.toral_map``
and ``dynamics.toral_conformal_map`` build them, and a run on interval
maps never imports this module.
"""

import math
from functools import cached_property

import numpy as np

from .dynamics import (_ALIGN_TOL, Branch2D, ExpandingMap, _apply2, _det2,
                       _sv2)
from .errors import BadSpec, EscapedRepeller, NonMarkov

# cell lookup: a row on a cell edge lies in the cells on both sides;
# nudged up first, then down on one axis, the other, and both
_EDGE_NUDGES = 1e-9 * np.array([[1, 1], [-1, 1], [1, -1], [-1, -1]])


class TorusMap(ExpandingMap):
    """Linear expanding torus endomorphism presented by its cells.

    The cells share one derivative matrix A, have distinct integer
    offsets, tile the unit square and form a full shift.  Points are rows
    (x, y); the metric is the flat torus distance.
    """

    dim = 2
    _BRANCH = Branch2D
    hull = (0.0, 1.0)
    diam = math.sqrt(0.5)
    domain_gaps = ()

    def _validate_layout(self):
        first = self.branches[0].matrix
        for br in self.branches[1:]:
            if not np.allclose(br.matrix, first, atol=1e-12):
                raise BadSpec("torus cells must share one derivative matrix")
        count = int(round(abs(_det2(first))))
        if count != self.n_symbols:
            raise BadSpec("expected %d cells for this matrix, got %d"
                          % (count, self.n_symbols))
        if not all(float(v).is_integer() for v in self._offsets.ravel()):
            raise BadSpec("torus cell offsets must be integers")
        offsets = {tuple(int(v) for v in br.offset) for br in self.branches}
        if len(offsets) != self.n_symbols:
            raise BadSpec("duplicate cell offsets")
        # |det A| cells with distinct offsets tile the unit square exactly
        # when every cell A^(-1)([0,1]^2 + k) lies inside it
        corners = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        pulled = _apply2(self.branches[0].inv_matrix,
                         self._offsets[:, None] + corners)
        if not np.all((pulled >= -_ALIGN_TOL) & (pulled <= 1.0 + _ALIGN_TOL)):
            raise BadSpec("torus cells do not tile the unit square")
        if any(v != 1 for row in self.adjacency for v in row):
            raise NonMarkov("torus cells require the full transition matrix")

    @cached_property
    def constant_derivative(self):
        """Shared derivative matrix of the cells."""
        return self.branches[0].matrix.copy()

    @cached_property
    def _offsets(self):
        return np.array([br.offset for br in self.branches])

    @cached_property
    def _offset_index(self):
        """Cell lookup: the least offset and a table of symbols by offset.

        Entry k - least of the table is the symbol of the cell with integer
        offset k, and -1 where no cell has that offset.
        """
        keys = self._offsets.astype(np.int64)
        least = keys.min(axis=0)
        table = np.full(tuple(keys.max(axis=0) - least + 1), -1, dtype=np.intp)
        table[tuple((keys - least).T)] = np.arange(self.n_symbols)
        return least, table

    @cached_property
    def separation_threshold(self):
        """Smallest torus distance between the inverse images of one point.

        Two cells a and b send a common point to points A^(-1)(k_a - k_b)
        apart modulo the integer lattice, whatever the point.
        """
        best = math.inf
        n = self.n_symbols
        inv = self.branches[0].inv_matrix
        for a in range(n):
            for b in range(a + 1, n):
                dk = self.branches[a].offset - self.branches[b].offset
                v = _apply2(inv, dk)
                v = v - np.round(v)
                best = min(best, float(np.hypot(v[0], v[1])))
        return best

    def symbol(self, x):
        """Index of the cell containing x (a pair, or a stack of rows).

        A row on a cell edge takes the first cell found by the
        ``_EDGE_NUDGES`` lookups.  Raises EscapedRepeller for the first row
        that lies in no cell.
        """
        rows, single = self._rows(x)
        least, table = self._offset_index
        images = _apply2(self.branches[0].matrix, rows)
        syms = np.full(len(rows), -1, dtype=np.intp)
        for nudge in _EDGE_NUDGES:
            free = np.nonzero(syms < 0)[0]
            if not free.size:
                break
            keys = np.floor(images[free] + nudge).astype(np.int64) - least
            inside = np.all((keys >= 0) & (keys < table.shape), axis=1)
            syms[free[inside]] = table[keys[inside, 0], keys[inside, 1]]
        escaped = np.nonzero(syms < 0)[0]
        if escaped.size:
            raise EscapedRepeller("point %r lies in no cell" % (
                tuple(float(v) for v in rows[escaped[0]]),))
        return int(syms[0]) if single else syms

    def apply(self, x, symbol=None):
        rows, single = self._rows(x)
        syms = self.symbol(rows) if symbol is None else symbol
        syms = np.broadcast_to(np.asarray(syms, dtype=np.intp), len(rows))
        # the cells share one derivative matrix
        out = _apply2(self.branches[0].matrix, rows) - self._offsets[syms]
        np.clip(out, 0.0, 1.0, out=out)
        return out[0] if single else out

    def distance(self, x, y):
        """Flat torus distance of points or of stacks of rows."""
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        d = d - np.round(d)
        d = np.hypot(d[..., 0], d[..., 1])
        return float(d) if d.ndim == 0 else d

    def _torus_logs(self, k):
        """(log N_k, log sigma_max(A^k), log sigma_min(A^k)).

        The cells form a full shift on n symbols, so the N_k = n^k words of
        length k all have derivative A^k.  Repeated squaring forms A^k
        rescaled by powers of two, their exponents summed as integers, so
        no depth overflows; sigma_min follows from
        sigma_max sigma_min = |det A|^k.
        """
        if k < 1:
            raise BadSpec("torus closed forms need k >= 1")
        a = self.constant_derivative
        power, exponent = np.eye(2), 0
        for bit in bin(k)[2:]:
            power, exponent = _apply2(power, power.T).T, 2 * exponent
            if bit == "1":
                power = _apply2(a, power.T).T
            shift = int(np.frexp(np.abs(power).max())[1])
            power, exponent = np.ldexp(power, -shift), exponent + shift
        log_hi = exponent * math.log(2.0) + math.log(_sv2(power)[0])
        log_det = math.log(abs(_det2(a)))
        return k * math.log(self.n_symbols), log_hi, k * log_det - log_hi
