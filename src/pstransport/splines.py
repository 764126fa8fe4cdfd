"""B-spline bases with linear tail extrapolation and difference penalties.

One basis handles a single input dimension. Knots are placed at equal
spacings between the empirical 10% and 90% quantiles of the training
samples, padded by repeating the boundary knots ``degree`` times on each
side. Outside the real knot range the basis is extended affinely
(value plus slope at the nearest boundary knot), so any coefficient
expansion built on it is exactly linear in the tails.

Inside the range, bases are evaluated locally (de Boor 1972, "On
calculating with B-splines"): a sample finds its knot span by binary
search and only the degree+1 basis functions that are nonzero there are
computed, then scattered into the dense tables the callers read. Spans
are half-open, [t_s, t_{s+1}), except that the last real knot belongs to
the last nonempty span. Each nonzero entry is formed from the same two
products, summed in the same order, as in the full-width recursion over
every basis function, so the tables are identical to it bit for bit.

``PiecewisePolynomial`` holds a fitted expansion ``eval(x) @ coef`` in
piecewise polynomial form for repeated reading.
"""

import logging
import math

import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "DegenerateDimensionError",
    "KnotVector",
    "SplineBasis",
    "PenaltyMatrix",
    "PiecewisePolynomial",
    "make_knots",
    "make_penalty",
]


class DegenerateDimensionError(ValueError):
    """Raised when a dimension is (numerically) constant and cannot carry knots."""


class KnotVector:
    """Ascending real knots plus repeated boundary padding.

    Parameters
    ----------
    real_knots : array_like
        Strictly ascending positions of the real knots, at least degree+2
        of them.
    degree : int
        Spline degree; each boundary knot is repeated ``degree`` extra times.
    """

    def __init__(self, real_knots, degree=3):
        real_knots = np.asarray(real_knots, dtype=float)
        if real_knots.ndim != 1 or real_knots.size < 2:
            raise ValueError(f"need at least 2 real knots, got {real_knots.size}")
        if not np.all(np.diff(real_knots) > 0):
            raise ValueError("real knots must be strictly ascending")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.real = real_knots
        self.degree = degree
        self.padded = np.concatenate(
            [np.full(degree, real_knots[0]), real_knots, np.full(degree, real_knots[-1])]
        )

    @property
    def first(self):
        return self.real[0]

    @property
    def last(self):
        return self.real[-1]

    @property
    def num_basis(self):
        # padded length - degree - 1
        return self.padded.size - self.degree - 1

    def __repr__(self):
        return f"KnotVector(K={self.real.size}, degree={self.degree})"


def make_knots(samples, degree=3, num_real_knots=None):
    """Build a knot vector from training samples.

    The number of real knots defaults to ``ceil(n_unique^(1/3)) + 2``,
    equally spaced between the empirical 10% and 90% quantiles. The two
    extra knots keep linear extrapolation in the tails stable.

    Parameters
    ----------
    samples : array_like
        Finite training values for this dimension.
    degree : int
        Spline degree (default cubic).
    num_real_knots : int, optional
        Explicit real-knot count, overriding the cube-root rule.

    Returns
    -------
    KnotVector

    Raises
    ------
    DegenerateDimensionError
        If the samples are constant or the 10%/90% quantiles coincide.
    ValueError
        If there are fewer than 8 finite samples or ``num_real_knots`` is below 2.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 8 or not np.all(np.isfinite(x)):
        raise ValueError("need at least 8 finite samples")
    uniq = np.unique(x)
    if uniq.size < 2:
        raise DegenerateDimensionError("all samples are equal")
    q10, q90 = np.quantile(x, [0.10, 0.90])
    if q90 <= q10:
        raise DegenerateDimensionError("10% and 90% quantiles coincide")
    if num_real_knots is None:
        n_unique = uniq.size
        if n_unique < 8:
            num_real_knots = max(4, n_unique - 1)
            logger.warning(
                "only %d unique samples; falling back to %d real knots",
                n_unique,
                num_real_knots,
            )
        else:
            # guard against cube roots like 27**(1/3) = 3.0000000000000004
            num_real_knots = math.ceil(n_unique ** (1.0 / 3.0) - 1e-9) + 2
    if num_real_knots < 2:
        raise ValueError(f"need at least 2 real knots, got {num_real_knots}")
    return KnotVector(np.linspace(q10, q90, num_real_knots), degree)


class SplineBasis:
    """Evaluates all B-spline basis functions of one knot vector.

    Inside the real knot range a sample x in the span [t_s, t_{s+1}) has
    k+1 nonzero functions of each degree k, N_{s-k,k} .. N_{s,k}; only
    those are computed, by de Boor's local recursion, and the dense
    tables the methods return are zero elsewhere. Outside the range each
    basis function is continued affinely from the nearest boundary knot
    so that coefficient expansions have exactly linear tails.
    """

    def __init__(self, knots):
        self.knots = knots
        self.degree = knots.degree
        self.num_basis = knots.num_basis
        # with clamped padding the last nonempty span is [t_{K+d-2}, t_{K+d-1}];
        # x at the last real knot belongs to it
        self._last_span = self.num_basis - 1
        # offsets of the knot window t_{s-d+1} .. t_{s+d} of a sample in span s
        self._window = np.arange(1 - self.degree, self.degree + 1)
        # boundary values/slopes used for the affine tails
        self._val_first = self._interior(np.array([knots.first]))[0]
        self._val_last = self._interior(np.array([knots.last]))[0]
        ends = self._increments(np.array([knots.first, knots.last]))
        self._slope_first, self._slope_last = ends[:, :-1] - ends[:, 1:]

    def _local(self, x, level):
        """Nonzero basis functions of degree ``level`` at interior x.

        Returns the span s of each sample, its knot window t (row c holds
        t_{s-d+1+c}) and the (level+1, n) values N_{s-level+m,level},
        m = 0..level. At degree k the left term of N_{s-k+m,k} and the
        right term of N_{s-k+m-1,k} share the denominator
        t_{s+m} - t_{s-k+m}, which is at least t_{s+1} - t_s > 0.
        """
        d = self.degree
        s = np.minimum(np.searchsorted(self.knots.padded, x, "right") - 1,
                       self._last_span)
        t = self.knots.padded[self._window[:, None] + s]
        # both differences are kept: x - t and t - x differ in the sign of a zero
        xt = x - t
        tx = t - x
        N = np.ones((1, x.size))
        for k in range(1, level + 1):
            den = t[d : d + k] - t[d - k : d]
            left = xt[d - k : d] / den * N
            right = tx[d : d + k] / den * N
            nxt = np.empty((k + 1, x.size))
            nxt[0] = right[0]
            np.add(left[:-1], right[1:], out=nxt[1:k])
            nxt[k] = left[-1]
            N = nxt
        return s, t, N

    @staticmethod
    def _scatter(first, values, width):
        """Dense (n, width) table with ``values[m, r]`` in row r, column first[r] + m."""
        n = values.shape[1]
        out = np.zeros(n * width)
        flat = np.arange(0, n * width, width) + first
        for m, row in enumerate(values):
            out[flat + m] = row
        return out.reshape(n, width)

    def _interior(self, x):
        s, _, N = self._local(x, self.degree)
        return self._scatter(s - self.degree, N, self.num_basis)

    def _increments(self, x):
        """d / (t_{i+d} - t_i) * N_{i,d-1}(x) for i = 0..num_basis (0 on empty spans).

        Adjacent differences of these columns are the basis derivatives.
        """
        d = self.degree
        if d == 0:
            return np.zeros((len(x), self.num_basis + 1))
        s, t, N = self._local(x, d - 1)
        scale = d / (t[d:] - t[:d])
        return self._scatter(s - d + 1, scale * N, self.num_basis + 1)

    def eval(self, x):
        """Basis values at ``x`` (scalar or 1-d array) -> (..., num_basis)."""
        scalar = np.isscalar(x) or np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(np.isnan(x)):
            raise ValueError("NaN input to basis evaluation")
        out = self._interior(np.clip(x, self.knots.first, self.knots.last))
        lo = x < self.knots.first
        hi = x > self.knots.last
        if np.any(lo):
            out[lo] = self._val_first + (x[lo, None] - self.knots.first) * self._slope_first
        if np.any(hi):
            out[hi] = self._val_last + (x[hi, None] - self.knots.last) * self._slope_last
        return out[0] if scalar else out

    def _clamped_increments(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(np.isnan(x)):
            raise ValueError("NaN input to basis evaluation")
        return self._increments(np.clip(x, self.knots.first, self.knots.last))

    def eval_deriv(self, x):
        """Basis derivatives at ``x``; constant in the affine tails."""
        W = self._clamped_increments(x)
        out = W[:, :-1] - W[:, 1:]
        return out[0] if np.ndim(x) == 0 else out

    def eval_deriv_increments(self, x):
        """Derivative in increment form at ``x`` -> (..., num_basis).

        Column i is ``d / (t_{i+d} - t_i) * N_{i,d-1}(x)``, constant in the
        affine tails, so ``eval_deriv_increments(x) @ raw`` is the derivative
        of the expansion with coefficients ``cumsum(raw)`` (the boundary
        knots are clamped, so column 0 and the dropped last column vanish).
        Every entry is >= 0: with nonnegative increments the sum is exactly
        >= 0, and exactly 0 where the increments around x are zero.
        """
        out = self._clamped_increments(x)[:, :-1]
        return out[0] if np.ndim(x) == 0 else out

    def greville(self):
        """Greville abscissae; using them as coefficients reproduces f(x)=x."""
        tp = self.knots.padded
        d = self.degree
        if d == 0:
            return 0.5 * (tp[:-1] + tp[1:])
        return np.array([tp[i + 1 : i + d + 1].mean() for i in range(self.num_basis)])


class PiecewisePolynomial:
    """The expansion ``basis.eval(x) @ coef`` in per-span power form.

    Converted once (de Boor, *A Practical Guide to Splines*, ch. VII), it
    is read by a binary search and Horner steps on n-vectors instead of
    an n x num_basis table.

    Span i of the real knots, [t_i, t_{i+1}) with width h_i, holds a
    polynomial in u = (x - t_i) / h_i: its constant term is the B-form
    value at t_i, and the others integrate the slope polynomial, which
    interpolates the derivative of the B-form at the degree midpoints
    (j + 1/2) / degree of the span. Interpolating the slope rather than
    the value keeps the slope accurate relative to its own size on a short
    span whose value is large. Each affine tail is one more piece, with
    u = x - t_edge, the B-form's boundary value and its slope in increment
    form (exactly 0 where the two end coefficients are equal). Spans
    are half-open like the basis's; x at or beyond the last real knot is
    on the right tail, whose value there is the B-form's.

    Parameters
    ----------
    basis : SplineBasis
    coef : array_like
        One coefficient per basis function.
    """

    def __init__(self, basis, coef):
        coef = np.asarray(coef, dtype=float)
        d = basis.degree
        real = basis.knots.real
        h = np.diff(real)
        inv_h = 1.0 / h
        # slopes in increment form, sum_j W_j(x) (c_j - c_{j-1}): a tail slope is
        # one such product, exactly 0 when its two coefficients are equal
        increments = np.diff(coef, prepend=0.0)
        self.ends = (real[0], real[-1])
        self.end_values = (basis._val_first @ coef, basis._val_last @ coef)
        self.end_slopes = tuple(basis.eval_deriv_increments(np.array(self.ends))
                                @ increments)
        # piece e serves searchsorted(real, x, "right") == e: 0 is the left
        # tail, 1..K-1 the spans, K the right tail
        self._breaks = real
        self._origin = np.concatenate([real[:1], real])
        self._inv_h = np.concatenate([[1.0], inv_h, [1.0]])
        self._value = np.zeros((d + 1, real.size + 1))
        self._value[0] = np.concatenate([[self.end_values[0]],
                                         basis.eval(real[:-1]) @ coef,
                                         [self.end_values[1]]])
        # degree 0: one zero row, so the slope is 0 without a branch
        self._slope = np.zeros((max(d, 1), real.size + 1))
        if d == 0:
            return
        at = real[:-1] + (np.arange(d)[:, None] + 0.5) / d * h
        # interpolate at the local coordinates __call__ computes for these
        # nodes, not at the nominal ones: on a short span far from 0 the
        # rounding of t_i + u*h is a large error in u
        u = ((at - real[:-1]) * inv_h).T
        slopes = (basis.eval_deriv_increments(at.ravel()) @ increments).reshape(d, h.size).T
        power = np.linalg.solve(u[:, :, None] ** np.arange(d), slopes[:, :, None])
        self._slope[:, 1:-1] = power[:, :, 0].T
        self._slope[0, [0, -1]] = self.end_slopes
        self._value[1:] = self._slope / np.arange(1, d + 1)[:, None] / self._inv_h

    def __call__(self, x, slope=False):
        """Value at the 1-d array ``x``, and the slope too if ``slope``.

        No finiteness check: a NaN in x gives NaN, so callers check their input.
        """
        e = np.searchsorted(self._breaks, x, "right")
        u = (x - self._origin.take(e)) * self._inv_h.take(e)
        value = _horner(self._value, e, u)
        if not slope:
            return value
        return value, _horner(self._slope, e, u)


def _horner(table, e, u):
    """sum_k table[k, e] * u**k, by Horner's rule."""
    out = table[-1].take(e)
    for row in table[-2::-1]:
        out *= u
        out += row.take(e)
    return out


class PenaltyMatrix:
    """Difference operator ``D`` and its Gram matrix ``D^T D``.

    ``D`` takes order-th differences of a coefficient vector; its Gram is
    positive semidefinite with a null space of polynomial coefficient
    sequences of degree < order (dimension = order).
    """

    def __init__(self, num_basis, order=2):
        if order < 1 or num_basis <= order:
            raise ValueError(f"need num_basis > order >= 1, got {num_basis}, {order}")
        self.order = order
        D = np.eye(num_basis)
        for _ in range(order):
            D = np.diff(D, axis=0)
        self.matrix = D
        self.gram = D.T @ D


def make_penalty(num_basis, order=2):
    """Difference penalty of the given order for ``num_basis`` coefficients."""
    return PenaltyMatrix(num_basis, order)
