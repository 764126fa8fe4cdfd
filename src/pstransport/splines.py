"""B-spline bases with linear tail extrapolation and difference penalties.

One basis handles a single input dimension. Knots are placed at equal
spacings between the empirical 10% and 90% quantiles of the training
samples, padded by repeating the boundary knots ``degree`` times on each
side. Outside the real knot range the basis is extended affinely
(value plus slope at the nearest boundary knot), so any coefficient
expansion built on it is exactly linear in the tails.
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
    num_real_knots = max(num_real_knots, 2)
    return KnotVector(np.linspace(q10, q90, num_real_knots), degree)


class SplineBasis:
    """Evaluates all B-spline basis functions of one knot vector.

    Inside the real knot range values come from the Cox-de Boor recursion;
    outside, each basis function is continued affinely from the nearest
    boundary knot so that coefficient expansions have exactly linear tails.
    """

    def __init__(self, knots):
        self.knots = knots
        self.degree = knots.degree
        self.num_basis = knots.num_basis
        # boundary values/slopes used for the affine tails
        self._val_first = self._interior(np.array([knots.first]))[0]
        self._val_last = self._interior(np.array([knots.last]))[0]
        ends = self._increments(np.array([knots.first, knots.last]))
        self._slope_first, self._slope_last = ends[:, :-1] - ends[:, 1:]

    def _levels(self, x):
        """Cox-de Boor recursion; returns per-degree basis tables for interior x."""
        tp = self.knots.padded
        d = self.degree
        x = np.asarray(x, dtype=float)
        # degree-0 indicators on half-open intervals, closed at the last real knot
        B = ((x[:, None] >= tp[:-1]) & (x[:, None] < tp[1:])).astype(float)
        at_end = x >= self.knots.last
        if np.any(at_end):
            B[at_end] = 0.0
            last_span = np.max(np.nonzero(np.diff(tp) > 0)[0])
            B[at_end, last_span] = 1.0
        levels = [B]
        for k in range(1, d + 1):
            prev = levels[-1]
            n = prev.shape[1] - 1
            left_den = tp[k : k + n] - tp[:n]
            right_den = tp[k + 1 : k + 1 + n] - tp[1 : 1 + n]
            with np.errstate(divide="ignore", invalid="ignore"):
                left = np.where(
                    left_den > 0, (x[:, None] - tp[:n]) / left_den, 0.0
                )
                right = np.where(
                    right_den > 0, (tp[k + 1 : k + 1 + n] - x[:, None]) / right_den, 0.0
                )
            levels.append(left * prev[:, :n] + right * prev[:, 1 : n + 1])
        return levels

    def _interior(self, x):
        return self._levels(x)[-1]

    def _increments(self, x):
        """d / (t_{i+d} - t_i) * N_{i,d-1}(x) for i = 0..num_basis (0 on empty spans).

        Adjacent differences of these columns are the basis derivatives.
        """
        d = self.degree
        n = self.num_basis
        if d == 0:
            return np.zeros((len(x), n + 1))
        tp = self.knots.padded
        den = tp[d : d + n + 1] - tp[: n + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(den > 0, d / den, 0.0)
        return scale * self._levels(x)[d - 1]

    def eval(self, x):
        """Basis values at ``x`` (scalar or 1-d array) -> (..., num_basis)."""
        scalar = np.isscalar(x) or np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(np.isnan(x)):
            raise ValueError("NaN input to basis evaluation")
        out = np.empty((x.size, self.num_basis))
        lo = x < self.knots.first
        hi = x > self.knots.last
        mid = ~(lo | hi)
        if np.any(mid):
            out[mid] = self._interior(x[mid])
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
