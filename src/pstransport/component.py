"""One triangular map component: additive spline terms over parents plus a
monotone spline term in its own variable.

The monotone term stores raw parameters ``(level, increments...)``; the
actual spline coefficients are their cumulative sum, so nonnegative
increments guarantee a non-decreasing function. Inversion in the last
argument exploits the exactly affine tails of the basis to bracket the
root analytically.

Evaluators. A component converts its monotone term and each parent term
once, when it is built, into ``PiecewisePolynomial`` form. That is the one
evaluator of the fitted function: ``eval_many`` and ``parent_term_many``
read it, and ``invert_many`` takes the value and slope from it in each
Newton iteration, its tail brackets from its boundary values and slopes,
and its final residual check from it, so the inverse is checked against
the function ``eval_many`` evaluates. ``ddx`` keeps the increment form
``eval_deriv_increments(x) @ beta_mon_raw``: a sum of nonnegative terms is
exactly >= 0, and exactly 0 where the increments around x are zero, which
``log_pullback_density`` relies on to tell a flat stretch (log density
-inf) from a steep one; the rounding of a power form cannot promise that.
The basis tables stay for the design matrices of the fit.
"""

import numpy as np

from .splines import PiecewisePolynomial

__all__ = ["MapComponent", "NotInvertibleError"]

INVERT_TOL = 1e-10      # inversion residual tolerance, relative to max(1, |target|)
INVERT_MAX_ITER = 200   # safeguarded Newton iterations per inversion


class NotInvertibleError(RuntimeError):
    """A target lies where the monotone term is flat, or the solve missed it."""


def _require_finite(values, what):
    """ValueError naming the first member (row) with a non-finite entry."""
    bad = ~np.isfinite(values)
    if bad.any():
        member = int(np.flatnonzero(bad.reshape(bad.shape[0], -1).any(axis=1))[0])
        raise ValueError(f"non-finite {what}: member {member}")


def _not_invertible(reason, gap, z_targets):
    """Error naming the member whose target lies farthest out of reach."""
    worst = int(np.argmax(gap))
    return NotInvertibleError(
        f"{reason}: member {worst}, target {z_targets[worst]:.6g}, "
        f"residual {gap[worst]:.3g}"
    )


class MapComponent:
    """S(x_parents, x_own) = sum_k g_k(x_parent_k) + f(x_own), f non-decreasing.

    Parameters
    ----------
    parents : sequence of int
        Indices of parent variables in the full state vector.
    own : int
        Index of the variable this component is monotone in.
    non_bases : list of SplineBasis
        One basis per parent (same order as ``parents``).
    mon_basis : SplineBasis
        Basis for the monotone term.
    beta_non : ndarray
        Concatenated nonmonotone coefficients (per-parent blocks).
    beta_mon_raw : ndarray
        Raw monotone parameters; ``beta_mon_raw[0]`` is a free level,
        the remaining increments must be >= 0.
    log_lambdas : ndarray, optional
        Per-block log smoothing parameters (parents first, monotone last);
        kept for reporting and serialization.
    """

    def __init__(self, parents, own, non_bases, mon_basis, beta_non, beta_mon_raw,
                 log_lambdas=None):
        if len(parents) != len(non_bases):
            raise ValueError("one basis per parent required")
        self.parents = list(parents)
        self.own = int(own)
        self.non_bases = list(non_bases)
        self.mon_basis = mon_basis
        self.beta_non = np.asarray(beta_non, dtype=float)
        self.beta_mon_raw = np.asarray(beta_mon_raw, dtype=float)
        if np.any(self.beta_mon_raw[1:] < 0):
            raise ValueError("monotone increments must be nonnegative")
        expected = sum(b.num_basis for b in non_bases)
        if self.beta_non.size != expected:
            raise ValueError(f"beta_non has size {self.beta_non.size}, expected {expected}")
        if self.beta_mon_raw.size != mon_basis.num_basis:
            raise ValueError("beta_mon_raw size must match monotone basis")
        self.beta_mon = np.cumsum(self.beta_mon_raw)
        self.log_lambdas = None if log_lambdas is None else np.asarray(log_lambdas, float)
        self._mon = PiecewisePolynomial(mon_basis, self.beta_mon)
        ends = np.cumsum([0] + [b.num_basis for b in non_bases])
        self._non = [PiecewisePolynomial(b, self.beta_non[i:j])
                     for b, i, j in zip(non_bases, ends[:-1], ends[1:])]

    def ddx(self, x_own):
        """Derivative of the monotone term; independent of the parents.

        A sum of nonnegative increments times nonnegative basis terms: exactly
        >= 0, and exactly 0 where the increments around ``x_own`` are zero.
        """
        return self.mon_basis.eval_deriv_increments(x_own) @ self.beta_mon_raw

    def parent_term_many(self, rows):
        """Nonmonotone contribution for every row of an (n, d) array."""
        rows = np.asarray(rows, dtype=float)
        total = np.zeros(rows.shape[0])
        for p, term in zip(self.parents, self._non):
            total += term(rows[:, p])
        return total

    def eval_many(self, rows):
        """Component value for every row of an (n, d) array.

        ValueError names the first member with a non-finite coordinate.
        """
        rows = np.asarray(rows, dtype=float)
        _require_finite(rows, "coordinate")
        return self.parent_term_many(rows) + self._mon(rows[:, self.own])

    def invert_many(self, rows, z_targets):
        """Solve S(parents of rows[i], x_i) = z_targets[i] for every member i.

        ``rows`` is (n, d); its own-index column and those after it are
        ignored. Targets beyond the knot range are solved in closed form on
        the affine tails, the rest by safeguarded Newton, each row until it
        meets the stop test. ValueError names the first member with a
        non-finite target or parent coordinate, NotInvertibleError the worst
        member.
        """
        rows = np.asarray(rows, dtype=float)
        z_targets = np.asarray(z_targets, dtype=float)
        _require_finite(z_targets, "target")
        _require_finite(rows[:, self.parents], "parent coordinate")
        g = self.parent_term_many(rows)
        t = z_targets - g
        f = self._mon
        (first, last), (f_lo, f_hi), (slope_lo, slope_hi) = \
            f.ends, f.end_values, f.end_slopes
        x = np.empty(t.size)
        below = t < f_lo
        above = t > f_hi
        if below.any():
            if slope_lo <= 0:
                raise _not_invertible("flat left tail; target below range",
                                      np.where(below, f_lo - t, -np.inf), z_targets)
            x[below] = first + (t[below] - f_lo) / slope_lo
        if above.any():
            if slope_hi <= 0:
                raise _not_invertible("flat right tail; target above range",
                                      np.where(above, t - f_hi, -np.inf), z_targets)
            x[above] = last + (t[above] - f_hi) / slope_hi
        scale = np.maximum(1.0, np.abs(z_targets))
        active = np.flatnonzero(~(below | above))
        if active.size:
            if f_hi - f_lo <= 0:
                raise NotInvertibleError("monotone term is flat; cannot invert")
            tm = t[active]
            sm = scale[active]
            lo = np.full(tm.size, first)
            hi = np.full(tm.size, last)
            xm = first + (tm - f_lo) / (f_hi - f_lo) * (last - first)
            last_step = step_before = hi - lo
            for _ in range(INVERT_MAX_ITER):
                fm, dm = f(xm, slope=True)
                fm -= tm
                # accept when the residual is small on the target scale or the
                # bracket has collapsed to floating-point resolution
                done = (np.abs(fm) <= INVERT_TOL * sm) | \
                    (hi - lo <= 4e-16 * np.maximum(1.0, np.abs(xm)))
                if done.any():
                    x[active[done]] = xm[done]
                    keep = ~done
                    active, tm, sm, lo, hi, xm, fm, dm, last_step, step_before = (
                        a[keep] for a in
                        (active, tm, sm, lo, hi, xm, fm, dm, last_step, step_before))
                    if not active.size:
                        break
                hi = np.where(fm > 0, xm, hi)
                lo = np.where(fm <= 0, xm, lo)
                with np.errstate(divide="ignore", invalid="ignore"):
                    xn = xm - fm / dm
                # bisect when Newton leaves the bracket or exceeds half the step
                # before last (rtsafe), lest it bounce between the bracket ends
                bad = ~np.isfinite(xn) | (xn <= lo) | (xn >= hi) | \
                    (np.abs(xn - xm) > 0.5 * step_before)
                xn = np.where(bad, 0.5 * (lo + hi), xn)
                step_before, last_step = last_step, np.abs(xn - xm)
                xm = xn
            x[active] = xm
        # residual check on the scale the bisection can actually resolve: for a
        # steep monotone term, one ulp in x moves f by |f'(x)| * ulp(x)
        fx, dx = f(x, slope=True)
        resolvable = np.abs(dx) * np.abs(x) * 2e-16
        resid = np.abs(fx + g - z_targets)
        missed = resid > 100 * (INVERT_TOL * scale + resolvable)
        if missed.any():
            raise _not_invertible("inversion did not reach tolerance",
                                  np.where(missed, resid, -np.inf), z_targets)
        return x

    def invert_in_last(self, x_row, z_target):
        """Single-row form of invert_many; returns the own coordinate."""
        return float(self.invert_many(np.atleast_2d(x_row), [z_target])[0])
