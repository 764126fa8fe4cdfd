"""One triangular map component: additive spline terms over parents plus a
monotone spline term in its own variable.

The monotone term stores raw parameters ``(level, increments...)``; the
actual spline coefficients are their cumulative sum, so nonnegative
increments guarantee a non-decreasing function. Inversion in the last
argument exploits the exactly affine tails of the basis to bracket the
root analytically.
"""

import numpy as np

__all__ = ["MapComponent", "NotInvertibleError"]

INVERT_TOL = 1e-10      # inversion residual tolerance, relative to max(1, |target|)
INVERT_MAX_ITER = 200   # safeguarded Newton iterations per inversion


class NotInvertibleError(RuntimeError):
    """A target lies where the monotone term is flat, or the solve missed it."""


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
        self._slices = []
        start = 0
        for b in non_bases:
            self._slices.append(slice(start, start + b.num_basis))
            start += b.num_basis

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
        for p, basis, sl in zip(self.parents, self.non_bases, self._slices):
            total += basis.eval(rows[:, p]) @ self.beta_non[sl]
        return total

    def eval_many(self, rows):
        """Component value for every row of an (n, d) array."""
        rows = np.asarray(rows, dtype=float)
        if np.any(np.isnan(rows)):
            raise ValueError("NaN coordinate")
        return self.parent_term_many(rows) + self.mon_basis.eval(rows[:, self.own]) @ self.beta_mon

    def invert_many(self, rows, z_targets):
        """Solve S(parents of rows[i], x_i) = z_targets[i] for every member i.

        ``rows`` is (n, d); its own-index column is ignored. Targets beyond the
        knot range are solved in closed form on the affine tails, the rest by
        safeguarded Newton. NotInvertibleError names the worst member.
        """
        rows = np.asarray(rows, dtype=float)
        z_targets = np.asarray(z_targets, dtype=float)
        g = self.parent_term_many(rows)
        t = z_targets - g
        kn = self.mon_basis.knots
        f = lambda x: self.mon_basis.eval(x) @ self.beta_mon
        f_lo, f_hi = float(f(kn.first)), float(f(kn.last))
        x = np.empty(t.size)
        below = t < f_lo
        above = t > f_hi
        mid = ~(below | above)
        if below.any():
            slope = float(self.ddx(kn.first))
            if slope <= 0:
                raise _not_invertible("flat left tail; target below range",
                                      np.where(below, f_lo - t, -np.inf), z_targets)
            x[below] = kn.first + (t[below] - f_lo) / slope
        if above.any():
            slope = float(self.ddx(kn.last))
            if slope <= 0:
                raise _not_invertible("flat right tail; target above range",
                                      np.where(above, t - f_hi, -np.inf), z_targets)
            x[above] = kn.last + (t[above] - f_hi) / slope
        scale = np.maximum(1.0, np.abs(z_targets))
        if mid.any():
            if f_hi - f_lo <= 0:
                raise NotInvertibleError("monotone term is flat; cannot invert")
            tm = t[mid]
            sm = scale[mid]
            lo = np.full(tm.size, kn.first)
            hi = np.full(tm.size, kn.last)
            xm = kn.first + (tm - f_lo) / (f_hi - f_lo) * (kn.last - kn.first)
            last_step = step_before = hi - lo
            for _ in range(INVERT_MAX_ITER):
                fm = f(xm) - tm
                # accept when the residual is small on the target scale or the
                # bracket has collapsed to floating-point resolution
                done = (np.abs(fm) <= INVERT_TOL * sm) | \
                    (hi - lo <= 4e-16 * np.maximum(1.0, np.abs(xm)))
                if done.all():
                    break
                hi = np.where(fm > 0, xm, hi)
                lo = np.where(fm <= 0, xm, lo)
                dm = self.ddx(xm)
                with np.errstate(divide="ignore", invalid="ignore"):
                    xn = xm - fm / dm
                # bisect when Newton leaves the bracket or exceeds half the step
                # before last (rtsafe), lest it bounce between the bracket ends
                bad = ~np.isfinite(xn) | (xn <= lo) | (xn >= hi) | \
                    (np.abs(xn - xm) > 0.5 * step_before)
                xn = np.where(bad, 0.5 * (lo + hi), xn)
                step_before, last_step = last_step, np.abs(xn - xm)
                xm = np.where(done, xm, xn)
            x[mid] = xm
        # residual check on the scale the bisection can actually resolve: for a
        # steep monotone term, one ulp in x moves f by |f'(x)| * ulp(x)
        resolvable = np.abs(self.ddx(x)) * np.abs(x) * 2e-16
        resid = np.abs(f(x) + g - z_targets)
        missed = resid > 100 * (INVERT_TOL * scale + resolvable)
        if missed.any():
            raise _not_invertible("inversion did not reach tolerance",
                                  np.where(missed, resid, -np.inf), z_targets)
        return x

    def invert_in_last(self, x_row, z_target):
        """Single-row form of invert_many; returns the own coordinate."""
        return float(self.invert_many(np.atleast_2d(x_row), [z_target])[0])
