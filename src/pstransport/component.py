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
its Newton starts from its values at START_POINTS_PER_SPAN points per knot
span, and its final residual check from it, so the inverse is checked
against the function ``eval_many`` evaluates. Each interior target starts
at the secant across the sub-span whose values hold it, with that sub-span
as its bracket; a ``SortedLookup`` of those values finds it. The final
check evaluates only the tail rows and the rows that left the Newton loop
without meeting its residual test, which is 100 times tighter than the
check. ``ddx`` keeps the increment form
``eval_deriv_increments(x) @ beta_mon_raw``: a sum of nonnegative terms is
exactly >= 0, and exactly 0 where the increments around x are zero, which
``log_pullback_density`` relies on to tell a flat stretch (log density
-inf) from a steep one; the rounding of a power form cannot promise that.
The basis tables stay for the design matrices of the fit. The pp tables
that depend on a basis alone are kept on the basis, so the components of
one map fit that read the same variable share them.
"""

import numpy as np

from .splines import PiecewisePolynomial, SortedLookup

__all__ = ["MapComponent", "NotInvertibleError"]

INVERT_TOL = 1e-10      # inversion residual tolerance, relative to max(1, |target|)
INVERT_MAX_ITER = 200   # safeguarded Newton iterations per inversion
# Newton start table points per knot span: 16 leaves one or two Newton steps
# for most targets of a fitted Lorenz-63 map, where the knots alone leave two
# to four
START_POINTS_PER_SPAN = 16
_START_FRACTIONS = np.arange(START_POINTS_PER_SPAN) / START_POINTS_PER_SPAN


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


def _newton_starts(f, knots):
    """Bracket and secant start of ``f(x) = t`` for t in [f(knots[0]), f(knots[-1])].

    f is non-decreasing up to rounding, so with p the START_POINTS_PER_SPAN
    evenly spaced points of each span of the real ``knots``, the knots
    included, and V the running maximum of f at them, a target with
    V_i <= t < V_i+1 has its root in [p_i, p_i+1]. The lookup runs over the
    starts of the sub-spans where V rises, and the last one, so a flat
    stretch adds no break to it. Returns the lookup and the tables it
    indexes: bracket ends, start value and secant rate (0 on a flat last
    sub-span).
    """
    points = np.concatenate(((knots[:-1, None] + (knots[1:] - knots[:-1])[:, None]
                              * _START_FRACTIONS).ravel(), knots[-1:]))
    values = np.maximum.accumulate(f(points))
    rising = np.concatenate((np.flatnonzero(values[1:-1] > values[:-2]), [values.size - 2]))
    # lookup result e (breaks <= t) serves sub-span rising[e - 1]; e = 0 only
    # below V_0, by rounding
    spans = np.concatenate((rising[:1], rising))
    lo, hi = points[spans], points[spans + 1]
    start = values[spans]
    rise = values[spans + 1] - start
    rate = np.divide(hi - lo, rise, out=np.zeros(rise.size), where=rise > 0)
    return SortedLookup(values[rising]), lo, hi, start, rate


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
        Concatenated nonmonotone coefficients (per-parent blocks), 1-d, finite.
    beta_mon_raw : ndarray
        Raw monotone parameters, 1-d, finite; ``beta_mon_raw[0]`` is a free level,
        the remaining increments must be >= 0.
    log_lambdas : ndarray, optional
        Per-block log smoothing parameters (parents first, monotone last),
        finite; kept for reporting and serialization.
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
        if self.beta_non.ndim != 1 or self.beta_mon_raw.ndim != 1:
            raise ValueError(f"coefficients must be 1-d arrays, not of shapes "
                             f"{self.beta_non.shape} and {self.beta_mon_raw.shape}")
        if not (np.isfinite(self.beta_non).all() and np.isfinite(self.beta_mon_raw).all()):
            raise ValueError("coefficients must be finite")
        if np.any(self.beta_mon_raw[1:] < 0):
            raise ValueError("monotone increments must be nonnegative")
        ends = np.cumsum([0] + [b.num_basis for b in non_bases])
        if self.beta_non.size != ends[-1]:
            raise ValueError(f"beta_non has size {self.beta_non.size}, expected {ends[-1]}")
        if self.beta_mon_raw.size != mon_basis.num_basis:
            raise ValueError("beta_mon_raw size must match monotone basis")
        self.beta_mon = np.cumsum(self.beta_mon_raw)
        self.log_lambdas = None if log_lambdas is None else np.asarray(log_lambdas, float)
        if self.log_lambdas is not None and not (
                self.log_lambdas.shape == (len(parents) + 1,)
                and np.isfinite(self.log_lambdas).all()):
            raise ValueError(f"log_lambdas must be finite, one per block ({len(parents) + 1}), "
                             f"not {self.log_lambdas.tolist()}")
        self._mon = PiecewisePolynomial(mon_basis, self.beta_mon)
        self._non = [PiecewisePolynomial(b, self.beta_non[i:j])
                     for b, i, j in zip(non_bases, ends[:-1], ends[1:])]
        self._starts = _newton_starts(self._mon, mon_basis.knots.real)

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
        for out, end, f_end, slope, where in (
                (below, first, f_lo, slope_lo, "left tail; target below"),
                (above, last, f_hi, slope_hi, "right tail; target above")):
            if out.any():
                if slope <= 0:
                    raise _not_invertible(f"flat {where} range",
                                          np.where(out, np.abs(t - f_end), -np.inf), z_targets)
                x[out] = end + (t[out] - f_end) / slope
        scale = np.maximum(1.0, np.abs(z_targets))
        # rows the final check evaluates: the tails and rows retired unmet
        check = below | above
        active = np.flatnonzero(~check)
        if active.size:
            if f_hi - f_lo <= 0:
                raise NotInvertibleError("monotone term is flat; cannot invert")
            tm = t[active]
            tol = INVERT_TOL * scale[active]
            # start at the secant inside the sub-span whose values hold the target
            find, lo_of, hi_of, value_of, rate_of = self._starts
            span = find(tm)
            lo, hi = lo_of.take(span), hi_of.take(span)
            xm = lo + (tm - value_of.take(span)) * rate_of.take(span)
            last_step = step_before = hi - lo
            for _ in range(INVERT_MAX_ITER):
                fm, dm = f(xm, slope=True)
                fm -= tm
                # accept when the residual is small on the target scale or the
                # bracket has collapsed to floating-point resolution
                met = np.abs(fm) <= tol
                done = met | (hi - lo <= 4e-16 * np.maximum(1.0, np.abs(xm)))
                if done.any():
                    x[active[done]] = xm[done]
                    check[active[done & ~met]] = True
                    keep = np.flatnonzero(~done)
                    if not keep.size:
                        break
                    active, tm, tol, lo, hi, xm, fm, dm, last_step, step_before = (
                        a.take(keep) for a in
                        (active, tm, tol, lo, hi, xm, fm, dm, last_step, step_before))
                np.copyto(hi, xm, where=fm > 0)
                np.copyto(lo, xm, where=fm <= 0)
                with np.errstate(divide="ignore", invalid="ignore"):
                    xn = xm - fm / dm
                # bisect when Newton leaves the bracket (or is not finite) or
                # exceeds half the step before last (rtsafe), lest it bounce
                # between the bracket ends
                newton = (xn > lo) & (xn < hi) & (np.abs(xn - xm) <= 0.5 * step_before)
                np.copyto(xn, 0.5 * (lo + hi), where=~newton)
                step_before, last_step = last_step, np.abs(xn - xm)
                xm = xn
            else:
                # the iteration cap: the check judges where the last step left them
                x[active] = xm
                check[active] = True
        # a row retired by the residual test met a bound 100 times tighter than
        # this one; the rest are checked on the scale the bisection can
        # resolve: for a steep monotone term, one ulp in x moves f by
        # |f'(x)| * ulp(x)
        rows_checked = np.flatnonzero(check)
        if rows_checked.size:
            xc = x[rows_checked]
            fx, dx = f(xc, slope=True)
            resolvable = np.abs(dx) * np.abs(xc) * 2e-16
            resid = np.abs(fx + g[rows_checked] - z_targets[rows_checked])
            missed = resid > 100 * (INVERT_TOL * scale[rows_checked] + resolvable)
            if missed.any():
                gap = np.full(t.size, -np.inf)
                gap[rows_checked[missed]] = resid[missed]
                raise _not_invertible("inversion did not reach tolerance", gap, z_targets)
        return x

    def invert_in_last(self, x_row, z_target):
        """Single-row form of invert_many; returns the own coordinate."""
        return float(self.invert_many(np.atleast_2d(x_row), [z_target])[0])
