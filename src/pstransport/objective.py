"""Penalized transport objective for one map component.

The empirical objective is the sample sum of
``0.5 * S(x)^2 - log dS/dx_own``. With the additive spline parametrization
the nonmonotone coefficients minimize a penalized quadratic in closed
form (a symmetric positive-definite solve), leaving a small convex
problem in the raw monotone parameters: level plus nonnegative
increments, with the log term acting as a barrier that keeps the
derivative positive at every sample.

``DesignCache`` holds the design and its lambda-independent Gram
matrices. ``profile_operators`` factors the nonmonotone system once per
log-lambda and keeps the p x p Hessian of the reduced quadratic (a
Schur complement of the Grams) with the operator giving the optimal
nonmonotone coefficients; the inner solver's only n-row work is the log
barrier. One assembler builds the joint Hessian over (beta_non, free raw
coordinates); its diagonal blocks give the per-block effective degrees
of freedom.

Smoothing parameters are adapted by descending an AICc outer objective
whose gradient is computed with the implicit function theorem; every
analytic derivative here is validated against finite differences in the
test suite.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

__all__ = [
    "DesignCache",
    "FitReport",
    "BarrierViolationError",
    "ModelTooComplexError",
    "nll",
    "solve_non_closed_form",
    "reduced_penalized_objective",
    "fit_inner",
    "edf",
    "outer_objective",
    "outer_gradient",
    "adapt_lambdas",
]

RIDGE = 1e-8          # unconditional ridge keeping the lambda -> 0 limit solvable
PIN_TOL = 1e-12       # increments at or below this are treated as pinned at zero


class BarrierViolationError(ValueError):
    """Monotone derivative nonpositive at some sample."""


class ModelTooComplexError(RuntimeError):
    """AICc correction undefined: n - edf - 1 <= 0."""


class DesignCache:
    """Precomputed design matrices for one component fit.

    Parameters
    ----------
    non_bases : list of SplineBasis
        One basis per parent term.
    parent_samples : list of ndarray
        Training samples for each parent (same order).
    mon_basis : SplineBasis
        Basis of the monotone term.
    own_samples : ndarray
        Training samples of the component's own variable.
    penalty_order : int
        Difference order of the roughness penalty.
    """

    def __init__(self, non_bases, parent_samples, mon_basis, own_samples,
                 penalty_order=2):
        from .splines import make_penalty

        own_samples = np.asarray(own_samples, dtype=float)
        n = own_samples.size
        self.n = n
        self.non_bases = list(non_bases)
        self.mon_basis = mon_basis
        self.block_sizes = [b.num_basis for b in non_bases]
        self.m = int(sum(self.block_sizes))
        self.p = mon_basis.num_basis

        cols = []
        self.non_slices = []
        start = 0
        for basis, xs in zip(non_bases, parent_samples):
            xs = np.asarray(xs, dtype=float)
            if xs.size != n:
                raise ValueError("parent sample length mismatch")
            cols.append(basis.eval(xs))
            self.non_slices.append(slice(start, start + basis.num_basis))
            start += basis.num_basis
        self.P_non = np.hstack(cols) if cols else np.zeros((n, 0))
        self.P_mon = mon_basis.eval(own_samples)
        self.b = mon_basis.eval_deriv(own_samples)
        self.T = np.tril(np.ones((self.p, self.p)))
        # lambda-independent Grams of the design
        self.G_nn = self.P_non.T @ self.P_non
        self.G_nm = self.P_non.T @ self.P_mon
        self.G_mm = self.P_mon.T @ self.P_mon
        self.non_grams = [make_penalty(s, penalty_order).gram for s in self.block_sizes]
        self.mon_gram = make_penalty(self.p, penalty_order).gram
        self.num_blocks = len(self.block_sizes) + 1
        self._ops_key, self._ops = None, None
        self._hess_key, self._hess = None, None

    # -- penalty assembly ---------------------------------------------------

    def s_non(self, lambdas):
        """Block-diagonal nonmonotone penalty (plus ridge)."""
        S = RIDGE * np.eye(self.m)
        for lam, gram, sl in zip(lambdas[:-1], self.non_grams, self.non_slices):
            S[sl, sl] += lam * gram
        return S

    def s_mon(self, lambdas):
        """Monotone-coefficient penalty (plus ridge), acting on cumsum(beta_raw)."""
        return lambdas[-1] * self.mon_gram + RIDGE * np.eye(self.p)

    def default_raw(self):
        """Feasible start: the identity-like monotone fit (Greville coefficients)."""
        beta = self.mon_basis.greville()
        raw = np.empty_like(beta)
        raw[0] = beta[0]
        raw[1:] = np.maximum(np.diff(beta), 1e-8)
        return raw

    # -- reduced (profiled) objective --------------------------------------

    def profile_operators(self, log_lambdas):
        """Operators (H, D, lambdas) of the reduced problem after eliminating beta_non.

        ``beta_non = -D @ beta_mon`` with ``D = (G_nn + S_non)^-1 G_nm`` are
        the optimal nonmonotone coefficients, ``H = G_mm - G_nm' D + S_mon``
        is the Hessian of the penalized quadratic left in beta_mon space,
        and ``lambdas = exp(log_lambdas)``. The operators of the last
        log-lambdas asked for are kept (exact match) and are read-only.
        """
        key = np.array(log_lambdas, dtype=float)
        if np.array_equal(key, self._ops_key):
            return self._ops
        lambdas = np.exp(key)
        if lambdas.size != self.num_blocks:
            raise ValueError(f"expected {self.num_blocks} lambdas, got {lambdas.size}")
        try:
            chol = cho_factor(self.G_nn + self.s_non(lambdas))
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "singular nonmonotone system; increase lambda or ridge"
            ) from exc
        D = cho_solve(chol, self.G_nm)
        H = self.G_mm - self.G_nm.T @ D + self.s_mon(lambdas)
        ops = (H, D, lambdas)
        for arr in ops:
            arr.flags.writeable = False
        self._ops_key, self._ops = key, ops
        return ops


@dataclass
class FitReport:
    """Diagnostics of one adapted component fit."""

    nll: float
    edf: float
    aicc: float
    log_lambdas: np.ndarray
    inner_iters: int = 0
    outer_iters: int = 0
    converged: bool = True
    grad_norm: float = np.nan
    edf_blocks: np.ndarray = field(default_factory=lambda: np.zeros(0))
    n: int = 0
    raw_basis: int = 0
    ridge: float = RIDGE


# -- objective values -------------------------------------------------------


def _slopes(cache, beta_mon):
    """Monotone derivative at every sample; raises outside the barrier domain."""
    s = cache.b @ beta_mon
    if np.any(s <= 0):
        raise BarrierViolationError("nonpositive monotone derivative at a sample")
    return s


def nll(cache, beta_non, beta_mon_raw):
    """Sample-summed transport objective at the given coefficients."""
    beta_mon = np.cumsum(beta_mon_raw)
    resid = cache.P_mon @ beta_mon
    if cache.m:
        resid = resid + cache.P_non @ beta_non
    return 0.5 * float(resid @ resid) - float(np.sum(np.log(_slopes(cache, beta_mon))))


def solve_non_closed_form(cache, beta_mon_raw, log_lambdas):
    """Optimal nonmonotone coefficients for fixed monotone coefficients."""
    D = cache.profile_operators(log_lambdas)[1]
    return -D @ np.cumsum(beta_mon_raw)


def _reduced_value(cache, ops, beta_mon):
    """Profiled value ``0.5 beta'H beta - sum log s``, with ``H beta`` and ``s`` for reuse."""
    s = _slopes(cache, beta_mon)
    Hb = ops[0] @ beta_mon
    value = 0.5 * float(beta_mon @ Hb) - float(np.sum(np.log(s)))
    return value, Hb, s


def _trial_value(cache, ops, r):
    """Profiled objective value at raw parameters; +inf outside the barrier domain."""
    try:
        return _reduced_value(cache, ops, np.cumsum(r))[0]
    except BarrierViolationError:
        return np.inf


def reduced_penalized_objective(cache, beta_mon_raw, log_lambdas, ops=None):
    """Value, gradient, and Hessian of the profiled objective in raw parameters."""
    if ops is None:
        ops = cache.profile_operators(log_lambdas)
    beta_mon = np.cumsum(np.asarray(beta_mon_raw, dtype=float))
    value, Hb, s = _reduced_value(cache, ops, beta_mon)
    grad_mon = Hb - cache.b.T @ (1.0 / s)
    grad = np.cumsum(grad_mon[::-1])[::-1]  # T^T v is a reverse cumulative sum
    hess = cache.T.T @ (ops[0] + cache.b.T @ (cache.b / s[:, None] ** 2)) @ cache.T
    return value, grad, hess


# -- inner solver -----------------------------------------------------------


def fit_inner(cache, log_lambdas, r0=None, max_iter=500, tol=1e-8):
    """Projected Newton on the reduced objective with increments >= 0.

    Returns (raw_parameters, iterations, converged, projected_grad_norm).
    """
    ops = cache.profile_operators(log_lambdas)
    r = cache.default_raw() if r0 is None else np.array(r0, dtype=float)
    r[1:] = np.maximum(r[1:], 0.0)
    if not np.isfinite(_trial_value(cache, ops, r)):
        r = cache.default_raw()
    value, grad, hess = reduced_penalized_objective(cache, r, log_lambdas, ops)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        pinned = np.zeros_like(r, dtype=bool)
        pinned[1:] = (r[1:] <= PIN_TOL) & (grad[1:] > 0)
        pg = np.where(pinned, 0.0, grad)
        if np.linalg.norm(pg) <= tol * max(1.0, abs(value)):
            converged = True
            break
        free = ~pinned
        Hf = hess[np.ix_(free, free)]
        gf = grad[free]
        step = np.zeros_like(r)
        boost = 0.0
        for _ in range(8):
            try:
                step[free] = -cho_solve(cho_factor(Hf + boost * np.eye(Hf.shape[0])), gf)
                break
            except np.linalg.LinAlgError:
                boost = max(1e-8, 10.0 * boost) * max(1.0, np.abs(np.diag(Hf)).max())
        else:
            step[free] = -gf
        predicted = -float(grad @ step)
        if predicted <= 1e-13 * max(1.0, abs(value)):
            # at the numerical floor; take the plain Newton step if feasible
            cand = r + step
            cand[1:] = np.maximum(cand[1:], 0.0)
            if np.isfinite(_trial_value(cache, ops, cand)):
                r = cand
                _, grad, _ = reduced_penalized_objective(cache, r, log_lambdas, ops)
            converged = True
            break
        alpha = 1.0
        accepted = False
        slack = 1e-12 * max(1.0, abs(value))
        for _ in range(40):
            cand = r + alpha * step
            cand[1:] = np.maximum(cand[1:], 0.0)
            v_new = _trial_value(cache, ops, cand)
            if v_new <= value + 1e-4 * float(grad @ (cand - r)) + slack:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        r = cand
        value, grad, hess = reduced_penalized_objective(cache, r, log_lambdas, ops)
    pinned = np.zeros_like(r, dtype=bool)
    pinned[1:] = (r[1:] <= PIN_TOL) & (grad[1:] > 0)
    pg_norm = float(np.linalg.norm(np.where(pinned, 0.0, grad)))
    return r, it, converged or pg_norm <= tol * max(1.0, abs(value)), pg_norm


# -- effective degrees of freedom and outer objective -----------------------


def _joint_hessian(cache, r_hat, lambdas):
    """Unpenalized Hessian Hu and penalty Pen over (beta_non, free raw coords).

    Increments pinned at zero are left out. Also returns the smoothing
    blocks as (slice, unit-lambda penalty) pairs, parents first and
    monotone last, the free mask, ``b @ T`` on the free columns and the
    monotone derivative at every sample.
    """
    free = np.ones(r_hat.size, dtype=bool)
    free[1:] = r_hat[1:] > PIN_TOL
    Tf = cache.T[:, free]
    s = _slopes(cache, np.cumsum(r_hat))
    bTf = cache.b @ Tf
    m = cache.m
    k = m + Tf.shape[1]
    Hu = np.empty((k, k))
    Pen = np.zeros((k, k))
    Hu[:m, :m] = cache.G_nn
    Hu[:m, m:] = cache.G_nm @ Tf
    Hu[m:, :m] = Hu[:m, m:].T
    Hu[m:, m:] = Tf.T @ cache.G_mm @ Tf + bTf.T @ (bTf / s[:, None] ** 2)
    Pen[:m, :m] = cache.s_non(lambdas)
    Pen[m:, m:] = Tf.T @ cache.s_mon(lambdas) @ Tf
    blocks = list(zip(cache.non_slices, cache.non_grams))
    blocks.append((slice(m, k), Tf.T @ cache.mon_gram @ Tf))
    return Hu, Pen, blocks, free, bTf, s


def _block_factors(Hu, Pen, blocks):
    """Cholesky factor of each diagonal block of Hu + Pen, with Hp_b^-1 Hu_b.

    Each block is taken with the other blocks' coefficients held fixed;
    this keeps the lambda -> infinity limit at the penalty null-space
    dimension per block even though the additive level is shared.
    """
    factors = []
    for sl, _ in blocks:
        try:
            chol = cho_factor(Hu[sl, sl] + Pen[sl, sl])
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "penalized Hessian not positive definite"
            ) from exc
        factors.append((chol, cho_solve(chol, Hu[sl, sl])))
    return factors


def _factored_hessian(cache, r_hat, log_lambdas):
    """Joint Hessian state at (log_lambdas, r_hat) with its block factors.

    Returns ``(Hu, Pen, blocks, free, bTf, s, factors)`` as built by
    ``_joint_hessian`` and ``_block_factors``. The state of the last
    (log_lambdas, r_hat) asked for is kept on the cache (exact match) and
    is read-only, so ``edf`` in ``outer_objective`` and the
    ``outer_gradient`` that follows at the accepted point assemble and
    factor once.
    """
    log_lambdas = np.asarray(log_lambdas, dtype=float)
    key = np.concatenate([log_lambdas, r_hat])
    if np.array_equal(key, cache._hess_key):
        return cache._hess
    Hu, Pen, blocks, free, bTf, s = _joint_hessian(cache, r_hat, np.exp(log_lambdas))
    factors = _block_factors(Hu, Pen, blocks)
    for arr in (Hu, Pen, free, bTf, s, blocks[-1][1],
                *(a for (chol, W) in factors for a in (chol[0], W))):
        arr.flags.writeable = False
    state = (Hu, Pen, tuple(blocks), free, bTf, s, tuple(factors))
    cache._hess_key, cache._hess = key, state
    return state


def edf(cache, r_hat, log_lambdas, per_block=False):
    """Effective degrees of freedom tr[Hpen^-1 Hunpen], summed over blocks.

    With ``per_block=True`` also returns the per-block traces
    (parents first, monotone last).
    """
    factors = _factored_hessian(cache, r_hat, log_lambdas)[-1]
    traces = [float(np.trace(W)) for _, W in factors]
    total = float(sum(traces))
    if not per_block:
        return total
    return total, np.array(traces)


def _aicc_penalty(edf_value, n):
    if n - edf_value - 1 <= 0:
        raise ModelTooComplexError(
            f"edf={edf_value:.2f} too large for ensemble size n={n}"
        )
    return edf_value + edf_value * (edf_value + 1.0) / (n - edf_value - 1.0)


def _aicc_penalty_deriv(edf_value, n):
    d = n - edf_value - 1.0
    return 1.0 + ((2.0 * edf_value + 1.0) * d + edf_value * (edf_value + 1.0)) / d ** 2


def outer_objective(cache, log_lambdas, r0=None):
    """Fit the inner problem and score it with AICc; returns (aicc, report, r_hat)."""
    r_hat, iters, conv, pg = fit_inner(cache, log_lambdas, r0=r0)
    total, blocks = edf(cache, r_hat, log_lambdas, per_block=True)
    nll_value = nll(cache, solve_non_closed_form(cache, r_hat, log_lambdas), r_hat)
    aicc = nll_value + _aicc_penalty(total, cache.n)
    report = FitReport(
        nll=nll_value, edf=total, aicc=aicc,
        log_lambdas=np.array(log_lambdas, dtype=float),
        inner_iters=iters, converged=conv, grad_norm=pg,
        edf_blocks=blocks, n=cache.n, raw_basis=cache.m + cache.p,
    )
    return aicc, report, r_hat


def outer_gradient(cache, log_lambdas, r_hat=None):
    """Total derivative of the AICc outer objective w.r.t. each log lambda.

    Uses the implicit function theorem at the inner optimum; increments
    pinned at zero with a positive multiplier are removed from the
    implicit system (their sensitivity vanishes).
    """
    if r_hat is None:
        r_hat, _, _, _ = fit_inner(cache, log_lambdas)
    _, D, lambdas = cache.profile_operators(log_lambdas)
    Hu, Pen, blocks, free, bTf, s, factors = _factored_hessian(cache, r_hat, log_lambdas)
    edf_value = float(sum(np.trace(W) for _, W in factors))
    penprime = _aicc_penalty_deriv(edf_value, cache.n)
    beta = np.concatenate([-D @ np.cumsum(r_hat), r_hat[free]])
    # unpenalized gradient at the optimum: minus the penalty gradient
    gL = -Pen @ beta

    # d beta / d log lambda_b = -Hp^-1 (lambda_b G_b beta), one column per block
    rhs = np.zeros((beta.size, len(blocks)))
    for col, (lam, (sl, gram)) in enumerate(zip(lambdas, blocks)):
        rhs[sl, col] = lam * (gram @ beta[sl])
    dbeta = -cho_solve(cho_factor(Hu + Pen), rhs)

    # only the monotone block's edf depends on beta (through the barrier)
    chol_m, W_m = factors[-1]
    V_m = cho_solve(chol_m, np.eye(W_m.shape[0]))
    q = np.einsum("ij,ij->i", bTf @ (V_m - W_m @ V_m), bTf)
    grad_edf = np.zeros(beta.size)
    grad_edf[cache.m:] = -2.0 * bTf.T @ (q / s ** 3)

    # explicit part: d tr(Hp_b^-1 Hu_b) / d log lambda_b at fixed beta
    dedf = np.array([-lam * float(np.sum(cho_solve(chol, gram) * W.T))
                     for lam, (_, gram), (chol, W) in zip(lambdas, blocks, factors)])
    return gL @ dbeta + penprime * (dedf + grad_edf @ dbeta)


# -- outer optimizer --------------------------------------------------------

LOG_LAMBDA_BOUNDS = (-15.0, 15.0)


def adapt_lambdas(cache, log_lambdas0=None, adapt_mask=None, max_outer=50,
                  tol_obj=1e-6, tol_grad=1e-4, r0=None):
    """Descend the AICc outer objective over log smoothing parameters.

    ``adapt_mask`` selects which blocks move (the fixed-monotone regime
    freezes the last block). Returns (log_lambdas, report, r_hat).
    """
    logl = np.full(cache.num_blocks, 2.0) if log_lambdas0 is None \
        else np.array(log_lambdas0, dtype=float)
    mask = np.ones(cache.num_blocks, dtype=bool) if adapt_mask is None \
        else np.asarray(adapt_mask, dtype=bool)
    value, report, r_hat = outer_objective(cache, logl, r0=r0)
    outer_it = 0
    grad_norm = np.inf
    if mask.any():
        alpha = 1.0
        for outer_it in range(1, max_outer + 1):
            grad = outer_gradient(cache, logl, r_hat=r_hat)
            grad = np.where(mask, grad, 0.0)
            grad_norm = float(np.linalg.norm(grad))
            if grad_norm <= tol_grad:
                break
            direction = -grad
            # trust-region cap: at most one log-lambda unit per outer step,
            # so descent cannot tunnel across an AICc barrier into the
            # degenerate small-lambda valley that exists for nearly
            # collinear parents
            alpha = min(max(alpha * 2.0, 1e-3), 1.0 / max(np.abs(direction).max(), 1e-12))
            accepted = False
            for _ in range(30):
                trial = np.clip(logl + alpha * direction, *LOG_LAMBDA_BOUNDS)
                try:
                    v_new, rep_new, r_new = outer_objective(cache, trial, r0=r_hat)
                except (BarrierViolationError, ModelTooComplexError,
                        np.linalg.LinAlgError):
                    alpha *= 0.5
                    continue
                if v_new <= value - 1e-4 * alpha * grad_norm ** 2:
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                break
            delta = value - v_new
            logl, value, report, r_hat = trial, v_new, rep_new, r_new
            if delta <= tol_obj:
                break
    report.outer_iters = outer_it
    report.grad_norm = grad_norm if np.isfinite(grad_norm) else report.grad_norm
    return logl, report, r_hat
