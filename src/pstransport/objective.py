"""Penalized transport objective for one map component.

The empirical objective is the sample sum of
``0.5 * S(x)^2 - log dS/dx_own``. With the additive spline parametrization
the nonmonotone coefficients minimize a penalized quadratic in closed
form (a symmetric positive-definite solve), leaving a small convex
problem in the raw monotone parameters r: level plus nonnegative
increments, with the log term acting as a barrier that keeps the
derivative ``W r`` positive at every sample.

``DesignCache`` holds the design, its lambda-independent Gram matrices
(the monotone block in raw coordinates) and the slope design ``W`` in
band form: a row of ``W`` is nonzero in at most ``degree`` adjacent
columns, since a B-spline of degree d - 1 lives on d knot spans (de Boor
1972), so each barrier Gram ``(W/s)'(W/s)`` is formed in O(n d^2), not
O(n p^2) (``_SlopeBand``; Eilers & Marx 1996). The penalties fixed by a
block size are built once per size (``_penalty_terms``). A design holds
no per-point state: it is not written after it is built.

``outer_objective`` scores one smoothing point: ``profile_operators``
eliminates beta_non, the inner solver fits r, judging steps on exact
objective differences, and each smoothing block's diagonal system gives
its effective degrees of freedom. Its ``FitReport`` carries that point,
and the outer gradient there factors only the inner Newton matrix.
Smoothing parameters are adapted by a quasi-Newton (BFGS) descent of
AICc inside a trust radius. Its gradient, and the sensitivity of the
inner optimum that predicts each trial's inner start, come from the
implicit function theorem; every analytic derivative here is validated
against finite differences in the test suite.

Every Cholesky factor and solve calls LAPACK's ``dpotrf``/``dpotrs``
directly: at small ensembles scipy's ``cho_factor``/``cho_solve`` argument
handling costs more than the p x p factorizations themselves. Each
matrix factored is positive definite by construction, so a failed
factorization raises ``LinAlgError`` (one of ``FIT_FAILURES``) naming the
matrix, and is never retried.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .splines import make_penalty

__all__ = [
    "DesignCache",
    "FitReport",
    "BarrierViolationError",
    "ModelTooComplexError",
    "FIT_FAILURES",
    "nll",
    "solve_non_closed_form",
    "reduced_penalized_objective",
    "fit_inner",
    "edf",
    "outer_objective",
    "outer_gradient",
    "adapt_lambdas",
]

RIDGE = 1e-8           # unconditional ridge keeping the lambda -> 0 limit solvable
PIN_TOL = 1e-12        # increments at or below this are treated as pinned at zero
INNER_TOL = 1e-8       # relative projected-gradient tolerance of the inner solve
ROUNDING_ULPS = 16     # ... floored at this many eps of the largest |H| |r| (rounding of H r)
INNER_MAX_ITER = 500   # projected Newton iterations before the inner solve gives up
OUTER_TOL_OBJ = 1e-6   # the outer search stops when a step gains at most this
OUTER_TOL_GRAD = 1e-4  # ... or when the adapted outer gradient norm is at most this


def _cho_factor(a, what):
    """Upper Cholesky factor of symmetric positive-definite ``a`` (``dpotrf``;
    the strict lower triangle holds leftover entries of ``a``). Raises
    ``ValueError`` on a non-finite entry and ``LinAlgError`` when ``a`` is
    not positive definite, each naming the matrix ``what``."""
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has a non-finite entry")
    c, info = dpotrf(a, lower=0, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"{what} is not positive definite (leading minor {info})")
    return c


def _cho_solve(c, b):
    """Solve ``a x = b`` for a vector or matrix ``b`` given ``c = _cho_factor(a)``
    (``dpotrs``)."""
    if b.size == 0:   # dpotrs rejects the 0 x 0 system of a parentless component
        return np.zeros(b.shape)
    return dpotrs(c, b, lower=0)[0]


class BarrierViolationError(ValueError):
    """Monotone derivative nonpositive at some sample."""


class ModelTooComplexError(RuntimeError):
    """AICc correction undefined: n - edf - 1 <= 0."""


# the errors that make one log-lambda point unfittable
FIT_FAILURES = (BarrierViolationError, ModelTooComplexError, np.linalg.LinAlgError)


@lru_cache(maxsize=8)
def _penalty_terms(size, order):
    """Read-only matrices fixed by a block size and penalty order: the map
    ``T`` from raw monotone coordinates to coefficients (lower-triangular
    ones), the penalty Gram ``K``, ``T' K T`` and ``RIDGE T' T``. A map
    fit's blocks share a few sizes, so each is built once."""
    T = np.tril(np.ones((size, size)))
    K = make_penalty(size, order).gram
    terms = (T, K, T.T @ K @ T, RIDGE * (T.T @ T))
    for arr in terms:
        arr.flags.writeable = False
    return terms


@lru_cache(maxsize=8)
def _band_layout(p, degree):
    """Read-only index arrays fixed by the width ``p`` and the degree d of a
    slope design, for a window starting at column 0: its in-band column
    pairs ``a <= b`` (two 1-d arrays); as columns over the pairs, each
    pair's row in a pair-major table, its slot in band storage (entry
    (i, i + o) of the upper triangle at ``i * d + o``), its flat position
    in p x p and its weight in a quadratic form read from ``M + M'`` (0.5
    on the diagonal, else 1); the window's column offsets, as a column; and
    the index from p x p to band storage, ``p * d`` (a zero slot) outside
    the band."""
    a, b = np.array([(a, b) for a in range(degree) for b in range(a, degree)],
                    dtype=np.intp).reshape(-1, 2).T
    i = np.arange(p)[:, None]
    offset = np.abs(i - i.T)
    layout = (a, b, np.arange(a.size)[:, None], (a * degree + b - a)[:, None],
              (a * p + b)[:, None], np.where(a == b, 0.5, 1.0)[:, None],
              np.arange(degree)[:, None],
              np.where(offset < degree, np.minimum(i, i.T) * degree + offset, p * degree))
    for arr in layout:
        arr.flags.writeable = False
    return layout


class _SlopeBand:
    """The slope design ``W`` (n x p) in band form, for weighted sums over
    its rows ``w_i`` of ``w_i w_i'``: the barrier Gram and the edf-gradient
    quadratic.

    Each row of ``W`` is nonzero in at most ``degree`` adjacent columns, its
    window; a window starting at the row's first nonzero column, or at
    ``p - degree`` if that is smaller, covers them. Per sample this keeps
    the ``degree (degree + 1) / 2`` products of its in-band column pairs,
    pair-major with the samples grouped by window start, and the sample
    order of that grouping. Per window present it keeps its sample count
    and where its sums go: their segments in the flat product table, their
    band storage slots and their flat positions in p x p (``_band_layout``).
    """

    def __init__(self, W, degree):
        n, p = W.shape
        a, b, rows, slots, pairs, self.halves, window, self.index = _band_layout(p, degree)
        start = np.minimum(np.argmax(W != 0, axis=1), p - degree)
        # the starts are small integers: a narrow type sorts by radix
        self.order = np.argsort(start.astype(np.min_scalar_type(p)), kind="stable")
        cols = W.take(self.order * p + start.take(self.order) + window)
        self.products = cols[a] * cols[b]
        counts = np.bincount(start)
        windows = np.flatnonzero(counts)
        self.counts = counts[windows]
        self.segments = (rows * n + (np.cumsum(self.counts) - self.counts)).ravel()
        self.slots = (windows * degree + slots).ravel()
        self.size = p * degree + 1
        self.pairs = windows * (p + 1) + pairs

    def gram(self, inv_s):
        """``(W/s)'(W/s)`` (p x p) where the slopes are ``1 / inv_s``."""
        v = inv_s.take(self.order)
        v *= v
        sums = np.add.reduceat((self.products * v).ravel(), self.segments)
        return np.bincount(self.slots, sums, self.size).take(self.index)

    def quadratic(self, M):
        """``w_i' M w_i`` for every row ``w_i`` of ``W``, for a p x p ``M``."""
        coef = (M + M.T).take(self.pairs) * self.halves
        q = np.empty(self.order.size)
        q[self.order] = np.einsum("kn,kn->n", self.products,
                                  np.repeat(coef, self.counts, axis=1))
        return q


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
    tables : dict, optional
        Basis tables shared between designs: maps a basis to its ``eval``
        table on the samples given for it. A basis found there is not
        evaluated again; one evaluated here is added, read-only. Designs
        share it only where each basis always comes with the same samples,
        as in one map fit, where a basis belongs to one variable.
    """

    def __init__(self, non_bases, parent_samples, mon_basis, own_samples,
                 penalty_order=2, tables=None):
        own_samples = np.asarray(own_samples, dtype=float)
        n = own_samples.size
        self.n = n
        self.non_bases = list(non_bases)
        self.mon_basis = mon_basis
        self.block_sizes = [b.num_basis for b in non_bases]
        self.m = int(sum(self.block_sizes))
        self.p = mon_basis.num_basis
        tables = {} if tables is None else tables

        def table(basis, xs):
            if basis not in tables:
                tables[basis] = basis.eval(xs)
                tables[basis].flags.writeable = False
            return tables[basis]

        cols = []
        self.non_slices = []
        start = 0
        for basis, xs in zip(non_bases, parent_samples):
            xs = np.asarray(xs, dtype=float)
            if xs.size != n:
                raise ValueError("parent sample length mismatch")
            cols.append(table(basis, xs))
            self.non_slices.append(slice(start, start + basis.num_basis))
            start += basis.num_basis
        # a single parent's block is its table itself, not a copy
        self.P_non = cols[0] if len(cols) == 1 else np.hstack([np.zeros((n, 0)), *cols])
        self.P_mon = table(mon_basis, own_samples)
        # raw coordinates r (beta_mon = T r): slopes W r are sums of nonnegative
        # terms, and the monotone Grams and penalty below act on r
        self.W = np.ascontiguousarray(mon_basis.eval_deriv_increments(own_samples))
        self.band = _SlopeBand(self.W, mon_basis.degree)
        T, self.mon_gram, self.mon_gram_raw, self.ridge_raw = _penalty_terms(self.p, penalty_order)
        P_raw = self.P_mon @ T
        self.G_nn = self.P_non.T @ self.P_non
        self.G_nm = self.P_non.T @ P_raw
        self.G_mm = P_raw.T @ P_raw
        self.non_grams = [_penalty_terms(s, penalty_order)[1] for s in self.block_sizes]
        self.num_blocks = len(self.block_sizes) + 1
        # a feasible, identity-like monotone start: raw coordinates of the
        # Greville coefficients, increments floored at 1e-8
        beta = mon_basis.greville()
        self._start_raw = np.concatenate([beta[:1], np.maximum(np.diff(beta), 1e-8)])
        self._start_raw.flags.writeable = False
        self._ridge_non = RIDGE * np.eye(self.m)

    # -- penalty assembly ---------------------------------------------------

    def s_non(self, lambdas):
        """Block-diagonal nonmonotone penalty (plus ridge)."""
        S = self._ridge_non.copy()
        for lam, gram, sl in zip(lambdas[:-1], self.non_grams, self.non_slices):
            S[sl, sl] += lam * gram
        return S

    def s_mon(self, lambdas):
        """Monotone-coefficient penalty (plus ridge), acting on cumsum(beta_raw)."""
        return lambdas[-1] * self.mon_gram + RIDGE * np.eye(self.p)

    def s_mon_raw(self, lambdas):
        """``T' s_mon(lambdas) T``: the monotone penalty acting on beta_raw."""
        return lambdas[-1] * self.mon_gram_raw + self.ridge_raw

    def default_raw(self):
        """Feasible start: the identity-like monotone fit (Greville coefficients)."""
        return self._start_raw.copy()

    # -- reduced (profiled) objective --------------------------------------

    def profile_operators(self, log_lambdas):
        """The reduced problem at ``log_lambdas`` after eliminating beta_non,
        built afresh on every call as a read-only ``_Profile``.

        In raw monotone coordinates r, ``beta_non = -D @ r`` with ``D =
        (G_nn + S_non)^-1 G_nm`` are the optimal nonmonotone coefficients,
        ``H = G_mm - G_nm' D + T' S_mon T`` is the Hessian of the penalized
        quadratic left in r, ``lambdas = exp(log_lambdas)``, ``chol`` is the
        Cholesky factor of ``G_nn + S_non`` and ``S_non``, ``S_mon_raw`` are
        the penalties, which the block factors of the same point read.
        """
        log_lambdas = np.array(log_lambdas, dtype=float)
        lambdas = np.exp(log_lambdas)
        if lambdas.size != self.num_blocks:
            raise ValueError(f"expected {self.num_blocks} lambdas, got {lambdas.size}")
        S_non, S_mon_raw = self.s_non(lambdas), self.s_mon_raw(lambdas)
        chol = _cho_factor(self.G_nn + S_non, "nonmonotone system")
        D = _cho_solve(chol, self.G_nm)
        H = self.G_mm - self.G_nm.T @ D + S_mon_raw
        profile = _Profile(log_lambdas, H, D, lambdas, chol, S_non, S_mon_raw)
        for arr in vars(profile).values():
            arr.flags.writeable = False
        return profile


@dataclass(frozen=True)
class _Profile:
    """``DesignCache.profile_operators`` at one log-lambda point."""

    log_lambdas: np.ndarray
    H: np.ndarray
    D: np.ndarray
    lambdas: np.ndarray
    chol: np.ndarray
    S_non: np.ndarray
    S_mon_raw: np.ndarray


@dataclass
class FitReport:
    """Diagnostics of one adapted component fit.

    ``stop_reason`` says why ``adapt_lambdas`` stopped: ``"gradient"`` (outer
    gradient norm at most ``OUTER_TOL_GRAD``), ``"objective"`` (the last
    accepted step gained at most ``OUTER_TOL_OBJ``), ``"cap"`` (``max_outer``
    steps accepted), ``"line_search"`` (no acceptable step moves the
    log-lambdas) or ``"fixed"`` (no block adapted). ``outer_iters`` counts
    accepted steps.

    ``grad_norm`` is the norm of the adapted blocks' outer log-lambda
    gradient at the returned ``log_lambdas``, NaN when no block adapts.
    ``inner_grad_norm`` is the projected gradient norm of the inner solve
    there, and ``converged`` says whether that solve met its tolerance.
    ``design`` is the component's ``DesignCache``, for its sizes or a refit;
    it holds no per-point state. ``point`` is the scored point, ``(profile,
    r_hat, _block_factors(...))``, which the gradient and the fit read."""

    nll: float
    edf: float
    aicc: float
    log_lambdas: np.ndarray
    inner_iters: int = 0
    outer_iters: int = 0
    converged: bool = True
    grad_norm: float = np.nan
    inner_grad_norm: float = np.nan
    edf_blocks: np.ndarray = field(default_factory=lambda: np.zeros(0))
    stop_reason: str = ""
    design: DesignCache = field(default=None, repr=False, compare=False)
    point: tuple = field(default=None, repr=False, compare=False)


# -- objective values -------------------------------------------------------


def _slopes(cache, beta_mon_raw):
    """Monotone derivative at every sample; raises outside the barrier domain."""
    s = cache.W @ beta_mon_raw
    if s.min() <= 0:
        raise BarrierViolationError("nonpositive monotone derivative at a sample")
    return s


def nll(cache, beta_non, beta_mon_raw):
    """Sample-summed transport objective at the given coefficients."""
    resid = cache.P_mon @ np.cumsum(beta_mon_raw) + cache.P_non @ beta_non
    return 0.5 * float(resid @ resid) - float(np.sum(np.log(_slopes(cache, beta_mon_raw))))


def solve_non_closed_form(cache, beta_mon_raw, log_lambdas):
    """Optimal nonmonotone coefficients for fixed monotone coefficients."""
    return -cache.profile_operators(log_lambdas).D @ np.asarray(beta_mon_raw, dtype=float)


def _newton_state(cache, H, r):
    """Slopes ``s``, their reciprocals, ``H r`` and the gradient of the
    reduced objective at r."""
    s = _slopes(cache, r)
    inv_s = 1.0 / s
    Hr = H @ r
    return s, inv_s, Hr, Hr - cache.W.T @ inv_s


def _newton_hessian(cache, H, inv_s):
    """Hessian of the reduced objective where the slopes are ``1 / inv_s``:
    H plus the barrier Gram ``(W/s)'(W/s)``."""
    return H + cache.band.gram(inv_s)


def reduced_penalized_objective(cache, beta_mon_raw, log_lambdas):
    """Value, gradient, and Hessian of the profiled objective in raw parameters."""
    r = np.asarray(beta_mon_raw, dtype=float)
    H = cache.profile_operators(log_lambdas).H
    s, inv_s, Hr, grad = _newton_state(cache, H, r)
    value = 0.5 * float(r @ Hr) - float(np.sum(np.log(s)))
    return value, grad, _newton_hessian(cache, H, inv_s)


# -- inner solver -----------------------------------------------------------


def _rounding_bound(H):
    """``max_i sum_j |H_ij|``, padded by 1e-6 relative to cover the rounding
    of both sums: times ``max |r|`` it bounds the largest ``|H| |r|``."""
    return float(np.abs(H).sum(axis=1).max()) * (1.0 + 1e-6)


def _stationarity(H, r, grad, Hr, bound):
    """(converged, projected gradient norm, pinned mask); the test is scaled
    by the size of the gradient's two terms, ``H r`` and ``W'(1/s)``, and
    floored at the rounding of ``H r``, the largest ``|H| |r|`` in eps,
    which can exceed it at large lambda. ``bound`` is ``_rounding_bound(H)``:
    the floor is formed only where the gradient is within its bound."""
    pinned = (r <= PIN_TOL) & (grad > 0)
    pinned[0] = False   # the level is unconstrained
    g = np.where(pinned, 0.0, grad)
    pg_norm = float(np.sqrt(g @ g))
    scale = max(1.0, np.abs(Hr).max(), np.abs(Hr - grad).max())
    eps = ROUNDING_ULPS * np.finfo(float).eps
    converged = pg_norm <= INNER_TOL * scale or (
        pg_norm <= eps * bound * float(np.abs(r).max())
        and pg_norm <= eps * float((np.abs(H) @ np.abs(r)).max()))
    return converged, pg_norm, pinned


def fit_inner(cache, log_lambdas, r0=None):
    """Projected Newton on the reduced objective in raw coordinates, increments >= 0.

    Starts from ``r0`` with increments clipped at 0, or from ``default_raw()``
    if ``r0`` is None or then has a nonpositive slope. Each stepping pass
    factors the Newton matrix once (a failure raises ``LinAlgError``) and
    accepts steps on the exact change ``(H r).d + d'H d / 2 - sum log1p((W d)
    / s)``: where the monotone level and the parent constants are
    confounded, the value itself cancels to rounding noise.

    Returns (raw_parameters, iterations, converged, projected_grad_norm);
    iterations is 1 for a converged start and ``INNER_MAX_ITER`` at the cap.
    """
    return _fit_inner(cache, cache.profile_operators(log_lambdas), r0)


def _fit_inner(cache, profile, r0):
    """``fit_inner`` at the point whose profile operators are ``profile``."""
    H = profile.H
    bound = _rounding_bound(H)
    r = cache.default_raw() if r0 is None else np.array(r0, dtype=float)
    r[1:] = np.maximum(r[1:], 0.0)
    if np.any(cache.W @ r <= 0):
        r = cache.default_raw()
    for it in range(1, INNER_MAX_ITER + 2):
        s, inv_s, Hr, grad = _newton_state(cache, H, r)
        converged, pg_norm, pinned = _stationarity(H, r, grad, Hr, bound)
        if converged or it > INNER_MAX_ITER:
            break
        hess = _newton_hessian(cache, H, inv_s)
        if pinned.any():
            free = ~pinned
            step = np.zeros_like(r)
            step[free] = -_cho_solve(_cho_factor(hess[np.ix_(free, free)],
                                                 "inner Newton matrix"), grad[free])
        else:
            step = -_cho_solve(_cho_factor(hess, "inner Newton matrix"), grad)
        alpha = 1.0
        for _ in range(40):
            cand = r + alpha * step
            cand[1:] = np.maximum(cand[1:], 0.0)
            delta = cand - r
            ratio = (cache.W @ delta) / s   # slopes at cand are s * (1 + ratio)
            if np.all(ratio > -1.0) and float(delta @ (Hr + 0.5 * (H @ delta))) \
                    - float(np.sum(np.log1p(ratio))) <= 1e-4 * float(grad @ delta):
                break
            alpha *= 0.5
        else:
            break   # no acceptable step: leave unconverged
        r = cand
    return r, min(it, INNER_MAX_ITER), converged, pg_norm


# -- effective degrees of freedom and outer objective -----------------------


def _block_factors(cache, profile, r_hat):
    """Per-block factors of the penalized Hessian at (profile, r_hat).

    Returns ``(blocks, free, factors, traces)``: the smoothing blocks,
    parents first and monotone last, as (slice into (beta_non, free raw
    coords), unit-lambda penalty, unpenalized diagonal block Hu_b, penalty
    block Pen_b), with increments pinned at zero left out; the free mask;
    per block the Cholesky factor of Hu_b + Pen_b with Hp_b^-1 Hu_b; and
    the per-block edf tr(Hp_b^-1 Hu_b). A parent block is ``G_nn`` plus its
    penalty, the monotone block ``G_mm`` plus the barrier Gram (formed from
    the design's band products) plus its penalty. Each block is taken
    with the other blocks' coefficients held fixed; this keeps the lambda
    -> infinity limit at the penalty null-space dimension per block even
    though the additive level is shared. The penalties are the profile's,
    and a single parent block, ``G_nn + S_non`` itself, takes the profile's
    factor. The state is read-only.
    """
    S_non, S_mon = profile.S_non, profile.S_mon_raw
    free = np.ones(r_hat.size, dtype=bool)
    free[1:] = r_hat[1:] > PIN_TOL
    Hu_mon = cache.G_mm + cache.band.gram(1.0 / _slopes(cache, r_hat))
    K_mon = cache.mon_gram_raw
    if not free.all():
        ff = np.ix_(free, free)
        Hu_mon, S_mon, K_mon = Hu_mon[ff], S_mon[ff], K_mon[ff]
    blocks = [(sl, gram, cache.G_nn[sl, sl], S_non[sl, sl])
              for sl, gram in zip(cache.non_slices, cache.non_grams)]
    blocks.append((slice(cache.m, cache.m + K_mon.shape[0]), K_mon, Hu_mon, S_mon))
    factors = []
    for i, (_, _, Hu_b, Pen_b) in enumerate(blocks):
        # a single parent block is G_nn + S_non, the matrix the profile factored
        chol = profile.chol if i == 0 and len(blocks) == 2 else \
            _cho_factor(Hu_b + Pen_b, "penalized Hessian block")
        factors.append((chol, _cho_solve(chol, Hu_b)))
    for arr in (free, *(a for b in blocks for a in b[1:]),
                *(a for f in factors for a in f)):
        arr.flags.writeable = False
    traces = tuple(float(np.trace(W)) for _, W in factors)
    return tuple(blocks), free, tuple(factors), traces


def edf(cache, r_hat, log_lambdas, per_block=False):
    """Effective degrees of freedom tr[Hpen^-1 Hunpen], summed over blocks.

    With ``per_block=True`` also returns the per-block traces
    (parents first, monotone last).
    """
    traces = _block_factors(cache, cache.profile_operators(log_lambdas), r_hat)[-1]
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
    """Fit the inner problem on one profile and score it with AICc; returns
    (aicc, report, r_hat), the report carrying the point."""
    profile = cache.profile_operators(log_lambdas)
    r_hat, iters, conv, pg = _fit_inner(cache, profile, r0)
    factors = _block_factors(cache, profile, r_hat)
    total = float(sum(factors[-1]))
    nll_value = nll(cache, -profile.D @ r_hat, r_hat)
    aicc = nll_value + _aicc_penalty(total, cache.n)
    report = FitReport(
        nll=nll_value, edf=total, aicc=aicc,
        log_lambdas=np.array(log_lambdas, dtype=float),
        inner_iters=iters, converged=conv, inner_grad_norm=pg,
        edf_blocks=np.array(factors[-1]), design=cache, point=(profile, r_hat, factors),
    )
    return aicc, report, r_hat


def outer_gradient(cache, log_lambdas, r_hat=None):
    """Total derivative of the AICc outer objective w.r.t. each log lambda.

    Uses the implicit function theorem at the inner optimum; every
    increment at or below ``PIN_TOL`` is removed from the implicit system
    (its sensitivity is zero), whatever the sign of its multiplier.
    """
    profile = cache.profile_operators(log_lambdas)
    if r_hat is None:
        r_hat = _fit_inner(cache, profile, None)[0]
    point = (profile, r_hat, _block_factors(cache, profile, r_hat))
    return _outer_gradient_and_sensitivity(cache, point)[0]


def _outer_gradient_and_sensitivity(cache, point):
    """``outer_gradient`` at a scored point (``FitReport.point``) together
    with the sensitivity ``d r_hat / d log_lambdas`` (p x blocks, zero rows
    at the increments at or below ``PIN_TOL``, which the solve leaves out):
    both come from the one implicit-function solve."""
    profile, r_hat, (blocks, free, factors, traces) = point
    D, lambdas = profile.D, profile.lambdas
    penprime = _aicc_penalty_deriv(sum(traces), cache.n)
    beta = np.concatenate([-D @ r_hat, r_hat[free]])

    # d beta / d log lambda_b = -(Hu + Pen)^-1 (lambda_b G_b beta), one column
    # per block; the unpenalized gradient gL at the optimum is minus the
    # penalty gradient, block by block (Pen is block-diagonal)
    rhs = np.zeros((beta.size, len(blocks)))
    gL = np.empty(beta.size)
    for col, (lam, (sl, gram, _, Pen_b)) in enumerate(zip(lambdas, blocks)):
        rhs[sl, col] = lam * (gram @ beta[sl])
        gL[sl] = -Pen_b @ beta[sl]
    # eliminate beta_non through the profile's factor of G_nn + S_non: its
    # Schur complement in Hu + Pen is the inner Newton matrix at r_hat on the
    # free raw coordinates
    G_f, D_f = (cache.G_nm, D) if free.all() else (cache.G_nm[:, free], D[:, free])
    N = blocks[-1][2] + blocks[-1][3] - G_f.T @ D_f
    rhs_n = rhs[:cache.m]
    dr_f = -_cho_solve(_cho_factor(N, "inner Newton matrix"), rhs[cache.m:] - D_f.T @ rhs_n)
    dbeta = np.concatenate([-_cho_solve(profile.chol, rhs_n) - D_f @ dr_f, dr_f])

    # only the monotone block's edf depends on beta (through the barrier)
    chol_m, W_m = factors[-1]
    V_m = _cho_solve(chol_m, np.eye(W_m.shape[0]))
    M = V_m - W_m @ V_m
    if not free.all():   # the pinned columns of W drop out
        M, M_free = np.zeros((cache.p, cache.p)), M
        M[np.ix_(free, free)] = M_free
    q = cache.band.quadratic(M)
    grad_edf = -2.0 * (cache.W.T @ (q / (cache.W @ r_hat) ** 3))[free]

    # explicit part: d tr(Hp_b^-1 Hu_b) / d log lambda_b at fixed beta
    dedf = np.array([-lam * float(np.sum(_cho_solve(chol, gram) * W.T))
                     for lam, (_, gram, _, _), (chol, W) in zip(lambdas, blocks, factors)])
    dr = np.zeros((r_hat.size, len(blocks)))
    dr[free] = dr_f
    return gL @ dbeta + penprime * (dedf + grad_edf @ dr_f), dr


# -- outer optimizer --------------------------------------------------------

LOG_LAMBDA_BOUNDS = (-15.0, 15.0)
RADIUS_MAX = 4.0       # largest infinity-norm log-lambda step of the outer search
CURVATURE_TOL = 1e-8   # BFGS pairs need s'y above this fraction of |s| |y|


def adapt_lambdas(cache, log_lambdas0, adapt_mask, max_outer):
    """Descend the AICc outer objective over log smoothing parameters.

    Starts at ``log_lambdas0``; ``adapt_mask`` selects which blocks move
    and at most ``max_outer`` steps are accepted. With no block selected
    the start is scored once and returned. Each pass takes the masked
    outer gradient at the current point, the one it would return, and
    stops there on the gradient, objective or cap test, in that order.

    Steps follow BFGS: the inverse Hessian approximation starts at the
    identity, is scaled by s'y / y'y at its first update, is updated only
    on pairs of positive curvature and is reset when it gives no descent
    direction. Each step is cut to an infinity-norm radius that starts at
    one log-lambda unit, doubles up to ``RADIUS_MAX`` after an accepted
    step it cut and halves, not below one unit, after a backtrack: an
    uncapped step can tunnel across an AICc barrier into the degenerate
    small-lambda valley that exists for nearly collinear parents. Steps
    are halved until they pass the Armijo test; a trial that rounds back
    to the current point ends the line search unscored, and a trial that
    fails (``FIT_FAILURES``) scores infinity. Each trial's inner solve
    starts from the implicit-function prediction of its optimum.
    Returns (log_lambdas, report, r_hat).
    """
    logl = np.array(log_lambdas0, dtype=float)
    mask = np.asarray(adapt_mask, dtype=bool)
    value, report, r_hat = outer_objective(cache, logl)
    stop, grad_norm = "fixed", np.nan
    steps, gain, radius = 0, np.inf, 1.0
    inv_hess = None   # stands for the identity until the first BFGS update
    last_step, last_grad = None, None
    while mask.any():
        full, dr = _outer_gradient_and_sensitivity(cache, report.point)
        grad = np.where(mask, full, 0.0)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= OUTER_TOL_GRAD:
            stop = "gradient"
            break
        if gain <= OUTER_TOL_OBJ:
            stop = "objective"
            break
        if steps >= max_outer:
            stop = "cap"
            break
        if last_step is not None:
            y = grad - last_grad
            sy = float(last_step @ y)
            if sy > CURVATURE_TOL * np.linalg.norm(last_step) * np.linalg.norm(y):
                if inv_hess is None:
                    inv_hess = sy / float(y @ y) * np.eye(logl.size)
                v = np.eye(logl.size) - np.outer(last_step, y) / sy
                inv_hess = v @ inv_hess @ v.T + np.outer(last_step, last_step) / sy
        direction = -grad if inv_hess is None else -inv_hess @ grad
        if direction @ grad >= 0:
            inv_hess, direction = None, -grad
        longest = np.abs(direction).max()
        cut = longest > radius
        if cut:
            direction *= radius / longest
        directional = float(grad @ direction)
        alpha, accepted = 1.0, False
        for halvings in range(30):
            trial = np.clip(logl + alpha * direction, *LOG_LAMBDA_BOUNDS)
            if np.array_equal(trial, logl):
                break   # the step is below the rounding of log-lambda
            r0 = r_hat + dr @ (trial - logl)   # fit_inner clips it or restarts
            try:
                v_new, rep_new, r_new = outer_objective(cache, trial, r0=r0)
            except FIT_FAILURES:
                v_new = np.inf   # fails the Armijo test: halve the step
            accepted = v_new <= value + 1e-4 * alpha * directional
            if accepted:
                break
            alpha *= 0.5
        if not accepted:
            stop = "line_search"
            break
        if halvings:
            radius = max(radius / 2.0, 1.0)
        elif cut:
            radius = min(radius * 2.0, RADIUS_MAX)
        gain = value - v_new
        last_step, last_grad = trial - logl, grad
        logl, value, report, r_hat = trial, v_new, rep_new, r_new
        steps += 1
    report.outer_iters = steps
    report.grad_norm = grad_norm
    report.stop_reason = stop
    return logl, report, r_hat
