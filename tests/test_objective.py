import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize

from pstransport import objective
from pstransport.objective import (
    BarrierViolationError,
    DesignCache,
    ModelTooComplexError,
    RIDGE,
    adapt_lambdas,
    edf,
    fit_inner,
    nll,
    outer_gradient,
    outer_objective,
    reduced_penalized_objective,
    solve_non_closed_form,
)
from pstransport.splines import KnotVector, SplineBasis, make_knots


def gaussian_cache(n=100, rho=0.8, seed=0, num_knots=8):
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal(n)
    x2 = rho * x1 + np.sqrt(1 - rho ** 2) * rng.standard_normal(n)
    non = SplineBasis(make_knots(x1, 3, num_knots))
    mon = SplineBasis(make_knots(x2, 3, num_knots))
    return DesignCache([non], [x1], mon, x2, 2)


@pytest.fixture(scope="module")
def cache():
    return gaussian_cache()


def feasible_raw(cache, seed=0):
    rng = np.random.default_rng(seed)
    r = cache.default_raw()
    r[0] += 0.1 * rng.standard_normal()
    r[1:] *= rng.uniform(0.5, 1.5, r.size - 1)
    return r


def test_default_raw_is_a_fresh_copy(cache):
    start = cache.default_raw()
    want = start.copy()
    start[:] = -1.0
    assert np.array_equal(cache.default_raw(), want)


def test_nll_barrier(cache):
    r = feasible_raw(cache)
    r[1:] = 0.0
    r[0] = 1.0
    with pytest.raises(BarrierViolationError):
        nll(cache, np.zeros(cache.m), r)


def test_closed_form_nonmonotone_matches_joint_minimization(cache):
    """Eliminating the nonmonotone block in closed form must agree with a
    generic numerical minimization of the full penalized objective."""
    logl = np.array([0.5, 1.0])
    r = feasible_raw(cache, 1)
    beta_mon = np.cumsum(r)
    closed = solve_non_closed_form(cache, r, logl)
    S_non = cache.s_non(np.exp(logl))

    def full(beta_non):
        resid = cache.P_non @ beta_non + cache.P_mon @ beta_mon
        return 0.5 * resid @ resid + 0.5 * beta_non @ S_non @ beta_non

    res = minimize(full, np.zeros(cache.m), method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 2000})
    assert np.max(np.abs(closed - res.x)) < 1e-6


def test_reduced_equals_full_after_substitution(cache):
    logl = np.array([0.5, 1.0])
    r = feasible_raw(cache, 2)
    beta_non = solve_non_closed_form(cache, r, logl)
    beta_mon = np.cumsum(r)
    S_non = cache.s_non(np.exp(logl))
    S_mon = cache.s_mon(np.exp(logl))
    full = nll(cache, beta_non, r) \
        + 0.5 * beta_non @ S_non @ beta_non \
        + 0.5 * beta_mon @ S_mon @ beta_mon
    reduced, _, _ = reduced_penalized_objective(cache, r, logl)
    assert reduced == pytest.approx(full, abs=1e-9)


def test_reduced_gradient_matches_finite_differences(cache):
    logl = np.array([0.0, 0.5])
    r = feasible_raw(cache, 3)
    _, grad, _ = reduced_penalized_objective(cache, r, logl)
    h = 1e-6
    for k in range(r.size):
        e = np.zeros_like(r); e[k] = h
        vp, _, _ = reduced_penalized_objective(cache, r + e, logl)
        vm, _, _ = reduced_penalized_objective(cache, r - e, logl)
        fd = (vp - vm) / (2 * h)
        assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_reduced_hessian_matches_finite_differences(cache):
    logl = np.array([0.0, 0.5])
    r = feasible_raw(cache, 4)
    _, _, hess = reduced_penalized_objective(cache, r, logl)
    h = 1e-5
    for k in range(r.size):
        e = np.zeros_like(r); e[k] = h
        _, gp, _ = reduced_penalized_objective(cache, r + e, logl)
        _, gm, _ = reduced_penalized_objective(cache, r - e, logl)
        fd = (gp - gm) / (2 * h)
        denom = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(hess[:, k] - fd) / denom) < 1e-5


def test_inner_solver_converges_and_is_stationary(cache):
    logl = np.array([1.0, 1.0])
    r_hat, iters, converged, pg = fit_inner(cache, logl)
    assert converged
    _, grad, _ = reduced_penalized_objective(cache, r_hat, logl)
    free = np.ones_like(r_hat, dtype=bool)
    free[1:] = r_hat[1:] > 1e-12
    assert np.max(np.abs(grad[free])) < 1e-5
    # pinned coordinates must not want to move inward
    assert np.all(grad[~free] >= -1e-7)


def test_inner_iterations_count_passes(cache, monkeypatch):
    """A start at its own optimum takes one pass; a solve stopped by the cap
    reports the cap."""
    logl = np.array([1.0, 1.0])
    r_hat = fit_inner(cache, logl)[0]
    assert fit_inner(cache, logl, r0=r_hat)[1:3] == (1, True)
    monkeypatch.setattr(objective, "INNER_MAX_ITER", 2)
    assert fit_inner(cache, logl)[1:3] == (2, False)


def test_inner_solution_beats_perturbations(cache):
    logl = np.array([1.0, 1.0])
    r_hat, _, _, _ = fit_inner(cache, logl)
    v0, _, _ = reduced_penalized_objective(cache, r_hat, logl)
    rng = np.random.default_rng(5)
    for _ in range(20):
        r = r_hat.copy()
        r[0] += 0.01 * rng.standard_normal()
        r[1:] = np.maximum(r[1:] + 0.01 * rng.standard_normal(r.size - 1), 0)
        v, _, _ = reduced_penalized_objective(cache, r, logl)
        assert v >= v0 - 1e-10


def test_clipped_start_reaches_the_default_start_optimum(cache, monkeypatch):
    """A start with a negative increment is clipped at zero and solved from
    there; a start whose clipped slopes are not all positive restarts from
    default_raw(). Both reach the optimum of the default start."""
    logl = np.array([1.0, 1.0])
    plain = fit_inner(cache, logl)[0]
    restarts = []
    default_raw = cache.default_raw
    monkeypatch.setattr(cache, "default_raw", lambda: restarts.append(1) or default_raw())
    negative = feasible_raw(cache, seed=2)
    negative[3] = -0.2
    clipped = negative.copy()
    clipped[3] = 0.0
    assert (cache.W @ clipped).min() > 0
    flat = feasible_raw(cache, seed=2)
    flat[1:] = -flat[1:]   # clipped to all-zero increments: zero slope everywhere
    for r0, restarted in ((negative, False), (flat, True)):
        restarts.clear()
        r, _, converged, _ = fit_inner(cache, logl, r0=r0)
        assert converged and bool(restarts) == restarted
        assert np.abs(r - plain).max() <= 10 * objective.INNER_TOL * np.abs(plain).max()


def test_inner_solve_raises_on_an_indefinite_newton_matrix(cache, monkeypatch):
    """The Newton matrix is positive definite by construction; if it is not,
    the factorization error propagates instead of being patched over."""
    monkeypatch.setattr(objective, "_newton_hessian",
                        lambda cache, H, s: -np.eye(H.shape[0]))
    with pytest.raises(np.linalg.LinAlgError, match="inner Newton matrix"):
        fit_inner(cache, np.array([1.0, 1.0]))


def indefinite_nonmonotone_system(monkeypatch, cache, logl, r_hat):
    monkeypatch.setattr(cache, "s_non", lambda lambdas: -1e6 * np.eye(cache.m))
    return lambda: cache.profile_operators(logl + 1.0)


def indefinite_monotone_block(monkeypatch, cache, logl, r_hat):
    """Break the monotone penalty: the profile operators built at the next
    point keep the broken penalty, which the block factors read."""
    monkeypatch.setattr(cache, "s_mon_raw", lambda lambdas: -1e6 * np.eye(cache.p))
    return lambda: objective._block_factors(cache, cache.profile_operators(logl + 1.0), r_hat)


def indefinite_gradient_newton_matrix(monkeypatch, cache, logl, r_hat):
    """Scale the parent-monotone coupling the gradient subtracts after the
    point at logl is scored, so only the Schur complement that the gradient
    factors, the inner Newton matrix at r_hat, fails."""
    point = outer_objective(cache, logl, r0=r_hat)[1].point
    monkeypatch.setattr(cache, "G_nm", 1e6 * cache.G_nm)
    return lambda: objective._outer_gradient_and_sensitivity(cache, point)


@pytest.mark.parametrize("break_matrix, name", [
    (indefinite_nonmonotone_system, "nonmonotone system"),
    (indefinite_monotone_block, "penalized Hessian block"),
    (indefinite_gradient_newton_matrix, "inner Newton matrix"),
])
def test_factorization_failures_name_their_matrix(monkeypatch, break_matrix, name):
    """Every Cholesky factorization of the fit names its matrix when it fails."""
    cache, logl = gaussian_cache(), np.array([1.0, 1.0])
    r_hat = fit_inner(cache, logl)[0]
    call = break_matrix(monkeypatch, cache, logl, r_hat)
    with pytest.raises(np.linalg.LinAlgError,
                       match=rf"^{name} is not positive definite \(leading minor \d+\)$"):
        call()


# component 2 (parent 1) of a sparse Lorenz-63 fit in the n=50, seed-2 filter
# run, standardized and rounded to 3 digits: the own variable nearly follows
# its parent
STALL_PARENT = np.array([
    -1.23, -1.64, 0.653, -0.967, 0.562, -0.601, -0.689, -0.949, 0.277, -1.02, 1.25,
    0.34, 1.49, 0.638, 0.905, 0.291, 0.353, 0.415, -0.593, -0.368, -1.41, 0.867, -0.351,
    0.75, 0.335, -2.28, 1.42, 0.0584, -3.05, -0.619, -1.42, -0.52, 0.345, 0.152, -1.25,
    1.28, -1.32, 0.27, 0.366, -0.573, 1.08, 0.306, -2.56, 0.432, -0.105, -0.838, -1.64,
    -0.0584, 1.47, -0.379
])
STALL_OWN = np.array([
    -1.21, -1.63, 0.66, -0.916, 0.614, -0.556, -0.669, -0.929, 0.323, -1.01, 1.26,
    0.376, 1.5, 0.673, 0.939, 0.298, 0.353, 0.43, -0.564, -0.327, -1.39, 0.983, -0.311,
    0.743, 0.369, -2.3, 1.45, 0.0179, -3.09, -0.571, -1.42, -0.482, 0.383, 0.158, -1.24,
    1.3, -1.29, 0.267, 0.414, -0.566, 1.12, 0.338, -2.56, 0.467, -0.11, -0.817, -1.64,
    -0.0179, 1.49, -0.355
])


def test_inner_solve_stops_at_the_rounding_of_h_r(monkeypatch):
    """At monotone log-lambda 15, |H| is near 6.5e6 and |r| near 51, so the
    relative tolerance (1e-8 here) is below the rounding of H r and only the
    rounding floor ends the solve. Without the floor it ran all
    INNER_MAX_ITER passes, and those passes lowered the value by less than
    the rounding of r'H r."""
    cache = DesignCache([SplineBasis(make_knots(STALL_PARENT))], [STALL_PARENT],
                        SplineBasis(make_knots(STALL_OWN)), STALL_OWN)
    logl = np.array([1.2, 15.0])
    r, iters, converged, _ = fit_inner(cache, logl)
    assert converged and iters < 20
    monkeypatch.setattr(objective, "ROUNDING_ULPS", 0)
    r_cap, cap_iters, cap_converged, _ = fit_inner(cache, logl)
    assert (cap_iters, cap_converged) == (objective.INNER_MAX_ITER, False)
    H = cache.profile_operators(logl).H
    rounding = np.finfo(float).eps * float(np.abs(r) @ np.abs(H) @ np.abs(r))
    value = reduced_penalized_objective(cache, r, logl)[0]
    assert value - reduced_penalized_objective(cache, r_cap, logl)[0] <= rounding


def exact_stationarity(H, r, grad, Hr):
    """The inner stop decision with the rounding floor always formed."""
    pinned = (r <= objective.PIN_TOL) & (grad > 0)
    pinned[0] = False
    g = np.where(pinned, 0.0, grad)
    pg_norm = float(np.sqrt(g @ g))
    scale = max(1.0, np.abs(Hr).max(), np.abs(Hr - grad).max())
    floor = objective.ROUNDING_ULPS * np.finfo(float).eps * float((np.abs(H) @ np.abs(r)).max())
    return pg_norm <= objective.INNER_TOL * scale or pg_norm <= floor, pg_norm, floor


def stationarity_cases():
    """(H, r, Hr - grad) triples: random well-scaled ones, ones where r lies
    in the near-null space of a huge H (H r cancels, so only the rounding
    floor can be met), and the large-lambda stall design at its optimum."""
    rng = np.random.default_rng(7)
    for p in (3, 8, 20):
        for big in (1.0, 1e6, 1e12):
            Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
            H = Q @ np.diag(rng.uniform(1.0, big, p)) @ Q.T
            r = rng.uniform(0.0, 50.0, p)
            r[rng.random(p) < 0.3] = 0.0
            yield H, r, rng.standard_normal(p)
            a = np.zeros(p)
            a[:2] = 1.0, -1.0
            r = np.full(p, 40.0)
            yield big * np.outer(a, a) + 1e-3 * np.eye(p), r, 1e-6 * rng.standard_normal(p)
    cache = DesignCache([SplineBasis(make_knots(STALL_PARENT))], [STALL_PARENT],
                        SplineBasis(make_knots(STALL_OWN)), STALL_OWN)
    logl = np.array([1.2, 15.0])
    r = fit_inner(cache, logl)[0]
    s = cache.W @ r
    yield cache.profile_operators(logl).H, r, cache.W.T @ (1.0 / s)


def test_stationarity_bound_gives_the_exact_decision():
    """With the rounding floor formed only where the gradient is within its
    per-lambda bound, every stop decision equals the one that always forms
    it: over gradients scaled across the relative test and the floor, and
    just inside and outside each, including points where only the floor
    converges."""
    floor_only = 0
    for H, r, barrier in stationarity_cases():
        Hr = H @ r
        bound = objective._rounding_bound(H)
        direction = np.random.default_rng(r.size).standard_normal(r.size)
        direction /= np.linalg.norm(direction)
        _, _, floor = exact_stationarity(H, r, Hr - barrier, Hr)
        for size in (floor, objective.INNER_TOL * max(1.0, np.abs(Hr).max())):
            for factor in (0.0, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0, 1e3):
                grad = factor * size * direction
                want = exact_stationarity(H, r, grad, Hr)
                got = objective._stationarity(H, r, grad, Hr, bound)
                assert got[0] == want[0] and got[1] == want[1]
                rel = want[1] <= objective.INNER_TOL * max(
                    1.0, np.abs(Hr).max(), np.abs(Hr - grad).max())
                floor_only += want[0] and not rel
        assert np.abs(H).sum(axis=1).max() * np.abs(r).max() <= bound * np.abs(r).max()
    assert floor_only >= 10


def test_one_parent_block_takes_the_profile_factor(monkeypatch):
    """With one parent the parent block of the edf is G_nn + S_non, which
    the profile operators factored: the block state holds that very factor
    and factors only the monotone block; with two parents each parent block
    is factored."""
    for make, logl, parent_factors in ((gaussian_cache, [1.0, 2.0], 0),
                                       (two_parent_cache, [0.5, -1.0, 1.5], 2)):
        cache, logl = make(), np.array(logl)
        r_hat = fit_inner(cache, logl)[0]
        profile = cache.profile_operators(logl)
        names = factored(monkeypatch)
        blocks, _, factors, traces = objective._block_factors(cache, profile, r_hat)
        assert names == ["penalized Hessian block"] * (parent_factors + 1)
        assert (factors[0][0] is profile.chol) == (parent_factors == 0)
        _, _, Hu, Pen = blocks[0]
        fresh = objective._cho_factor(Hu + Pen, "fresh")
        assert np.array_equal(factors[0][0], fresh)
        assert traces[0] == np.trace(objective._cho_solve(fresh, Hu))
        monkeypatch.undo()


def test_design_penalties_are_built_once_per_size():
    """Designs whose blocks share a size share their read-only penalty
    matrices; make_penalty still returns a new matrix each call."""
    a, b = gaussian_cache(seed=1), gaussian_cache(seed=2)
    assert a.p == b.p == a.block_sizes[0]
    assert a.mon_gram is b.mon_gram is a.non_grams[0] is b.non_grams[0]
    assert a.mon_gram_raw is b.mon_gram_raw and a.ridge_raw is b.ridge_raw
    assert not a.mon_gram.flags.writeable
    from pstransport.splines import make_penalty
    fresh = make_penalty(a.p).gram
    assert fresh is not make_penalty(a.p).gram and fresh.flags.writeable
    assert np.array_equal(fresh, a.mon_gram)


def test_edf_limits(cache):
    r_lo = fit_inner(cache, np.array([-12.0, -12.0]))[0]
    _, lo = edf(cache, r_lo, np.array([-12.0, -12.0]), per_block=True)
    _, hi = edf(cache, fit_inner(cache, np.array([12.0, 12.0]))[0],
                np.array([12.0, 12.0]), per_block=True)
    # monotone limit is the number of active (unpinned) raw coordinates
    free_mon = 1 + int(np.sum(r_lo[1:] > 1e-12))
    assert lo[0] == pytest.approx(cache.m, abs=0.1)
    assert lo[1] == pytest.approx(free_mon, abs=0.1)
    assert hi[0] == pytest.approx(2.0, abs=0.1)
    assert hi[1] == pytest.approx(2.0, abs=0.1)


def two_parent_design(n=120, seed=3):
    rng = np.random.default_rng(seed)
    x1, x2 = rng.standard_normal((2, n))
    x3 = np.sin(x1) + 0.5 * x2 + 0.4 * rng.standard_normal(n)
    bases = [SplineBasis(make_knots(x, 3, k)) for x, k in ((x1, 6), (x2, 8), (x3, 7))]
    return bases, (x1, x2, x3)


def two_parent_cache(n=120, seed=3):
    bases, (x1, x2, x3) = two_parent_design(n, seed)
    return DesignCache(bases[:2], [x1, x2], bases[2], x3, 2)


def test_profile_operators_builds_a_read_only_record_per_call():
    """Each call builds its record afresh, also at log-lambdas asked for
    before, bit for bit as a fresh design builds it; the record and its
    arrays are read-only."""
    logl1, logl2 = np.array([0.5, -1.0, 1.5]), np.array([2.0, 0.0, 1.0])
    cache = two_parent_cache()
    first = cache.profile_operators(logl1)
    cache.profile_operators(logl2)
    again = cache.profile_operators(logl1)
    fresh = two_parent_cache().profile_operators(logl1)
    assert again is not first
    names = ["log_lambdas", "H", "D", "lambdas", "chol", "S_non", "S_mon_raw"]
    assert list(vars(again)) == names
    for name in names:
        got = getattr(again, name)
        assert np.array_equal(got, getattr(fresh, name))
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[(0,) * got.ndim] = 0.0
    with pytest.raises(AttributeError):
        again.H = fresh.H
    assert np.array_equal(again.log_lambdas, logl1)
    assert np.array_equal(again.lambdas, np.exp(logl1))
    A = cache.G_nn + cache.s_non(again.lambdas)
    U = np.triu(again.chol)
    assert np.max(np.abs(U.T @ U - A)) <= 1e-12 * np.max(np.abs(A))
    r = feasible_raw(cache)
    assert np.array_equal(solve_non_closed_form(cache, r, logl1), -again.D @ r)


def no_parent_cache(n=80, seed=3):
    x = np.random.default_rng(seed).standard_normal(n)
    return DesignCache([], [], SplineBasis(make_knots(x, 3, 7)), x, 2)


@pytest.mark.parametrize("size", range(1, 13))
def test_lapack_helpers_match_scipy(size):
    """The direct dpotrf/dpotrs calls give scipy's factor and solutions bit
    for bit, for vector and multi-column right-hand sides."""
    rng = np.random.default_rng(size)
    A = rng.standard_normal((size, size + 2))
    A = A @ A.T + 1e-3 * np.eye(size)
    c = objective._cho_factor(A, "A")
    want = cho_factor(A)
    assert np.array_equal(c, want[0])
    for b in (rng.standard_normal(size), rng.standard_normal((size, 5))):
        x = objective._cho_solve(c, b)
        assert x.shape == b.shape
        assert np.array_equal(x, cho_solve(want, b))


def test_lapack_helpers_raise_like_scipy():
    with pytest.raises(np.linalg.LinAlgError, match="A is not positive definite"):
        objective._cho_factor(np.array([[1.0, 2.0], [2.0, 1.0]]), "A")
    for bad in (np.nan, np.inf):
        A = np.eye(3)
        A[1, 2] = bad
        with pytest.raises(ValueError, match="A has a non-finite entry"):
            objective._cho_factor(A, "A")
    empty = objective._cho_factor(np.zeros((0, 0)), "A")
    assert objective._cho_solve(empty, np.zeros((0, 4))).shape == (0, 4)


def test_parentless_component_runs_every_stage():
    """m == 0: the nonmonotone system is 0 x 0 and only the monotone block is left."""
    cache = no_parent_cache()
    logl = np.array([1.0])
    profile = cache.profile_operators(logl)
    assert profile.D.shape == (0, cache.p) and profile.chol.shape == (0, 0)
    r_hat, _, converged, _ = fit_inner(cache, logl)
    assert converged
    total, blocks = edf(cache, r_hat, logl, per_block=True)
    assert blocks.size == 1 and 0 < total < cache.p
    grad = outer_gradient(cache, logl, r_hat=r_hat)
    assert grad.shape == (1,) and np.isfinite(grad).all()


# the band and dense forms sum the same nonnegative products in another order
BAND_TOL = 64 * np.finfo(float).eps


@given(degree=st.integers(1, 3), gaps=st.lists(st.floats(0.01, 3.0), min_size=1, max_size=40),
       n=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1))
def test_band_forms_match_the_dense_products(degree, gaps, n, seed):
    """The band Gram is (W/s)'(W/s), and on the free coordinates with
    increments pinned that of the free columns; the band quadratic is
    w_i' M w_i for any M. Each agrees within BAND_TOL of the largest entry
    (of |W|'|M||W| for the quadratic), on random knots, with samples at the
    knots and in both affine tails and with fewer samples than columns."""
    knots = np.concatenate([[0.0], np.cumsum(gaps)])
    basis = SplineBasis(KnotVector(knots, degree))
    rng = np.random.default_rng(seed)
    x = np.concatenate([[-1.0, knots[-1] + 1.0], rng.choice(knots, 2),
                        rng.uniform(-0.2 * knots[-1], 1.2 * knots[-1], n)])
    W = basis.eval_deriv_increments(x)
    p = W.shape[1]
    band = objective._SlopeBand(W, degree)
    s = rng.uniform(0.1, 10.0, x.size)
    Ws = W / s[:, None]
    gram = band.gram(1.0 / s)
    dense = Ws.T @ Ws
    assert np.abs(gram - dense).max() <= BAND_TOL * np.abs(dense).max()
    free = rng.random(p) < 0.6
    free[0] = True
    dense_free = Ws[:, free].T @ Ws[:, free]
    assert np.abs(gram[np.ix_(free, free)] - dense_free).max() \
        <= BAND_TOL * np.abs(dense_free).max()
    M = rng.standard_normal((p, p))
    scale = np.einsum("ij,ij->i", W @ np.abs(M), W).max()
    assert np.abs(band.quadratic(M) - np.einsum("ij,ij->i", W @ M, W)).max() <= BAND_TOL * scale


def kept_arrays(obj):
    """The arrays held in ``obj``'s attributes, through tuples, lists and the band."""
    items, arrays = list(vars(obj).items()), {}
    while items:
        name, value = items.pop()
        if isinstance(value, np.ndarray):
            arrays.setdefault(id(value), (name, value))
        elif isinstance(value, (tuple, list)):
            items += [(name, v) for v in value]
        elif isinstance(value, objective._SlopeBand):
            items += list(vars(value).items())
    return list(arrays.values())


@pytest.mark.parametrize("make_cache", [gaussian_cache, two_parent_cache, no_parent_cache])
def test_design_keeps_the_band_products_per_sample(make_cache):
    """Beyond P_non, P_mon and W, a design keeps at most d(d+1)/2 + 1 values
    per sample, the band products and the window order, also after a fit
    and an outer gradient."""
    cache = make_cache()
    logl = np.ones(cache.num_blocks)
    _, _, r_hat = outer_objective(cache, logl)
    outer_gradient(cache, logl, r_hat=r_hat)
    d = cache.mon_basis.degree
    per_sample = sum(arr.size for name, arr in kept_arrays(cache)
                     if name not in ("P_non", "P_mon", "W") and cache.n in arr.shape)
    assert per_sample <= (d * (d + 1) // 2 + 1) * cache.n


@pytest.mark.parametrize("make_cache", [two_parent_cache, no_parent_cache])
def test_profile_operators_matches_profiled_design(make_cache):
    """H is A'A + Q of the explicitly profiled design A = P_mon T - P_non D and
    its penalty Q = D' S_non D + T' S_mon T in raw coordinates (beta_mon =
    T r, T lower-triangular ones), with or without parents."""
    cache = make_cache()
    logl = np.r_[np.linspace(-1.0, 1.0, cache.num_blocks - 1), 1.5]
    profile = cache.profile_operators(logl)
    H, D, lambdas = profile.H, profile.D, profile.lambdas
    assert D.shape == (cache.m, cache.p)
    T = np.tril(np.ones((cache.p, cache.p)))
    A = cache.P_mon @ T - cache.P_non @ D
    Q = D.T @ cache.s_non(lambdas) @ D + T.T @ cache.s_mon(lambdas) @ T
    want = A.T @ A + Q
    assert np.max(np.abs(H - want)) <= 1e-10 * np.max(np.abs(want))


def test_edf_blocks_match_explicit_formula():
    """Per-block traces tr[(P_k'P_k + lambda_k G_k + ridge I)^-1 P_k'P_k], the
    monotone block over the free raw coordinates with the barrier curvature."""
    cache = two_parent_cache()
    bases, (_, _, x3) = two_parent_design()
    logl = np.array([0.5, -1.0, 1.5])
    lambdas = np.exp(logl)
    r_hat = fit_inner(cache, logl)[0]
    total, blocks = edf(cache, r_hat, logl, per_block=True)
    expected = []
    for lam, gram, sl in zip(lambdas, cache.non_grams, cache.non_slices):
        P = cache.P_non[:, sl]
        Hu = P.T @ P
        Hp = Hu + lam * gram + RIDGE * np.eye(gram.shape[0])
        expected.append(np.trace(np.linalg.solve(Hp, Hu)))
    free = np.r_[True, r_hat[1:] > 1e-12]
    T = np.tril(np.ones((cache.p, cache.p)))
    Tf = T[:, free]
    b = bases[2].eval_deriv(x3)
    PT, bT = cache.P_mon @ Tf, b @ Tf
    s = b @ T @ r_hat
    Hu = PT.T @ PT + bT.T @ (bT / s[:, None] ** 2)
    Hp = Hu + Tf.T @ (lambdas[-1] * cache.mon_gram + RIDGE * np.eye(cache.p)) @ Tf
    expected.append(np.trace(np.linalg.solve(Hp, Hu)))
    assert blocks == pytest.approx(expected, rel=1e-9)
    assert total == pytest.approx(sum(expected), rel=1e-9)


def factored(monkeypatch):
    """Record the name of every matrix ``_cho_factor`` factors."""
    factor, names = objective._cho_factor, []
    monkeypatch.setattr(objective, "_cho_factor",
                        lambda a, what: names.append(what) or factor(a, what))
    return names


def profiled(monkeypatch):
    """Record the log-lambdas of every profile a design builds."""
    build, points = DesignCache.profile_operators, []
    monkeypatch.setattr(DesignCache, "profile_operators",
                        lambda self, logl: points.append(np.array(logl)) or build(self, logl))
    return points


@pytest.mark.parametrize("make, logl, parent_factors", [
    (gaussian_cache, [1.0, 2.0], 0),
    (two_parent_cache, [0.5, -1.0, 1.5], 2),
])
def test_a_score_builds_one_profile_and_factors_each_matrix_once(monkeypatch, make, logl,
                                                                  parent_factors):
    """outer_objective builds one profile and factors the nonmonotone system
    once, the inner Newton matrix once per stepping pass and each block once
    (a single parent block takes the profile's factor). The gradient at the
    point its report carries builds no profile, factors only the inner
    Newton matrix and matches a fresh design's outer_gradient bit for bit.
    The point's block state is read-only."""
    cache, logl = make(), np.array(logl)
    points, names = profiled(monkeypatch), factored(monkeypatch)
    _, report, r_hat = outer_objective(cache, logl)
    assert len(points) == 1 and np.array_equal(points[0], logl)
    assert names == ["nonmonotone system"] + ["inner Newton matrix"] * (report.inner_iters - 1) \
        + ["penalized Hessian block"] * (parent_factors + 1)
    profile, point_r_hat, (blocks, free, factors, traces) = report.point
    assert point_r_hat is r_hat and np.array_equal(profile.log_lambdas, logl)
    assert np.array_equal(report.edf_blocks, traces)
    for arr in (free, *(a for b in blocks for a in b[1:]), *(a for f in factors for a in f)):
        assert not arr.flags.writeable
    points.clear()
    names.clear()
    grad, _ = objective._outer_gradient_and_sensitivity(cache, report.point)
    assert points == [] and names == ["inner Newton matrix"]
    assert np.array_equal(grad, outer_gradient(make(), logl, r_hat=r_hat))


def test_adapt_lambdas_builds_one_profile_per_objective(monkeypatch):
    """Over a search, each score builds one profile and factors one block
    state; each gradient reads the point its report carries and factors only
    the inner Newton matrix."""
    counts = {"objective": 0, "gradient": 0}
    points, names = profiled(monkeypatch), factored(monkeypatch)
    score = objective.outer_objective
    gradient = objective._outer_gradient_and_sensitivity

    def counted_score(*args, **kwargs):
        counts["objective"] += 1
        return score(*args, **kwargs)

    def counted_gradient(*args, **kwargs):
        counts["gradient"] += 1
        points_before, names_before = len(points), len(names)
        out = gradient(*args, **kwargs)
        assert len(points) == points_before
        assert names[names_before:] == ["inner Newton matrix"]
        return out

    monkeypatch.setattr(objective, "outer_objective", counted_score)
    monkeypatch.setattr(objective, "_outer_gradient_and_sensitivity", counted_gradient)
    adapt_lambdas(gaussian_cache(seed=5), np.full(2, 2.0), np.ones(2, bool), max_outer=10)
    assert counts["gradient"] >= 2
    assert len(points) == counts["objective"]
    assert names.count("nonmonotone system") == counts["objective"]
    assert names.count("penalized Hessian block") == counts["objective"]   # one parent


def design_state(cache):
    """Every attribute of a design and of its band, with the bytes of each array."""
    items = {**vars(cache), **{f"band.{k}": v for k, v in vars(cache.band).items()}}
    return {name: (value, value.tobytes() if isinstance(value, np.ndarray) else None,
                   list(value) if isinstance(value, list) else None)
            for name, value in items.items()}


def test_a_design_is_never_written_by_a_search():
    """adapt_lambdas and outer_gradient leave every attribute of the design
    the same object with the same bytes: a design holds no per-point state."""
    cache = two_parent_cache()
    before = design_state(cache)
    logl, _, r_hat = adapt_lambdas(cache, np.array([0.5, -1.0, 1.5]), np.ones(3, bool), 5)
    outer_gradient(cache, logl + 0.25, r_hat=r_hat)
    outer_gradient(cache, logl)
    after = design_state(cache)
    assert list(after) == list(before)
    for name, (value, data, items) in before.items():
        got, got_data, got_items = after[name]
        assert got is value and got_data == data, name
        assert items is None or all(a is b for a, b in zip(got_items, items, strict=True))


def test_interleaved_points_match_fresh_designs():
    """outer_objective at two log-lambdas, alternating on one design, gives
    each point's score, report, inner optimum and gradient bit for bit as a
    fresh design does."""
    logls = [np.array([0.5, -1.0, 1.5]), np.array([2.0, 0.0, 1.0])]
    want = []
    for logl in logls:
        fresh = two_parent_cache()
        aicc, report, r_hat = outer_objective(fresh, logl)
        want.append((aicc, report.nll, report.edf, report.edf_blocks, r_hat,
                     objective._outer_gradient_and_sensitivity(fresh, report.point)))
    cache = two_parent_cache()
    for k in (0, 1, 0, 1):
        aicc, report, r_hat = outer_objective(cache, logls[k])
        got = (aicc, report.nll, report.edf, report.edf_blocks, r_hat,
               objective._outer_gradient_and_sensitivity(cache, report.point))
        for a, b in zip(got[:5], want[k][:5]):
            assert np.array_equal(a, b)
        for a, b in zip(got[5], want[k][5]):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("make, logl, num_pinned", [
    (gaussian_cache, [1.0, 2.0], 0),
    (gaussian_cache, [-6.0, -3.0], 1),
    (two_parent_cache, [0.5, -1.0, 1.5], 0),
    (no_parent_cache, [1.0], 1),
])
def test_sensitivity_matches_refit_finite_differences(make, logl, num_pinned):
    """The implicit-function sensitivity d r_hat / d log lambda_b, read
    through the slopes W (which ignore the level, confounded with the parent
    constants), matches central differences of refitted inner optima, also
    where an increment is pinned at zero."""
    cache, logl, h = make(), np.array(logl), 1e-4
    _, report, r_hat = outer_objective(cache, logl)
    pinned = r_hat[1:] <= objective.PIN_TOL
    assert pinned.sum() == num_pinned
    dr = objective._outer_gradient_and_sensitivity(cache, report.point)[1]
    assert not dr[1:][pinned].any()
    for b in range(logl.size):
        step = h * np.eye(logl.size)[b]
        r_up, r_down = fit_inner(cache, logl + step)[0], fit_inner(cache, logl - step)[0]
        fd = cache.W @ (r_up - r_down) / (2 * h)
        assert np.abs(cache.W @ dr[:, b] - fd).max() <= 1e-6 * np.abs(fd).max()


def test_edf_decreases_with_lambda(cache):
    logls = [np.array([v, v]) for v in (-4.0, 0.0, 4.0, 8.0)]
    vals = [edf(cache, fit_inner(cache, l)[0], l) for l in logls]
    assert np.all(np.diff(vals) < 0)


def test_aicc_too_complex_error():
    small = gaussian_cache(n=20, num_knots=12)
    with pytest.raises(ModelTooComplexError):
        outer_objective(small, np.array([-12.0, -12.0]))


def test_outer_gradient_matches_refit_finite_differences(cache):
    for logl0 in ([2.0, 2.0], [0.0, 1.0], [4.0, -1.0], [-2.0, 3.0], [1.0, 0.0]):
        logl = np.array(logl0)
        g = outer_gradient(cache, logl)
        h = 1e-4
        for k in range(2):
            e = np.zeros(2); e[k] = h
            ap, _, _ = outer_objective(cache, logl + e)
            am, _, _ = outer_objective(cache, logl - e)
            fd = (ap - am) / (2 * h)
            assert g[k] == pytest.approx(fd, rel=1e-3, abs=1e-5)


def test_adapt_lambdas_reaches_a_minimum(cache):
    logl, report, r_hat = adapt_lambdas(cache, np.full(2, 2.0), np.ones(2, bool), 50)
    assert report.converged
    # grid check: no nearby lambda does better than the adapted one
    best, _, _ = outer_objective(cache, logl)
    for d0 in (-0.5, 0.5):
        for d1 in (-0.5, 0.5):
            trial, _, _ = outer_objective(cache, logl + [d0, d1])
            assert trial >= best - 1e-6


def test_capped_search_reports_cap_and_its_norm(cache):
    _, report, _ = adapt_lambdas(cache, np.full(2, 2.0), np.ones(2, bool), 1)
    assert (report.stop_reason, report.outer_iters) == ("cap", 1)
    assert np.isfinite(report.grad_norm)


@pytest.mark.parametrize("mask", [[True, True], [True, False]])
@pytest.mark.parametrize("max_outer", [0, 1, 3, 50])
def test_report_describes_the_returned_point(cache, monkeypatch, mask, max_outer):
    """grad_norm is the masked outer gradient norm at the returned log-lambdas,
    and outer_iters counts accepted steps: the search takes one outer
    gradient per accepted step and one at the point it returns."""
    calls = []
    gradient = objective._outer_gradient_and_sensitivity

    def counted(cache, point):
        calls.append(point)
        return gradient(cache, point)

    monkeypatch.setattr(objective, "_outer_gradient_and_sensitivity", counted)
    mask = np.array(mask)
    logl, report, r_hat = adapt_lambdas(cache, np.full(2, 2.0), mask, max_outer)
    assert report.grad_norm == np.linalg.norm(np.where(mask, gradient(cache, report.point)[0], 0))
    assert report.outer_iters == len(calls) - 1
    assert calls[-1] is report.point and report.point[1] is r_hat
    assert np.array_equal(report.point[0].log_lambdas, logl)
    assert report.stop_reason in ("gradient", "objective", "cap")
    if report.stop_reason == "cap":
        assert report.outer_iters == max_outer


def test_unsearched_fits_report_cap_or_fixed(cache, monkeypatch):
    """max_outer=0 scores the start and its gradient ("cap"); with no block
    adapted no outer gradient is taken ("fixed", NaN norm). Both report the
    inner solve's projected gradient norm apart from the outer one."""
    start = np.full(2, 2.0)
    _, capped, _ = adapt_lambdas(cache, start, np.ones(2, bool), 0)
    assert (capped.stop_reason, capped.outer_iters) == ("cap", 0)
    assert np.isfinite(capped.grad_norm)
    monkeypatch.setattr(objective, "_outer_gradient_and_sensitivity", None)   # must not be called
    _, fixed, _ = adapt_lambdas(cache, start, np.zeros(2, bool), 50)
    assert (fixed.stop_reason, fixed.outer_iters) == ("fixed", 0)
    assert np.isnan(fixed.grad_norm)
    assert fixed.inner_grad_norm == capped.inner_grad_norm == fit_inner(cache, start)[3]


def test_search_stops_on_gradient_where_steepest_descent_capped():
    """On this design steepest descent with a one-unit step cap used all 10
    steps and stopped at outer gradient norm 2e-3; the quasi-Newton search
    meets the gradient test within them."""
    _, report, _ = adapt_lambdas(gaussian_cache(n=200), np.full(2, 2.0), np.ones(2, bool), 10)
    assert report.stop_reason == "gradient"
    assert report.outer_iters < 10
    assert report.grad_norm <= objective.OUTER_TOL_GRAD


def test_failed_trial_halves_the_step(cache, monkeypatch):
    """A trial point whose inner solve raises LinAlgError scores infinity,
    so the line search halves the step and still returns a scored point."""
    start = np.array([2.0, 2.0])
    fit = objective._fit_inner
    trials = []

    def fail_first_trial(cache, profile, r0):
        trials.append(profile.log_lambdas)
        if len(trials) == 2:   # the first call scores the start
            raise np.linalg.LinAlgError("not positive definite")
        return fit(cache, profile, r0)

    monkeypatch.setattr(objective, "_fit_inner", fail_first_trial)
    logl, report, _ = adapt_lambdas(cache, start, np.ones(2, bool), 1)
    assert np.allclose(trials[2] - start, (trials[1] - start) / 2, rtol=0, atol=1e-15)
    assert report.outer_iters == 1 and np.array_equal(logl, trials[2])
    monkeypatch.undo()
    assert report.aicc == pytest.approx(outer_objective(cache, logl)[0], rel=1e-8)


@pytest.mark.parametrize("make, logl, step", [
    (gaussian_cache, [2.0, 2.0], [-0.5, 0.7]),
    (lambda: gaussian_cache(n=200), [2.0, 2.0], [1.0, -1.0]),
    (two_parent_cache, [0.5, -1.0, 1.5], [0.4, -0.3, 0.6]),
])
def test_predicted_inner_start_reaches_the_same_optimum(make, logl, step):
    """The inner solve at log-lambdas + step started from the implicit-function
    prediction r_hat + dr @ step (the start adapt_lambdas passes) reaches the
    optimum it reaches from r_hat, to the inner tolerance, in fewer passes."""
    cache, logl, step = make(), np.array(logl), np.array(step)
    _, report, r_hat = outer_objective(cache, logl)
    dr = objective._outer_gradient_and_sensitivity(cache, report.point)[1]
    r0 = r_hat + dr @ step
    predicted, iters, converged, _ = fit_inner(cache, logl + step, r0=r0)
    plain, plain_iters, plain_converged, _ = fit_inner(cache, logl + step, r0=r_hat)
    assert converged and plain_converged
    assert np.abs(predicted - plain).max() <= objective.INNER_TOL * np.abs(plain).max()
    assert iters < plain_iters


def test_adapt_mask_keeps_monotone_fixed(cache):
    mask = np.array([True, False])
    logl, _, _ = adapt_lambdas(cache, np.array([2.0, 10.0]), mask, 50)
    assert logl[1] == 10.0


def test_report_fields(cache):
    _, report, _ = outer_objective(cache, np.array([1.0, 1.0]))
    design = report.design
    assert design is cache and design.n == 100
    assert design.m + design.p == \
        sum(b.num_basis for b in design.non_bases) + design.mon_basis.num_basis
    assert report.edf_blocks.size == 2
    assert report.aicc == pytest.approx(
        report.nll + report.edf + report.edf * (report.edf + 1)
        / (design.n - report.edf - 1)
    )
