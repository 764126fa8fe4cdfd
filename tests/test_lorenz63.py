import numpy as np
import pytest
from scipy.integrate import solve_ivp

from pstransport import lorenz63, objective, tmap
from pstransport.lorenz63 import (
    Lorenz63Params,
    ensemble_rmse,
    linear_baseline_update,
    lorenz_rhs,
    rk4_step,
    run_filter,
    transport_update,
)


def test_params_validation():
    with pytest.raises(ValueError):
        Lorenz63Params(dt=-0.1)
    with pytest.raises(ValueError):
        Lorenz63Params(dt=0.04, obs_interval=0.1)   # not an integer multiple
    with pytest.raises(ValueError, match="positive integer multiple"):
        Lorenz63Params(dt=0.05, obs_interval=1e-12)   # no model step between observations
    with pytest.raises(ValueError, match="obs_interval / dt must be finite"):
        Lorenz63Params(dt=5e-324)   # the step count per observation overflows
    assert Lorenz63Params().substeps == 2


def test_rhs_fixed_point_and_reference_value():
    """The classical constants sigma=10, rho=28, beta=8/3."""
    assert np.allclose(lorenz_rhs(np.zeros(3)), 0.0)
    # hand-computed value at (1, 1, 1)
    assert np.allclose(lorenz_rhs(np.ones(3)), [0.0, 26.0, 1.0 - 8.0 / 3.0])


def test_rk4_matches_high_accuracy_integrator():
    p = Lorenz63Params()
    x0 = np.array([1.0, 2.0, 20.0])
    x = x0.copy()
    for _ in range(5):
        x = rk4_step(x, p)
    ref = solve_ivp(lambda t, y: lorenz_rhs(y), (0, 5 * p.dt), x0,
                    rtol=1e-11, atol=1e-12).y[:, -1]
    assert np.max(np.abs(x - ref)) < 5e-3


def test_rk4_convergence_order():
    x0 = np.array([1.0, 2.0, 20.0])
    ref = solve_ivp(lambda t, y: lorenz_rhs(y), (0, 0.1), x0,
                    rtol=1e-12, atol=1e-13).y[:, -1]
    errs = []
    for k in (1, 2, 4):
        p = Lorenz63Params(dt=0.1 / k)
        x = x0.copy()
        for _ in range(k):
            x = rk4_step(x, p)
        errs.append(np.max(np.abs(x - ref)))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates > 3.5)   # fourth-order


def test_rk4_rejects_nan():
    with pytest.raises(FloatingPointError):
        rk4_step(np.array([np.nan, 0.0, 0.0]), Lorenz63Params())


def test_ensemble_rmse():
    truth = np.zeros(3)
    members = np.array([[3.0, 0.0, 4.0], [0.0, 0.0, 0.0]])
    # per-member rms errors are 5/sqrt(3) and 0
    assert ensemble_rmse(members, truth) == pytest.approx(0.5 * 5 / np.sqrt(3))


def test_linear_baseline_shrinks_toward_observation():
    rng = np.random.default_rng(0)
    members = rng.standard_normal((500, 3)) * 2.0 + 5.0
    y_pred = members[:, 0] + rng.normal(0.0, 0.25, size=500)
    upd = linear_baseline_update(members, 0.0, y_pred, 0)
    assert abs(upd[:, 0].mean()) < abs(members[:, 0].mean())
    assert upd[:, 0].var() < members[:, 0].var()


def test_linear_baseline_zero_spread_passthrough():
    # a fully degenerate ensemble whose predictions have no spread stays unchanged
    members = np.ones((30, 3))
    upd = linear_baseline_update(members, 2.0, members[:, 0].copy(), 0)
    assert np.allclose(upd, members)


def test_transport_update_moves_toward_observation():
    rng = np.random.default_rng(2)
    members = rng.multivariate_normal(
        [0.0, 0.0, 0.0],
        [[1.0, 0.8, 0.0], [0.8, 1.0, 0.0], [0.0, 0.0, 1.0]], size=200
    )
    y_pred = members[:, 0] + rng.normal(0.0, 0.25, size=200)
    upd, reports = transport_update(members, 2.0, y_pred, 0, 10)
    assert upd.shape == members.shape
    assert upd[:, 0].mean() > members[:, 0].mean() + 0.5
    assert upd[:, 0].var() < members[:, 0].var()
    # correlated second variable moves along, uncorrelated third much less
    assert upd[:, 1].mean() > members[:, 1].mean() + 0.3
    assert abs(upd[:, 2].mean() - members[:, 2].mean()) < 0.2
    assert len(reports) == 3


@pytest.mark.parametrize("obs_index", [0, 1, 2])
def test_transport_update_is_equivariant_in_the_state_order(obs_index):
    """Observing variable v updates the state as observing variable 0 of the
    state reordered by _STATE_ORDERS[v] (observed first), bit for bit."""
    rng = np.random.default_rng(3)
    members = rng.multivariate_normal(
        [0.0, 1.0, -1.0],
        [[1.0, 0.6, 0.2], [0.6, 1.0, 0.5], [0.2, 0.5, 1.0]], size=60
    )
    order = lorenz63._STATE_ORDERS[obs_index]
    y_pred = members[:, obs_index] + rng.normal(0.0, 0.25, size=60)
    upd, reports = transport_update(members, 1.5, y_pred, obs_index, 3)
    upd_0, reports_0 = transport_update(members[:, order], 1.5, y_pred, 0, 3)
    assert np.array_equal(upd[:, order], upd_0)
    assert [r.aicc for r in reports] == [r.aicc for r in reports_0]


def test_max_outer_reaches_every_component_fit(monkeypatch):
    """Lorenz63Params.max_outer caps the outer search of every map component
    the filter fits; the default is 10."""
    adapt = tmap.adapt_lambdas
    calls = []

    def recorded(cache, log_lambdas0, adapt_mask, max_outer):
        result = adapt(cache, log_lambdas0, adapt_mask, max_outer)
        calls.append((max_outer, result[1].outer_iters))
        return result

    monkeypatch.setattr(tmap, "adapt_lambdas", recorded)
    for params in (Lorenz63Params(steps=2, max_outer=2), Lorenz63Params(steps=2)):
        calls.clear()
        run_filter(params, 30, seed=0)
        assert len(calls) == 2 * 3 * 3   # cycles x observed variables x S2..S4
        assert {cap for cap, _ in calls} == {params.max_outer}
        assert max(iters for _, iters in calls) == params.max_outer
    assert Lorenz63Params().max_outer == 10
    with pytest.raises(ValueError, match="max_outer"):
        Lorenz63Params(max_outer=-1)


def test_run_filter_validation():
    with pytest.raises(ValueError):
        run_filter(Lorenz63Params(steps=2), 8, 0)
    with pytest.raises(ValueError):
        run_filter(Lorenz63Params(steps=2), 50, 0, method="nonsense")


def test_baseline_filter_tracks_truth():
    res = run_filter(Lorenz63Params(steps=50), 50, seed=0, method="linear-baseline")
    assert not res.diverged
    assert res.mean_rmse < 1.0
    assert res.steps_completed == 50
    assert np.all(np.isnan(res.edf_fractions))


def test_transport_filter_tracks_truth():
    res = run_filter(Lorenz63Params(steps=25), 50, seed=0, method="transport")
    assert not res.diverged
    assert res.mean_rmse < 1.0
    frac = res.edf_fractions[~np.isnan(res.edf_fractions[:, 0])]
    assert frac.shape[1] == 3
    assert np.all((frac > 0) & (frac <= 1))


def test_run_filter_deterministic():
    a = run_filter(Lorenz63Params(steps=5), 50, seed=3, method="transport")
    b = run_filter(Lorenz63Params(steps=5), 50, seed=3, method="transport")
    assert np.array_equal(a.rmse_series, b.rmse_series, equal_nan=True)


def test_steps_completed_counts_finished_cycles(monkeypatch):
    """A fit failure in cycle 2 leaves two finished cycles and is the cause,
    naming its component; an RMSE above DIVERGENCE_RMSE in cycle 1 leaves
    one and is the cause; no steps, none and no cause."""
    calls = []
    adapt = tmap.adapt_lambdas

    def failing_in_cycle_two(*args, **kwargs):
        calls.append(1)
        if len(calls) > 18:   # three updates of three component fits per cycle
            raise np.linalg.LinAlgError("forced failure")
        return adapt(*args, **kwargs)

    monkeypatch.setattr(tmap, "adapt_lambdas", failing_in_cycle_two)
    res = run_filter(Lorenz63Params(steps=4), 50, seed=0)
    assert res.diverged
    assert res.steps_completed == 2
    assert res.cause == "fit of component 1 (x1) failed: forced failure"
    assert np.isfinite(res.rmse_series).sum() == 2
    monkeypatch.undo()
    monkeypatch.setattr(lorenz63, "ensemble_rmse", lambda members, truth: 150.0)
    res = run_filter(Lorenz63Params(steps=4), 50, seed=0)
    assert res.diverged and res.steps_completed == 1
    assert res.cause == "ensemble RMSE 150.0 above DIVERGENCE_RMSE = 100.0"
    monkeypatch.undo()
    empty = run_filter(Lorenz63Params(steps=0), 50, seed=0)
    assert empty.steps_completed == 0 and not empty.diverged and empty.cause == ""
    assert np.isnan(empty.mean_rmse) and empty.rmse_series.size == 0


def test_inner_solves_converge_in_filter_runs(monkeypatch):
    """Every inner solve converges before INNER_MAX_ITER, also at the small
    smoothing parameters where the monotone level and the parent constants
    are nearly confounded (seed 1 at n=1000, seed 0 at n=50)."""
    inner = objective._fit_inner
    results = []

    def recorded(*args, **kwargs):
        results.append(inner(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(objective, "_fit_inner", recorded)
    run_filter(Lorenz63Params(steps=6), 1000, seed=1)
    run_filter(Lorenz63Params(steps=8), 50, seed=0)
    assert len(results) > 1000
    assert all(converged and iters < objective.INNER_MAX_ITER
               for _, iters, converged, _ in results)


def test_outer_search_ends_when_the_step_stops_moving(monkeypatch):
    """A trial step that rounds or clips back to the current log-lambdas ends
    the line search as "line_search" instead of rescoring that point and
    accepting it.
    In the seed-1 n=50 run the two-parent S4 fits of the last three cycles
    stop there, at the small-lambda corner of the bounds, and no search takes
    two outer gradients at one point."""
    gradient, adapt = objective._outer_gradient_and_sensitivity, tmap.adapt_lambdas
    paths, reports = [], []

    def recorded_gradient(cache, point):
        paths[-1].append(point[0].log_lambdas)
        return gradient(cache, point)

    def recorded_adapt(*args):
        paths.append([])
        result = adapt(*args)
        reports.append(result[1])
        return result

    monkeypatch.setattr(objective, "_outer_gradient_and_sensitivity", recorded_gradient)
    monkeypatch.setattr(tmap, "adapt_lambdas", recorded_adapt)
    run_filter(Lorenz63Params(steps=8), 50, seed=1)
    assert len(reports) == 8 * 3 * 3   # cycles x observed variables x S2..S4
    assert not any(np.array_equal(a, b) for path in paths for a, b in zip(path, path[1:]))
    stops = [r.stop_reason for r in reports]
    assert [k for k, stop in enumerate(stops) if stop == "line_search"] == \
        [k for k in range(45, 72) if k % 3 == 2]
