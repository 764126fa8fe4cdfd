import logging

import numpy as np
import pytest

from pstransport import objective, tmap, wavy
from pstransport.objective import ModelTooComplexError
from pstransport.wavy import WavyConfig, profile_lambda, sample_wavy


def test_sample_wavy_reproducible():
    a = sample_wavy(100, 7)
    b = sample_wavy(100, 7)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, sample_wavy(100, 8).data)


def test_sample_wavy_rejects_tiny_n():
    with pytest.raises(ValueError):
        sample_wavy(4, 0)


def test_first_marginal_is_standard_normal():
    e = sample_wavy(100000, 0)
    assert e.data[:, 0].mean() == pytest.approx(0.0, abs=0.02)
    assert e.data[:, 0].var() == pytest.approx(1.0, abs=0.05)


def test_conditional_mean_tracks_sine():
    """Binned means of x2 given x1 must follow sin(3 x1)."""
    e = sample_wavy(100000, 1)
    edges = np.linspace(-1.5, 1.5, 16)
    idx = np.digitize(e.data[:, 0], edges)
    for k in range(1, edges.size):
        sel = idx == k
        if sel.sum() < 500:
            continue
        mid = 0.5 * (edges[k - 1] + edges[k])
        assert e.data[sel, 1].mean() == pytest.approx(np.sin(3 * mid), abs=0.05)


def test_config_validation():
    with pytest.raises(ValueError):
        WavyConfig(n=4)
    with pytest.raises(ValueError):
        WavyConfig(grid=np.array([1.0, 0.0]))


@pytest.fixture(scope="module")
def profile():
    return profile_lambda(WavyConfig(grid=np.linspace(-10, 10, 21)))


def test_profile_grid_and_determinism(profile):
    res2 = profile_lambda(WavyConfig(grid=np.linspace(-10, 10, 21)))
    assert np.array_equal(profile.table, res2.table, equal_nan=True)
    assert profile.table.shape == (21, 4)


def test_profile_shape_properties(profile):
    t = profile.table[np.isfinite(profile.table[:, 3])]
    assert t.shape[0] >= 15
    assert np.all(np.diff(t[:, 1]) >= -1e-6)   # nll non-decreasing in lambda
    assert np.all(np.diff(t[:, 2]) <= 1e-6)    # edf non-increasing in lambda
    i = np.argmin(t[:, 3])
    assert 0 < i < t.shape[0] - 1              # interior AICc minimum


def test_adapted_lambda_near_grid_argmin(profile):
    assert abs(profile.adapted_log_lambda - profile.argmin_log_lambda) <= 1.0


def test_profile_adapts_once_through_the_map_fit(monkeypatch):
    """The map fit is the one smoothing search: one adapt_lambdas call per
    component, only S2's adapting, and adapted_log_lambda is what it returned."""
    adapt = tmap.adapt_lambdas
    calls = []

    def recorded(cache, log_lambdas0, adapt_mask, max_outer):
        result = adapt(cache, log_lambdas0, adapt_mask, max_outer)
        calls.append((np.array(adapt_mask), result[0]))
        return result

    monkeypatch.setattr(tmap, "adapt_lambdas", recorded)
    res = profile_lambda(WavyConfig(grid=np.linspace(-10, 10, 9), num_pullback=10))
    assert [mask.tolist() for mask, _ in calls] == [[False], [True, False]]
    logl = calls[1][1]
    assert logl[1] == WavyConfig().fixed_monotone_log_lambda
    assert res.adapted_log_lambda == logl[0]


def test_profile_builds_one_design_per_component(monkeypatch):
    """The grid refits S2 on the design the map fit built."""
    init = objective.DesignCache.__init__
    built = []

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(objective.DesignCache, "__init__", counted)
    profile_lambda(WavyConfig(grid=np.linspace(-10, 10, 9), num_pullback=10))
    assert len(built) == 2


def test_clouds_emitted_at_five_lambdas(profile):
    assert len(profile.clouds) == 5
    for cloud in profile.clouds.values():
        assert cloud["pushforward"].shape == (30, 2)
        assert cloud["pullback"].shape == (1000, 2)
        assert np.all(np.isfinite(cloud["pullback"]))


def test_swappable_generator():
    def rings(n, seed):
        rng = np.random.default_rng(seed)
        from pstransport.tmap import Ensemble
        return Ensemble(rng.standard_normal((n, 2)))

    res = profile_lambda(WavyConfig(n=50, num_real_knots=10,
                                    grid=np.linspace(-2, 6, 5),
                                    generator=rings))
    assert np.isfinite(res.table[:, 3]).any()


def test_profile_keeps_only_numerical_failures(monkeypatch):
    """A grid point that is too complex is a NaN row; any other error propagates."""
    config = WavyConfig(grid=np.linspace(-10, 10, 9), num_pullback=10)
    original = wavy.outer_objective

    def too_complex_at_minus_five(cache, logls, r0=None):
        if logls[0] == -5.0:
            raise ModelTooComplexError("edf too large")
        return original(cache, logls, r0)

    monkeypatch.setattr(wavy, "outer_objective", too_complex_at_minus_five)
    table = profile_lambda(config).table
    assert np.all(np.isnan(table[2, 1:])) and table[2, 0] == -5.0
    assert np.all(np.isfinite(table[4:, 1:]))

    def broken(cache, logls, r0=None):
        raise TypeError("a bug, not a numerical failure")

    monkeypatch.setattr(wavy, "outer_objective", broken)
    with pytest.raises(TypeError):
        profile_lambda(config)


def test_profile_inner_solves_converge(monkeypatch):
    """Every inner solve of the default profile converges, on the grid and
    inside the smoothing adaptation."""
    inner = objective.fit_inner
    converged = []

    def recorded(*args, **kwargs):
        out = inner(*args, **kwargs)
        converged.append(out[2])
        return out

    monkeypatch.setattr(objective, "fit_inner", recorded)
    profile_lambda(WavyConfig(num_pullback=50))
    assert len(converged) > 41 and all(converged)


def test_profile_warns_on_unconverged_inner_solve(monkeypatch, caplog):
    """An unconverged row is logged with its log lambda and projected
    gradient; the table is unchanged."""
    config = WavyConfig(grid=np.linspace(-10, 10, 9), num_pullback=10)
    want = profile_lambda(config).table
    inner = objective.fit_inner

    def unconverged_at_minus_five(cache, log_lambdas, r0=None, **kwargs):
        r, iters, converged, pg = inner(cache, log_lambdas, r0=r0, **kwargs)
        return r, iters, converged and log_lambdas[0] != -5.0, pg

    monkeypatch.setattr(objective, "fit_inner", unconverged_at_minus_five)
    with caplog.at_level(logging.WARNING, logger="pstransport.wavy"):
        table = profile_lambda(config).table
    assert np.array_equal(table, want, equal_nan=True)
    messages = [rec.getMessage() for rec in caplog.records
                if rec.levelno == logging.WARNING]
    assert len(messages) == 1
    assert "log lambda -5" in messages[0] and "projected gradient" in messages[0]
