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
    # grid values the smoothing search can never reach, non-finite ones included
    for grid in ([0.0, np.nan], [np.nan], [0.0, 1e300], [-np.inf, 0.0], [0.0, np.inf],
                 [-40.0, -20.0, 0.0, 20.0, 40.0], [-15.5, 0.0]):
        with pytest.raises(ValueError, match="grid values must lie in"):
            WavyConfig(grid=np.array(grid))
    assert WavyConfig(grid=[-15.0, 15.0]).grid.tolist() == [-15.0, 15.0]


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
    inner = objective._fit_inner
    converged = []

    def recorded(*args, **kwargs):
        out = inner(*args, **kwargs)
        converged.append(out[2])
        return out

    monkeypatch.setattr(objective, "_fit_inner", recorded)
    profile_lambda(WavyConfig(num_pullback=50))
    assert len(converged) > 41 and all(converged)


def test_profile_warns_on_unconverged_inner_solve(monkeypatch, caplog):
    """An unconverged row is logged with its log lambda and projected
    gradient; the table is unchanged."""
    config = WavyConfig(grid=np.linspace(-10, 10, 9), num_pullback=10)
    want = profile_lambda(config).table
    inner = objective._fit_inner

    def unconverged_at_minus_five(cache, profile, r0):
        r, iters, converged, pg = inner(cache, profile, r0)
        return r, iters, converged and profile.log_lambdas[0] != -5.0, pg

    monkeypatch.setattr(objective, "_fit_inner", unconverged_at_minus_five)
    with caplog.at_level(logging.WARNING, logger="pstransport.wavy"):
        table = profile_lambda(config).table
    assert np.array_equal(table, want, equal_nan=True)
    messages = [rec.getMessage() for rec in caplog.records
                if rec.levelno == logging.WARNING]
    assert len(messages) == 1
    assert "log lambda -5" in messages[0] and "projected gradient" in messages[0]


def cold_profile(monkeypatch, config, score):
    """``profile_lambda`` with every grid row scored by ``score`` from a cold
    inner start."""
    with monkeypatch.context() as patch:
        patch.setattr(wavy, "outer_objective",
                      lambda cache, logls, r0=None: score(cache, logls))
        return profile_lambda(config)


def assert_same_profile(res, ref):
    """The continued profile ``res`` agrees with the cold-start ``ref``: the
    same failed rows and argmins, and table entries and clouds within the
    inner solve's tolerance."""
    assert np.array_equal(np.isnan(res.table), np.isnan(ref.table))
    assert res.argmin_log_lambda == ref.argmin_log_lambda
    assert res.adapted_log_lambda == ref.adapted_log_lambda
    ok = np.isfinite(ref.table)
    assert np.all(np.abs(res.table[ok] - ref.table[ok])
                  <= 1e-7 * np.maximum(1.0, np.abs(ref.table[ok])))
    assert sorted(res.clouds) == sorted(ref.clouds)
    for logl, cloud in ref.clouds.items():
        for kind, points in cloud.items():
            assert np.abs(res.clouds[logl][kind] - points).max() <= 1e-7


@pytest.mark.parametrize("grid", [None, [-6.0, -5.0, -3.0, 0.0, 4.0, 9.0]])
def test_continuation_matches_cold_starts(monkeypatch, grid):
    """Secant starts along the default grid and an uneven one reach the
    rows that cold starts reach."""
    config = WavyConfig(num_pullback=10) if grid is None else \
        WavyConfig(grid=grid, num_pullback=10)
    assert_same_profile(profile_lambda(config),
                        cold_profile(monkeypatch, config, wavy.outer_objective))


def test_continuation_restarts_after_a_failed_row(monkeypatch):
    """The first row and the row after a failed one start cold, every other
    row from the rows before it, and the table matches cold starts."""
    config = WavyConfig(grid=np.linspace(-10, 10, 9), num_pullback=10)
    score = wavy.outer_objective
    starts = []

    def too_complex_at_zero(cache, logls, r0=None):
        starts.append(r0)
        if logls[0] == 0.0:
            raise ModelTooComplexError("edf too large")
        return score(cache, logls, r0=r0)

    monkeypatch.setattr(wavy, "outer_objective", too_complex_at_zero)
    res = profile_lambda(config)
    failed = np.isnan(res.table[:, 3])
    assert failed[4] and not failed[5:].any()
    cold = [r0 is None for r0 in starts]
    assert cold == [i == 0 or bool(failed[i - 1]) for i in range(config.grid.size)]
    assert cold[5] and not all(cold)
    assert_same_profile(res, cold_profile(monkeypatch, config, too_complex_at_zero))


def test_continuation_cuts_inner_passes(monkeypatch):
    """The grid rows of the default profile take at most 150 inner passes in
    all; started cold they take 263."""
    score = wavy.outer_objective
    iters = []

    def counted(cache, logls, r0=None):
        out = score(cache, logls, r0=r0)
        iters.append(out[1].inner_iters)
        return out

    monkeypatch.setattr(wavy, "outer_objective", counted)
    profile_lambda(WavyConfig(num_pullback=50))
    assert 0 < sum(iters) <= 150
