import json

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats
from scipy.integrate import quad

try:
    from numpy._core._exceptions import _ArrayMemoryError
except ImportError:   # numpy < 2
    from numpy.core._exceptions import _ArrayMemoryError

from pstransport import objective, splines, tmap
from pstransport.component import MapComponent, NotInvertibleError
from pstransport.lorenz63 import Lorenz63Params
from pstransport.objective import OUTER_TOL_GRAD, BarrierViolationError, \
    ModelTooComplexError, outer_objective
from pstransport.splines import DegenerateDimensionError, KnotVector, SortedLookup, SplineBasis
from pstransport.tmap import (
    Ensemble,
    MapFitConfig,
    TriangularMap,
    fit,
    permute_ensemble,
)
from pstransport.wavy import WavyConfig


def gaussian_ensemble(n, rho=0.8, seed=0, dim=2):
    rng = np.random.default_rng(seed)
    cov = rho * np.ones((dim, dim)) + (1 - rho) * np.eye(dim)
    data = rng.standard_normal((n, dim)) @ np.linalg.cholesky(cov).T
    return Ensemble(data)


@pytest.fixture(scope="module")
def fitted():
    ens = gaussian_ensemble(2000)
    tri, reports = fit(ens, [[], [0]], MapFitConfig(max_outer=20))
    return ens, tri, reports


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble(np.zeros((4, 2)))          # too few members
    with pytest.raises(ValueError):
        Ensemble(np.zeros(10))              # not 2-d
    bad = np.zeros((10, 2)); bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        Ensemble(bad)
    with pytest.raises(ValueError):
        Ensemble(np.zeros((10, 2)), names=["only-one"])
    for names in ("ab", [0, 1]):
        with pytest.raises(ValueError, match="names must be a list of strings"):
            Ensemble(np.zeros((10, 2)), names)
    default = ["x0", "x1"]
    assert Ensemble(np.zeros((10, 2))).names == default
    assert TriangularMap([None, None], np.zeros(2), np.ones(2)).names == default


@pytest.mark.parametrize("split", [1.5, True, "1"])
def test_map_rejects_a_non_integer_block_split(split):
    with pytest.raises(ValueError, match="block_split must be an integer"):
        TriangularMap([None, None], np.zeros(2), np.ones(2), block_split=split)
    assert TriangularMap([None, None], np.zeros(2), np.ones(2),
                         block_split=np.int64(1)).block_split == 1


def test_permute_ensemble():
    ens = Ensemble(np.arange(20.0).reshape(10, 2), ["a", "b"])
    per = permute_ensemble(ens, [1, 0])
    assert per.names == ["b", "a"]
    assert np.array_equal(per.data[:, 0], ens.data[:, 1])
    with pytest.raises(ValueError):
        permute_ensemble(ens, [0, 0])


def test_parent_set_triangularity():
    ens = gaussian_ensemble(50)
    with pytest.raises(ValueError):
        fit(ens, [[1], []])
    with pytest.raises(ValueError):
        fit(ens, [[]])
    # a repeated parent would enter the design, and its block's edf, twice
    with pytest.raises(ValueError, match="component 2 lists a parent twice"):
        fit(gaussian_ensemble(50, dim=3), [[], [0], [1, 1]])


@pytest.mark.parametrize("parent", [0.5, 0.0, True, "0"])
def test_parent_indices_must_be_integers(parent):
    """A parent index that is not an integer fails validation, before any fit."""
    with pytest.raises(ValueError, match="parents must be integers below 1"):
        fit(gaussian_ensemble(50), [[], [parent]])


@pytest.mark.parametrize("dim, config", [
    (2, {"block_split": -1, "fit_upper": False}),
    (3, {"block_split": 5, "fit_upper": False}),
    (3, {"block_split": 4}),
    (2, {"max_outer": -3}),
    (2, {"init_log_lambdas": [None, [np.nan, 1.0]]}),
    (2, {"init_log_lambdas": [None, [1.0, 16.0]]}),
    (2, {"init_log_lambdas": [[-15.5], None]}),
    (3, {"init_log_lambdas": [None, [1.0, 1.0]]}),
    (2, {"init_log_lambdas": [None, [1.0, 1.0], [1.0, 1.0]]}),
    (3, {"init_log_lambdas": [None, [1.0], None]}),
    (3, {"init_log_lambdas": [None, None, [1.0, 1.0, 1.0]]}),
])
def test_out_of_range_settings_raise_before_any_fit(monkeypatch, dim, config):
    """A negative setting or a warm start outside the log-lambda bounds fails
    when the config is built, a block split past the variables, a warm-start
    list without one entry per variable or a warm start without one entry per
    block of its component when the fit sees the data; all before any fit."""
    calls = []
    adapt = tmap.adapt_lambdas

    def recorded(*args, **kwargs):
        calls.append(args)
        return adapt(*args, **kwargs)

    monkeypatch.setattr(tmap, "adapt_lambdas", recorded)
    with pytest.raises(ValueError, match=r"(block_split|max_outer|init_log_lambdas) must lie in|"
                                         r"init_log_lambdas(\[\d\])? needs one entry per"):
        fit(gaussian_ensemble(50, dim=dim), [[]] + [[0]] * (dim - 1), MapFitConfig(**config))
    assert not calls


@pytest.mark.parametrize("cls, kwargs", [
    (MapFitConfig, {"block_split": 1.5}),
    (MapFitConfig, {"max_outer": 2.5}),
    (MapFitConfig, {"num_real_knots": 4.5}),
    (MapFitConfig, {"adapt": "false"}),
    (MapFitConfig, {"fit_upper": "no"}),
    (Lorenz63Params, {"steps": 2.5}),
    (WavyConfig, {"n": 30.5}),
])
def test_configs_reject_mistyped_int_and_bool_fields(cls, kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=f"{name} must be"):
        cls(**kwargs)


def test_configs_take_numpy_ints_and_bools_and_default_none():
    config = MapFitConfig(num_real_knots=None, max_outer=np.int64(3), adapt=np.bool_(False),
                          fit_upper=np.True_, block_split=np.int32(1))
    assert config == MapFitConfig(max_outer=3, adapt=False, block_split=1)
    assert Lorenz63Params(steps=np.int64(4)).steps == 4
    assert WavyConfig(n=np.int64(40)).n == 40
    for cls, kwargs in ((MapFitConfig, {"max_outer": True}), (WavyConfig, {"seed": None})):
        with pytest.raises(ValueError, match="must be int"):
            cls(**kwargs)


def test_fixed_monotone_regime_keeps_monotone_lambda():
    """monotone_log_lambda pins every monotone log-lambda at its value while
    the parent smoothing parameters still move, also from warm starts."""
    config = MapFitConfig(monotone_log_lambda=7.0, max_outer=5)
    ens = gaussian_ensemble(200, dim=3)
    tri, reports = fit(ens, [[], [0], [0, 1]], config)
    for j, report in enumerate(reports):
        assert report.log_lambdas[-1] == 7.0
        assert np.array_equal(tri.components[j].log_lambdas, report.log_lambdas)
        if j:
            assert report.outer_iters >= 1
            assert np.all(report.log_lambdas[:-1] != config.init_log_lambda)
    warm = MapFitConfig(monotone_log_lambda=7.0, max_outer=5,
                        init_log_lambdas=[[1.0], [1.0, 1.0], [1.0, 1.0, 1.0]])
    _, reports = fit(ens, [[], [0], [0, 1]], warm)
    assert all(report.log_lambdas[-1] == 7.0 for report in reports)


def test_fit_does_not_depend_on_units_or_offsets():
    """Fitting a per-column affine copy a_j x + b_j (a_j > 0) gives the same
    reports and pushforward. Over six seeds of this ensemble the copies
    differ by at most 4e-12 in log-lambda, 6e-12 in edf, 2e-12 in the
    pushforward and 3e-14 relative in nll and AICc."""
    rng = np.random.default_rng(0)
    x1 = 3 + 5 * rng.standard_normal(300)
    x2 = 4 * np.tanh(x1 / 5) + 0.3 * rng.standard_normal(300)
    x3 = np.sin(x2) + 0.1 * x1 + 0.2 * rng.standard_normal(300)
    data = np.column_stack([x1, x2, x3])
    moved = np.array([0.01, 250.0, 3.0]) * data + np.array([-7.0, 1e3, 0.5])
    config = MapFitConfig(max_outer=10)
    tri, reports = fit(Ensemble(data), [[], [0], [0, 1]], config)
    tri_m, reports_m = fit(Ensemble(moved), [[], [0], [0, 1]], config)
    assert np.allclose(tri_m.pushforward(moved), tri.pushforward(data), rtol=0, atol=1e-9)
    for r, r_m in zip(reports, reports_m):
        assert r_m.outer_iters == r.outer_iters
        assert np.allclose(r_m.log_lambdas, r.log_lambdas, rtol=0, atol=1e-9)
        assert r_m.edf == pytest.approx(r.edf, rel=0, abs=1e-9)
        assert r_m.nll == pytest.approx(r.nll, rel=1e-12)
        assert r_m.aicc == pytest.approx(r.aicc, rel=1e-12)


def test_default_fit_reports_why_it_stopped():
    """Each reported reason holds at the returned point. The gradient test
    comes first, so only a "gradient" stop has a norm within its tolerance;
    the objective test needs an accepted step, and "cap" means max_outer
    accepted steps."""
    config = MapFitConfig()
    _, reports = fit(gaussian_ensemble(200, dim=3), [[], [0], [0, 1]], config)
    for report in reports:
        assert report.stop_reason in ("gradient", "objective", "cap")
        assert (report.grad_norm <= OUTER_TOL_GRAD) == (report.stop_reason == "gradient")
        assert report.outer_iters <= config.max_outer
        if report.stop_reason == "cap":
            assert report.outer_iters == config.max_outer
        if report.stop_reason == "objective":
            assert report.outer_iters >= 1


def test_fixed_fit_scores_its_start():
    """adapt=False takes no outer step: the reports hold the start log-lambdas
    and the AICc that outer_objective gives there, and no outer gradient
    norm."""
    ens = gaussian_ensemble(100)
    config = MapFitConfig(adapt=False, init_log_lambda=1.5, monotone_log_lambda=4.0)
    tri, reports = fit(ens, [[], [0]], config)
    Z = (ens.data - tri.center) / tri.scale
    for j, report in enumerate(reports):
        start = np.array([1.5] * j + [4.0])
        assert (report.outer_iters, report.stop_reason) == (0, "fixed")
        assert np.isnan(report.grad_norm)
        assert np.array_equal(report.log_lambdas, start)
        cache, _ = tmap._component_design(Z, j, [[], [0]][j], config, {}, {})
        assert report.aicc == outer_objective(cache, start)[0]


def test_pushforward_is_whitened(fitted):
    ens, tri, _ = fitted
    z = tri.pushforward_ensemble(ens).data
    assert abs(np.corrcoef(z.T)[0, 1]) < 0.05
    assert np.abs(z.mean(axis=0)).max() < 0.05
    assert np.abs(z.std(axis=0) - 1).max() < 0.05


def test_pushforward_row_matches_ensemble(fitted):
    ens, tri, _ = fitted
    batch = tri.pushforward_ensemble(ens).data
    for i in (0, 100, 999):
        assert np.allclose(tri.pushforward(ens.data[i]), batch[i], atol=1e-12)


def test_inverse_round_trip(fitted):
    _, tri, _ = fitted
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(-2, 2, 2)
        z = tri.pushforward(x)
        assert np.max(np.abs(tri.inverse(z) - x)) < 1e-7


def test_log_pullback_density_normalizes(fitted):
    _, tri, _ = fitted
    # integrate the conditional density in x2 at fixed x1; should be ~1
    x1 = 0.5
    val, _ = quad(lambda x2: np.exp(
        tri.log_pullback_density(np.array([x1, x2]))
        - stats.norm.logpdf(tri.pushforward(np.array([x1, 0.0]))[0])
        - np.log(tri.component_ddx(0, np.array([x1, 0.0])))
    ), -6, 6, limit=200)
    assert val == pytest.approx(1.0, abs=5e-3)


def test_conditional_update_matches_gaussian_formula(fitted):
    ens, tri, _ = fitted
    x_star = 1.0
    tri.block_split = 1
    updated = tri.conditional_update(ens.data, np.array([x_star]))
    tri.block_split = 0
    # analytic conditional for rho=0.8 standard bivariate normal
    assert updated[:, 1].mean() == pytest.approx(0.8 * x_star, abs=0.05)
    assert updated[:, 1].var() == pytest.approx(1 - 0.8 ** 2, abs=0.05)
    assert np.allclose(updated[:, 0], x_star)


def test_conditioning_on_own_value_is_identity(fitted):
    ens, tri, _ = fitted
    tri.block_split = 1
    row = ens.data[17:18]
    upd = tri.conditional_update(row, row[0, :1])
    tri.block_split = 0
    assert np.max(np.abs(upd - row)) < 1e-7


def test_sample_conditional_reproducible(fitted):
    _, tri, _ = fitted
    tri.block_split = 1
    a = tri.sample_conditional(np.array([0.3]), 50, seed=9)
    b = tri.sample_conditional(np.array([0.3]), 50, seed=9)
    tri.block_split = 0
    assert np.array_equal(a, b)


def test_sample_conditional_without_block_a_is_the_inverse(fitted):
    """With no observed block, conditional draws are the inverse of the same
    reference draws, bit for bit, in a C-contiguous array."""
    _, tri, _ = fitted
    draws = tri.sample_conditional([], 40, seed=5)
    assert np.array_equal(draws, tri.inverse(np.random.default_rng(5).standard_normal((40, 2))))
    assert draws.flags["C_CONTIGUOUS"]


def test_conditioning_checks_the_observed_block_size():
    """Both conditioning methods take exactly one value per block-a variable."""
    config = MapFitConfig(block_split=2, fit_upper=False, max_outer=2)
    ens = gaussian_ensemble(100, dim=3)
    tri, _ = fit(ens, [[], [0], [0, 1]], config)
    with pytest.raises(ValueError, match="x_a_star must have length 2"):
        tri.conditional_update(ens.data, np.array([0.5]))
    with pytest.raises(ValueError, match="x_a_star must have length 2"):
        tri.sample_conditional(np.array([0.5]), 10, seed=0)
    assert tri.sample_conditional(np.array([0.5, 0.5]), 10, seed=0).shape == (10, 1)


@pytest.fixture(scope="module")
def three_variable_map():
    ens = gaussian_ensemble(100, dim=3)
    return ens, fit(ens, [[], [0], [0, 1]], MapFitConfig(block_split=1, max_outer=2))[0]


ROW_READERS = {
    "pushforward": lambda tri, x: tri.pushforward(x),
    "log_pullback_density": lambda tri, x: tri.log_pullback_density(x),
    "component_ddx": lambda tri, x: tri.component_ddx(1, x),
    "inverse": lambda tri, x: tri.inverse(x),
    "conditional_update": lambda tri, x: tri.conditional_update(x, [0.2]),
}


@pytest.mark.parametrize("reader", ROW_READERS.values(), ids=ROW_READERS)
@pytest.mark.parametrize("shape", [(5, 1), (5, 4), (1,)], ids=["width-1", "width-4", "1d-row"])
def test_rows_of_the_wrong_width_are_rejected(three_variable_map, reader, shape):
    """Every method that reads rows of all variables (reference rows for
    ``inverse``) rejects rows of another width with a ValueError naming the
    expected and the given width, rather than broadcasting a column; a 1-d
    row is one row, except for ``conditional_update``, which takes (n, d)."""
    _, tri = three_variable_map
    x = np.full(shape, 0.3)
    match = r"must have 3 values, one per variable, not %d" % shape[-1]
    if reader is ROW_READERS["conditional_update"] and len(shape) == 1:
        match = r"members must be an \(n, 3\) array, not of shape \(1,\)"
    with pytest.raises(ValueError, match=match):
        reader(tri, x)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_conditioning_rejects_a_non_finite_observation(three_variable_map, value):
    """A non-finite observed value is named as such, not blamed on a member."""
    ens, tri = three_variable_map
    with pytest.raises(ValueError, match="x_a_star must be finite"):
        tri.conditional_update(ens.data, [value])
    with pytest.raises(ValueError, match="x_a_star must be finite"):
        tri.sample_conditional([value], 3)


def test_save_load_round_trip(tmp_path, fitted):
    ens, tri, _ = fitted
    path = tmp_path / "map.json"
    tri.save(path)
    tri2 = TriangularMap.load(path)
    x = ens.data[:10]
    for row in x:
        assert np.array_equal(tri.pushforward(row), tri2.pushforward(row))
    assert tri2.names == tri.names


def test_saved_map_keeps_its_degree(tmp_path):
    """Fits are cubic, but a map saved with another degree loads with it: a
    quadratic map evaluates its splines as saved and inverts."""
    knots = [-1.5, -0.5, 0.5, 1.5]   # degree 2: five basis functions
    doc = {"format_version": 1, "dim": 2, "names": ["a", "b"], "block_split": 1,
           "center": [0.5, -1.0], "scale": [2.0, 0.5], "components": [
               {"parents": [], "own": 0, "non_knots": [], "mon_knots": knots,
                "degree": 2, "beta_non": [], "beta_mon_raw": [-1.0, 0.4, 0.5, 0.6, 0.5],
                "log_lambdas": None},
               {"parents": [0], "own": 1, "non_knots": [knots], "mon_knots": knots,
                "degree": 2, "beta_non": [0.3, -0.2, 0.1, 0.0, -0.1],
                "beta_mon_raw": [-1.2, 0.5, 0.5, 0.7, 0.4], "log_lambdas": [1.0, 2.0]}]}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    tri = TriangularMap.load(path)
    assert tri.to_dict() == doc
    x = np.random.default_rng(0).standard_normal((50, 2)) * [2.0, 0.5] + [0.5, -1.0]
    basis = SplineBasis(KnotVector(np.array(knots), 2))
    want = basis.eval((x[:, 0] - 0.5) / 2.0) @ np.cumsum(doc["components"][0]["beta_mon_raw"])
    assert np.allclose(tri.pushforward(x)[:, 0], want, rtol=0, atol=1e-12)
    assert np.max(np.abs(tri.inverse(tri.pushforward(x)) - x)) < 1e-7


def test_saved_linear_map_loads_and_inverts(tmp_path):
    """A map saved with degree 1 is piecewise linear: it evaluates its splines
    as saved, and inverts every member, the knots and the tails included."""
    knots = [-1.5, -0.5, 0.5, 1.5]   # degree 1: four basis functions
    doc = {"format_version": 1, "dim": 2, "names": ["a", "b"], "block_split": 1,
           "center": [0.5, -1.0], "scale": [2.0, 0.5], "components": [
               {"parents": [], "own": 0, "non_knots": [], "mon_knots": knots,
                "degree": 1, "beta_non": [], "beta_mon_raw": [-1.0, 0.4, 0.3, 0.6],
                "log_lambdas": None},
               {"parents": [0], "own": 1, "non_knots": [knots], "mon_knots": knots,
                "degree": 1, "beta_non": [0.3, -0.2, 0.1, 0.0],
                "beta_mon_raw": [-1.2, 0.5, 0.7, 0.4], "log_lambdas": [1.0, 2.0]}]}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    tri = TriangularMap.load(path)
    assert tri.to_dict() == doc
    rng = np.random.default_rng(1)
    z = np.concatenate([rng.uniform(-1.5, 1.5, (40, 2)), np.column_stack([knots, knots]),
                        rng.uniform(-6, 6, (20, 2))]) * [2.0, 0.5] + [0.5, -1.0]
    basis = SplineBasis(KnotVector(np.array(knots), 1))
    want = basis.eval((z[:, 0] - 0.5) / 2.0) @ np.cumsum(doc["components"][0]["beta_mon_raw"])
    assert np.allclose(tri.pushforward(z)[:, 0], want, rtol=0, atol=1e-12)
    assert np.max(np.abs(tri.inverse(tri.pushforward(z)) - z)) < 1e-9


@pytest.fixture(scope="module")
def saved_sparse_map():
    ens = gaussian_ensemble(300, dim=3, seed=2)
    return fit(ens, [[], [0], [0, 1]], MapFitConfig(max_outer=2))[0].to_dict()


MISSING = object()


def set_at(doc, path, value):
    """Copy of ``doc`` with the entry at ``path`` (keys and indices) set to
    ``value``, or deleted if ``value`` is MISSING."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is MISSING:
        del target[last]
    else:
        target[last] = value
    return doc


@pytest.mark.parametrize("path, value, match", [
    (("components", 1, "parents"), [2], "parents must be integers below 1"),
    (("components", 2, "parents"), [1, 1], "lists a parent twice"),
    (("components", 2, "own"), 1, "own variable 1"),
    (("dim",), 4, "sizes disagree"),
    (("names",), ["a", "b"], "sizes disagree"),
    (("block_split",), 4, "block_split must lie in"),
    (("center",), [0.0, float("nan"), 0.0], "center must be finite"),
    (("scale",), [1.0, -1.0, 1.0], "scale must be finite and positive"),
    (("scale",), [1.0, 1.0, float("inf")], "scale must be finite and positive"),
    (("scale",), [0.0, 1.0, 1.0], "scale must be finite and positive"),
    (("components", 1, "degree"), "3", "component 1 degree must be a non-negative integer"),
    (("components", 2, "degree"), True, "component 2 degree must be a non-negative integer"),
    (("components", 0, "degree"), -1, "component 0 degree must be a non-negative integer"),
    (("block_split",), 1.5, "block_split must be an integer"),
    (("block_split",), True, "block_split must be an integer"),
    (("names",), "abc", "names must be a list of strings"),
    (("names",), [0, 1, 2], "names must be a list of strings"),
    (("components", 1, "beta_mon_raw", 0), float("nan"), "coefficients must be finite"),
    (("components", 2, "beta_non", 2), float("inf"), "coefficients must be finite"),
    (("components",), "xx", "components must be a list"),
    (("components", 1), "xx", "component 1 must be null or an object"),
    (("components", 2, "mon_knots", -1), float("inf"), "real knots must be finite"),
    (("components", 1, "beta_mon_raw"), [[0.5]] * 11, "coefficients must be 1-d"),
    (("components", 1, "beta_non"), [[0.1]] * 11, "coefficients must be 1-d"),
    (("components", 1, "log_lambdas"), [float("nan"), 1.0], "log_lambdas must be finite"),
    (("components", 2, "log_lambdas"), [1.0], r"log_lambdas must be finite, one per block \(3\)"),
    (("components", 1, "own"), MISSING, "component 1 has no 'own' entry"),
    (("scale",), MISSING, "saved map has no 'scale' entry"),
    (("components", 1, "own"), True, "component 1 is saved with own variable True"),
    (("components", 2, "own"), 2.0, "component 2 is saved with own variable 2.0"),
    (("components", 1, "parents"), 5, "component 1 parents must be a list, not 5"),
    (("components", 2, "parents"), None, "component 2 parents must be a list, not None"),
    (("components", 1, "non_knots"), 5, "component 1 non_knots must be a list, not 5"),
    (("components", 2, "non_knots"), None, "component 2 non_knots must be a list"),
])
def test_load_rejects_inconsistent_maps(saved_sparse_map, path, value, match):
    """A saved map is outside input: its sizes, block split, names, own
    variables, parents, center, scale, degrees, components and coefficients
    are checked when it is loaded, with the fit's parent rule."""
    TriangularMap.from_dict(saved_sparse_map)
    with pytest.raises(ValueError, match=match):
        TriangularMap.from_dict(set_at(saved_sparse_map, path, value))


def test_load_rejects_missing_components(saved_sparse_map):
    doc = set_at(saved_sparse_map, ("components",), saved_sparse_map["components"][:2])
    with pytest.raises(ValueError, match="2 components"):
        TriangularMap.from_dict(doc)


def test_load_rejects_unknown_version(tmp_path, fitted):
    _, tri, _ = fitted
    doc = tri.to_dict()
    doc["format_version"] = 99
    with pytest.raises(ValueError):
        TriangularMap.from_dict(doc)


def test_constant_parent_is_dropped():
    rng = np.random.default_rng(4)
    data = np.column_stack([np.full(200, 3.0), rng.standard_normal(200)])
    ens = Ensemble(data)
    tri, _ = fit(ens, [[], [0]], MapFitConfig(block_split=1, fit_upper=False))
    assert tri.components[1].parents == []


def lorenz_joint(n=60, seed=0):
    """(y, x0, x1, x2): a spun-up Lorenz-63 ensemble with perturbed
    predictions of x0, the data of one filter map fit."""
    from pstransport import lorenz63
    params = Lorenz63Params()
    rng = np.random.default_rng(seed)
    members = rng.standard_normal((n, 3))
    for _ in range(params.spinup):
        members = lorenz63.rk4_step(members, params)
    y = members[:, 0] + rng.normal(0.0, params.obs_sigma, size=n)
    return Ensemble(np.column_stack([y, members]))


def test_sparse_map_fit_builds_one_basis_per_variable(monkeypatch):
    """The sparse filter map reads four variables in seven places; its fit
    places knots and builds a basis once per variable, and every component
    and design that reads a variable shares that basis object."""
    calls = {"make_knots": 0, "SplineBasis": 0}
    for name in calls:
        build = getattr(tmap, name)

        def counted(*args, _build=build, _name=name, **kwargs):
            calls[_name] += 1
            return _build(*args, **kwargs)

        monkeypatch.setattr(tmap, name, counted)
    tri, reports = fit(lorenz_joint(), [[], [0], [1], [1, 2]],
                       MapFitConfig(block_split=1, fit_upper=False, max_outer=2))
    assert calls == {"make_knots": 4, "SplineBasis": 4}
    _, c1, c2, c3 = tri.components
    assert c2.non_bases[0] is c1.mon_basis and c3.non_bases[0] is c1.mon_basis
    assert c3.non_bases[1] is c2.mon_basis
    assert len({id(c.mon_basis) for c in (c1, c2, c3)} | {id(c1.non_bases[0])}) == 4
    for comp, report in zip(tri.components[1:], reports[1:]):
        assert report.design.mon_basis is comp.mon_basis
        assert all(a is b for a, b in zip(report.design.non_bases, comp.non_bases))


def test_sparse_map_fit_evaluates_one_table_per_variable(monkeypatch):
    """The sparse filter map's fit evaluates each variable's basis table once,
    on its standardized column, and every design's monotone and parent
    blocks are that table bit for bit."""
    calls = []
    evaluate = SplineBasis.eval
    monkeypatch.setattr(SplineBasis, "eval",
                        lambda self, x: calls.append(self) or evaluate(self, x))
    ens = lorenz_joint()
    tri, reports = fit(ens, [[], [0], [1], [1, 2]],
                       MapFitConfig(block_split=1, fit_upper=False, max_outer=2))
    assert len(calls) == 4 and len(set(map(id, calls))) == 4
    monkeypatch.undo()
    Z = tri._std(ens.data)
    for j, (comp, report) in enumerate(zip(tri.components[1:], reports[1:]), start=1):
        design = report.design
        assert np.array_equal(design.P_mon, comp.mon_basis.eval(Z[:, j]))
        for basis, parent, sl in zip(comp.non_bases, comp.parents, design.non_slices):
            assert np.array_equal(design.P_non[:, sl], basis.eval(Z[:, parent]))


def test_kept_basis_tables_are_read_only():
    """The pp tables a fit keeps on each basis are read-only, the span lookup
    included; so are the penalties a design keeps per size and per point,
    and its Greville start."""
    tri, reports = fit(lorenz_joint(), [[], [0], [1], [1, 2]],
                       MapFitConfig(block_split=1, fit_upper=False, max_outer=2))
    for comp, report in zip(tri.components[1:], reports[1:]):
        for basis in [comp.mon_basis, *comp.non_bases]:
            for item in basis._pp:
                arrays = [item._below, item._breaks] if isinstance(item, SortedLookup) \
                    else [] if item is None else [item]
                for arr in arrays:
                    assert not arr.flags.writeable
        cache = report.design
        kept = [cache.mon_gram, cache.mon_gram_raw, cache.ridge_raw, *cache.non_grams,
                cache._start_raw, report.point[0].S_non, report.point[0].S_mon_raw]
        assert all(not arr.flags.writeable for arr in kept)
        assert np.array_equal(cache.default_raw(), cache._start_raw)
        assert cache.default_raw().flags.writeable


def test_sparse_map_fit_builds_pp_tables_once_per_basis(monkeypatch):
    """The sparse filter map's components read a basis 7 times, 3 monotone
    terms and 4 parent terms on 4 variables; the pp tables are built once
    per basis, and every term on one basis reads the same tables object."""
    calls = []
    build = splines._pp_tables
    monkeypatch.setattr(splines, "_pp_tables", lambda basis: calls.append(basis) or build(basis))
    tri, _ = fit(lorenz_joint(), [[], [0], [1], [1, 2]],
                 MapFitConfig(block_split=1, fit_upper=False, max_outer=2))
    reads = [(basis, term) for comp in tri.components[1:]
             for basis, term in zip([comp.mon_basis, *comp.non_bases], [comp._mon, *comp._non])]
    assert len(reads) == 7
    assert len(calls) == 4 and len(set(map(id, calls))) == 4
    assert {id(basis) for basis, _ in reads} == set(map(id, calls))
    for basis, term in reads:
        assert term._piece is basis._pp[0] and term._origin is basis._pp[1]
        assert term._inv_h is basis._pp[2]


def test_constant_columns_keep_their_warning_and_error(caplog):
    """A constant parent is dropped with one warning per component that lists
    it, though its knots are placed once; a constant own variable fails its
    component, also when later components list it as a parent."""
    data = gaussian_ensemble(60, dim=3).data
    data[:, 0] = 1.0
    with caplog.at_level("WARNING", logger="pstransport.tmap"):
        tri, _ = fit(Ensemble(data), [[], [0], [0, 1]],
                     MapFitConfig(block_split=1, fit_upper=False, max_outer=2))
    assert [rec.getMessage() for rec in caplog.records] == [
        "dropping constant parent 0 of component 1", "dropping constant parent 0 of component 2"]
    assert tri.components[1].parents == [] and tri.components[2].parents == [1]
    data = gaussian_ensemble(60, dim=3).data
    data[:, 1] = 1.0
    with pytest.raises(DegenerateDimensionError,
                       match=r"^fit of component 1 \(x1\) failed: all samples are equal$"):
        fit(Ensemble(data), [[], [0], [0, 1]])


def test_warm_start_drops_the_entry_of_a_dropped_parent():
    """A warm start sized for the declared parents loses the entry of a
    constant parent together with the parent; the others keep theirs."""
    data = np.random.default_rng(0).standard_normal((60, 3))
    data[:, 0] = 1.0
    config = MapFitConfig(block_split=1, fit_upper=False, max_outer=2,
                          init_log_lambdas=[None, [1.0, 1.0], [1.0, 1.0, 1.0]])
    tri, reports = fit(Ensemble(data), [[], [0], [0, 1]], config)
    assert [len(r.log_lambdas) for r in reports[1:]] == [1, 2]
    config = MapFitConfig(block_split=1, fit_upper=False, adapt=False,
                          init_log_lambdas=[None, [3.0, 1.5], [4.0, -2.0, 0.5]])
    tri, reports = fit(Ensemble(data), [[], [0], [0, 1]], config)
    assert np.array_equal(reports[1].log_lambdas, [1.5])
    assert np.array_equal(reports[2].log_lambdas, [-2.0, 0.5])
    assert tri.components[2].parents == [1]


def test_fit_failure_names_component():
    rng = np.random.default_rng(5)
    data = np.column_stack([rng.standard_normal(50), np.full(50, 1.0)])
    with pytest.raises(DegenerateDimensionError, match="component 1"):
        fit(Ensemble(data, ["a", "b"]), [[], [0]])


def test_fit_failure_names_component_and_matrix(monkeypatch):
    """A failed factorization inside a component fit names the component
    and the matrix."""
    monkeypatch.setattr(objective, "_newton_hessian", lambda cache, H, s: -np.eye(H.shape[0]))
    with pytest.raises(np.linalg.LinAlgError, match=r"^fit of component 0 \(a\) failed: "
                       r"inner Newton matrix is not positive definite \(leading minor 1\)$"):
        fit(Ensemble(gaussian_ensemble(60).data, ["a", "b"]), [[], [0]])


@pytest.mark.parametrize("error", [ModelTooComplexError, BarrierViolationError, TypeError])
def test_fit_failure_keeps_its_type(monkeypatch, error):
    def failing(cache, *args, **kwargs):
        if cache.m:   # component 1, the one with a parent
            raise error("inner failure")
        return adapt(cache, *args, **kwargs)

    adapt = tmap.adapt_lambdas
    monkeypatch.setattr(tmap, "adapt_lambdas", failing)
    with pytest.raises(error, match=r"component 1 \(b\) failed: inner failure") as info:
        fit(Ensemble(gaussian_ensemble(60).data, ["a", "b"]), [[], [0]])
    assert type(info.value) is error
    assert isinstance(info.value.__cause__, error)


def test_fit_failure_keeps_an_error_not_built_from_a_message(monkeypatch):
    """numpy's allocation error takes a shape and a dtype, not a message, so
    the fit re-raises it as it is."""
    error = _ArrayMemoryError((10 ** 12,), np.dtype(float))

    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(tmap, "DesignCache", failing)
    with pytest.raises(MemoryError) as info:
        fit(gaussian_ensemble(60), [[], [0]])
    assert info.value is error


def test_too_complex_fit_keeps_its_type():
    ens = gaussian_ensemble(20)
    with pytest.raises(ModelTooComplexError, match=r"component 1 \(x1\) failed: edf="):
        fit(ens, [[], [0]], MapFitConfig(adapt=False, init_log_lambda=-12.0,
                                         num_real_knots=12))


def test_standardization_fields(fitted):
    ens, tri, _ = fitted
    assert np.allclose(tri.center, np.median(ens.data, axis=0))
    assert np.all(tri.scale > 0)


def test_unfitted_upper_block_raises():
    ens = gaussian_ensemble(200)
    tri, reports = fit(ens, [[], [0]], MapFitConfig(block_split=1, fit_upper=False))
    assert reports[0] is None
    with pytest.raises(ValueError):
        tri.pushforward(ens.data[0])
    # conditional update only needs the lower block
    upd = tri.conditional_update(ens.data[:20], np.array([0.0]))
    assert upd.shape == (20, 2)


def test_reports_expose_adaptation(fitted):
    _, _, reports = fitted
    for r in reports:
        assert r.converged
        assert np.isfinite(r.aicc)
        assert r.edf > 0


def test_failed_conditioning_keeps_error_type():
    # all-zero increments make the lower component flat in its own variable
    non = SplineBasis(KnotVector(np.linspace(-2, 2, 5), 3))
    mon = SplineBasis(KnotVector(np.linspace(-2, 2, 5), 3))
    upper = MapComponent([], 0, [], mon, [], np.r_[-1.0, np.full(mon.num_basis - 1, 0.5)])
    flat = MapComponent([0], 1, [non], mon, np.linspace(-1, 1, non.num_basis),
                        np.r_[0.3, np.zeros(mon.num_basis - 1)])
    tri = TriangularMap([upper, flat], np.zeros(2), np.ones(2), block_split=1)
    members = np.random.default_rng(0).uniform(-1, 1, (20, 2))
    with pytest.raises(NotInvertibleError, match="component 1"):
        tri.conditional_update(members, np.array([0.5]))
    with pytest.raises(NotInvertibleError, match="component 1"):
        tri.sample_conditional(np.array([0.5]), 20, seed=0)


def test_log_pullback_density_batch(fitted):
    ens, tri, _ = fitted
    rows = ens.data[:25]
    batch = tri.log_pullback_density(rows)
    assert batch.shape == (25,)
    assert np.array_equal(batch, [tri.log_pullback_density(r) for r in rows])
    # a component with a zero monotone term has no density anywhere
    comp = tri.components[1]
    flat = MapComponent(comp.parents, 1, comp.non_bases, comp.mon_basis, comp.beta_non,
                        np.zeros(comp.beta_mon_raw.size))
    tri_flat = TriangularMap([tri.components[0], flat], tri.center, tri.scale)
    assert np.all(tri_flat.log_pullback_density(rows) == -np.inf)


def test_zero_increments_give_no_density(fitted):
    """With every increment zero the monotone term is flat whatever its level:
    its derivative is exactly 0, so the density is -inf on every row."""
    ens, tri, _ = fitted
    rows = ens.data[:25]
    comp = tri.components[1]
    raw = np.zeros(comp.beta_mon_raw.size)
    raw[0] = 0.7
    flat = MapComponent(comp.parents, 1, comp.non_bases, comp.mon_basis, comp.beta_non,
                        raw)
    tri_flat = TriangularMap([tri.components[0], flat], tri.center, tri.scale)
    assert np.all(tri_flat.component_ddx(1, rows) == 0)
    assert np.all(tri_flat.log_pullback_density(rows) == -np.inf)


def test_component_ddx_batch(fitted):
    ens, tri, _ = fitted
    rows = ens.data[:25]
    for j in range(tri.dim):
        batch = tri.component_ddx(j, rows)
        assert batch.shape == (25,)
        assert np.all(batch > 0)
        assert np.array_equal(batch, [tri.component_ddx(j, r) for r in rows])


@st.composite
def triangular_maps(draw):
    """A 3-variable map over parents [], [0], [0, 1] with positive increments,
    coefficients scaled by 1 or 300 (steep)."""
    coef = draw(st.sampled_from([1.0, 300.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def basis():
        lo = rng.uniform(-3, 0)
        return SplineBasis(KnotVector(np.linspace(lo, lo + rng.uniform(1, 4),
                                                  rng.integers(4, 10)), 3))

    comps = []
    for j, parents in enumerate([[], [0], [0, 1]]):
        non = [basis() for _ in parents]
        mon = basis()
        beta_non = coef * rng.uniform(-1, 1, sum(b.num_basis for b in non))
        raw = coef * np.r_[rng.uniform(-2, 2), rng.uniform(0.05, 1, mon.num_basis - 1)]
        comps.append(MapComponent(parents, j, non, mon, beta_non, raw))
    return TriangularMap(comps, rng.uniform(-2, 2, 3), rng.uniform(0.5, 3, 3))


@given(tri=triangular_maps(), seed=st.integers(0, 2 ** 32 - 1))
def test_inverse_of_pushforward_on_batches(tri, seed):
    X = tri.center + tri.scale * np.random.default_rng(seed).uniform(-4, 4, (30, 3))
    Z = tri.pushforward(X)
    X_back = tri.inverse(Z)
    assert Z.shape == X_back.shape == X.shape
    # each component meets the residual contract of invert_many ...
    X_std = (X_back - tri.center) / tri.scale
    for j, comp in enumerate(tri.components):
        resolvable = np.abs(comp.ddx(X_std[:, j]) * X_std[:, j]) * 2e-16
        bound = 100 * (1e-10 * np.maximum(1.0, np.abs(Z[:, j])) + resolvable)
        assert np.all(np.abs(comp.eval_many(X_std) - Z[:, j]) <= bound)
    # ... which pins x down to the residual over the slope, below 1e-6 for
    # the slopes drawn here
    assert np.max(np.abs(X_back - X)) < 1e-6
    assert np.allclose(tri.inverse(Z[3]), X_back[3], atol=1e-12)
