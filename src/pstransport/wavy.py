"""Bivariate profiling study on an oscillatory ("wavy") target.

A two-variable map is fitted to a deliberately hard problem (small
ensemble, many knots) while the smoothing parameter of the nonmonotone
part of the second component sweeps a log-lambda grid; the monotone
parts stay heavily smoothed. The resulting nll/edf/AICc profile shows
the fit-versus-complexity trade-off, and sample clouds at representative
grid points show its visual effect on pushforward and pullback.

The target density here is artifact-defined (chosen for visible
oscillatory structure), not an external ground truth.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .component import MapComponent
from .objective import FIT_FAILURES, LOG_LAMBDA_BOUNDS, outer_objective
from .tmap import Ensemble, MapFitConfig, _check_fields, _fitted, fit

logger = logging.getLogger(__name__)

__all__ = ["WavyConfig", "ProfileResult", "sample_wavy", "profile_lambda"]


def sample_wavy(n, seed):
    """Draw n samples from the default wavy target.

    x1 ~ N(0,1) and x2 = sin(3 x1) + 0.25 eps with eps ~ N(0,1).
    Pass a different ``generator`` to WavyConfig to study other targets.
    """
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal(n)
    x2 = np.sin(3.0 * x1) + 0.25 * rng.standard_normal(n)
    return Ensemble(np.column_stack([x1, x2]), ["x1", "x2"])


@dataclass
class WavyConfig:
    """Settings of the profiling sweep."""

    n: int = 30
    num_real_knots: int = 50
    fixed_monotone_log_lambda: float = 10.0
    grid: np.ndarray = field(default_factory=lambda: np.linspace(-10.0, 10.0, 41))
    seed: int = 0
    num_pullback: int = 1000
    generator: callable = sample_wavy

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        _check_fields(self, n=(8, np.inf), num_real_knots=(2, np.inf), seed=(0, np.inf),
                      num_pullback=(0, np.inf), fixed_monotone_log_lambda=LOG_LAMBDA_BOUNDS)
        low, high = LOG_LAMBDA_BOUNDS
        if not np.all((low <= self.grid) & (self.grid <= high)):
            raise ValueError(f"grid values must lie in [{low}, {high}]")
        if self.grid.ndim != 1 or not self.grid.size or np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be non-empty and strictly ascending")


@dataclass
class ProfileResult:
    """Output of profile_lambda.

    ``table`` has one row per grid point: (log lambda, nll, edf, aicc);
    failed fits leave NaN entries. ``clouds`` maps a representative grid
    log-lambda to a dict with "pushforward" and "pullback" (num, 2)
    arrays. ``argmin_log_lambda`` is the grid minimizer of AICc and
    ``adapted_log_lambda`` the result of the gradient-based optimizer.
    """

    table: np.ndarray
    clouds: dict
    argmin_log_lambda: float
    adapted_log_lambda: float
    ensemble: Ensemble


def profile_lambda(config=None):
    """Sweep the nonmonotone smoothing parameter of S2 over the grid.

    Grid points whose fit fails numerically (``objective.FIT_FAILURES``)
    are recorded as NaN rows, rows whose inner solve did not converge are
    logged as warnings, and any other exception propagates. The map fit
    adapts the same parameter by its quasi-Newton (BFGS) search (same fixed
    monotone penalty) for comparison with the grid argmin.

    The sweep is a continuation in ascending log lambda: each row's inner
    solve starts from the secant through the two previous fitted rows,
    scaled by the grid spacing, or from the one previous row. The first
    row and the row after a failed one start cold.
    """
    config = config or WavyConfig()
    ensemble = config.generator(config.n, config.seed)
    # the map fit fixes every monotone lambda and adapts S2's nonmonotone
    # one (the gradient-based result); every grid point refits S2 on the
    # design that fit built
    tri, reports = fit(ensemble, [[], [0]], MapFitConfig(
        num_real_knots=config.num_real_knots,
        monotone_log_lambda=config.fixed_monotone_log_lambda,
    ))
    cache, parents = reports[1].design, tri.components[1].parents

    table = np.full((config.grid.size, 4), np.nan)
    fits = {}
    path = []   # (log lambda, r_hat) of the last two fitted rows, newest first
    for i, logl in enumerate(config.grid):
        table[i, 0] = logl
        try:
            logls = np.array([logl, config.fixed_monotone_log_lambda])
            aicc, report, r_hat = outer_objective(cache, logls, r0=_secant_start(path, logl))
        except FIT_FAILURES:
            path = []
            continue
        path = [(logl, r_hat), *path[:1]]
        if not report.converged:
            logger.warning("log lambda %g: inner solve unconverged, projected gradient %.3g",
                           logl, report.inner_grad_norm)
        table[i, 1:] = [report.nll, report.edf, aicc]
        fits[float(logl)] = _fitted(report)   # not the report: its point holds p x p factors

    ok = np.isfinite(table[:, 3])
    if not ok.any():
        raise RuntimeError("every grid point failed to fit")
    argmin = float(table[ok, 0][np.argmin(table[ok, 3])])

    clouds = {}
    rng = np.random.default_rng(config.seed + 1)
    z_ref = rng.standard_normal((config.num_pullback, 2))
    for logl in _representative(config.grid[ok], argmin):
        tri.components[1] = MapComponent(parents, 1, cache.non_bases, cache.mon_basis,
                                         *fits[float(logl)])
        push = tri.pushforward_ensemble(ensemble).data
        pull = tri.inverse(z_ref)
        clouds[float(logl)] = {"pushforward": push, "pullback": pull}

    return ProfileResult(table, clouds, argmin, float(reports[1].log_lambdas[0]), ensemble)


def _secant_start(path, logl):
    """Inner start at ``logl`` predicted from the fitted rows ``path``
    (newest first): the secant through the last two, the last one alone,
    or None (a cold start) when there is none."""
    if not path:
        return None
    (l1, r1), *older = path
    if not older:
        return r1
    l2, r2 = older[0]
    return r1 + (r1 - r2) * (logl - l1) / (l1 - l2)


def _representative(grid, argmin):
    """Five grid points: the ends, the argmin, and midpoints between."""
    idx_min = int(np.argmin(np.abs(grid - argmin)))
    picks = [0, idx_min // 2, idx_min,
             (idx_min + grid.size - 1) // 2, grid.size - 1]
    seen = []
    for i in picks:
        if grid[i] not in seen:
            seen.append(grid[i])
    return seen
