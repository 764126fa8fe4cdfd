"""Lorenz-63 twin experiments: transport filter vs. a stochastic EnKF baseline.

Observations of all three states arrive every 0.1 time units and are
assimilated one at a time. For each observed variable a sparse
four-variable map over (y, x_obs, x_other1, x_other2) is fitted from the
forecast ensemble plus perturbed observation predictions; conditioning on
the actual observation updates the three state variables while the two
unobserved ones never see y directly (conditional independence given the
observed state).
"""

import logging
from dataclasses import dataclass

import numpy as np

from .objective import FIT_FAILURES
from .splines import DegenerateDimensionError
from .tmap import Ensemble, MapFitConfig, _check_fields, fit

logger = logging.getLogger(__name__)

__all__ = ["Lorenz63Params", "FilterRunResult", "lorenz_rhs", "rk4_step",
           "run_filter", "linear_baseline_update"]

DIVERGENCE_RMSE = 100.0
METHODS = ("transport", "linear-baseline")
MIN_MEMBERS = 16

# model constants of the classical chaotic regime
SIGMA, BETA, RHO = 10.0, 8.0 / 3.0, 28.0


@dataclass
class Lorenz63Params:
    """Integration and experiment settings."""

    dt: float = 0.05
    obs_interval: float = 0.1
    obs_sigma: float = 0.25
    steps: int = 1000
    spinup: int = 250
    max_outer: int = 10   # outer smoothing steps per map component fit

    def __post_init__(self):
        _check_fields(self, steps=(0, np.inf), spinup=(0, np.inf), max_outer=(0, np.inf))
        for name in ("dt", "obs_interval", "obs_sigma"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, not {value!r}")
        ratio = self.obs_interval / self.dt
        if not np.isfinite(ratio):
            raise ValueError(f"obs_interval / dt must be finite, not {ratio!r}")
        if self.substeps < 1 or abs(ratio - self.substeps) > 1e-9:
            raise ValueError("obs_interval must be a positive integer multiple of dt")

    @property
    def substeps(self):
        return int(round(self.obs_interval / self.dt))


@dataclass
class FilterRunResult:
    """Per-run diagnostics of one twin experiment. ``mean_rmse`` is infinite
    for a diverged run and NaN for a run of zero steps. ``cause`` says why a
    run diverged, "" for a run that did not: the text of the error that
    stopped it, which names the failed component, or its non-finite or
    above-``DIVERGENCE_RMSE`` ensemble RMSE."""

    rmse_series: np.ndarray
    mean_rmse: float
    edf_fractions: np.ndarray   # (steps, 3) mean fraction per map component S2..S4
    diverged: bool
    seed: int
    steps_completed: int = 0
    cause: str = ""


def lorenz_rhs(state):
    """Right-hand side of the Lorenz-63 equations."""
    a, b, c = state[..., 0], state[..., 1], state[..., 2]
    return np.stack([SIGMA * (b - a), a * (RHO - c) - b, a * b - BETA * c], axis=-1)


def rk4_step(state, params):
    """One classical fourth-order Runge-Kutta step of ``params.dt`` on (..., 3) arrays."""
    state = np.asarray(state, dtype=float)
    if np.any(np.isnan(state)):
        raise FloatingPointError("NaN state: trajectory diverged")
    h = params.dt
    k1 = lorenz_rhs(state)
    k2 = lorenz_rhs(state + 0.5 * h * k1)
    k3 = lorenz_rhs(state + 0.5 * h * k2)
    k4 = lorenz_rhs(state + h * k3)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def ensemble_rmse(members, truth):
    """Mean over members of the per-member root-mean-square state error."""
    err = members - truth
    return float(np.mean(np.sqrt(np.mean(err ** 2, axis=1))))


def linear_baseline_update(members, y_obs, y_pred, obs_index):
    """Stochastic EnKF update for a scalar observation of one state variable;
    ``y_pred`` holds the members' perturbed predictions of that observation."""
    members = np.asarray(members, dtype=float)
    n = members.shape[0]
    var_y = np.var(y_pred, ddof=1)
    if var_y <= 0:
        if np.var(members[:, obs_index], ddof=1) == 0:
            return members.copy()   # zero spread: nothing to update
        raise np.linalg.LinAlgError("singular innovation covariance")
    anom_x = members - members.mean(axis=0)
    anom_y = y_pred - y_pred.mean()
    gain = (anom_x.T @ anom_y) / ((n - 1) * var_y)
    return members + np.outer(y_obs - y_pred, gain)


# variable orderings for the three per-cycle updates: observed variable first
_STATE_ORDERS = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]

# sparse 4-variable map over (y, x_obs, x_o1, x_o2); S3 and S4 skip y
_PARENT_SETS = [[], [0], [1], [1, 2]]


def transport_update(members, y_obs, y_pred, obs_index, max_outer, warm_lambdas=None):
    """Assimilate a scalar observation of one state variable with a sparse map.

    ``y_pred`` holds the members' perturbed predictions of the observation,
    the map's first variable. Each component fit accepts at most
    ``max_outer`` outer smoothing steps.
    Returns (updated members, FitReports of the three state components);
    the reports' log-lambdas warm-start the next update of this variable.
    """
    order = _STATE_ORDERS[obs_index]
    joint = np.column_stack([y_pred, members[:, order]])
    cfg = MapFitConfig(
        max_outer=max_outer,
        block_split=1,
        fit_upper=False,
        init_log_lambdas=[None] + list(warm_lambdas or [None, None, None]),
    )
    tri, reports = fit(Ensemble(joint), _PARENT_SETS, cfg)
    updated_block = tri.conditional_update(joint, np.array([y_obs]))[:, 1:]
    out = members.copy()
    out[:, order] = updated_block
    return out, reports[1:]


def run_filter(params, n_ensemble, seed, method="transport"):
    """Run one twin experiment and collect RMSE and complexity diagnostics.

    ``method`` is "transport" or "linear-baseline". Map fit failures are
    recorded as divergence; the run still returns a result.
    """
    if n_ensemble < MIN_MEMBERS:
        raise ValueError(f"need at least {MIN_MEMBERS} ensemble members")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    rng = np.random.default_rng(seed)

    truth = rng.standard_normal(3)
    members = rng.standard_normal((n_ensemble, 3))
    for _ in range(params.spinup):
        truth = rk4_step(truth, params)
        members = rk4_step(members, params)

    rmse = np.full(params.steps, np.nan)
    edf_frac = np.full((params.steps, 3), np.nan)
    diverged, cause = False, ""
    warm = [None, None, None]
    completed = 0
    for step in range(params.steps):
        for _ in range(params.substeps):
            truth = rk4_step(truth, params)
            members = rk4_step(members, params)
        y_all = truth + rng.normal(0.0, params.obs_sigma, size=3)
        fractions = []
        try:
            for v in range(3):
                y_pred = members[:, v] + rng.normal(0.0, params.obs_sigma, size=n_ensemble)
                if method == "transport":
                    members, reports = transport_update(
                        members, y_all[v], y_pred, v, params.max_outer, warm[v]
                    )
                    warm[v] = [r.log_lambdas for r in reports]
                    fractions.append([r.edf / (r.design.m + r.design.p) for r in reports])
                    del reports   # their designs are not held through the next fit
                else:
                    members = linear_baseline_update(members, y_all[v], y_pred, v)
        except (*FIT_FAILURES, RuntimeError, FloatingPointError,
                DegenerateDimensionError) as exc:
            logger.warning("seed %s step %d: %s; flagging divergence", seed, step, exc)
            diverged, cause = True, str(exc)
            break
        completed += 1
        if fractions:
            edf_frac[step] = np.mean(np.asarray(fractions), axis=0)
        r = ensemble_rmse(members, truth)
        rmse[step] = r
        if not np.isfinite(r) or r > DIVERGENCE_RMSE:
            diverged = True
            cause = f"ensemble RMSE {r} is not finite" if not np.isfinite(r) \
                else f"ensemble RMSE {r} above DIVERGENCE_RMSE = {DIVERGENCE_RMSE}"
            break
    mean_rmse = np.inf if diverged else float(rmse.mean()) if rmse.size else np.nan
    return FilterRunResult(
        rmse_series=rmse, mean_rmse=mean_rmse, edf_fractions=edf_frac,
        diverged=diverged, seed=seed, steps_completed=completed, cause=cause,
    )
