"""Triangular maps built from fitted spline components.

The map stores an affine standardization (median / scaled IQR) per
variable; components operate on standardized coordinates while all public
operations accept and return original units. Only lower-block components
are required for conditional updates, so fitting can start at the block
split.
"""

import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from .component import MapComponent
from .objective import LOG_LAMBDA_BOUNDS, DesignCache, adapt_lambdas
from .splines import DegenerateDimensionError, KnotVector, SplineBasis, make_knots

logger = logging.getLogger(__name__)

__all__ = ["Ensemble", "MapFitConfig", "TriangularMap", "fit", "permute_ensemble"]

FORMAT_VERSION = 1
# the entries to_dict writes for a map and for each fitted component
MAP_KEYS = ("dim", "names", "block_split", "center", "scale", "components")
COMPONENT_KEYS = ("parents", "own", "non_knots", "mon_knots", "degree", "beta_non",
                  "beta_mon_raw", "log_lambdas")

# IQR of the standard normal; dividing by IQR/this keeps N(0,1) data near unit scale
NORMAL_IQR = 1.3489795003921634


class Ensemble:
    """An n x d sample matrix with variable names."""

    def __init__(self, data, names=None):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError("ensemble data must be 2-d (members x variables)")
        if data.shape[0] < 8:
            raise ValueError("need at least 8 members")
        if not np.all(np.isfinite(data)):
            raise ValueError("ensemble contains non-finite entries")
        self.data = data
        self.names = _names(names, data.shape[1])
        if len(self.names) != data.shape[1]:
            raise ValueError("one name per variable required")

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def dim(self):
        return self.data.shape[1]


def _names(names, dim):
    """Variable names: a list of strings, or x0, x1, ... when ``names`` is None."""
    if names is None:
        return [f"x{j}" for j in range(dim)]
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ValueError(f"names must be a list of strings, not {names!r}")
    return list(names)


def permute_ensemble(ensemble, order):
    """Reorder variables; ordering matters for conditional independence."""
    order = list(order)
    if sorted(order) != list(range(ensemble.dim)):
        raise ValueError("order must be a permutation of the variable indices")
    return Ensemble(ensemble.data[:, order], [ensemble.names[j] for j in order])


def _is_int(value):
    """Whether ``value`` is an integer and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_keys(doc, keys, what):
    """ValueError naming the first of ``keys`` that the saved object ``doc`` lacks."""
    for key in keys:
        if key not in doc:
            raise ValueError(f"{what} has no {key!r} entry")


def _check_ranges(config, **bounds):
    """Raise ValueError naming the first field of ``config`` in ``bounds``
    whose value lies outside its closed (low, high) range; None passes."""
    for name, (low, high) in bounds.items():
        value = getattr(config, name)
        if value is not None and not low <= value <= high:
            raise ValueError(f"{name} must lie in [{low}, {high}], not {value!r}")


def _check_fields(config, **bounds):
    """Check the int and bool fields of dataclass ``config``, then ``bounds``
    as ``_check_ranges`` does. An int field takes Python and numpy ints but
    not bools, a bool field Python and numpy bools, and None passes where it
    is the default; ValueError names the first field that fails."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type not in (int, bool) or value is None and f.default is None:
            continue
        if not (_is_int(value) if f.type is int else isinstance(value, (bool, np.bool_))):
            raise ValueError(f"{f.name} must be {f.type.__name__}, not {value!r}")
    _check_ranges(config, **bounds)


@dataclass
class MapFitConfig:
    """Settings for fitting a triangular map."""

    num_real_knots: int = None          # override the cube-root knot rule
    adapt: bool = True
    monotone_log_lambda: float = None   # a value fixes the monotone block there
    init_log_lambda: float = 2.0
    max_outer: int = 50
    block_split: int = 0                # variables below this index form block a
    fit_upper: bool = True              # also fit block-a components
    init_log_lambdas: list = field(default_factory=list, repr=False)  # warm starts

    def __post_init__(self):
        _check_fields(self, num_real_knots=(2, np.inf), max_outer=(0, np.inf),
                      block_split=(0, np.inf), init_log_lambda=LOG_LAMBDA_BOUNDS,
                      monotone_log_lambda=LOG_LAMBDA_BOUNDS)
        low, high = LOG_LAMBDA_BOUNDS
        for start in self.init_log_lambdas:
            values = np.asarray([] if start is None else start, dtype=float)
            if not np.all((low <= values) & (values <= high)):
                raise ValueError(f"init_log_lambdas must lie in [{low}, {high}], not {start!r}")


@contextmanager
def _component_context(label):
    """Re-raise any error with its own type, its message prefixed by ``label``;
    an error whose type cannot be built from one message is re-raised as is."""
    try:
        yield
    except Exception as exc:
        try:
            labelled = type(exc)(f"{label}: {exc}")
        except TypeError:
            labelled = None
        if labelled is None:
            raise
        raise labelled from exc


def _validate_fit(parent_sets, dim, config):
    """Reject parent sets and a block split that no map of ``dim`` variables
    honours: component j's parents are distinct integers below j. ``config``
    is a ``MapFitConfig``, which checks its own ranges, or a loaded map."""
    _check_ranges(config, block_split=(0, dim))
    if len(parent_sets) != dim:
        raise ValueError(f"one parent set per variable required ({dim})")
    for j, parents in enumerate(parent_sets):
        for p in parents:
            if not _is_int(p) or not 0 <= p < j:
                raise ValueError(
                    f"component {j} lists parent {p!r}; parents must be integers below {j}"
                )
        if len(set(parents)) != len(parents):
            raise ValueError(f"component {j} lists a parent twice: {list(parents)}")


class TriangularMap:
    """Ordered map components with pushforward, pullback, and conditioning."""

    def __init__(self, components, center, scale, names=None, block_split=0):
        self.components = list(components)
        self.center = np.asarray(center, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        self.dim = self.center.size
        self.names = _names(names, self.dim)
        if not _is_int(block_split):
            raise ValueError(f"block_split must be an integer, not {block_split!r}")
        self.block_split = int(block_split)

    # -- helpers ------------------------------------------------------------

    def _rows(self, x, what="rows"):
        """``x`` as a float array of rows of every variable; ValueError naming
        ``what``, the expected and the given width otherwise."""
        x = np.asarray(x, dtype=float)
        width = x.shape[-1] if x.ndim else "a scalar"
        if width != self.dim:
            raise ValueError(f"{what} must have {self.dim} values, one per variable, "
                             f"not {width}")
        return x

    def _std(self, x):
        """Standardized values of rows of every variable given in original units."""
        return (self._rows(x) - self.center) / self.scale

    def _unstd(self, z, cols=slice(None)):
        """Original units of the standardized values of the variables ``cols``."""
        return z * self.scale[cols] + self.center[cols]

    def _observed_std(self, x_a_star):
        """Standardized block-a values; one finite value per block-a variable."""
        split = self.block_split
        x_a_star = np.asarray(x_a_star, dtype=float)
        if x_a_star.size != split:
            raise ValueError(f"x_a_star must have length {split}")
        if not np.all(np.isfinite(x_a_star)):
            raise ValueError(f"x_a_star must be finite, not {x_a_star.ravel().tolist()}")
        return (x_a_star - self.center[:split]) / self.scale[:split]

    def _component(self, j):
        comp = self.components[j]
        if comp is None:
            raise ValueError(f"component {j} was not fitted (upper block skipped)")
        return comp

    def _invert_from(self, rows_std, z_cols, first):
        """Fill columns ``first:`` of standardized rows so S_j(row) = z_cols[j - first]."""
        for j in range(first, self.dim):
            with _component_context(f"inversion failed in component {j}"):
                rows_std[:, j] = self._component(j).invert_many(rows_std, z_cols[j - first])
        return rows_std

    # -- evaluation ---------------------------------------------------------

    def pushforward(self, x):
        """z = S(x) for one state row or an (n, d) array of rows."""
        Z = np.atleast_2d(self._std(x))
        out = np.column_stack([self._component(j).eval_many(Z) for j in range(self.dim)])
        return out[0] if np.ndim(x) == 1 else out

    def pushforward_ensemble(self, ensemble):
        return Ensemble(self.pushforward(ensemble.data),
                        [f"z_{name}" for name in ensemble.names])

    def component_ddx(self, j, x):
        """dS_j/dx_j in original units for one row or an (n, d) array of rows."""
        return self._component(j).ddx(self._std(x)[..., j]) / self.scale[j]

    def log_pullback_density(self, x):
        """log pi(x) = sum_j [log phi(S_j(x)) + log dS_j/dx_j] for one row or an
        (n, d) array of rows; -inf where some dS_j/dx_j is nonpositive."""
        X = np.atleast_2d(x)
        D = np.column_stack([self.component_ddx(j, X) for j in range(self.dim)])
        terms = -0.5 * self.pushforward(X) ** 2 - 0.5 * np.log(2.0 * np.pi) \
            + np.log(np.where(D > 0, D, 1.0))
        # a running total over components: numpy's row sum regroups 8 or more terms
        total = np.where(np.all(D > 0, axis=1), sum(terms.T), -np.inf)
        return total[0] if np.ndim(x) == 1 else total

    def inverse(self, z):
        """x = S^{-1}(z) for one reference row or an (n, d) array of rows, by
        sequential solves in each component's own variable."""
        Z = np.atleast_2d(self._rows(z, "reference rows"))
        x = self._unstd(self._invert_from(np.zeros(Z.shape), Z.T, 0))
        return x[0] if np.ndim(z) == 1 else x

    # -- conditioning -------------------------------------------------------

    def conditional_update(self, members, x_a_star):
        """Replace block a by the observed values and re-invert block b.

        ``members`` is an (n, dim) array in original units; returns the
        updated array. Each member keeps its own latent block-b coordinate.
        """
        if np.ndim(members) != 2:
            raise ValueError(f"members must be an (n, {self.dim}) array, "
                             f"not of shape {np.shape(members)}")
        split = self.block_split
        za = self._observed_std(x_a_star)
        Z = self._std(members)
        zb = [self._component(j).eval_many(Z) for j in range(split, self.dim)]
        Z[:, :split] = za
        return self._unstd(self._invert_from(Z, zb, split))

    def sample_conditional(self, x_a_star, num, seed=None):
        """Draw block-b samples conditioned on block a = x_a_star."""
        split = self.block_split
        za = self._observed_std(x_a_star)
        zb = np.random.default_rng(seed).standard_normal((num, self.dim - split))
        Z = np.empty((num, self.dim))
        Z[:, :split] = za
        return self._unstd(self._invert_from(Z, zb.T, split)[:, split:], slice(split, None))

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        comps = []
        for comp in self.components:
            if comp is None:
                comps.append(None)
                continue
            comps.append({
                "parents": comp.parents,
                "own": comp.own,
                "non_knots": [b.knots.real.tolist() for b in comp.non_bases],
                "mon_knots": comp.mon_basis.knots.real.tolist(),
                "degree": comp.mon_basis.degree,
                "beta_non": comp.beta_non.tolist(),
                "beta_mon_raw": comp.beta_mon_raw.tolist(),
                "log_lambdas": None if comp.log_lambdas is None
                else comp.log_lambdas.tolist(),
            })
        return {
            "format_version": FORMAT_VERSION,
            "dim": self.dim,
            "names": self.names,
            "block_split": self.block_split,
            "center": self.center.tolist(),
            "scale": self.scale.tolist(),
            "components": comps,
        }

    @classmethod
    def from_dict(cls, doc):
        """Map saved by ``to_dict``. Raises ValueError when an entry is missing,
        when the sizes, the block split, a component's own variable or its
        parents do not fit together, or when the names, block split, center,
        scale, components, an own variable, a parent or knot list, a degree,
        a knot, a coefficient or the smoothing parameters are of the wrong
        type or out of their range."""
        if doc.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported map format version {doc.get('format_version')}")
        _require_keys(doc, MAP_KEYS, "saved map")
        if not isinstance(doc["components"], list):
            raise ValueError(f"saved map components must be a list, not {doc['components']!r}")
        comps = []
        for j, cd in enumerate(doc["components"]):
            if cd is None:
                comps.append(None)
                continue
            if not isinstance(cd, dict):
                raise ValueError(f"component {j} must be null or an object, not {cd!r}")
            _require_keys(cd, COMPONENT_KEYS, f"component {j}")
            if not _is_int(cd["own"]) or cd["own"] != j:
                raise ValueError(f"component {j} is saved with own variable {cd['own']!r}")
            for key in ("parents", "non_knots"):
                if not isinstance(cd[key], list):
                    raise ValueError(f"component {j} {key} must be a list, not {cd[key]!r}")
            degree = cd["degree"]
            if not _is_int(degree) or degree < 0:
                raise ValueError(f"component {j} degree must be a non-negative integer, "
                                 f"not {degree!r}")
            non_bases = [SplineBasis(KnotVector(np.array(k), degree))
                         for k in cd["non_knots"]]
            mon_basis = SplineBasis(KnotVector(np.array(cd["mon_knots"]), degree))
            comps.append(MapComponent(
                cd["parents"], cd["own"], non_bases, mon_basis,
                np.array(cd["beta_non"]), np.array(cd["beta_mon_raw"]),
                None if cd["log_lambdas"] is None else np.array(cd["log_lambdas"]),
            ))
        tri = cls(comps, np.array(doc["center"]), np.array(doc["scale"]),
                  doc["names"], doc["block_split"])
        if not doc["dim"] == tri.dim == tri.scale.size == len(tri.names) == len(comps):
            raise ValueError(f"saved map sizes disagree: dim {doc['dim']!r}, {tri.dim} centers, "
                             f"{tri.scale.size} scales, {len(tri.names)} names, "
                             f"{len(comps)} components")
        if not np.all(np.isfinite(tri.center)):
            raise ValueError(f"saved map center must be finite, not {doc['center']!r}")
        if not np.all(np.isfinite(tri.scale) & (tri.scale > 0)):
            raise ValueError(f"saved map scale must be finite and positive, not {doc['scale']!r}")
        _validate_fit([[] if c is None else c.parents for c in comps], tri.dim, tri)
        return tri

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _standardization(data):
    center = np.median(data, axis=0)
    iqr = np.quantile(data, 0.75, axis=0) - np.quantile(data, 0.25, axis=0)
    scale = iqr / NORMAL_IQR
    fallback = np.std(data, axis=0)
    scale = np.where(scale > 0, scale, np.where(fallback > 0, fallback, 1.0))
    return center, scale


def fit(ensemble, parent_sets, config=None):
    """Fit a triangular map with per-component smoothing adaptation.

    Parameters
    ----------
    ensemble : Ensemble
    parent_sets : list of list of int
        Parent indices per component; component j may only list indices < j.
    config : MapFitConfig, optional

    Returns
    -------
    (TriangularMap, list of FitReport)
        Reports are None for skipped upper-block components.
    """
    config = config or MapFitConfig()
    _validate_fit(parent_sets, ensemble.dim, config)
    warm = config.init_log_lambdas
    if warm and len(warm) != ensemble.dim:
        raise ValueError(f"init_log_lambdas needs one entry per variable ({ensemble.dim}), "
                         f"not {len(warm)}")
    for j, start in enumerate(warm):
        blocks = len(parent_sets[j]) + 1
        if start is not None and np.shape(start) != (blocks,):
            raise ValueError(f"init_log_lambdas[{j}] needs one entry per block ({blocks}), "
                             f"not {start!r}")
    tri = TriangularMap([None] * ensemble.dim, *_standardization(ensemble.data),
                        ensemble.names, config.block_split)
    Z = tri._std(ensemble.data)
    first = 0 if config.fit_upper else config.block_split
    reports = [None] * ensemble.dim
    bases, tables = {}, {}
    for j in range(first, ensemble.dim):
        with _component_context(f"fit of component {j} ({ensemble.names[j]}) failed"):
            cache, kept_parents = _component_design(Z, j, parent_sets[j], config, bases,
                                                    tables)
            logl0 = np.full(cache.num_blocks, config.init_log_lambda)
            if warm and warm[j] is not None:
                # a dropped parent drops its entry of the warm start too
                kept = [k for k, p in enumerate(parent_sets[j]) if p in kept_parents]
                logl0 = np.asarray(warm[j], dtype=float)[kept + [len(parent_sets[j])]]
            mask = np.full(cache.num_blocks, config.adapt)
            if config.monotone_log_lambda is not None:
                logl0[-1] = config.monotone_log_lambda
                mask[-1] = False
            reports[j] = adapt_lambdas(cache, logl0, mask, config.max_outer)[1]
            tri.components[j] = MapComponent(kept_parents, j, cache.non_bases, cache.mon_basis,
                                             *_fitted(reports[j]))
    return tri, reports


def _component_design(Z, j, parents, config, bases, tables):
    """DesignCache and kept parents of component j on standardized Z.

    ``bases`` holds, per variable of Z read so far in this map fit, its
    basis or the DegenerateDimensionError of its constant column, and
    ``tables`` each such basis's table on that column, so the components
    that read a variable share one basis and one table. A constant own
    variable raises that error; constant parents are dropped with a warning.
    """
    def basis(v):
        if v not in bases:
            try:
                bases[v] = SplineBasis(make_knots(Z[:, v], num_real_knots=config.num_real_knots))
            except DegenerateDimensionError as exc:
                bases[v] = exc
        return bases[v]

    mon_basis = basis(j)
    if isinstance(mon_basis, DegenerateDimensionError):
        raise mon_basis
    kept_parents = []
    for p in parents:
        if isinstance(basis(p), DegenerateDimensionError):
            logger.warning("dropping constant parent %d of component %d", p, j)
        else:
            kept_parents.append(p)
    cache = DesignCache([bases[p] for p in kept_parents], [Z[:, p] for p in kept_parents],
                        mon_basis, Z[:, j], tables=tables)
    return cache, kept_parents


def _fitted(report):
    """``(beta_non, r_hat, log_lambdas)`` at the point a ``FitReport`` carries."""
    profile, r_hat, _ = report.point
    return -profile.D @ r_hat, r_hat, report.log_lambdas.copy()

