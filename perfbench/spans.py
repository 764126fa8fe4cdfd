"""Per-layer tracing of pstransport from outside the library.

A ``Tracer`` replaces public functions and methods of the library with
wrappers that record one span per call: name, start, end, the span that
was open when the call began, and a row count. Spans stay in memory
until ``save`` writes them out. ``uninstall`` puts every original back.

Functions are replaced at every binding site: the defining module and
every ``pstransport`` module that imported the same object by name (for
example ``tmap.adapt_lambdas`` or ``lorenz63.fit``). Methods are replaced
on their class.
"""

import functools
import inspect
import json
import sys
import time

import numpy as np

__all__ = ["Tracer", "TRACED", "layer_metrics"]

PACKAGE = "pstransport"


def _rows_first(args, kwargs):
    """Row count of the first argument after ``self``."""
    return int(np.size(args[1])) if len(args) > 1 else 0


def _rows_second(args, kwargs):
    """Row count of the second argument after ``self``."""
    return int(np.size(args[2])) if len(args) > 2 else 0


# (span name, module, owner inside the module or None, attribute, row counter)
TRACED = [
    ("splines.eval", "splines", "SplineBasis", "eval", _rows_first),
    ("splines.eval_deriv", "splines", "SplineBasis", "eval_deriv", _rows_first),
    ("objective.DesignCache", "objective", "DesignCache", "__init__", None),
    ("objective.profile_operators", "objective", "DesignCache", "profile_operators", None),
    ("objective.fit_inner", "objective", None, "fit_inner", None),
    ("objective.edf", "objective", None, "edf", None),
    ("objective.solve_non_closed_form", "objective", None, "solve_non_closed_form", None),
    ("objective.outer_objective", "objective", None, "outer_objective", None),
    ("objective.outer_gradient", "objective", None, "outer_gradient", None),
    ("objective.adapt_lambdas", "objective", None, "adapt_lambdas", None),
    ("component.eval_many", "component", "MapComponent", "eval_many", _rows_first),
    ("component.invert_many", "component", "MapComponent", "invert_many", _rows_second),
    ("component.invert_in_last", "component", "MapComponent", "invert_in_last", None),
    ("tmap.fit", "tmap", None, "fit", None),
    ("tmap.pushforward_ensemble", "tmap", "TriangularMap", "pushforward_ensemble", None),
    ("tmap.inverse", "tmap", "TriangularMap", "inverse", None),
    ("tmap.conditional_update", "tmap", "TriangularMap", "conditional_update", None),
    ("tmap.sample_conditional", "tmap", "TriangularMap", "sample_conditional", None),
    ("lorenz63.run_filter", "lorenz63", None, "run_filter", None),
    ("lorenz63.transport_update", "lorenz63", None, "transport_update", None),
    ("lorenz63.rk4_step", "lorenz63", None, "rk4_step", None),
    ("wavy.profile_lambda", "wavy", None, "profile_lambda", None),
]


class Tracer:
    """Spans of wrapped library calls, kept in memory.

    ``observed`` maps a span index to what the wrapper kept of that call:
    the log-lambdas of an ``outer_gradient`` call, or the ``max_outer``,
    returned log-lambdas and ``FitReport`` of an ``adapt_lambdas`` call.
    """

    def __init__(self):
        self.names = [entry[0] for entry in TRACED]
        self.name_id, self.parent, self.start, self.end, self.rows = [], [], [], [], []
        self.observed = {}
        self._stack = []
        self._patches = []

    def _wrap(self, nid, fn, rows, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.rows.append(rows(args, kwargs) if rows else 0)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if observe is not None:
                observe(idx, args, kwargs, out)
            return out

        return wrapper

    def _observe_gradient(self, idx, args, kwargs, out):
        log_lambdas = kwargs.get("log_lambdas", args[1] if len(args) > 1 else None)
        self.observed[idx] = np.array(log_lambdas, dtype=float)

    def _observer_adapt(self, fn):
        signature = inspect.signature(fn)

        def observe(idx, args, kwargs, out):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            logl, report, _ = out
            self.observed[idx] = (int(bound.arguments["max_outer"]),
                                  np.array(logl, dtype=float), report)

        return observe

    def install(self):
        """Wrap every traced callable at each of its binding sites."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for nid, (name, short, owner, attr, rows) in enumerate(TRACED):
            module = sys.modules[f"{PACKAGE}.{short}"]
            observe = None
            if attr == "outer_gradient":
                observe = self._observe_gradient
            if owner is not None:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(nid, original, rows, observe))
                continue
            original = getattr(module, attr)
            if attr == "adapt_lambdas":
                observe = self._observer_adapt(original)
            wrapper = self._wrap(nid, original, rows, observe)
            sites = [(m, key) for m in modules
                     for key, value in vars(m).items() if value is original]
            for m, key in sites:
                self._patches.append((m, key, original))
                setattr(m, key, wrapper)

    def uninstall(self):
        """Put every original callable back, last patch first."""
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches = []

    def arrays(self):
        """Spans as numpy arrays: name id, parent index, start, end, rows."""
        return (np.asarray(self.name_id, dtype=np.int32),
                np.asarray(self.parent, dtype=np.int64),
                np.asarray(self.start, dtype=float),
                np.asarray(self.end, dtype=float),
                np.asarray(self.rows, dtype=np.int64))

    def save(self, path, summary):
        """Write the spans (``.npz``) and a JSON summary next to them."""
        name_id, parent, start, end, rows = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path.with_suffix(".npz"), names=np.array(self.names),
                 name_id=name_id, parent=parent, start=start, end=end, rows=rows)
        path.with_suffix(".json").write_text(json.dumps(summary, indent=1) + "\n")


def layer_metrics(tracer):
    """Per-layer counts and times from the recorded spans.

    Self time is a span's duration minus the durations of its direct
    child spans. Outer-loop statistics come from the ``adapt_lambdas``
    spans: an outer step was accepted when ``adapt_lambdas`` moved on to
    a new point, which shows as a further ``outer_gradient`` call or as
    returned log-lambdas that differ from the last gradient point.
    """
    name_id, parent, start, end, rows = tracer.arrays()
    k = len(tracer.names)
    dur = end - start
    child = parent >= 0
    child_time = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    self_time = dur - child_time
    calls = np.bincount(name_id, minlength=k)
    self_s = np.bincount(name_id, weights=self_time, minlength=k)
    incl_s = np.bincount(name_id, weights=dur, minlength=k)
    row_sum = np.bincount(name_id, weights=rows, minlength=k)
    nid = {name: i for i, name in enumerate(tracer.names)}

    def p50(name):
        d = dur[name_id == nid[name]]
        return float(np.median(d)) if d.size else 0.0

    # attribute every span to the adapt_lambdas call it runs under, if any
    adapt = nid["objective.adapt_lambdas"]
    owner = np.full(name_id.size, -1, dtype=np.int64)
    for i in range(name_id.size):
        if name_id[i] == adapt:
            owner[i] = i
        elif parent[i] >= 0:
            owner[i] = owner[parent[i]]
    fits = np.nonzero(name_id == adapt)[0]
    under = owner >= 0
    outer_evals = np.bincount(owner[under & (name_id == nid["objective.outer_objective"])],
                              minlength=name_id.size)
    profile_ops = int(np.sum(under & (name_id == nid["objective.profile_operators"])))
    accepted, capped, grad_norms, inner_iters = 0, 0, [], []
    gradient = nid["objective.outer_gradient"]
    for f in fits:
        max_outer, logl, report = tracer.observed[f]
        grads = np.nonzero((parent == f) & (name_id == gradient))[0]
        if grads.size:
            moved_last = not np.array_equal(logl, tracer.observed[grads[-1]])
            accepted += grads.size - 1 + int(moved_last)
        capped += int(report.outer_iters >= max_outer)
        if np.isfinite(report.grad_norm):
            grad_norms.append(report.grad_norm)
        inner_iters.append(report.inner_iters)
    n_fits = max(fits.size, 1)
    total_outer = int(outer_evals[fits].sum()) if fits.size else 0

    def c(name):
        return int(calls[nid[name]])

    def s(name):
        return float(self_s[nid[name]])

    metrics = {
        "splines.eval.calls": c("splines.eval"),
        "splines.eval.rows": int(row_sum[nid["splines.eval"]]),
        "splines.eval.self_s": s("splines.eval"),
        "splines.eval_deriv.calls": c("splines.eval_deriv"),
        "splines.eval_deriv.self_s": s("splines.eval_deriv"),
        "objective.DesignCache.calls": c("objective.DesignCache"),
        "objective.DesignCache.self_s": s("objective.DesignCache"),
        "objective.profile_operators.calls": c("objective.profile_operators"),
        "objective.profile_operators.self_s": s("objective.profile_operators"),
        "objective.profile_operators.per_fit": profile_ops / n_fits,
    }
    for short in ("fit_inner", "edf", "outer_objective", "outer_gradient"):
        metrics[f"objective.{short}.calls"] = c(f"objective.{short}")
        metrics[f"objective.{short}.self_s"] = s(f"objective.{short}")
    metrics.update({
        "objective.adapt_lambdas.calls": int(fits.size),
        "objective.adapt_lambdas.incl_s": float(incl_s[adapt]),
        "objective.outer_evals_per_fit": total_outer / n_fits,
        "objective.outer_accept_ratio": accepted / max(total_outer, 1),
        "objective.outer_cap_frac": capped / n_fits,
        "objective.grad_norm_p50": float(np.median(grad_norms)) if grad_norms else 0.0,
        "objective.inner_iters_p50": float(np.median(inner_iters)) if inner_iters else 0.0,
        "component.invert_many.calls": c("component.invert_many"),
        "component.invert_many.rows": int(row_sum[nid["component.invert_many"]]),
        "component.invert_many.self_s": s("component.invert_many"),
        "component.eval_many.calls": c("component.eval_many"),
        "component.eval_many.self_s": s("component.eval_many"),
        "component.invert_in_last.calls": c("component.invert_in_last"),
        "component.invert_in_last.self_s": s("component.invert_in_last"),
        "tmap.inverse.calls": c("tmap.inverse"),
        "tmap.inverse.self_s": s("tmap.inverse"),
        "tmap.fit.calls": c("tmap.fit"),
        "tmap.fit.p50_s": p50("tmap.fit"),
        "tmap.conditional_update.calls": c("tmap.conditional_update"),
        "tmap.conditional_update.self_s": s("tmap.conditional_update"),
        "tmap.sample_conditional.calls": c("tmap.sample_conditional"),
        "tmap.sample_conditional.self_s": s("tmap.sample_conditional"),
        "lorenz63.transport_update.p50_s": p50("lorenz63.transport_update"),
        "lorenz63.rk4_step.self_s": s("lorenz63.rk4_step"),
    })
    return metrics
